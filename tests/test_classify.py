import hashlib
import json
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import measure_lab.classify as classify_module
from measure_lab.algebraic import make_pisot, qbeta_nearest_floats
from measure_lab.automaton import LabeledAutomaton, parse_automaton, serialize_automaton
from measure_lab.classify import (
    FiniteImageResult,
    atoms,
    classify,
    finite_image_test,
    verdict_to_dict,
)
from measure_lab.errors import NotPrimitive, NotStronglyConnected, PrecisionExhausted
from measure_lab.fourier import ScanEntry, ScanResult, rajchman_scan
from measure_lab.parry import perron, start_distribution
from measure_lab.zero_automaton import build_zero_automaton

from helpers import (
    PISOT_BASES,
    beta_int_from_name,
    nearest_double_reference,
    pisot,
    ref_finite_image_test,
    reference_sample_many,
    strongly_connected_automata,
    zero_automaton,
    zero_subautomata,
)


def gamma_7edge():
    with mp.workprec(120):
        return float(mp.findroot(lambda x: x**3 - x**2 - 2, 1.7))


def tribonacci_constant():
    with mp.workprec(120):
        return float(mp.findroot(lambda x: x**3 - x**2 - x - 1, 1.8))


def two_loop_automaton():
    return parse_automaton(
        {"alphabet": [0, 1], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 0},
                   {"from": "s", "to": "s", "label": 1}]}
    )


# ---------------------------------------------------------------- finite image

def test_zero_automata_have_identity_value_map(golden, tribonacci):
    for p in (golden, tribonacci):
        a = build_zero_automaton(p, [0, 1, -1])
        result = finite_image_test(a, p)
        assert result.ok
        for name, value in result.c_map.items():
            coords = beta_int_from_name(name, p)
            assert value == tuple(Fraction(c) for c in coords)


def test_two_loops_witness(golden):
    result = finite_image_test(two_loop_automaton(), golden)
    assert not result.ok
    assert result.witness is not None


def test_single_loop_geometric_value(base_two):
    a = parse_automaton(
        {"alphabet": [1], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 1}]}
    )
    result = finite_image_test(a, base_two)
    assert result.ok
    assert result.c_map["s"] == (Fraction(1),)  # sum 2^-k = 1


def test_not_strongly_connected_rejected(golden):
    a = parse_automaton(
        {"alphabet": [0], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "p", "label": 0},
                   {"from": "q", "to": "q", "label": 0}]}
    )
    with pytest.raises(NotStronglyConnected):
        finite_image_test(a, golden)


# ---------------------------------------------------------------- atoms

def test_atoms_example1_7edge(automata, pisots, perron_data):
    a, p, pd = automata["example1-7edge"], pisots["example1-7edge"], perron_data["example1-7edge"]
    atom_list = atoms(a, p, pd)
    values = sorted(at.value_decimal for at in atom_list)
    phi = (1 + math.sqrt(5)) / 2
    expected_values = sorted([0.0, 1.0, -1.0, phi - 1, 1 - phi])
    assert np.allclose(values, expected_values, atol=1e-12)
    g = gamma_7edge()
    by_value = {round(at.value_decimal, 9): at.mass for at in atom_list}
    assert abs(by_value[0.0] - g**3 / (g**3 + 4)) < 1e-9
    for v in (1.0, -1.0, round(phi - 1, 9), round(1 - phi, 9)):
        assert abs(by_value[v] - 1 / (g**3 + 4)) < 1e-9
    assert abs(sum(at.mass for at in atom_list) - 1) < 1e-10


def test_atoms_example1_9edge(automata, pisots, perron_data):
    atom_list = atoms(
        automata["example1-9edge"], pisots["example1-9edge"], perron_data["example1-9edge"]
    )
    t = tribonacci_constant()
    denom = (t**2 - 1) ** 2 + 4 * t
    by_value = {round(at.value_decimal, 9): at.mass for at in atom_list}
    assert abs(by_value[0.0] - (t**2 - 1) ** 2 / denom) < 1e-9
    assert abs(by_value[1.0] - t / denom) < 1e-9
    assert abs(sum(at.mass for at in atom_list) - 1) < 1e-10


def test_single_atom_mass_one(base_two):
    a = parse_automaton(
        {"alphabet": [1], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 1}]}
    )
    pd = perron(a)
    atom_list = atoms(a, base_two, pd)
    assert len(atom_list) == 1
    assert atom_list[0].value_decimal == pytest.approx(1.0)
    assert atom_list[0].mass == pytest.approx(1.0)


# ---------------------------------------------------------------- classify

def test_fibonacci_continuous_inconclusive(automata, pisots):
    verdict = classify(automata["fibonacci"], pisots["fibonacci"], scan_height=2)
    assert verdict.kind == "continuous"
    assert verdict.evidence["type"] == "inconclusive"
    assert verdict.evidence["scan_max_abs"] < 1e-6


def test_dimension_shortcut(base_three):
    verdict = classify(two_loop_automaton(), base_three)
    assert verdict.kind == "continuous"
    assert verdict.evidence["type"] == "singular_by_dimension"
    assert verdict.evidence["dimension_bound"] < 1


def test_two_loops_golden_singular_by_fourier(golden):
    verdict = classify(two_loop_automaton(), golden, scan_height=1)
    assert verdict.kind == "continuous"
    assert verdict.evidence["type"] == "singular_by_fourier"
    assert verdict.evidence["psi_hat_abs"] > 1e-4


def test_submodule_import_binds_the_module():
    # The package root binds no function over its submodule's name.
    assert isinstance(classify_module, types.ModuleType)
    assert classify_module.rajchman_scan is rajchman_scan


@pytest.mark.parametrize("bound, expected", [(0.6, "inconclusive"), (0.4, "singular_by_fourier")])
def test_fourier_evidence_needs_its_bound(golden, monkeypatch, bound, expected):
    # |psi-hat| = 0.5 clears the 1e-4 threshold; only a bound below it
    # certifies the coefficient nonzero.
    entry = ScanEntry(z_coords=(1, 0), value=0.5 + 0j, bound=bound)
    monkeypatch.setattr(
        classify_module, "rajchman_scan",
        lambda *args, **kwargs: ScanResult(1, (entry,), 0.5, (1, 0)),
    )
    verdict = classify(two_loop_automaton(), golden, scan_height=1)
    assert verdict.evidence["type"] == expected
    assert verdict.evidence.get("psi_hat_abs", verdict.evidence.get("scan_max_abs")) == 0.5


def test_fig3_singular_by_fourier(automata, pisots):
    verdict = classify(automata["fig3"], pisots["fig3"], scan_height=1)
    assert verdict.kind == "continuous"
    assert verdict.evidence["type"] == "singular_by_fourier"
    assert verdict.evidence["psi_hat_abs"] > 1e-3


def test_zero_automata_classify_atomic(golden, base_two):
    for p, alphabet in ((golden, [0, 1, -1]), (base_two, [0, 1])):
        a = build_zero_automaton(p, alphabet)
        verdict = classify(a, p)
        assert verdict.kind == "atomic"
        assert len(verdict.atoms) <= a.n_states
        assert abs(sum(at.mass for at in verdict.atoms) - 1) < 1e-10


def test_classify_requires_primitive(golden):
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "q", "label": 0},
                   {"from": "q", "to": "p", "label": 1}]}
    )
    with pytest.raises(NotPrimitive):
        classify(a, golden)


def test_verdict_serialization(automata, pisots):
    verdict = classify(automata["example1-7edge"], pisots["example1-7edge"])
    doc = verdict_to_dict(verdict)
    assert doc["kind"] == "atomic"
    assert len(doc["atoms"]) == 5
    assert all(set(at) == {"value_coords", "value_decimal", "mass", "states"}
               for at in doc["atoms"])

    verdict = classify(automata["fibonacci"], pisots["fibonacci"], scan_height=1)
    doc = verdict_to_dict(verdict)
    assert doc["kind"] == "continuous"
    assert "edge" in doc["witness"]


# ---------------------------------------------------------------- properties

def test_scaling_equivariance(automata, pisots, perron_data):
    base = automata["example1-7edge"]
    p = pisots["example1-7edge"]
    scaled = LabeledAutomaton(
        states=base.states,
        alphabet=tuple(sorted(3 * a for a in base.alphabet)),
        edges=tuple((s, t, 3 * l) for s, t, l in base.edges),
        initial=base.initial,
        terminal=base.terminal,
    )
    atoms_base = atoms(base, p, perron_data["example1-7edge"])
    atoms_scaled = atoms(scaled, p, perron(scaled))
    scaled_map = {
        tuple(3 * c for c in at.value): at.mass for at in atoms_base
    }
    for at in atoms_scaled:
        assert at.value in scaled_map
        assert abs(at.mass - scaled_map[at.value]) < 1e-10


def test_monte_carlo_matches_atom_masses(automata, pisots, perron_data):
    a, p, pd = automata["example1-7edge"], pisots["example1-7edge"], perron_data["example1-7edge"]
    atom_list = atoms(a, p, pd)
    value_by_state = {}
    result = finite_image_test(a, p)
    idx = a.state_index()
    for name, value in result.c_map.items():
        value_by_state[idx[name]] = value
    states, _ = reference_sample_many(pd, a, n_runs=20000, length=1, seed=17)
    for at in atom_list:
        hit_states = [i for i, v in value_by_state.items() if v == at.value]
        freq = float(np.isin(states[:, 0], hit_states).mean())
        sigma = math.sqrt(at.mass * (1 - at.mass) / 20000)
        assert abs(freq - at.mass) < 4 * sigma + 1e-3


# ------------------------------------------------ integer finite-image test

@settings(max_examples=60, deadline=None)
@given(case=zero_subautomata())
def test_integer_test_matches_fraction_oracle_on_zero_subautomata(case):
    a, p, edited = case
    got = finite_image_test(a, p)
    assert (got.ok, got.c_map, got.witness) == ref_finite_image_test(a, p)
    assert got.ok or edited


@settings(max_examples=60, deadline=None)
@given(case=strongly_connected_automata())
def test_integer_test_matches_fraction_oracle_on_random_automata(case):
    a, p = case
    got = finite_image_test(a, p)
    assert (got.ok, got.c_map, got.witness) == ref_finite_image_test(a, p)


@settings(max_examples=40, deadline=None)
@given(case=zero_subautomata())
def test_atom_masses_sum_to_one(case):
    a, p, _ = case
    image = finite_image_test(a, p)
    if not image.ok:
        return
    atom_list = atoms(a, p, perron(a), image)
    assert abs(sum(at.mass for at in atom_list) - 1) <= 1e-12
    assert sorted(s for at in atom_list for s in at.states) == sorted(a.states)


# ------------------------------------------------ value_decimal


def nearest_floats(xs, p):
    """qbeta_nearest_floats of Fraction tuples, written as integer
    numerators over the lcm of every denominator."""
    den = math.lcm(*(c.denominator for x in xs for c in x))
    return qbeta_nearest_floats([tuple(int(c * den) for c in x) for x in xs], den, p)

@settings(max_examples=40, deadline=None)
@given(case=zero_subautomata())
def test_atom_value_decimal_is_nearest_double(case):
    a, p, _ = case
    image = finite_image_test(a, p)
    if not image.ok:
        return
    atom_list = atoms(a, p, perron(a), image)
    decided = nearest_floats([at.value for at in atom_list], p)
    for at, value in zip(atom_list, decided):
        assert at.value_decimal == value == nearest_double_reference(at.value, p.minpoly)


coordinate = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decided_nearest_floats_match_400_bit_reference(data):
    minpoly = data.draw(st.sampled_from(PISOT_BASES))
    p = pisot(minpoly)
    r = p.degree
    xs = [tuple(data.draw(st.lists(coordinate, min_size=r, max_size=r))) for _ in range(4)]
    for x, value in zip(xs, nearest_floats(xs, p)):
        assert value == nearest_double_reference(x, minpoly), x


def fibonacci_pair(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b  # F_n, F_(n+1)


def test_undecided_value_escalates_to_the_nearest_double(golden, monkeypatch):
    # F_151 - F_150 beta = (-1/beta)^150 is about 4.5e-32, far below the
    # 160-bit fixed-point error of coordinates near 2^104, so only a finer
    # enclosure decides it.
    f_n, f_next = fibonacci_pair(150)
    tiny = (Fraction(f_next), Fraction(-f_n))
    ordinary = (Fraction(1, 3), Fraction(2, 7))
    expected = [nearest_double_reference(x, golden.minpoly) for x in (tiny, ordinary)]
    with mp.workprec(200):
        assert expected[0] == float((2 / (1 + mp.sqrt(5))) ** 150) != 0
    assert nearest_floats([tiny, ordinary], golden) == expected
    single = parse_automaton(
        {"alphabet": [0], "states": ["s"], "edges": [{"from": "s", "to": "s", "label": 0}]}
    )
    image = FiniteImageResult(ok=True, numerators={"s": (f_next, -f_n)}, denominator=1, witness=None)
    (atom,) = atoms(single, golden, perron(single), image)
    assert atom.value_decimal == expected[0]
    # 160 bits leave it undecided, so a cap there exhausts the precision
    monkeypatch.setenv("MEASURE_LAB_PRECISION_CAP", "160")
    assert nearest_floats([ordinary], golden) == expected[1:]
    with pytest.raises(PrecisionExhausted):
        nearest_floats([tiny], golden)


# Captured from the Fraction-based atoms of earlier releases: a digest of
# [value_coords, repr(value_decimal)] in report order, plus sample rows.
ZERO_AUTOMATON_ATOMS = {
    (-1, -1, 0, 1): (179, "6c436e4bf7cd8fce67b6d69fb52606d7b8dfb2d1c3913b9638bd700353e4d3a1", {
        0: (["-3", "0", "0"], -3.0),
        1: (["1", "-3", "0"], -2.974153871734238),
        44: (["-2", "-1", "1"], -1.5698402909980533),
        89: (["0", "0", "0"], 0.0),
        177: (["-1", "3", "0"], 2.974153871734238),
    }),
    (-1, 0, 0, -1, 1): (1253, "d6741368147550f43d781969e464db30aeab4b71a46b7001f882b24ce1123999", {
        0: (["0", "-4", "-4", "4"], -2.623142440388394),
        1: (["5", "0", "-4", "0"], -2.6206646710160757),
        313: (["1", "0", "-4", "2"], -1.3613484175070065),
        626: (["0", "0", "0", "0"], 0.0),
        1252: (["0", "4", "4", "-4"], 2.623142440388394),
    }),
}


@pytest.mark.parametrize("minpoly", list(ZERO_AUTOMATON_ATOMS))
def test_zero_automaton_atoms_golden(minpoly):
    count, digest, samples = ZERO_AUTOMATON_ATOMS[minpoly]
    p = make_pisot(minpoly)
    a = build_zero_automaton(p, [-1, 0, 1])
    assert a.n_states == count
    rows = [[[str(c) for c in at.value], repr(at.value_decimal)]
            for at in atoms(a, p, perron(a))]
    for i, (coords, decimal) in samples.items():
        assert rows[i] == [coords, repr(decimal)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


# ------------------------------------------------ the walk on integer arrays

def golden_cycle(n=200, changed=None):
    """n states on a cycle s0 -> s1 -> ... -> s0 labelled 1, and a loop
    labelled 1 on every state but s0.  On the golden base every cycle
    value is 1/(beta - 1) = beta, and the closing cycle's beta^n - 1 puts
    the denominator near beta^(n/2): past 2^63 at n = 200 (at n = 120 it
    is 7,740,043,779,600).  ``changed`` relabels that state's loop 0."""
    states = [f"s{i}" for i in range(n)]
    edges = [{"from": states[i], "to": states[(i + 1) % n], "label": 1} for i in range(n)]
    edges += [{"from": s, "to": s, "label": int(i != changed)} for i, s in enumerate(states) if i]
    return parse_automaton({"alphabet": [0, 1], "states": states, "edges": edges})


def walk_dtypes(monkeypatch) -> list:
    """The array dtype of every companion step the later finite-image tests
    take, in call order: one per BFS level, then the edge check."""
    chosen, real = [], classify_module.bint_mul_beta_rows

    def recorded(x, minpoly):
        chosen.append(x.dtype)
        return real(x, minpoly)

    monkeypatch.setattr(classify_module, "bint_mul_beta_rows", recorded)
    return chosen


def object_walk(a, p, monkeypatch):
    """The finite-image test with every step on Python ints (object arrays)."""
    with monkeypatch.context() as m:
        m.setattr(classify_module, "int64_step_limit", lambda letters, minpoly: -1)
        return finite_image_test(a, p)


def test_cycle_past_int64_walks_python_ints(golden, monkeypatch):
    chosen = walk_dtypes(monkeypatch)
    result = finite_image_test(golden_cycle(), golden)
    assert set(chosen) == {np.dtype(object)} and result.denominator > 2**63
    assert result.ok and set(result.c_map.values()) == {(Fraction(0), Fraction(1))}
    # one loop labelled 0: beta*beta - 0 is not beta
    variant = golden_cycle(changed=90)
    got = finite_image_test(variant, golden)
    assert (got.ok, got.c_map, got.witness) == ref_finite_image_test(variant, golden)
    assert got.witness == ("s90", 0, "s90") and set(chosen) == {np.dtype(object)}


def test_quartic_walk_runs_in_int64(monkeypatch):
    chosen = walk_dtypes(monkeypatch)
    minpoly = (-1, 0, 0, -1, 1)
    assert finite_image_test(zero_automaton(minpoly, (-1, 0, 1)), pisot(minpoly)).ok
    assert set(chosen) == {np.dtype(np.int64)}


def test_deep_cycle_inside_int64_walks_in_int64(golden, monkeypatch):
    # 120 levels deep, with numerators up to 7,740,043,779,600: a bound by
    # growth per level would leave int64 here, the coordinates never do.
    a = golden_cycle(120)
    expected = object_walk(a, golden, monkeypatch)
    chosen = walk_dtypes(monkeypatch)
    result = finite_image_test(a, golden)
    assert set(chosen) == {np.dtype(np.int64)} and len(chosen) == 120  # 119 levels, one check
    assert result.ok and result.denominator == 7_740_043_779_600
    assert max(abs(c) for n in result.numerators.values() for c in n) == 7_740_043_779_600
    assert (result.numerators, result.denominator) == (expected.numerators, expected.denominator)


@pytest.mark.parametrize("relabel", [False, True])
def test_walk_leaves_int64_where_its_coordinates_do(monkeypatch, relabel):
    # The quartic zero automaton's numerators run from 0 at the root up to
    # 6.  A limit of 2 sends its walk from int64 to Python ints part way
    # down; every numerator, the witness (after one edge is relabelled)
    # and the denominator are the all-object walk's.
    minpoly = (-1, 0, 0, -1, 1)
    a, p = zero_automaton(minpoly, (-1, 0, 1)), pisot(minpoly)
    if relabel:
        document = serialize_automaton(a)
        edge = document["edges"][-1]
        edge["label"] = 1 if edge["label"] != 1 else 0
        a = parse_automaton(document)
    expected = object_walk(a, p, monkeypatch)
    chosen = walk_dtypes(monkeypatch)
    monkeypatch.setattr(classify_module, "int64_step_limit", lambda letters, minpoly: 2)
    result = finite_image_test(a, p)
    switch = chosen.index(np.dtype(object))
    assert 0 < switch and set(chosen[:switch]) == {np.dtype(np.int64)}
    assert set(chosen[switch:]) == {np.dtype(object)}
    assert result.ok is not relabel
    assert (result.ok, result.numerators, result.denominator, result.witness) == \
        (expected.ok, expected.numerators, expected.denominator, expected.witness)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-(2**80), 2**80), d=st.integers(1, 2**70))
@example(n=-6, d=4)
@example(n=-3, d=1)
@example(n=0, d=7)
@example(n=12, d=1)
def test_coordinate_text_is_the_fraction_text(n, d):
    assert classify_module._coordinate_text(n, d) == str(Fraction(n, d))


def two_atom_automaton():
    """Twelve states whose cycle values on base 2 are 0 (even index) and 1
    (odd index), on seeded random edges labelled 2*c(u) - c(w): two atoms
    of six states each, with unequal start probabilities."""
    rng = random.Random(5)
    pairs = {(i, (i + 1) % 12) for i in range(12)} | {(0, 0)}
    pairs |= {(rng.randrange(12), rng.randrange(12)) for _ in range(30)}
    edges = [{"from": f"s{i}", "to": f"s{j}", "label": 2 * (i % 2) - j % 2} for i, j in sorted(pairs)]
    return parse_automaton(
        {"alphabet": [-1, 0, 1, 2], "states": [f"s{i}" for i in range(12)], "edges": edges}
    )


@pytest.mark.parametrize(
    "case", ["example1-7edge", "example1-9edge", "two-atom", (-1, -1, 0, 1), (-1, 0, 0, -1, 1)]
)
def test_atom_masses_add_their_states_left_to_right(case, automata, pisots, perron_data, base_two):
    # Each mass is the plain float sum, from 0.0, of its states' start
    # probabilities in the BFS order of the numerators.  Each state of a
    # zero automaton is an atom of its own; the fixtures' and the two-atom
    # automaton's atoms hold several states.
    if case == "two-atom":
        a, p = two_atom_automaton(), base_two
        pd = perron(a)
    elif isinstance(case, str):
        a, p, pd = automata[case], pisots[case], perron_data[case]
    else:
        a, p = zero_automaton(case, (-1, 0, 1)), pisot(case)
        pd = perron(a)
    image = finite_image_test(a, p)
    pi, idx, expected = start_distribution(pd), a.state_index(), {}
    for state, numer in image.numerators.items():
        expected[numer] = expected.get(numer, 0.0) + pi[idx[state]]
    atom_list = atoms(a, p, pd, image)
    assert len(atom_list) == len(expected)
    for at in atom_list:
        assert at.mass.hex() == float(expected[at.numerators]).hex()
