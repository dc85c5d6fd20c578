import contextlib
import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import measure_lab.automaton
import measure_lab.parry
from helpers import label_blocks, random_primitive_automata, reference_sample_many
from measure_lab.automaton import parse_automaton, primitivity_check
from measure_lab.errors import EmptyInitialSet, NotPrimitive, PrecisionExhausted
from measure_lab.parry import (
    cylinder_measure,
    cylinder_measure_initial,
    perron,
    start_distribution,
)

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------- oracles

def gamma_7edge():
    """Positive root of x^3 = x^2 + 2 at high precision."""
    with mp.workprec(120):
        return mp.findroot(lambda x: x**3 - x**2 - 2, 1.7)


def fibonacci_eigen_oracle():
    """Closed-form eigendata: v_R proportional to (phi, 1), v_L too."""
    v_r = np.array([PHI, 1.0])
    v_l = np.array([PHI, 1.0])
    v_l = v_l / (v_l @ v_r)
    return v_l, v_r


def count_ratio(a, word, n):
    """Word-count ratio #(cylinder cap L_n) / #L_n with exact integers."""
    idx = a.state_index()
    per = {}
    for label in a.alphabet:
        per[label] = [[0] * a.n_states for _ in range(a.n_states)]
    for s, t, label in a.edges:
        per[label][idx[s]][idx[t]] += 1

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
                for i in range(len(x))]

    total = [[sum(per[l][i][j] for l in a.alphabet) for j in range(a.n_states)]
             for i in range(a.n_states)]
    row = [[1 if s in a.initial else 0 for s in a.states]]
    num = row
    for label in word:
        num = matmul(num, per[label])
    for _ in range(n - len(word)):
        num = matmul(num, total)
    den = row
    for _ in range(n):
        den = matmul(den, total)
    terminal = [1] * a.n_states
    return sum(v * t for v, t in zip(num[0], terminal)) / sum(
        v * t for v, t in zip(den[0], terminal)
    )


# ---------------------------------------------------------------- perron

def test_full_shift_lambda(automata, perron_data):
    pd = perron_data["fullshift4"]
    assert abs(pd.lam - 4.0) < 1e-12
    assert start_distribution(pd).tolist() == pytest.approx([1.0])


def test_fibonacci_lambda(perron_data):
    assert abs(perron_data["fibonacci"].lam - PHI) < 1e-12


def test_example1_lambda_cubic(perron_data):
    lam = perron_data["example1-7edge"].lam
    assert abs(lam**3 - lam**2 - 2) < 1e-10
    assert abs(lam - float(gamma_7edge())) < 1e-10


def test_not_primitive_rejected():
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "q", "label": 0},
                   {"from": "q", "to": "p", "label": 1}]}
    )
    with pytest.raises(NotPrimitive):
        perron(a)


def test_eigen_residuals(automata, perron_data):
    for name, pd in perron_data.items():
        m = sum(label_blocks(automata[name]).values()).astype(float)
        assert np.abs(m @ pd.v_R - pd.lam * pd.v_R).max() < 1e-10
        assert np.abs(m.T @ pd.v_L - pd.lam * pd.v_L).max() < 1e-10
        assert abs(pd.v_L @ pd.v_R - 1.0) < 1e-12
        assert pd.v_R.max() == pytest.approx(1.0)


@st.composite
def multigraph_automata(draw):
    """Primitive automata of 1-40 states: a labelled cycle through every
    state plus at least n/2 random edges, some of them parallel with another
    label.  A bare cycle with one chord can mix so slowly (second eigenvalue
    within 1e-4 of lambda) that power iteration stalls above tol."""
    n = draw(st.integers(1, 40))
    labels = [-1, 0, 1]
    label = st.sampled_from(labels)
    edges = {(i, (i + 1) % n, draw(label)) for i in range(n)}
    node = st.integers(0, n - 1)
    edges |= set(draw(st.lists(st.tuples(node, node, label), min_size=n // 2 + 1, max_size=3 * n)))
    for i, j, lab in draw(st.lists(st.sampled_from(sorted(edges)), max_size=n)):
        edges.add((i, j, draw(st.sampled_from([x for x in labels if x != lab]))))
    a = parse_automaton({
        "alphabet": labels,
        "states": [f"s{i}" for i in range(n)],
        "edges": [{"from": f"s{i}", "to": f"s{j}", "label": lab} for i, j, lab in sorted(edges)],
    })
    assume(primitivity_check(a)["primitive"])
    return a


def reference_rho(m):
    """Spectral radius from the dense eigensolver, refined by the two-sided
    Rayleigh quotient y M x / y x in exact arithmetic: its error is second
    order in the eigenvector errors, where the eigenvalue alone can be
    12 ulps off (x^8 = x^7 + 1)."""
    def perron_vector(mat):
        w, vecs = np.linalg.eig(mat)
        return [Fraction(float(v)) for v in np.abs(vecs[:, int(np.argmax(w.real))].real)]

    x, y = perron_vector(m), perron_vector(m.T)
    num = sum(y[i] * int(m[i, j]) * x[j] for i, j in zip(*np.nonzero(m)))
    return float(num / sum(a * b for a, b in zip(y, x)))


@settings(max_examples=40, deadline=None)
@given(a=multigraph_automata())
def test_perron_matches_dense_eigensolver(a):
    pd = perron(a)
    rho = reference_rho(sum(label_blocks(a).values()))
    assert abs(pd.lam - rho) <= pd.lam_bound + 4 * 2.0**-52 * rho
    assert pd.v_R.max() == 1.0
    assert abs(pd.v_L @ pd.v_R - 1) <= 1e-12
    assert pd.res_R <= 1e-13 * pd.lam
    assert pd.res_L <= 1e-13 * pd.lam * pd.v_L.max()


def test_perron_5000_states_without_dense_matrix(monkeypatch):
    # every state has out-degree 2, so lambda = 2 with v_R = 1 exactly; a
    # dense total matrix would take 200 MB, so building one fails the test
    n = 5000
    rng = random.Random(11)
    edges = [(i, (i + 1) % n, 0) for i in range(n)] + [(i, rng.randrange(n), 1) for i in range(n)]
    a = parse_automaton({
        "alphabet": [0, 1],
        "states": [f"s{i}" for i in range(n)],
        "edges": [{"from": f"s{i}", "to": f"s{j}", "label": lab} for i, j, lab in edges],
    })
    assert primitivity_check(a)["primitive"]

    def no_dense(_):
        raise AssertionError("perron built a dense matrix")

    monkeypatch.setattr(measure_lab.automaton, "transition_matrices", no_dense)
    pd = perron(a)
    assert pd.lam == 2.0
    assert (pd.v_R == 1.0).all()
    assert pd.lam_bound <= 1e-13
    assert abs(pd.v_L.sum() - 1) <= 1e-12


def test_unreachable_perron_tolerance_raises(automata, monkeypatch):
    # The automaton is primitive; the spread stops falling near 1e-16
    # lambda, so a tolerance below it is precision, not primitivity.
    monkeypatch.setattr(measure_lab.parry, "EIGEN_TOL", 1e-300)
    with pytest.raises(PrecisionExhausted, match="spread"):
        perron(automata["example1-7edge"])


# ---------------------------------------------------------------- cylinders

def test_cylinder_digit_one(automata, perron_data):
    v_l, v_r = fibonacci_eigen_oracle()
    expected = (v_l[0] * v_r[1]) / PHI  # only edge p->q carries label 1
    measured = cylinder_measure(perron_data["fibonacci"], automata["fibonacci"], [1])
    assert abs(measured - expected) < 1e-12
    assert abs(measured - 1 / (PHI**2 + 1)) < 1e-12


def test_cylinder_forbidden_word(automata, perron_data):
    assert cylinder_measure(perron_data["fibonacci"], automata["fibonacci"], [1, 1]) == 0.0


def test_cylinder_empty_word(automata, perron_data):
    for name in automata:
        assert abs(cylinder_measure(perron_data[name], automata[name], []) - 1) < 1e-12


def test_cylinder_initial_values(automata, perron_data):
    fib, pd = automata["fibonacci"], perron_data["fibonacci"]
    assert abs(cylinder_measure_initial(pd, fib, []) - 1) < 1e-12
    assert cylinder_measure_initial(pd, fib, [1, 1]) == 0.0
    # from p, label 0 leads only to p: mass v_R(p)/(lambda v_R(p)) = 1/phi,
    # confirmed against the exact word-count ratio at depth 24
    measured = cylinder_measure_initial(pd, fib, [0])
    assert abs(measured - 1 / PHI) < 1e-12
    assert abs(measured - count_ratio(fib, [0], 24)) < 1e-4


def test_cylinder_initial_requires_initial_states():
    a = parse_automaton(
        {"alphabet": [0], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 0}]}
    )
    pd = perron(a)
    with pytest.raises(EmptyInitialSet):
        cylinder_measure_initial(pd, a, [0])


def test_initial_measure_matches_count_ratio_more_words(automata, perron_data):
    fib, pd = automata["fibonacci"], perron_data["fibonacci"]
    for word in ([1], [0, 1], [1, 0, 0]):
        assert abs(
            cylinder_measure_initial(pd, fib, word) - count_ratio(fib, word, 24)
        ) < 1e-4


def dense_cylinders(pd, a, word):
    """(cylinder_measure, cylinder_measure_initial) by one dense label
    matrix product per letter; a letter outside the alphabet gives 0."""
    per_label = label_blocks(a)
    v_i = np.array([s in a.initial for s in a.states], dtype=float)
    masses = []
    for row in (pd.v_L, v_i):
        for x in word:
            row = row @ per_label[x] if x in per_label else np.zeros_like(row)
        masses.append(float(row @ pd.v_R) * pd.lam ** -len(word))
    return masses[0], masses[1] / float(v_i @ pd.v_R)


def cylinders_without_dense_stack(pd, a, word):
    """Both cylinder masses, with ``transition_matrices`` patched to raise
    in every package module that holds the name."""
    holders = [m for name, m in sys.modules.items()
               if name.startswith("measure_lab") and hasattr(m, "transition_matrices")]
    with contextlib.ExitStack() as patches:
        for module in holders:
            patches.enter_context(mock.patch.object(
                module, "transition_matrices", side_effect=AssertionError("cylinder built the dense label stack")))
        return cylinder_measure(pd, a, word), cylinder_measure_initial(pd, a, word)


def test_cylinders_match_dense_reference_bit_for_bit_on_fixtures(automata, perron_data):
    for name, a in automata.items():
        pd = perron_data[name]
        letters = a.alphabet + (max(a.alphabet) + 1,)  # one letter outside
        for k in range(4):
            for word in itertools.product(letters, repeat=k):
                assert cylinders_without_dense_stack(pd, a, word) == dense_cylinders(pd, a, word), (name, word)


@settings(max_examples=60, deadline=None)
@given(a=multigraph_automata(), data=st.data())
def test_cylinders_match_dense_reference(a, data):
    a = dataclasses.replace(a, initial=a.states[: data.draw(st.integers(1, a.n_states))])
    pd = perron(a)
    word = data.draw(st.lists(st.sampled_from([-1, 0, 1, 2]), max_size=8))
    for got, want in zip(cylinders_without_dense_stack(pd, a, word), dense_cylinders(pd, a, word)):
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


# ---------------------------------------------------------------- distribution

def test_start_distribution_fibonacci(perron_data):
    pi = start_distribution(perron_data["fibonacci"])
    expected = np.array([PHI**2, 1.0]) / (PHI**2 + 1)
    assert np.abs(pi - expected).max() < 1e-12


def test_start_distribution_example1(perron_data):
    g = float(gamma_7edge())
    pi = start_distribution(perron_data["example1-7edge"])
    expected = np.array([g**3, 1, 1, 1, 1]) / (g**3 + 4)
    assert np.abs(pi - expected).max() < 1e-9


# ---------------------------------------------------------------- invariants

def _all_words(alphabet, k):
    return itertools.product(alphabet, repeat=k)


def test_kolmogorov_and_shift_invariance_fixtures(automata, perron_data):
    for name, a in automata.items():
        pd = perron_data[name]
        for k in (1, 2):
            for word in _all_words(a.alphabet, k):
                base = cylinder_measure(pd, a, word)
                extend = sum(
                    cylinder_measure(pd, a, list(word) + [x]) for x in a.alphabet
                )
                prepend = sum(
                    cylinder_measure(pd, a, [x] + list(word)) for x in a.alphabet
                )
                assert abs(extend - base) < 1e-12, name
                assert abs(prepend - base) < 1e-12, name


def test_total_mass_up_to_depth_six(automata, perron_data):
    for name, a in automata.items():
        pd = perron_data[name]
        per_label = label_blocks(a)
        rows = pd.v_L[None, :]
        for depth in range(1, 7):
            rows = np.concatenate([rows @ per_label[x] for x in a.alphabet])
            total = float((rows @ pd.v_R).sum())
            assert abs(total * pd.lam**-depth - 1) < 1e-10, (name, depth)


def test_mixing_identity_decay(automata, perron_data):
    for name in ("fibonacci", "example1-7edge"):
        a, pd = automata[name], perron_data[name]
        per_label = label_blocks(a)
        u = [a.alphabet[-1]]
        w = [a.alphabet[0]]
        mu_u = cylinder_measure(pd, a, u)
        mu_w = cylinder_measure(pd, a, w)
        total = sum(per_label.values()).astype(float)

        def joint(n):
            row = pd.v_L @ per_label[u[0]]
            row = row @ np.linalg.matrix_power(total, n - 1)
            row = row @ per_label[w[0]]
            return float(row @ pd.v_R) * pd.lam ** -(n + 1)

        # second eigenvalue ratio is ~0.64 for the 7-edge fixture, so the
        # correlation gap shrinks by >= two orders of magnitude per 10 steps
        diffs = [abs(joint(n) - mu_u * mu_w) for n in (5, 15, 30)]
        assert diffs[2] < 1e-6
        assert diffs[1] < max(1e-2 * diffs[0], 1e-13)
        assert diffs[2] < max(1e-2 * diffs[1], 1e-13)


def test_edge_chain_reproduces_cylinder_masses(automata, perron_data):
    # the Markov lift (start pi, weight v_R(to)/(lambda v_R(from))) assigns
    # each label word exactly its cylinder mass
    for name in ("fibonacci", "example1-9edge", "fig3"):
        a, pd = automata[name], perron_data[name]
        idx = a.state_index()
        pi = start_distribution(pd)
        for word in itertools.chain(
            _all_words(a.alphabet, 1), _all_words(a.alphabet, 3)
        ):
            rho = pi.copy()
            for label in word:
                nxt = np.zeros_like(rho)
                for s, t, l in a.edges:
                    if l == label:
                        i, j = idx[s], idx[t]
                        nxt[j] += rho[i] * pd.v_R[j] / (pd.lam * pd.v_R[i])
                rho = nxt
            assert abs(float(rho.sum()) - cylinder_measure(pd, a, word)) < 1e-12


def test_out_edge_weights_sum_to_one(automata, perron_data):
    for name, a in automata.items():
        pd = perron_data[name]
        idx = a.state_index()
        sums = np.zeros(a.n_states)
        for s, t, _ in a.edges:
            sums[idx[s]] += pd.v_R[idx[t]] / (pd.lam * pd.v_R[idx[s]])
        assert np.abs(sums - 1).max() < 1e-11, name


# ---------------------------------------------------------------- sampling

def test_sample_many_deterministic(automata, perron_data):
    # The Monte Carlo checks of other modules rely on seeded samples.
    fib, pd = automata["fibonacci"], perron_data["fibonacci"]
    runs = [reference_sample_many(pd, fib, n_runs=4, length=50, seed=seed) for seed in (123, 123, 124)]
    assert all(np.array_equal(x, y) for x, y in zip(runs[0], runs[1]))
    assert not all(np.array_equal(x, y) for x, y in zip(runs[0], runs[2]))


def test_sample_digit_frequencies(automata, perron_data):
    fib, pd = automata["fibonacci"], perron_data["fibonacci"]
    _, labels = reference_sample_many(pd, fib, n_runs=2000, length=50, seed=5)
    freq = float((labels == 1).mean())
    p = 1 / (PHI**2 + 1)
    sigma = math.sqrt(p * (1 - p) / labels.size)
    assert abs(freq - p) < 4 * sigma  # correlated draws, generous margin

    fs, pdf = automata["fullshift4"], perron_data["fullshift4"]
    _, labels = reference_sample_many(pdf, fs, n_runs=1000, length=50, seed=6)
    for digit in range(4):
        assert abs(float((labels == digit).mean()) - 0.25) < 0.01


def test_sample_states_follow_pi(automata, perron_data):
    a, pd = automata["example1-7edge"], perron_data["example1-7edge"]
    states, _ = reference_sample_many(pd, a, n_runs=20000, length=1, seed=9)
    pi = start_distribution(pd)
    for i in range(a.n_states):
        freq = float((states[:, 0] == i).mean())
        sigma = math.sqrt(pi[i] * (1 - pi[i]) / 20000)
        assert abs(freq - pi[i]) < 4 * sigma + 1e-3


# ---------------------------------------------------------------- random automata

def test_random_primitive_identities_small(monkeypatch):
    # the acceptance suite runs the full 200-automata version
    monkeypatch.setattr(measure_lab.parry, "EIGEN_TOL", 1e-13)
    for a in random_primitive_automata(25, seed=42):
        pd = perron(a)
        for word in ([a.alphabet[0]], [a.alphabet[-1], a.alphabet[0]]):
            base = cylinder_measure(pd, a, word)
            extend = sum(cylinder_measure(pd, a, list(word) + [x]) for x in a.alphabet)
            prepend = sum(cylinder_measure(pd, a, [x] + list(word)) for x in a.alphabet)
            assert abs(extend - base) < 1e-12
            assert abs(prepend - base) < 1e-12
