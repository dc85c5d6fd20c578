import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measure_lab import automaton, distribution
from measure_lab.algebraic import bint_mul_beta, make_pisot
from measure_lab.automaton import parse_automaton
from measure_lab.distribution import cdf_bracket, depth_cloud, value_bounds
from measure_lab.errors import CapExceeded, DeadState
from measure_lab.parry import perron
from measure_lab.zero_automaton import build_zero_automaton

from helpers import (
    label_blocks,
    pisot,
    random_primitive_automata,
    reference_cdf_bounds,
    reference_sample_many,
    reference_value_bounds,
    signed_automata,
    zero_automaton,
)

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------- oracles

def hat_density_cdf(x):
    """CDF of the density x/2 on [0,1], 1/2 on [1,2], (3-x)/2 on [2,3]."""
    if x <= 0:
        return 0.0
    if x <= 1:
        return x * x / 4
    if x <= 2:
        return 0.25 + (x - 1) / 2
    if x <= 3:
        return 1 - (3 - x) ** 2 / 4
    return 1.0


def invariant_density_cdf(x):
    """CDF of the golden-base invariant density: proportional to 1 + 1/beta
    on [0, 1/beta), to 1 on [1/beta, 1]."""
    c = PHI**2 / (PHI**2 + 1)
    if x <= 0:
        return 0.0
    if x < 1 / PHI:
        return c * (1 + 1 / PHI) * x
    if x <= 1:
        return c * ((1 + 1 / PHI) / PHI + (x - 1 / PHI))
    return 1.0


# ---------------------------------------------------------------- value bounds

def test_value_bounds_fibonacci(automata, pisots):
    bounds = value_bounds(automata["fibonacci"], pisots["fibonacci"])
    lo_p, hi_p = bounds["p"]
    assert abs(lo_p) < 1e-9
    assert abs(hi_p - 1.0) < 1e-9  # 101010... sums to 1
    lo_q, hi_q = bounds["q"]
    assert abs(hi_q - 1 / PHI) < 1e-9


def test_value_bounds_full_shift(automata, pisots):
    bounds = value_bounds(automata["fullshift4"], pisots["fullshift4"])
    lo, hi = bounds["s"]
    assert abs(lo) < 1e-9 and abs(hi - 3.0) < 1e-9


def test_value_bounds_zero_automaton_symmetric(golden):
    a = build_zero_automaton(golden, [0, 1, -1])
    bounds = value_bounds(a, golden)
    lo, hi = bounds["(0,0)"]
    assert abs(lo + hi) < 1e-9  # symmetric under digit negation
    assert lo < 0 < hi


def test_dead_state_rejected(golden):
    # r and q are both dead: the message names the first in state order, as
    # the per-state reference loop does
    a = parse_automaton(
        {"alphabet": [-1, 1], "states": ["p", "r", "q"],
         "edges": [{"from": "p", "to": "q", "label": 1},
                   {"from": "p", "to": "r", "label": -1}]}
    )
    for bounds in (value_bounds, reference_value_bounds):
        with pytest.raises(DeadState, match="^state 'r' has no outgoing edge$"):
            bounds(a, golden)


def test_value_bounds_match_reference_loop(automata, pisots, golden, base_two, tribonacci):
    # repr tells every double apart, -0.0 from 0.0 included
    for name, a in automata.items():
        assert repr(value_bounds(a, pisots[name])) == repr(reference_value_bounds(a, pisots[name]))
    huge = parse_automaton(
        {"alphabet": [-(2**64) - 7, -1, 2**63 + 1], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "p", "label": -1},
                   {"from": "p", "to": "q", "label": 2**63 + 1},
                   {"from": "q", "to": "p", "label": -(2**64) - 7},
                   {"from": "q", "to": "p", "label": -1}]}
    )
    for p in (golden, base_two, tribonacci):
        for a in random_primitive_automata(25, seed=31) + [huge]:
            assert repr(value_bounds(a, p)) == repr(reference_value_bounds(a, p))


@st.composite
def shuffled_automata(draw):
    """Automata with 1-6 states, parallel edges (same ends, other label)
    and the edge list in a drawn order, so sources come out of order."""
    n = draw(st.integers(1, 6))
    alphabet = sorted(draw(st.sets(st.integers(-3, 3), min_size=1, max_size=4)))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.sampled_from(alphabet)), max_size=30))
    edges |= {(src, draw(st.integers(0, n - 1)), alphabet[0]) for src in range(n)
              if all(s != src for s, _, _ in edges)}
    edges = draw(st.permutations(sorted(edges)))
    return parse_automaton(
        {"alphabet": alphabet, "states": [f"s{i}" for i in range(n)],
         "edges": [{"from": f"s{s}", "to": f"s{t}", "label": l} for s, t, l in edges]}
    )


@settings(max_examples=40, deadline=None)
@given(a=shuffled_automata(), base=st.sampled_from(["golden", "base_two", "tribonacci"]))
def test_value_bounds_match_reference_on_shuffled_edges(golden, base_two, tribonacci, a, base):
    p = {"golden": golden, "base_two": base_two, "tribonacci": tribonacci}[base]
    assert repr(value_bounds(a, p)) == repr(reference_value_bounds(a, p))


# ---------------------------------------------------------------- clouds

def test_cloud_fibonacci_depth2(automata, pisots, perron_data):
    cloud = depth_cloud(automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"], 2)
    words = [e.word for e in cloud.entries]
    assert words == [(0, 0), (0, 1), (1, 0)]
    assert abs(cloud.total_mass - 1) < 1e-10
    mass = {e.word: e.mass for e in cloud.entries}
    assert abs(mass[(1, 0)] - 1 / (PHI**2 + 1)) < 1e-12


def test_cloud_full_shift_depth1(automata, pisots, perron_data):
    cloud = depth_cloud(automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"], 1)
    assert [e.value for e in cloud.entries] == [0.0, 0.5, 1.0, 1.5]
    assert all(abs(e.mass - 0.25) < 1e-12 for e in cloud.entries)


def test_cloud_atomic_values_cluster(automata, pisots, perron_data):
    from measure_lab.classify import atoms

    name = "example1-7edge"
    cloud = depth_cloud(automata[name], pisots[name], perron_data[name], 12)
    atom_values = [at.value_decimal for at in
                   atoms(automata[name], pisots[name], perron_data[name])]
    for e in cloud.entries:
        assert any(e.lo - 1e-9 <= v <= e.hi + 1e-9 for v in atom_values)


@pytest.mark.parametrize("refine", [
    lambda a, p, pd: depth_cloud(a, p, pd, 12),
    lambda a, p, pd: cdf_bracket(a, p, pd, 12, [1.5]),
], ids=["depth_cloud", "cdf_bracket"])
def test_cloud_cap(automata, pisots, perron_data, refine, monkeypatch):
    monkeypatch.setattr(distribution, "CLOUD_CAP", 1000)
    with pytest.raises(CapExceeded):
        refine(automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"])


def _reference_cloud(a, p, pd, n):
    """Per-word recursion the refinement engine replaced."""
    per_label = label_blocks(a)
    bounds = value_bounds(a, p)
    blo = np.array([bounds[s][0] for s in a.states])
    bhi = np.array([bounds[s][1] for s in a.states])
    beta = p.beta_float
    entries = []

    def walk(row, word, value):
        if len(word) == n:
            support = row > 0
            tail = beta ** -n
            entries.append((word, value, pd.lam ** -n * float(row @ pd.v_R),
                            value + tail * float(blo[support].min()),
                            value + tail * float(bhi[support].max())))
            return
        for label in a.alphabet:
            nxt = row @ per_label[label]
            if nxt.max() > 0:
                walk(nxt, word + (label,), value + label * beta ** -(len(word) + 1))

    walk(pd.v_L.copy(), (), 0.0)
    return entries


def _reference_buckets(a, p, pd, depth):
    """Bucket loop the refinement engine replaced: merges prefixes of equal
    exact Z[beta] value (Python-int coordinates, walked by
    ``bint_mul_beta``) and equal support, keeps each bucket's first-seen
    float value and sums masses bucket by bucket.  Returns (lo, hi, mass)
    per bucket, in first-seen order."""
    per_label = label_blocks(a)
    bounds = value_bounds(a, p)
    beta = p.beta_float
    level = {((0,) * p.degree, ()): (0.0, pd.v_L.copy())}
    for k in range(1, depth + 1):
        nxt = {}
        for (coords, _), (value, row) in level.items():
            for label in a.alphabet:
                new_row = row @ per_label[label]
                if new_row.max() > 0:
                    key = (bint_mul_beta(coords, p.minpoly, label), tuple(new_row > 0))
                    if key in nxt:
                        nxt[key][1][:] += new_row
                    else:
                        nxt[key] = (value + label * beta ** -k, new_row)
        level = nxt
    buckets = []
    for (_, support), (value, row) in level.items():
        states = [s for s, on in zip(a.states, support) if on]
        lo = value + beta ** -depth * min(bounds[s][0] for s in states)
        hi = value + beta ** -depth * max(bounds[s][1] for s in states)
        buckets.append((lo, hi, pd.lam ** -depth * float(row @ pd.v_R)))
    return buckets


def _reference_brackets(a, p, pd, depth, points):
    return _bracket_sums(_reference_buckets(a, p, pd, depth), points)


def _bracket_sums(buckets, points):
    """Brackets of (lo, hi, mass) buckets: at points beyond or below every
    bucket exactly 1 or 0, elsewhere sums clamped to at most 1."""
    out = []
    for x in points:
        if x >= max(hi for _, hi, _ in buckets):
            out.append((1.0, 1.0))
        elif x < min(lo for lo, _, _ in buckets):
            out.append((0.0, 0.0))
        else:
            lower = upper = 0.0
            for lo, hi, mass in buckets:
                if hi <= x:
                    lower += mass
                if lo <= x:
                    upper += mass
            out.append((min(lower, 1.0), min(upper, 1.0)))
    return out


def test_refinement_matches_reference_bit_for_bit(automata, pisots, perron_data):
    for name in automata:
        a, p, pd = automata[name], pisots[name], perron_data[name]
        cloud = depth_cloud(a, p, pd, 6)
        assert [(e.word, e.value, e.mass, e.lo, e.hi) for e in cloud.entries] == \
            _reference_cloud(a, p, pd, 6), name
        points = [-0.5, 0.2, 0.7, 1.4, 2.6]
        assert cdf_bracket(a, p, pd, 9, points) == _reference_brackets(a, p, pd, 9, points), name
    # fig3 at depth 12 merges its 3^12 words into 6,984 buckets
    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    points = [0.1, 0.5, 1.0, 1.5, 2.2, 3.0]
    assert cdf_bracket(a, p, pd, 12, points) == _reference_brackets(a, p, pd, 12, points)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=st.sampled_from([1, 8, 63, 64, 65, 130]), dim=st.integers(1, 3))
def test_first_seen_groups_match_dict_oracle(data, width, dim):
    # A few distinct rows, drawn many times over: one or two keys with
    # coordinates up to 2^62 in magnitude, each with a base support or one
    # with a single bit flipped, on either side of a uint64 word boundary.
    coord = st.one_of(st.sampled_from([-(2**62), -1, 0, 1, 2**62]),
                      st.integers(-(2**62), 2**62))
    key_pool = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                  min_size=1, max_size=2))
    base = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    bits = sorted({0, width // 2, 62, 63, 64, 127, 128, width - 1} & set(range(width)))
    flip = st.one_of(st.none(), st.sampled_from(bits))
    pool = data.draw(st.lists(st.tuples(st.sampled_from(key_pool), flip), min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    keys = np.array([pool[i][0] for i in picks], np.int64)
    support = np.array([[bit != (j == pool[i][1]) for j, bit in enumerate(base)] for i in picks])
    rows = list(zip(map(tuple, keys.tolist()), map(tuple, support.tolist())))
    groups, first = {}, []
    for index, row in enumerate(rows):
        if row not in groups:
            groups[row] = len(groups)
            first.append(index)
    got_first, got_group = distribution._first_seen_groups(keys, support)
    assert got_first.tolist() == first
    assert got_group.tolist() == [groups[row] for row in rows]


@pytest.mark.parametrize("refine, buckets", [
    (lambda a, p, pd: depth_cloud(a, p, pd, 5), 4**5),
    (lambda a, p, pd: cdf_bracket(a, p, pd, 5, [1.5]), 3 * 2**5 - 2),
], ids=["depth_cloud", "cdf_bracket"])
def test_cap_boundary(automata, pisots, perron_data, refine, buckets, monkeypatch):
    # fullshift4 at depth 5: 4^5 words, and 3 * 2^5 - 2 distinct values m / 2^5
    args = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    monkeypatch.setattr(distribution, "CLOUD_CAP", buckets)
    refine(*args)
    monkeypatch.setattr(distribution, "CLOUD_CAP", buckets - 1)
    with pytest.raises(CapExceeded) as info:
        refine(*args)
    assert str(info.value) == f"refinement exceeds {buckets - 1} buckets at depth 5"


@pytest.mark.parametrize("refine, cells", [
    (lambda a, p, pd: depth_cloud(a, p, pd, 5), 4**4 * 4),
    (lambda a, p, pd: cdf_bracket(a, p, pd, 5, [1.5]), (3 * 2**4 - 2) * 4),
], ids=["depth_cloud", "cdf_bracket"])
def test_dense_cap_boundary(automata, pisots, perron_data, refine, cells, monkeypatch):
    # fullshift4's stack is 1 x 4; level 5 multiplies the 4^4 words, or the
    # 3 * 2^4 - 2 buckets, of level 4 with it, the largest product of the run
    args = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    monkeypatch.setattr(automaton, "DENSE_CAP", cells)
    refine(*args)
    monkeypatch.setattr(automaton, "DENSE_CAP", cells - 1)
    with pytest.raises(CapExceeded) as info:
        refine(*args)
    assert str(info.value) == f"refinement level 5 of {cells} cells exceeds {cells - 1}"


def test_refinement_level_allocates_one_stack(monkeypatch):
    # The plastic zero automaton over {-1, 0, 1}: 179 states, a float64
    # label stack of 179 * 3 * 179 cells.  One level of refinement holds
    # that stack and little else; an int64 stack converted to float held
    # two.
    import tracemalloc

    a, p = zero_automaton((-1, -1, 0, 1), (-1, 0, 1)), pisot((-1, -1, 0, 1))
    pd = perron(a)
    distribution._refine(a, p, pd, 1, merge=False)
    tracemalloc.start()
    try:
        distribution._refine(a, p, pd, 1, merge=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * a.n_states * len(a.alphabet) * a.n_states * 8, peak


def _bracket_rtol(a, depth, terms):
    """Relative tolerance between two summation orders of the refinement.
    Each entry of a level is a sum of at most n nonnegative products, so
    any two summation orders agree to (n - 1) half-ulps per level and two
    masses to (depth + 1) * n ulps.  A bracket also sums up to ``terms``
    masses in the same order on both sides."""
    eps = np.finfo(float).eps
    return (depth + 1) * a.n_states * eps + 2 * terms * eps


@settings(max_examples=25, deadline=None)
@given(a=signed_automata(), base=st.sampled_from(["golden", "base_two", "tribonacci"]),
       depth=st.integers(1, 5))
def test_refinement_matches_reference_on_random_automata(golden, base_two, tribonacci, a, base,
                                                          depth):
    # tribonacci runs the degree-3 companion step of the bucket keys
    p = {"golden": golden, "base_two": base_two, "tribonacci": tribonacci}[base]
    pd = perron(a)
    cloud = depth_cloud(a, p, pd, depth)
    reference = _reference_cloud(a, p, pd, depth)
    assert [(e.word, e.value, e.lo, e.hi) for e in cloud.entries] == \
        [(word, value, lo, hi) for word, value, _, lo, hi in reference]
    np.testing.assert_allclose([e.mass for e in cloud.entries],
                               [entry[2] for entry in reference],
                               rtol=_bracket_rtol(a, depth, 0), atol=0)
    points = [-1.0, 0.2, 0.7, 1.5]
    np.testing.assert_allclose(cdf_bracket(a, p, pd, depth, points),
                               _reference_brackets(a, p, pd, depth, points),
                               rtol=_bracket_rtol(a, depth, len(reference)), atol=0)


@pytest.mark.parametrize("minpoly, alphabet", [
    ((-1, -1, 1), tuple(range(-3, 4))),  # golden over -3..3: 65 states, 2 support words
    ((-1, -1, 0, 1), (-1, 0, 1)),  # plastic over -1..1: 179 states, 3 support words
], ids=["golden-65", "plastic-179"])
def test_refinement_matches_reference_on_multi_word_supports(minpoly, alphabet):
    # Supports wider than 64 states pack into several uint64 words.  Bucket
    # counts match exactly; brackets only within rounding, since the
    # stacked product rows @ m may sum in another order than one product
    # per row (up to two ulps apart on these automata at some depths).
    a, p = zero_automaton(minpoly, alphabet), pisot(minpoly)
    pd = perron(a)
    points = [-2.0, -0.6, -0.1, 0.0, 0.3, 0.9, 2.0, 50.0]
    for depth in range(3, 7):
        buckets = _reference_buckets(a, p, pd, depth)
        assert len(distribution._refine(a, p, pd, depth, merge=True)[2]) == len(buckets), depth
        words = len(depth_cloud(a, p, pd, depth).masses)
        np.testing.assert_allclose(cdf_bracket(a, p, pd, depth, points),
                                   _bracket_sums(buckets, points),
                                   rtol=_bracket_rtol(a, depth, words), atol=0)


def test_fig3_buckets_merge_on_exact_values(automata, pisots, perron_data, monkeypatch):
    # 3^16 words of fig3 take 18,643 distinct (exact value, support) pairs;
    # float keys split equal values into 61,652 buckets
    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    monkeypatch.setattr(distribution, "CLOUD_CAP", 18_643)
    cdf_bracket(a, p, pd, 16, [1.5])
    monkeypatch.setattr(distribution, "CLOUD_CAP", 18_642)
    with pytest.raises(CapExceeded, match="^refinement exceeds 18642 buckets at depth 16$"):
        cdf_bracket(a, p, pd, 16, [1.5])


def test_bucket_keys_stop_before_int64_overflow():
    # x^2 - 2^40 x - 1 is Pisot.  The key of the word 1,0,0 is beta^2 =
    # 2^40 beta + 1, so depth 3 keys reach 2^40, past the depth-4 step's
    # bound (2^63 - 2) / (1 + 2^40).
    p = make_pisot([-1, -(2**40), 1])
    shift = parse_automaton({"alphabet": [0, 1], "states": ["s"],
                             "edges": [{"from": "s", "to": "s", "label": 0},
                                       {"from": "s", "to": "s", "label": 1}]})
    pd = perron(shift)
    assert cdf_bracket(shift, p, pd, 3, [-1.0, 2.0]) == [(0.0, 0.0), (1.0, 1.0)]
    with pytest.raises(CapExceeded, match="^refinement keys leave int64 at depth 4$"):
        cdf_bracket(shift, p, pd, 4, [0.5])
    # letters and coefficients outside int64 stop the first step
    wide = parse_automaton({"alphabet": [0, 2**63], "states": ["s"],
                            "edges": [{"from": "s", "to": "s", "label": 0},
                                      {"from": "s", "to": "s", "label": 2**63}]})
    for a, p in ((wide, make_pisot([-2, 1])), (shift, make_pisot([-1, -(2**63), 1]))):
        with pytest.raises(CapExceeded, match="^refinement keys leave int64 at depth 1$"):
            cdf_bracket(a, p, perron(a), 1, [0.5])
    # clouds merge nothing and keep no keys
    assert len(depth_cloud(wide, make_pisot([-2, 1]), perron(wide), 2).masses) == 4


def test_brackets_beyond_the_support_are_exact(automata, pisots, perron_data):
    # Every fixture's values lie in [-2, 4], so F(-100) = 0 and F(100) = 1
    # exactly, while the summed float masses miss 1 by a few ulps.
    for name in automata:
        a, p, pd = automata[name], pisots[name], perron_data[name]
        for depth in range(8, 17):
            below, beyond = cdf_bracket(a, p, pd, depth, [-100.0, 100.0])
            assert below == (0.0, 0.0) and beyond == (1.0, 1.0), (name, depth)


def test_cloud_invariants(automata, pisots, perron_data):
    for name in ("fibonacci", "fig3"):
        cloud = depth_cloud(automata[name], pisots[name], perron_data[name], 8)
        assert abs(cloud.total_mass - 1) < 1e-10
        for e in cloud.entries:
            assert e.lo <= e.value + 1e-12 and e.value <= e.hi + 1e-12


def test_total_mass_adds_left_to_right(automata, pisots, perron_data):
    # Python's sum is compensated from 3.12 on, np.sum adds pairwise: the
    # reported total is the plain float sum in word order on every version.
    clouds = [(name, depth) for name in automata for depth in (5, 8)] + [("fig3", 10)]
    for name, depth in clouds:
        cloud = depth_cloud(automata[name], pisots[name], perron_data[name], depth)
        assert cloud.total_mass == functools.reduce(operator.add, cloud.masses.tolist()), (name, depth)


# ---------------------------------------------------------------- cdf

def test_cdf_bounds_edges(automata, pisots, perron_data):
    a, p, pd = automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"]
    below, beyond, inside = cdf_bracket(a, p, pd, 8, [-0.5, 1.5, 0.5])
    assert below == (0.0, 0.0)
    assert beyond == (1.0, 1.0)
    lo, hi = inside
    assert 0 < lo <= hi < 1
    cloud = depth_cloud(a, p, pd, 8)
    assert reference_cdf_bounds(cloud, -0.5) == (0.0, 0.0)
    lo, hi = reference_cdf_bounds(cloud, 1.5)
    assert abs(lo - 1) < 1e-10 and abs(hi - 1) < 1e-10


@pytest.mark.parametrize("name", ["fibonacci", "fig3", "example1-9edge"])
def test_cdf_bounds_equal_entry_sums(automata, pisots, perron_data, name):
    # Merged buckets (fig3 merges words of equal value) bracket as the
    # cloud's entries do, summed one by one, up to rounding.
    a, p, pd = automata[name], pisots[name], perron_data[name]
    cloud = depth_cloud(a, p, pd, 8)
    xs = (-0.5, 0.0, 0.3, 0.5, 1.0, 1.7, 2.5, 4.0)
    for x, bracket in zip(xs, cdf_bracket(a, p, pd, 8, xs)):
        np.testing.assert_allclose(bracket, reference_cdf_bounds(cloud, x), rtol=0, atol=1e-12)


def test_cdf_monotone(automata, pisots, perron_data):
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    xs = np.linspace(-0.2, 3.2, 30)
    lows, highs = zip(*cdf_bracket(a, p, pd, 8, xs))
    assert all(a <= b + 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(highs, highs[1:]))
    assert all(l <= h for l, h in zip(lows, highs))


def test_bracket_matches_cloud(automata, pisots, perron_data):
    for name in ("fibonacci", "fullshift4", "example1-7edge"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        cloud = depth_cloud(a, p, pd, 7)
        points = [0.2, 0.7, 1.4]
        brackets = cdf_bracket(a, p, pd, 7, points)
        for x, (lo, hi) in zip(points, brackets):
            lo2, hi2 = reference_cdf_bounds(cloud, x)
            assert abs(lo - lo2) < 1e-12 and abs(hi - hi2) < 1e-12


def test_hat_density_cdf_depth12(automata, pisots, perron_data):
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    points = [0.5, 1.0, 1.5, 2.0, 2.5]
    expected = [hat_density_cdf(x) for x in points]
    assert expected == [0.0625, 0.25, 0.5, 0.75, 0.9375]
    brackets = cdf_bracket(a, p, pd, 12, points)
    for (lo, hi), target in zip(brackets, expected):
        assert lo - 1e-12 <= target <= hi + 1e-12
        assert hi - lo <= 0.01


def test_refinement_nesting(automata, pisots, perron_data):
    for name in ("fibonacci", "fullshift4"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        points = [0.3, 0.8, 1.9]
        coarse = cdf_bracket(a, p, pd, 8, points)
        fine = cdf_bracket(a, p, pd, 10, points)
        for (lo1, hi1), (lo2, hi2) in zip(coarse, fine):
            assert lo2 >= lo1 - 1e-12
            assert hi2 <= hi1 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    a=signed_automata(),
    integer_base=st.booleans(),
    depths=st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True).map(sorted),
    points=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
)
def test_cdf_brackets_nest_on_random_automata(golden, base_two, a, integer_base, depths, points):
    # A deeper bracket lies inside a coarser one.  The slack is value_bounds'
    # 1e-12 inflation, fixed before the property was run.
    p = base_two if integer_base else golden
    pd = perron(a)
    coarse, fine = (cdf_bracket(a, p, pd, depth, points) for depth in depths)
    for x, (lo1, hi1), (lo2, hi2) in zip(points, coarse, fine):
        assert lo1 <= lo2 + 1e-12, (depths, x)
        assert hi2 <= hi1 + 1e-12, (depths, x)


def test_fibonacci_cdf_matches_invariant_density(automata, pisots, perron_data):
    # measured profile follows the invariant density, not the uniform law
    a, p, pd = automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"]
    points = [0.1, 0.25, 0.5, 0.75, 0.9]
    brackets = cdf_bracket(a, p, pd, 16, points)
    for x, (lo, hi) in zip(points, brackets):
        assert lo - 1e-9 <= invariant_density_cdf(x) <= hi + 1e-9
    # the uniform reference fails inside [0, 1/beta): record the deviation
    lo, hi = brackets[1]
    assert not (lo <= 0.25 <= hi)


# ---------------------------------------------------------------- monte carlo

def test_monte_carlo_cdf_concordance(automata, pisots, perron_data):
    for name in ("fibonacci", "fullshift4"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        _, labels = reference_sample_many(pd, a, n_runs=20000, length=40, seed=11)
        values = labels @ p.beta_float ** -np.arange(1, 41)
        points = [0.3, 0.8] if name == "fibonacci" else [0.5, 1.5, 2.5]
        brackets = cdf_bracket(a, p, pd, 12, points)
        for x, (lo, hi) in zip(points, brackets):
            emp = float((values <= x).mean())
            sigma = math.sqrt(max(hi * (1 - lo), 0.25) / 20000)
            assert lo - 4 * sigma <= emp <= hi + 4 * sigma, (name, x)
