import functools
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from measure_lab import algebraic, zero_automaton as za
from measure_lab.algebraic import format_coords, make_pisot
from measure_lab.automaton import parse_automaton, primitivity_check
from measure_lab.errors import CapExceeded
from measure_lab.parry import perron
from measure_lab.zero_automaton import (
    IN,
    OUT,
    UNDECIDED,
    build_zero_automaton,
    float_tier,
    state_within_bounds,
    verify_zero_language,
    zero_state_name,
)

from helpers import (
    beta_int_from_name,
    count_words,
    pisot,
    reference_float_tier,
    reference_zero_automaton,
    zero_subautomata,
)


def value_of_word(word, minpoly):
    """High-precision beta-value oracle: sum of digits times beta powers."""
    with mp.workprec(300):
        beta = mp.findroot(
            lambda x: sum(c * x**i for i, c in enumerate(minpoly)), 1.9
        )
        acc = mp.mpf(0)
        for digit in word:
            acc = acc * beta + digit
        return acc


def test_golden_trimmed_states_and_edges(golden):
    a = build_zero_automaton(golden, [0, 1, -1])
    assert set(a.states) == {"(0,0)", "(1,0)", "(-1,0)", "(-1,1)", "(1,-1)"}
    assert len(a.edges) == 9
    assert a.initial == ("(0,0)",) and a.terminal == ("(0,0)",)
    # transition rule y = beta*x - a on every edge, checked exactly
    from measure_lab.algebraic import bint_mul_beta

    for src, dst, label in a.edges:
        x = beta_int_from_name(src, golden)
        y = beta_int_from_name(dst, golden)
        head, *tail = bint_mul_beta(x, golden.minpoly)
        assert (head - label, *tail) == y


def test_golden_accessible_contains_boundary_states(golden):
    a = build_zero_automaton(golden, [0, 1, -1], trim="accessible")
    names = set(a.states)
    assert {"(0,1)", "(0,-1)"} <= names  # +-beta sit on the closed bound
    assert len(a.states) == 7
    # they are not co-reachable, so the default trim removes them
    trimmed = build_zero_automaton(golden, [0, 1, -1])
    assert "(0,1)" not in trimmed.states


def test_full_box_contains_accessible(golden):
    box = build_zero_automaton(golden, [0, 1, -1], trim="none")
    acc = build_zero_automaton(golden, [0, 1, -1], trim="accessible")
    assert set(acc.states) <= set(box.states)
    assert set(acc.edges) <= set(box.edges)
    assert {"(2,-1)", "(-2,1)"} <= set(box.states)  # bounded but unreachable


def test_integer_base_positive_digits(base_two):
    a = build_zero_automaton(base_two, [0, 1])
    assert a.states == ("(0)",)
    assert a.edges == (("(0)", "(0)", 0),)


def test_golden_digits_01_only_zero_word(golden):
    a = build_zero_automaton(golden, [0, 1])
    assert a.states == ("(0,0)",)
    assert a.edges == (("(0,0)", "(0,0)", 0),)


def test_no_zero_words_flagged(golden):
    a = build_zero_automaton(golden, [1])
    assert a.states == ("(0,0)",)
    assert a.edges == ()


def test_matches_bundled_fixture(golden, automata):
    built = build_zero_automaton(golden, [0, 1, -1])
    assert built == automata["example1-9edge"]


def test_verify_language_golden_depth8(golden):
    a = build_zero_automaton(golden, [0, 1, -1])
    report = verify_zero_language(a, golden, 8)
    assert report["sound"] and report["complete"]
    assert report["zero_word_counts"][:5] == [1, 1, 3, 5, 9]


def test_incomplete_automaton_detected(golden, automata):
    report = verify_zero_language(automata["example1-7edge"], golden, 8)
    assert report["sound"]
    assert not report["complete"]
    # all 34 missed zero words reach no state: one class, listed once
    assert [z - a for z, a in zip(report["zero_word_counts"], report["accepted_counts"])] == [
        0, 0, 0, 0, 2, 4, 8, 20
    ]
    assert report["missed"] == [[-1, 1, 0, 1, 1]]


def test_specific_zero_word(golden):
    word = (-1, 1, 0, 1, 1)
    assert abs(value_of_word(word, golden.minpoly)) < mp.mpf(10) ** -40
    a = build_zero_automaton(golden, [0, 1, -1])
    # follow the deterministic transitions from the zero state
    idx = {(s, l): t for s, t, l in a.edges}
    state = zero_state_name(golden)
    for digit in word:
        state = idx[(state, digit)]
    assert state == zero_state_name(golden)


def test_tribonacci_language(tribonacci):
    a = build_zero_automaton(tribonacci, [0, 1, -1])
    report = verify_zero_language(a, tribonacci, 8)
    assert report["sound"] and report["complete"]
    assert primitivity_check(a)["primitive"]


def test_growth_rate_below_alphabet_size(golden, tribonacci):
    for p, alphabet in ((golden, [0, 1, -1]), (tribonacci, [0, 1, -1])):
        a = build_zero_automaton(p, alphabet)
        pd = perron(a)
        assert pd.lam <= len(alphabet) + 1e-9


def test_state_bounds_post_hoc(golden):
    a = build_zero_automaton(golden, [0, 1, -1], trim="accessible")
    for name in a.states:
        assert state_within_bounds(beta_int_from_name(name, golden), golden, 1)
    assert not state_within_bounds((2, 0), golden, 1)


def test_counts_against_exhaustive_enumeration(golden):
    # independent recount of accepted words by brute force over the digit tree
    a = build_zero_automaton(golden, [0, 1, -1])
    idx = {(s, l): t for s, t, l in a.edges}
    zero = zero_state_name(golden)
    for n in range(1, 7):
        accepted = 0
        for word in itertools.product((-1, 0, 1), repeat=n):
            state = zero
            for digit in word:
                state = idx.get((state, digit))
                if state is None:
                    break
            if state == zero:
                accepted += 1
        assert accepted == count_words(a, n, use_initial_terminal=True)


def test_verification_depth_cap(golden):
    a = build_zero_automaton(golden, [0, 1])
    with pytest.raises(CapExceeded):
        verify_zero_language(a, golden, 15)


def word_classes(a, p, n_max):
    """Per-word oracle: (word, value, states) for every digit word of
    length 1..n_max in (length, lexicographic) order.  The value is the
    word's polynomial sum x_k X^(n-k) reduced modulo the monic minpoly,
    which is its Z[beta] coordinate vector; states is the set of states
    its runs from the zero state reach."""
    step = {}
    for src, dst, label in a.edges:
        step.setdefault((src, label), set()).add(dst)
    r = p.degree
    for n in range(1, n_max + 1):
        for word in itertools.product(a.alphabet, repeat=n):
            poly = list(reversed(word)) + [0] * r  # constant term first
            for top in range(n - 1, r - 1, -1):  # cancel X^top
                c = poly[top]
                for i, m in enumerate(p.minpoly):
                    poly[top - r + i] -= c * m
            states = {zero_state_name(p)}
            for digit in word:
                states = set().union(*(step.get((s, digit), ()) for s in states))
            yield word, tuple(poly[:r]), frozenset(states)


def check_verification_against_oracle(a, p, n_max):
    report = verify_zero_language(a, p, n_max)
    zero, zero_state = (0,) * p.degree, zero_state_name(p)
    zero_counts, accepted_counts = [0] * n_max, [0] * n_max
    classes, seen = {}, set()
    expected = {"missed": [], "spurious": []}
    for word, value, states in word_classes(a, p, n_max):
        is_zero, accepted = value == zero, zero_state in states
        zero_counts[len(word) - 1] += is_zero
        accepted_counts[len(word) - 1] += accepted
        # list the first word of each wrong class, up to 20 per list
        wrong = expected["spurious" if accepted else "missed"]
        if is_zero != accepted and (value, states) not in seen and len(wrong) < 20:
            wrong.append(list(word))
        classes[word] = (value, states)
        seen.add((value, states))
    assert report["zero_word_counts"] == zero_counts
    assert report["accepted_counts"] == accepted_counts
    assert report["missed"] == expected["missed"]
    assert report["spurious"] == expected["spurious"]
    assert report["sound"] == (not expected["spurious"])
    assert report["complete"] == (not expected["missed"])
    # the listing rule, stated on its own
    for word in report["missed"]:
        value, states = classes[tuple(word)]
        assert value == zero and zero_state not in states
    for word in report["spurious"]:
        value, states = classes[tuple(word)]
        assert value != zero and zero_state in states
    listed = report["missed"] + report["spurious"]
    assert len({classes[tuple(w)] for w in listed}) == len(listed)
    for key in ("missed", "spurious"):
        assert report[key] == sorted(report[key], key=lambda w: (len(w), w))
    return report


@settings(max_examples=25, deadline=None)
@given(case=zero_subautomata())
def test_verification_matches_per_word_oracle(case):
    a, p, _ = case
    check_verification_against_oracle(a, p, 6 if len(a.alphabet) <= 3 else 4)


def test_spurious_list_stops_at_twenty_classes(golden):
    # one zero state with a loop per digit accepts every word
    a = parse_automaton({
        "alphabet": [-1, 0, 1],
        "states": [zero_state_name(golden)],
        "edges": [{"from": zero_state_name(golden), "to": zero_state_name(golden), "label": d}
                  for d in (-1, 0, 1)],
    })
    report = check_verification_against_oracle(a, golden, 5)
    assert len(report["spurious"]) == 20
    assert report["spurious"][:3] == [[-1], [1], [-1, -1]]


# ---------------------------------------------------------------- float tier

BASES = {
    "golden": (-1, -1, 1),
    "tribonacci": (-1, -1, -1, 1),
    "x3-x-1": (-1, -1, 0, 1),
    "x4-x3-1": (-1, 0, 0, -1, 1),
}


@functools.lru_cache(maxsize=None)
def base(name):
    return make_pisot(BASES[name])


@functools.lru_cache(maxsize=None)
def seed_states(name):
    """Coordinates of the states reachable over {-1, 0, 1}, and of those
    with no way back to zero: for these bases, states on the closed
    bounds of M = 1, such as beta for golden."""
    p = base(name)
    reachable = build_zero_automaton(p, [-1, 0, 1], trim="accessible").states
    trimmed = set(build_zero_automaton(p, [-1, 0, 1]).states)
    return tuple(
        [beta_int_from_name(s, p) for s in names]
        for names in (reachable, [s for s in reachable if s not in trimmed])
    )


def mpmath_only(monkeypatch):
    """Send every state to the certified test, as before the float tier."""
    monkeypatch.setattr(
        za, "float_tier", lambda coords, p, m_abs: np.full(len(coords), UNDECIDED, dtype=np.int8)
    )


def test_boundary_states_take_the_certified_path(golden):
    # beta = (0,1) lies on the real bound: (beta - 1)*beta = 1.  2 - beta =
    # (2,-1) lies on the conjugate bound: |2 + 1/beta|*(1 - 1/beta) = 1.
    rows = [(0, 1), (2, -1)]
    assert list(float_tier(np.array(rows), golden, 1)) == [UNDECIDED, UNDECIDED]
    assert all(state_within_bounds(row, golden, 1) for row in rows)
    box = build_zero_automaton(golden, [-1, 0, 1], trim="none")
    assert {"(0,1)", "(2,-1)"} <= set(box.states)
    # clear cases are decided in float64
    assert list(float_tier(np.array([(0, 0), (1, 0), (2, 0), (0, 2)]), golden, 1)) == [IN, IN, OUT, OUT]


def test_boundary_states_need_no_enclosures(golden, monkeypatch):
    # A tie is an exact identity y*(beta -+ 1) = +-M, decided before any
    # enclosure: beta*(beta - 1) = 1 on golden's real bound, (2 - beta)*
    # (beta + 1) = 1 at its negative conjugate, and (beta^2 + beta)*
    # (beta - 1) = 1 on the real bound of x^3 - x - 1, whose conjugates
    # are complex.
    plastic = base("x3-x-1")

    def no_enclosures(p, prec):
        raise AssertionError("a boundary state reached the ball test")

    monkeypatch.setattr(za, "refined_enclosures", no_enclosures)
    assert state_within_bounds((0, 1), golden, 1)
    assert state_within_bounds((2, -1), golden, 1)
    assert state_within_bounds((0, 1, 1), plastic, 1)
    assert state_within_bounds((0, 3, 3), plastic, 3)


def test_tier_declines_coordinates_past_two_to_53(golden):
    # (2^53, 0) is far outside, but its coordinate is not a float exactly
    rows = np.array([(2**53, 0), (-(2**53), 1), (2**53 - 1, 0)])
    assert list(float_tier(rows, golden, 1)) == [UNDECIDED, UNDECIDED, OUT]


@pytest.mark.parametrize("name", ["golden", "tribonacci"])
def test_huge_digits_match_mpmath_only(monkeypatch, name):
    p = base(name)
    digit = 10**18 + 7
    built = build_zero_automaton(p, [-digit, 0, digit], trim="accessible")
    coords = [beta_int_from_name(s, p) for s in built.states]
    assert max(abs(c) for row in coords for c in row) >= 2**53
    assert (float_tier(np.array(coords), p, digit) == UNDECIDED).all()
    mpmath_only(monkeypatch)
    assert build_zero_automaton(p, [-digit, 0, digit], trim="accessible") == built


@pytest.mark.parametrize("name, alphabet, trim", [
    ("golden", [-2, -1, 0, 1, 2], "none"),
    ("tribonacci", [-1, 0, 1], "accessible"),
])
def test_tier_builds_the_mpmath_only_automaton(monkeypatch, name, alphabet, trim):
    built = build_zero_automaton(base(name), alphabet, trim=trim)
    mpmath_only(monkeypatch)
    assert build_zero_automaton(base(name), alphabet, trim=trim) == built


@st.composite
def near_bound_rows(draw):
    """A base, a digit bound M = k and rows k*s + e: s a state of M = 1
    (often on its closed bounds, which scale with M), e a small offset."""
    name = draw(st.sampled_from(sorted(BASES)))
    k = draw(st.integers(1, 3))
    reachable, on_bound = seed_states(name)
    seeds = st.sampled_from(reachable)
    if on_bound:
        seeds = st.one_of(seeds, st.sampled_from(on_bound))
    r = len(reachable[0])
    offset = st.one_of(st.just([0] * r), st.lists(st.sampled_from([0, 1, -1, 2, -2]), min_size=r,
                                                  max_size=r))
    rows = draw(st.lists(st.tuples(seeds, offset), min_size=1, max_size=8))
    return name, k, [tuple(k * c + e for c, e in zip(s, off)) for s, off in rows]


@settings(max_examples=25, deadline=None)
@given(near_bound_rows())
def test_float_tier_agrees_with_certified_test(case):
    name, m_abs, rows = case
    p = base(name)
    for row, decision in zip(rows, float_tier(np.array(rows), p, m_abs)):
        if decision != UNDECIDED:
            assert (decision == IN) == state_within_bounds(row, p, m_abs), row


@st.composite
def tier_cases(draw):
    """Rows over the four bases above and the integer base 2, with small
    coordinates, coordinates up to 2^60, and a row at 2^53, past the
    floats that hold every integer exactly."""
    minpoly = draw(st.sampled_from(sorted(BASES.values()) + [(-2, 1)]))
    r = len(minpoly) - 1
    coordinate = st.one_of(st.integers(-4, 4), st.integers(-(2**60), 2**60))
    rows = draw(st.lists(st.lists(coordinate, min_size=r, max_size=r), min_size=1, max_size=12))
    rows.append([2**53] + [0] * (r - 1))
    m_abs = draw(st.sampled_from([1, 2, 3, 2**53]))
    return minpoly, np.array(rows, np.int64), m_abs


@settings(max_examples=80, deadline=None)
@given(tier_cases())
def test_float_tier_matches_the_per_embedding_reference(case):
    # One Horner pass over every embedding gives each bound, each error
    # term and each decision of the tier that took one embedding at a time.
    minpoly, coords, m_abs = case
    p = pisot(minpoly)
    decision, value, err = reference_float_tier(coords, p, m_abs)
    assert float_tier(coords, p, m_abs).tolist() == decision.tolist()
    exact = (np.abs(coords) < 2**53).all(axis=1)
    got_value, got_err = za._tier_bounds(np.where(exact[:, None], coords, 0).astype(float), p)
    assert got_value.tobytes() == value.tobytes()
    assert got_err.tobytes() == err.tobytes()


@st.composite
def small_languages(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    # the quartic's zero automata grow past 7,000 states for M = 2
    digits = [-1, 0, 1] if name == "x4-x3-1" else [-2, -1, 0, 1, 2]
    alphabet = draw(st.lists(st.sampled_from(digits), min_size=2, max_size=3, unique=True))
    return name, sorted(alphabet), draw(st.integers(1, 8))


@settings(max_examples=12, deadline=None)
@given(small_languages())
def test_built_automata_recognise_exactly_the_zero_words(case):
    name, alphabet, depth = case
    p = base(name)
    report = verify_zero_language(build_zero_automaton(p, alphabet), p, depth)
    assert report["sound"] and report["complete"], report


@pytest.mark.parametrize("call", [
    lambda p: state_within_bounds((0, 1), p, 1),
    lambda p: float_tier(np.array([(0, 1)]), p, 1),
], ids=["state_within_bounds", "float_tier"])
def test_entry_points_hold_mp_lock(golden, monkeypatch, call):
    # mpmath's precision is process-global, so an entry point that changes
    # it holds algebraic._MP_LOCK for its whole body.  The algebraic helpers
    # it calls are unwrapped here, so only its own lock can make it wait.
    for name, fn in list(vars(za).items()):
        if getattr(fn, "__module__", None) == algebraic.__name__ and hasattr(fn, "__wrapped__"):
            monkeypatch.setattr(za, name, fn.__wrapped__)
    done = threading.Event()
    worker = threading.Thread(target=lambda: (call(golden), done.set()))
    with algebraic._MP_LOCK:
        worker.start()
        assert not done.wait(0.5)
    worker.join(timeout=60)
    assert not worker.is_alive() and done.is_set()


# ---------------------------------------------------------------- coordinate walk


def test_box_cap_holds_for_integer_bases(base_two, monkeypatch):
    # base 2 over {-20..20} has 41 bounded states; the cap is checked
    # before the box is allocated, whatever the degree
    monkeypatch.setattr(za, "_BOX_CAP", 10)
    with pytest.raises(CapExceeded):
        build_zero_automaton(base_two, range(-20, 21), trim="none")
    monkeypatch.setattr(za, "_BOX_CAP", 41)
    assert len(build_zero_automaton(base_two, range(-20, 21), trim="none").states) == 41


@st.composite
def walk_cases(draw):
    """A base, an alphabet of 2 to 4 letters from -3..3 (the quartic only
    over {-1, 0, 1}, whose untrimmed box has 6,123 states) and a trim."""
    minpoly = draw(st.sampled_from([
        BASES["golden"], BASES["tribonacci"], BASES["x3-x-1"], (-2, 1), (-3, 1), BASES["x4-x3-1"],
    ]))
    if minpoly == BASES["x4-x3-1"]:
        alphabet = [-1, 0, 1]
    else:
        alphabet = sorted(draw(st.sets(st.integers(-3, 3), min_size=2, max_size=4)))
    return minpoly, alphabet, draw(st.sampled_from(["both", "accessible", "none"]))


@settings(max_examples=30, deadline=None)
@given(walk_cases())
def test_walk_matches_the_beta_int_reference(case):
    minpoly, alphabet, trim = case
    p = pisot(minpoly)
    assert build_zero_automaton(p, alphabet, trim=trim) == reference_zero_automaton(p, alphabet, trim)


@pytest.mark.parametrize("name", ["golden", "tribonacci"])
@pytest.mark.parametrize("trim", ["both", "accessible"])
def test_huge_digits_scale_the_unit_automaton(name, trim):
    # y = beta*x - a is homogeneous, and so are the bounds in M: over
    # {-D, 0, D} every state is D times a state over {-1, 0, 1}.  D is past
    # both int64 and 2^53, so every coordinate is a Python int.
    p, d = base(name), 2**70

    def scaled(state):
        return format_coords(tuple(d * c for c in beta_int_from_name(state, p)))

    unit = build_zero_automaton(p, [-1, 0, 1], trim=trim)
    huge = build_zero_automaton(p, [-d, 0, d], trim=trim)
    assert huge.states == tuple(scaled(s) for s in unit.states)
    assert huge.edges == tuple((scaled(x), scaled(y), d * a) for x, y, a in unit.edges)
    assert huge.alphabet == (-d, 0, d)


def test_float_constants_taken_once_per_build(monkeypatch):
    # beta, beta - 1 and each conjugate with its factor are converted at
    # most once per build (none when an earlier build took them), not once
    # per BFS level: 2 * degree conversions against 368 over 46 levels
    p = base("x4-x3-1")
    calls = []

    def counted(ball):
        calls.append(ball)
        return algebraic.float_with_error(ball)

    monkeypatch.setattr(za, "float_with_error", counted)
    build_zero_automaton(p, [-1, 0, 1])
    assert len(calls) <= 2 * p.degree


@pytest.mark.parametrize("trim", ["both", "none"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_builds_read_the_enclosures_of_the_base(monkeypatch, name, trim):
    # The float tier's constants and the candidate box come from the
    # enclosures make_pisot certified, so a build over {-1, 0, 1} certifies
    # nothing further: every state is decided by the float tier or by an
    # exact boundary identity.
    p = base(name)

    def no_enclosures(p, prec):
        raise AssertionError(f"a build asked for enclosures at {prec} bits")

    monkeypatch.setattr(za, "refined_enclosures", no_enclosures)
    assert build_zero_automaton(p, [-1, 0, 1], trim=trim).n_states > 1
