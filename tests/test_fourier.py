import cmath
import functools
import math
import operator
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from measure_lab.automaton import parse_automaton
from measure_lab.errors import EmptyInitialSet
from measure_lab.fourier import (
    build_weight_cache,
    nu_hat,
    nu_hat_grid,
    nu_hat_initial,
    psi_hat,
    rajchman_scan,
)
from measure_lab.distribution import depth_cloud
from measure_lab.fixtures import FIXTURE_NAMES
from measure_lab.parry import perron

from helpers import label_blocks, signed_automata


# ---------------------------------------------------------------- oracles

def fullshift4_closed_form(t):
    """Transform of the hat-density measure: product of two box transforms."""
    if t == 0:
        return 1.0 + 0j
    f1 = (1 - cmath.exp(-2j * cmath.pi * t)) / (2j * cmath.pi * t)
    f2 = (1 - cmath.exp(-4j * cmath.pi * t)) / (4j * cmath.pi * t)
    return f1 * f2


def initial_cloud_quadrature(a, p, pd, t, depth):
    """Transform of the initial-state measure from a depth-n refinement."""
    idx = a.state_index()
    v_i = np.zeros(pd.n_states)
    for s in a.initial:
        v_i[idx[s]] = 1.0
    v_i = v_i / (v_i @ pd.v_R)
    per_label = label_blocks(a)
    beta = p.beta_float
    total = 0j

    def walk(row, k, value):
        nonlocal total
        if k == depth:
            total += (row @ pd.v_R) * pd.lam**-depth * cmath.exp(-2j * cmath.pi * t * value)
            return
        for label in a.alphabet:
            nxt = row @ per_label[label]
            if nxt.max() > 0:
                walk(nxt, k + 1, value + label * beta ** -(k + 1))

    walk(v_i, 0, 0.0)
    return total


# ---------------------------------------------------------------- nu_hat

def test_transform_at_zero_is_one(automata, pisots, perron_data):
    for name in automata:
        value, bound = nu_hat(automata[name], pisots[name], perron_data[name], 0.0)
        assert value == 1.0 + 0j
        assert bound < 1e-12


def test_fullshift4_matches_closed_form(automata, pisots, perron_data):
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    rng = random.Random(1)
    for _ in range(12):
        t = rng.uniform(-8, 8)
        value, bound = nu_hat(a, p, pd, t, 1e-9)
        assert abs(value - fullshift4_closed_form(t)) <= bound + 1e-9


def test_fullshift4_quarter_and_integer(automata, pisots, perron_data):
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    value, _ = nu_hat(a, p, pd, 0.25, 1e-8)
    assert abs(abs(value) - 4 * math.sqrt(2) / math.pi**2) < 1e-7
    assert abs(abs(value) - 0.57312) < 1e-4
    value, bound = nu_hat(a, p, pd, 1.0, 1e-8)
    assert abs(value) <= bound


def test_conjugate_symmetry_and_size(automata, pisots, perron_data):
    for name in ("fibonacci", "fig3", "example1-7edge"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        for t in (0.3, 1.7, 5.2):
            v_pos, b = nu_hat(a, p, pd, t, 1e-9)
            v_neg, _ = nu_hat(a, p, pd, -t, 1e-9)
            assert abs(v_neg - v_pos.conjugate()) < 2e-9
            assert abs(v_pos) <= 1 + b + 1e-12


def test_truncation_stability(automata, pisots, perron_data):
    for name in ("fibonacci", "fullshift4", "fig3"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        for t in (0.5, 3.3):
            v6, b6 = nu_hat(a, p, pd, t, 1e-6)
            v10, b10 = nu_hat(a, p, pd, t, 1e-10)
            assert abs(v6 - v10) <= b6 + b10


def test_quadrature_cross_check(automata, pisots, perron_data):
    for name in ("fibonacci", "example1-7edge"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        cloud = depth_cloud(a, p, pd, 10)
        for t in (0.4, 1.3):
            value, bound = nu_hat(a, p, pd, t, 1e-9)
            quad = sum(e.mass * cmath.exp(-2j * cmath.pi * t * e.value) for e in cloud.entries)
            tolerance = cloud.max_deviation * 2 * math.pi * abs(t) + bound + 1e-9
            assert abs(value - quad) <= tolerance


def test_atomic_transform_is_almost_periodic_sum(automata, pisots, perron_data):
    # for the atomic fixture, the transform equals the finite atom sum
    from measure_lab.classify import atoms

    a, p, pd = automata["example1-7edge"], pisots["example1-7edge"], perron_data["example1-7edge"]
    atom_list = atoms(a, p, pd)
    rng = random.Random(4)
    for _ in range(20):
        t = rng.uniform(-20, 20)
        value, bound = nu_hat(a, p, pd, t, 1e-9)
        direct = sum(at.mass * cmath.exp(-2j * cmath.pi * t * at.value_decimal)
                     for at in atom_list)
        assert abs(value - direct) <= bound + 1e-8


def cloud_quadrature(cloud, t):
    """Transform of a depth cloud, and the distance 2 pi |t| (widest cylinder
    offset) by which it may miss the true transform."""
    values = np.array([e.value for e in cloud.entries])
    masses = np.array([e.mass for e in cloud.entries])
    return np.exp(-2j * np.pi * t * values) @ masses, 2 * np.pi * abs(t) * cloud.max_deviation


@settings(max_examples=20, deadline=None)
@given(a=signed_automata(), integer_base=st.booleans(),
       ts=st.lists(st.floats(-3, 3).filter(lambda t: t != 0), min_size=1, max_size=5))
def test_grid_properties_on_random_automata(golden, base_two, a, integer_base, ts):
    # The grid holds 0, repeated t and both signs of every t.
    p = base_two if integer_base else golden
    pd = perron(a)
    grid = [0.0, *ts, *ts[:2], *(-t for t in ts)]
    batch = nu_hat_grid(a, p, pd, grid, 1e-9)
    at = {}
    for t, (value, bound) in zip(grid, batch):
        one, one_bound = nu_hat(a, p, pd, t, 1e-9)
        assert abs(value - one) <= bound + one_bound, t
        assert abs(value) <= 1 + bound, t
        at[t] = value, bound
    cloud = depth_cloud(a, p, pd, 6)
    mass_slack = abs(cloud.total_mass - 1) + 1e-12
    for t, (value, bound) in at.items():
        mirror, mirror_bound = at[-t]
        assert abs(mirror - value.conjugate()) <= bound + mirror_bound, t
        quad, offset = cloud_quadrature(cloud, t)
        assert abs(value - quad) <= bound + offset + mass_slack, t


# ---------------------------------------------------------------- argument error

@lru_cache(maxsize=None)
def beta_100_digits(minpoly, near):
    with mp.workdps(100):
        roots = mp.polyroots([mpf(c) for c in reversed(minpoly)], maxsteps=400, extraprec=800)
        return min((mp.re(r) for r in roots), key=lambda r: abs(r - near))


def mp_transform(a, pd, args):
    """v_L W(args[0]) ... W(args[-1]) v_R at the working precision, with the
    float Perron data taken as exact."""
    per_label = label_blocks(a)
    n = pd.n_states
    row = [mpf(x) for x in pd.v_L]
    for x in args:
        weights = [(mp.expjpi(-2 * label * x), m) for label, m in per_label.items()]
        row = [sum(row[i] * phase * int(m[i, j]) for phase, m in weights for i in range(n)) / mpf(pd.lam)
               for j in range(n)]
    return complex(sum(r * mpf(v) for r, v in zip(row, pd.v_R)))


@pytest.mark.parametrize("name", ["fibonacci", "fig3"])
@pytest.mark.parametrize("t", [0.37, -64.0, 1e6, -1e6])
def test_argument_errors_cover_the_arguments(automata, pisots, perron_data, monkeypatch, name, t):
    # Every factor's argument error e_k covers its distance (mod 1) from
    # t beta^-k at 100 digits, the bound adds c sum e_k, and the value lies
    # within the bound of a 60-digit product over a longer tail.  fig3 at
    # |t| = 10^6 needs the arguments from the certified beta enclosure.
    from measure_lab import fourier

    a, p, pd = automata[name], pisots[name], perron_data[name]
    arguments = fourier._arguments
    seen = []

    def recording_arguments(*args):
        seen.append(arguments(*args))
        return seen[-1]

    monkeypatch.setattr(fourier, "_arguments", recording_arguments)
    value, bound = nu_hat(a, p, pd, t, 1e-8)
    (args, errs, (n,), _), = seen
    cache = build_weight_cache(a, pd)
    assert bound <= 1e-8
    assert bound >= fourier._tail_constant(cache, cache.k_left) * errs[0, :n].sum()

    beta = beta_100_digits(p.minpoly, float(p.root_beta.mid))
    with mp.workdps(100):
        exact = [mpf(t) / beta**k for k in range(1, n + 61)]
        for k in range(n):
            miss = mpf(args[0, k]) - exact[k]
            assert abs(miss - mp.nint(miss)) <= errs[0, k], k
    with mp.workdps(60):
        assert abs(value - mp_transform(a, pd, exact)) <= bound


# ---------------------------------------------------------------- nu_hat_initial

def test_initial_transform_at_zero(automata, pisots, perron_data):
    v, _ = nu_hat_initial(
        automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"], 0.0
    )
    assert v == 1.0 + 0j


def test_initial_transform_requires_initial():
    a = parse_automaton(
        {"alphabet": [0], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 0}]}
    )
    pd = perron(a)
    from measure_lab.algebraic import make_pisot

    with pytest.raises(EmptyInitialSet):
        nu_hat_initial(a, make_pisot([-2, 1]), pd, 0.5)


def test_initial_transform_vs_cloud_quadrature(automata, pisots, perron_data):
    a, p, pd = automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"]
    value, bound = nu_hat_initial(a, p, pd, 0.5, 1e-8)
    quad = initial_cloud_quadrature(a, p, pd, 0.5, depth=22)
    assert abs(value - quad) < 1e-4


def test_initial_transform_point_mass(automata, pisots, perron_data):
    # all infinite paths from the zero state have value 0, so the
    # initial-state measure is a unit point mass and its transform is 1
    a, p, pd = automata["example1-7edge"], pisots["example1-7edge"], perron_data["example1-7edge"]
    for t in (0.37, 2.0, 11.25):
        value, bound = nu_hat_initial(a, p, pd, t, 1e-8)
        assert abs(value - 1) <= bound + 1e-6


def test_initial_row_bound_holds_for_long_products(automata, pisots, perron_data, monkeypatch):
    # The l1 bound K that nu_hat_initial hands the engine must cover
    # |row0| W(0)^n, which dominates every partial row, far past the tail
    # lengths the transform uses.
    from measure_lab import fourier

    engine = fourier._transform_batch
    seen = []

    def recording_engine(cache, pd, p, row, k_row, *rest):
        seen.append((cache, row, k_row))
        return engine(cache, pd, p, row, k_row, *rest)

    monkeypatch.setattr(fourier, "_transform_batch", recording_engine)
    for name in FIXTURE_NAMES:
        a, p, pd = automata[name], pisots[name], perron_data[name]
        if not a.initial:
            continue
        seen.clear()
        nu_hat_initial(a, p, pd, 0.5, 1e-8)
        (cache, row, k_row), = seen
        w0 = cache.weight(0.0).real
        x = np.abs(row)
        for _ in range(1000):
            assert x.sum() <= k_row, name
            x = x @ w0


def test_initial_transform_is_nu_hat_on_full_shift(automata, pisots, perron_data):
    # fullshift4's one state is initial, so the initial row is v_L itself
    # and both transforms run the same product bit for bit.
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    for t in (0.3, -1.7, 2.5, 13.1, 250.0):
        assert nu_hat_initial(a, p, pd, t, 1e-8) == nu_hat(a, p, pd, t, 1e-8)


# ---------------------------------------------------------------- psi_hat

def test_limit_at_zero(automata, pisots, perron_data):
    res = psi_hat(automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"], (0, 0))
    assert res.value == 1.0 + 0j


def test_integer_base_limit_equals_transform(automata, pisots, perron_data):
    a, p, pd = automata["fullshift4"], pisots["fullshift4"], perron_data["fullshift4"]
    for m in (1, 2, 5):
        v_direct, _ = nu_hat(a, p, pd, float(m), 1e-8)
        res = psi_hat(a, p, pd, (m,), 1e-8)
        assert res.value == v_direct


def test_fibonacci_limits_vanish(automata, pisots, perron_data):
    a, p, pd = automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"]
    scan = rajchman_scan(a, p, pd, height=2, tol=1e-8)
    assert scan.max_abs < 1e-6


def test_fig3_limit_nonzero_and_stable(automata, pisots, perron_data):
    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    res = psi_hat(a, p, pd, (1, 0), 1e-8)
    res2 = psi_hat(a, p, pd, (1, 0), 1e-8,
                   head_terms=2 * res.head_terms, tail_terms=2 * res.tail_terms)
    assert abs(res.value - res2.value) < 1e-6
    assert abs(res.value) > 1e-3  # nonvanishing limit: singularity evidence
    # frozen from the oracle run (direct high-precision transform along
    # golden powers converges to the same value from both parities)
    assert abs(res.value - (0.0025185487 - 0.0007575007j)) < 1e-8


def no_float_head(fourier):
    """The float head tier with every error inf, which sends every psi-hat
    row to the exact head."""
    float_tier = fourier.frac_beta_powers_float

    def stub(*args):
        values, errors = float_tier(*args)
        return values, np.full_like(errors, np.inf)

    return stub


def test_fig3_limit_head_matches_per_power_product(automata, pisots, perron_data, monkeypatch):
    # With the float head ruled out, psi_hat's one-pass exact head gives the
    # same value and bound, bit for bit, as the head built from one
    # frac_beta_power call per factor; the float-head values lie within both
    # bounds of the exact-head ones.
    from measure_lab import fourier
    from measure_lab.algebraic import frac_beta_power

    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    zs = ((1, 0), (2, -1))
    fast = {z: psi_hat(a, p, pd, z, 1e-8) for z in zs}
    monkeypatch.setattr(fourier, "frac_beta_powers_float", no_float_head(fourier))
    exact = {z: psi_hat(a, p, pd, z, 1e-8) for z in zs}
    assert all(res.head_terms > 8 and res.bound <= 1e-8 for res in exact.values())
    monkeypatch.setattr(
        fourier, "frac_beta_powers",
        lambda z, k_max, p: [frac_beta_power(z, k, p) for k in range(k_max + 1)],
    )
    assert all(psi_hat(a, p, pd, z, 1e-8) == res for z, res in exact.items())
    for z in zs:
        assert fast[z].head_terms == exact[z].head_terms
        assert abs(fast[z].value - exact[z].value) <= fast[z].bound + exact[z].bound, z


def test_limit_head_falls_back_to_exact_head(automata, pisots, perron_data, monkeypatch):
    # z = 2^53 + 1 - 2^53 beta: its conjugate embedding is near 1.5e16, so
    # the float head's first values are not known to within 1, while the
    # exact head meets tol = 1e-8.  The row takes the exact head and gives the value and bound
    # of the exact-head engine: the one with the float tier ruled out, and
    # the figures frozen from the engine before the float tier existed.
    from measure_lab import fourier
    from measure_lab.algebraic import bint_embed, float_with_error

    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    z = (2**53 + 1, -(2**53))
    conj, conj_err = float_with_error(bint_embed(z, 2, p))
    _, errors = fourier.frac_beta_powers_float([z], [[conj]], [[conj_err]], 124, p)
    assert errors[0, :5].min() > 1
    walks = []
    walk = fourier.frac_beta_powers
    monkeypatch.setattr(fourier, "frac_beta_powers", lambda *args: walks.append(args) or walk(*args))
    res = psi_hat(a, p, pd, z, 1e-8)
    assert walks == [(z, res.head_terms, p)]
    assert (res.head_terms, res.tail_terms) == (124, 123)
    assert res.bound == pytest.approx(9.685471284261638e-09, rel=1e-9)
    assert res.value == pytest.approx(-2.0250508803898102e-53 - 2.7367048763630977e-53j, rel=1e-9)
    monkeypatch.setattr(fourier, "frac_beta_powers_float", no_float_head(fourier))
    assert psi_hat(a, p, pd, z, 1e-8) == res


def test_limit_takes_the_exact_head_where_it_lowers_the_bound(automata, pisots, perron_data, monkeypatch):
    # At z = 10^308 (1 - beta) no head meets tol = 1e-200.  The float head's
    # errors, near |z_2| 2^-53 ~ 2e292, left a bound of 1.04e295; the exact
    # head's bound is lower, so the row takes the exact head and gives the
    # value and bound of the engine with the float tier ruled out.
    from measure_lab import fourier

    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    z = (10**308, -(10**308))
    res = psi_hat(a, p, pd, z, 1e-200)
    assert res.bound <= 1e-8
    monkeypatch.setattr(fourier, "frac_beta_powers_float", no_float_head(fourier))
    assert psi_hat(a, p, pd, z, 1e-200) == res


def test_erdos_full_shift_nonvanishing(golden):
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 0},
                   {"from": "s", "to": "s", "label": 1}]}
    )
    pd = perron(a)
    scan = rajchman_scan(a, golden, pd, height=1, tol=1e-9)
    assert scan.max_abs > 5e-3  # far above the singularity threshold 1e-4
    # frozen from the oracle run; the infinite cosine-product value
    assert abs(scan.max_abs - 0.0066134930) < 1e-8


def test_scan_symmetry_canonical_half(automata, pisots, perron_data):
    a, p, pd = automata["fibonacci"], pisots["fibonacci"], perron_data["fibonacci"]
    scan = rajchman_scan(a, p, pd, height=1)
    coords = [e.z_coords for e in scan.entries]
    assert all(next(c for c in z if c) > 0 for z in coords)
    assert coords == sorted(coords)


def test_consistency_limit_vs_large_argument(automata, pisots, perron_data):
    # psi_hat(z) agrees with the transform evaluated directly at z*beta^25,
    # all factor arguments reduced through exact fractional parts
    from measure_lab.algebraic import bint_embed, frac_beta_power

    k = 25
    for name in ("fibonacci", "fig3", "example1-7edge"):
        a, p, pd = automata[name], pisots[name], perron_data[name]
        cache = build_weight_cache(a, pd)
        z = (1, 0)
        row = cache.v_l.copy()
        for j in range(k - 1, -1, -1):
            row = row @ cache.weight(frac_beta_power(z, j, p).value)
        z_val = float(bint_embed(z, 1, p).mid)
        for n in range(1, 60):
            row = row @ cache.weight(z_val * p.beta_float**-n)
        direct = complex(row @ cache.v_r)
        res = psi_hat(a, p, pd, (1, 0), 1e-8)
        assert abs(res.value - direct) <= res.bound + 1e-6, name


@settings(max_examples=40, deadline=None)
@given(a=signed_automata(), t=st.floats(-50, 50))
def test_weight_reads_the_label_stack(a, t):
    # W(t) = sum_a e(-a t) M_a / lambda, here from per_label one matrix at
    # a time, against the blocks of the cache's stack.
    pd = perron(a)
    per_label = label_blocks(a)
    reference = sum(np.exp(-2j * np.pi * x * (t % 1.0)) * m for x, m in per_label.items()) / pd.lam
    assert np.abs(build_weight_cache(a, pd).weight(t) - reference).max() <= 1e-15


def test_psi_head_residual_adds_left_to_right():
    # From degree 4 on the discarded-head bound sums three or more conjugate
    # terms.  Python's sum is compensated from 3.12 on; the head length and
    # the fixed bound term come from the plain left-to-right float sum.
    from measure_lab import fourier
    from measure_lab.algebraic import bint_embed, make_pisot

    p = make_pisot([-1, 0, 0, -1, 1])
    c, tol = 3.7, 1e-8
    target = tol / (2 * c)
    for z in [(1, 0, 0, 0), (3, -2, 1, 5), (0, 7, 0, -4), (-9, 4, 4, 1)]:
        embeds = [bint_embed(z, q, p) for q in range(2, p.degree + 1)]
        mags = [(float(zq.mag()), float(bq.mag())) for zq, bq in zip(embeds, p.conjugates)]

        def residual(j):
            return functools.reduce(operator.add, [zq * bq ** (j + 1) / (1 - bq) for zq, bq in mags])

        head, fixed = fourier._psi_head(z, p, c, tol, None)
        assert fixed == c * residual(head)
        assert residual(head) <= target and (head == 0 or residual(head - 1) > target)


# ---------------------------------------------------------------- psi-hat set-up

HEAD_BASES = {
    "golden": (-1, -1, 1),
    "tribonacci": (-1, -1, -1, 1),
    "plastic": (-1, -1, 0, 1),
    "quartic": (-1, 0, 0, -1, 1),
}


@pytest.mark.parametrize("name", list(HEAD_BASES))
def test_psi_head_length_is_the_least_j_of_the_loop(name):
    # The closed-form guess and the bisection on head_residual give the
    # head length the loop j = 0, 1, ... gave on the same magnitudes: the
    # least j whose residual is at most tol / (2c), capped at 100,000.
    from measure_lab import fourier
    from measure_lab.algebraic import float_embeddings, make_pisot, root_floats

    p = make_pisot(list(HEAD_BASES[name]))
    rng = random.Random(7)
    zs = [tuple(rng.randint(-9, 9) for _ in range(p.degree)) for _ in range(12)]
    zs += [(1,) + (0,) * (p.degree - 1), (10**12,) * p.degree, tuple(range(1, p.degree + 1))]
    zs = [z for z in zs if any(z)]
    heads = []
    for z, embedded in zip(zs, float_embeddings(zs, p)):
        mags = list(zip(embedded.mags[1:], root_floats(p).mags[1:]))

        def residual(j):
            return functools.reduce(operator.add, [zq * bq ** (j + 1) / (1 - bq) for zq, bq in mags])

        for c, tol in [(3.7, 1e-8), (40.0, 1e-15), (0.25, 0.5), (1e6, 1e-300)]:
            target = tol / (2 * c)
            loop = 0
            while residual(loop) > target and loop < 100_000:
                loop += 1
            head, fixed = fourier._psi_head(z, p, c, tol, None, embedded)
            assert head == loop, (z, c, tol)
            assert fixed == c * residual(loop)
            heads.append(loop)
    if p.degree == 4:
        assert max(heads) > 400


def per_step_products(cache, row0, args, lengths):
    """The engine's products with one phase array per step, as before the
    phase table."""
    rows = np.tile(np.asarray(row0, dtype=complex), (len(lengths), 1))
    n = rows.shape[1]
    labels = cache.stack_labels
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    for k, m in enumerate(active):
        phases = np.exp(-2j * np.pi * np.outer(args[:m, k], labels))
        parts = (rows[:m] @ cache.stack).reshape(m, len(labels), n)
        rows[:m] = np.einsum("ma,man->mn", phases, parts)
    return rows @ cache.v_r


@pytest.mark.parametrize("name", ["fig3", "fullshift4", "example1-9edge"])
def test_phase_table_products_match_per_step_phases(automata, perron_data, name):
    from measure_lab import fourier

    cache = build_weight_cache(automata[name], perron_data[name])
    rng = np.random.default_rng(11)
    for rows in (1, 7, fourier._BLOCK):
        lengths = np.sort(rng.integers(1, 90, rows))[::-1]
        args = rng.uniform(-1, 1, (rows, lengths[0])) * (np.arange(lengths[0]) < lengths[:, None])
        for row0 in (cache.v_l, rng.uniform(0, 1, len(cache.v_l))):
            assert np.array_equal(
                fourier._products(cache, row0, args, lengths), per_step_products(cache, row0, args, lengths)
            )


def test_scan_runs_without_ball_embeddings(automata, pisots, perron_data):
    # Every psi-hat row takes its floats from the fixed-point pass: a scan,
    # a limit and a classify run with the ball embedding and its float
    # conversion patched to raise in every package module that holds them.
    import sys
    from contextlib import ExitStack
    from unittest import mock

    from measure_lab.algebraic import make_pisot
    from measure_lab.classify import classify

    tribshift = parse_automaton({
        "beta": {"minpoly": [-1, -1, -1, 1]}, "alphabet": [0, 1], "states": ["s"],
        "edges": [{"from": "s", "to": "s", "label": x} for x in (0, 1)],
    })
    cases = [(automata["fig3"], pisots["fig3"], perron_data["fig3"], 2),
             (tribshift, make_pisot([-1, -1, -1, 1]), perron(tribshift), 1)]
    expected = [rajchman_scan(a, p, pd, height) for a, p, pd, height in cases]
    with ExitStack() as patches:
        for name in ("bint_embed", "float_with_error"):
            for module in [m for key, m in sys.modules.items()
                           if key.startswith("measure_lab") and hasattr(m, name)]:
                patches.enter_context(mock.patch.object(
                    module, name, side_effect=AssertionError(f"psi-hat called {name}")))
        for (a, p, pd, height), scan in zip(cases, expected):
            assert rajchman_scan(a, p, pd, height) == scan
            assert psi_hat(a, p, pd, (3,) + (-2,) * (p.degree - 1)).bound <= 1e-8
        verdict = classify(automata["fig3"], pisots["fig3"], scan_height=2)
        assert verdict.evidence["type"] == "singular_by_fourier"


# ---------------------------------------------------------------- tail lengths

def recorded_batches(monkeypatch) -> list:
    """The batches later grids hand the engine, which evaluates nothing."""
    from measure_lab import fourier

    seen = []

    def recording(cache, pd, p, row0, k_row, tol, batch):
        seen.append((cache, k_row, batch))
        rows = len(batch.scale)
        return np.zeros(rows, complex), np.zeros(rows), batch.n_tail

    monkeypatch.setattr(fourier, "_transform_batch", recording)
    return seen


@pytest.mark.parametrize("initial", [False, True])
def test_grid_tail_lengths_are_the_per_point_ones(automata, pisots, perron_data, monkeypatch, initial):
    # Every point of a transform grid starts with the tail length the
    # scalar formula gives it, across the float range: tiny, huge and
    # negative t, and t = 0 (which is no row).
    from measure_lab import fourier
    from helpers import reference_tail_length

    a, p, pd = automata["fig3"], pisots["fig3"], perron_data["fig3"]
    rng = random.Random(5)
    ts = [rng.uniform(-64, 64) for _ in range(300)] + [0.0, -0.0, 5e-324, -1e-300, 1e300, -1.7976931348623157e308]
    ts += [rng.choice([-1, 1]) * 10.0 ** rng.uniform(-300, 300) for _ in range(100)]
    seen = recorded_batches(monkeypatch)
    for tol in (1e-8, 1e-200, 0.5):
        seen.clear()
        fourier.nu_hat_columns(a, p, pd, ts, tol, initial=initial)
        (cache, k_row, batch), = seen
        c = fourier._tail_constant(cache, k_row)
        nonzero = [t for t in ts if t != 0]
        assert batch.scale == nonzero
        assert batch.n_tail.tolist() == [reference_tail_length(c, abs(t), p.beta_float, tol) for t in nonzero]


@pytest.mark.parametrize("name", ["golden", "tribonacci"])
def test_psi_grid_tail_lengths_are_the_per_point_ones(name, monkeypatch):
    # Every z of a psi-hat grid starts with the tail length of its float
    # value at tol / 2, as the scalar formula gives it.
    from measure_lab import fourier
    from measure_lab.algebraic import float_embeddings, make_pisot, root_floats
    from helpers import reference_tail_length

    p = make_pisot(list(HEAD_BASES[name]))
    a = parse_automaton({"alphabet": [0, 1], "states": ["s"],
                         "edges": [{"from": "s", "to": "s", "label": 0}, {"from": "s", "to": "s", "label": 1}]})
    pd = perron(a)
    rng = random.Random(11)
    zs = [tuple(rng.randint(-50, 50) for _ in range(p.degree)) for _ in range(40)]
    zs += [(10**300,) + (0,) * (p.degree - 1), (1,) + (0,) * (p.degree - 1)]
    zs = [z for z in zs if any(z)]
    seen = recorded_batches(monkeypatch)
    tol = 1e-9
    fourier._psi_grid(a, p, pd, zs, tol)
    (cache, k_row, batch), = seen
    c = fourier._tail_constant(cache, k_row)
    beta = root_floats(p).values[0]
    expected = [reference_tail_length(c, abs(e.values[0]), beta, tol / 2) for e in float_embeddings(zs, p)]
    assert batch.scale == zs and batch.n_tail.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(
    s=st.lists(st.floats(0, 1.7976931348623157e308), min_size=1, max_size=8),
    tol=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=8),
    c=st.sampled_from([0.0, 1e-300, 0.37, 6.2, 1e300]),
    beta=st.sampled_from([1.618033988749895, 1.3247179572447458, 2.0, 4.0]),
)
def test_tail_lengths_match_the_scalar_formula(s, tol, c, beta):
    # The array form, with one tol or one tol per row (the longer tails of
    # _arguments), gives every row the scalar formula's length.
    from measure_lab import fourier
    from helpers import reference_tail_length

    tol = (tol * len(s))[: len(s)]
    assert fourier._tail_lengths(c, np.array(s), beta, tol[0]).tolist() == \
        [reference_tail_length(c, x, beta, tol[0]) for x in s]
    assert fourier._tail_lengths(c, np.array(s), beta, np.array(tol)).tolist() == \
        [reference_tail_length(c, x, beta, t) for x, t in zip(s, tol)]
