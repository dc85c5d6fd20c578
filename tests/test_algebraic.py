import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from measure_lab.algebraic import (
    PRECISION,
    bint_embed,
    bint_mul,
    float_with_error,
    frac_beta_power,
    frac_beta_powers,
    frac_beta_powers_float,
    make_pisot,
    qbeta_div,
    qbeta_embed,
)
from measure_lab.errors import NotMonic, NotPisot, Reducible

from helpers import bint_from_int, bint_pow_beta, qbeta_from_int, qbeta_mul


# ---------------------------------------------------------------- oracles

def quadratic_roots(c0, c1):
    """Roots of x^2 + c1 x + c0 by the quadratic formula."""
    disc = c1 * c1 - 4 * c0
    s = math.sqrt(abs(disc))
    if disc >= 0:
        return [(-c1 + s) / 2, (-c1 - s) / 2]
    return [complex(-c1 / 2, s / 2), complex(-c1 / 2, -s / 2)]


def fibonacci_numbers(n):
    fib = [0, 1]
    while len(fib) <= n + 1:
        fib.append(fib[-1] + fib[-2])
    return fib


# ---------------------------------------------------------------- make_pisot

def test_golden_ratio_roots(golden):
    assert abs(golden.beta_float - 1.6180339887498949) < 1e-12
    assert len(golden.conjugates) == 1
    assert abs(complex(golden.conjugates[0].mid) - (-0.6180339887498949)) < 1e-12


def test_integer_base(base_two):
    assert base_two.beta_float == 2.0
    assert base_two.degree == 1
    assert base_two.conjugates == ()


def test_quadratic_accepted_by_formula_oracle():
    roots = quadratic_roots(1, -3)  # x^2 - 3x + 1
    dominant = max(roots)
    other = min(roots)
    assert dominant > 1 and abs(other) < 1
    p = make_pisot([1, -3, 1])
    assert abs(p.beta_float - dominant) < 1e-12
    assert abs(complex(p.conjugates[0].mid).real - other) < 1e-12


def test_non_pisot_rejected_by_formula_oracle():
    roots = quadratic_roots(-3, -1)  # x^2 - x - 3
    assert min(roots) < -1  # second root has modulus > 1
    with pytest.raises(NotPisot):
        make_pisot([-3, -1, 1])


def test_not_monic():
    with pytest.raises(NotMonic):
        make_pisot([-1, -1, 2])
    with pytest.raises(NotMonic):
        make_pisot([5])


def test_rational_root_reducible():
    with pytest.raises(Reducible):
        make_pisot([2, -3, 1])  # (x-1)(x-2)


def test_repeated_factor_reducible():
    with pytest.raises(Reducible):
        make_pisot([4, -4, 1])  # (x-2)^2


def test_quartic_split_reducible():
    # (x^2 - x - 1)(x^2 - 3x + 1) has no rational roots
    # x^4 - 4x^3 + 3x^2 + 2x - 1
    with pytest.raises(Reducible):
        make_pisot([-1, 2, 3, -4, 1])


def test_degree_five_and_six_accepted():
    pentanacci = make_pisot([-1, -1, -1, -1, -1, 1])
    assert 1.96 < pentanacci.beta_float < 1.97
    hexanacci = make_pisot([-1, -1, -1, -1, -1, -1, 1])  # x^6 - x^5 - ... - 1
    assert 1.98 < hexanacci.beta_float < 1.99
    assert len(hexanacci.conjugates) == 5


def poly_mul(f, g):
    """Product of two coefficient tuples, constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


# golden, x^2 - 3x + 1, tribonacci, plastic, x^4 - x^3 - 1, pentanacci
GATE_BASES = [(-1, -1, 1), (1, -3, 1), (-1, -1, -1, 1), (-1, -1, 0, 1), (-1, 0, 0, -1, 1),
              (-1, -1, -1, -1, -1, 1)]
# x^2 + 1 and x^2 +- x + 1, whose roots lie on the unit circle
CYCLOTOMIC = [(1, 0, 1), (1, 1, 1), (1, -1, 1)]
monic_factors = st.integers(1, 3).flatmap(
    lambda degree: st.lists(st.integers(-3, 3), min_size=degree, max_size=degree)
).map(lambda lower: tuple(lower) + (1,))


@settings(max_examples=60, deadline=None)
@given(g=st.sampled_from(GATE_BASES), h=st.sampled_from(CYCLOTOMIC) | monic_factors)
@example(g=(-1, -1, -1, -1, -1, 1), h=(1, 0, 1))
@example(g=(-1, 0, 0, -1, 1), h=(1, -1, 1))
def test_gate_rejects_every_product_exactly(g, h):
    # A base times any monic factor is reducible or not Pisot, decided
    # without running out of precision, even with roots on the unit circle.
    make_pisot(g)
    with pytest.raises((Reducible, NotPisot)):
        make_pisot(poly_mul(g, h))


def test_integer_one_not_pisot():
    with pytest.raises(NotPisot):
        make_pisot([-1, 1])  # root 1


def test_enclosure_width(golden):
    ball = golden.root_beta
    assert float(ball.rad) <= 2.0 ** -(PRECISION // 2)


def test_pisot_battery_against_root_oracle():
    import numpy as np

    battery = [
        [-1, -1, 0, 1],      # plastic number, smallest Pisot
        [-1, 0, 0, -1, 1],   # x^4 - x^3 - 1
        [2, -4, 1],          # 2 +- sqrt(2)
        [-3, -1, -2, 1],     # x^3 - 2x^2 - x - 3
        [1, -1, -1, 1, 0, 1],  # degree 5, mixed
    ]
    for coeffs in battery:
        roots = np.roots(list(reversed(coeffs)))
        moduli = sorted(abs(r) for r in roots)
        dominant = max(roots, key=abs)
        is_pisot = (
            moduli[-2] < 1 - 1e-9
            and abs(dominant.imag) < 1e-9
            and dominant.real > 1
        )
        try:
            p = make_pisot(coeffs)
            assert is_pisot, coeffs
            assert abs(p.beta_float - dominant.real) < 1e-9
        except NotPisot:
            assert not is_pisot, coeffs
        except Reducible:
            # oracle only classifies root moduli; reducible inputs are
            # rejected earlier, which is also a correct refusal
            pass


# ---------------------------------------------------------------- ring ops

def test_beta_square_reduction(golden):
    b = (0, 1)
    assert bint_mul(b, b, golden.minpoly) == (1, 1)


def test_multiplicative_identity(golden):
    one = bint_from_int(1, golden)
    x = (5, -2)
    assert bint_mul(one, x, golden.minpoly) == x


def test_beta_power_ten_fibonacci_oracle(golden):
    fib = fibonacci_numbers(10)
    assert bint_pow_beta(10, golden) == (fib[9], fib[10]) == (34, 55)


def test_ring_axioms_random(golden, tribonacci):
    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    rng = random.Random(7)
    for p in (golden, tribonacci):
        r = p.degree
        for _ in range(60):
            x = tuple(rng.randint(-9, 9) for _ in range(r))
            y = tuple(rng.randint(-9, 9) for _ in range(r))
            z = tuple(rng.randint(-9, 9) for _ in range(r))
            m = p.minpoly
            assert bint_mul(x, y, m) == bint_mul(y, x, m)
            assert bint_mul(bint_mul(x, y, m), z, m) == bint_mul(x, bint_mul(y, z, m), m)
            assert bint_mul(x, add(y, z), m) == add(bint_mul(x, y, m), bint_mul(x, z, m))


# ---------------------------------------------------------------- embeddings

def test_embed_trivial_values(golden, base_two):
    assert abs(float(bint_embed((1, 1), 1, golden).mid) - 2.618033988749895) < 1e-12
    assert abs(complex(bint_embed((1, 1), 2, golden).mid).real - 0.3819660112501051) < 1e-12
    assert float(bint_embed((7,), 1, base_two).mid) == 7.0


def test_embedding_is_multiplicative(golden, tribonacci):
    rng = random.Random(11)
    for p in (golden, tribonacci):
        r = p.degree
        for _ in range(15):
            x = tuple(rng.randint(-6, 6) for _ in range(r))
            y = tuple(rng.randint(-6, 6) for _ in range(r))
            xy = bint_mul(x, y, p.minpoly)
            for q in range(1, r + 1):
                ex = bint_embed(x, q, p)
                ey = bint_embed(y, q, p)
                exy = bint_embed(xy, q, p)
                if q == 1:
                    prod_mid = ex.mid * ey.mid
                    prod_rad = abs(ex.mid) * ey.rad + abs(ey.mid) * ex.rad + ex.rad * ey.rad
                else:
                    prod_mid = ex.mid * ey.mid
                    prod_rad = abs(ex.mid) * ey.rad + abs(ey.mid) * ex.rad + ex.rad * ey.rad
                # the fresh enclosure sits inside the product enclosure
                assert abs(exy.mid - prod_mid) <= prod_rad + exy.rad + mpf(2) ** -40


def test_trace_integrality(golden, tribonacci, phi_squared):
    for p in (golden, tribonacci, phi_squared):
        for m in range(31):
            w = bint_pow_beta(m, p)
            with mp.workprec(256):
                total_mid = mpf(0)
                total_rad = mpf(0)
                for q in range(1, p.degree + 1):
                    ball = bint_embed(w, q, p)
                    if q == 1:
                        total_mid += ball.mid
                    else:
                        total_mid += ball.mid.real
                    total_rad += ball.rad
                assert total_rad < 0.5
                nearest = mp.nint(total_mid)
                assert abs(total_mid - nearest) <= total_rad + mpf(2) ** -30


# ---------------------------------------------------------------- frac

def test_frac_beta_golden_k1(golden):
    fr = frac_beta_power(bint_from_int(1, golden), 1, golden)
    assert abs(fr.value - 0.6180339887498949) <= fr.bound + 1e-12


def test_frac_beta_golden_k10_lucas_oracle(golden):
    # beta^10 + conj^10 is the Lucas number 123, so frac(beta^10) = 1 - conj^10
    conj = (1 - math.sqrt(5)) / 2
    expected = 1 - conj**10
    fr = frac_beta_power(bint_from_int(1, golden), 10, golden)
    assert abs(fr.value - expected) <= fr.bound + 1e-12
    assert abs(fr.value - 0.9918693812442166) < 1e-10


def test_frac_integer_base_always_zero(base_two):
    for k in range(20):
        fr = frac_beta_power((3,), k, base_two)
        assert fr == (0.0, 0.0)


def test_frac_matches_direct_high_precision(golden, tribonacci):
    for p in (golden, tribonacci):
        z = (1,) + (0,) * (p.degree - 1)
        with mp.workprec(400):
            beta = mp.findroot(
                lambda x: sum(c * x**i for i, c in enumerate(p.minpoly)), p.beta_float
            )
            for k in range(41):
                direct = beta**k
                direct_frac = float(direct - mp.floor(direct))
                fr = frac_beta_power(z, k, p)
                assert abs(fr.value - direct_frac) <= fr.bound + 1e-12, (p.minpoly, k)


@pytest.mark.parametrize(
    "minpoly",
    [(-1, -1, 1), (-1, -1, -1, 1), (-1, -1, 0, 1), (-1, 0, 0, -1, 1), (-2, 1)],
    ids=["golden", "tribonacci", "plastic", "quartic", "two"],
)
def test_frac_powers_equal_per_power(minpoly):
    # The one-pass head must reproduce the per-power evaluation bit for bit,
    # on both sides of the direct-embedding / trace-identity switch at k = 8.
    p = make_pisot(list(minpoly))
    r = p.degree
    generic = (3, -2, 5, -1)[:r]
    for z in ((0,) * r, bint_from_int(-3, p), generic):
        assert frac_beta_powers(z, 60, p) == [frac_beta_power(z, k, p) for k in range(61)]
    with pytest.raises(ValueError):
        frac_beta_powers(generic, -1, p)


def test_frac_powers_carry_the_precision(golden, monkeypatch):
    # The head of limit fig3 --z 10^300,-10^300: 1,484 terms whose
    # enclosures need up to 2,048 bits.  Each term starts at the precision
    # the term before it settled on, so the walk doubles four times from
    # 128 bits instead of climbing again for every term (7,379 attempts
    # when every term restarted at 128 bits).  Each doubling may also
    # certify the roots once at the new precision, under _escalate too.
    from measure_lab import algebraic

    attempts = []
    escalate = algebraic._escalate

    def counting(attempt, failure, start=PRECISION, cap=None):
        return escalate(lambda prec: attempts.append(prec) or attempt(prec), failure, start, cap)

    monkeypatch.setattr(algebraic, "_escalate", counting)
    z = (10**300, -(10**300))
    walk = frac_beta_powers(z, 1483, golden)
    assert attempts == sorted(attempts) and attempts[0] == PRECISION
    assert len(attempts) <= len(walk) + 2 * 4, len(attempts)
    assert max(attempts) == 2048
    for k in (0, 1, 700, 1483):
        assert abs(walk[k].value - frac_beta_power(z, k, golden).value) <= 2 * walk[k].bound


# x^n - x^(n-1) - ... - 1 for n = 2..5, x^3 - x - 1 and x^4 - x^3 - 1
FLOAT_HEAD_BASES = [(-1,) * n + (1,) for n in range(2, 6)] + [(-1, -1, 0, 1), (-1, 0, 0, -1, 1)]


@lru_cache(maxsize=None)
def cached_pisot(minpoly):
    return make_pisot(list(minpoly))


def float_head(z, k_max, p):
    """frac_beta_powers_float for one z, from its conjugate embeddings."""
    conj = [float_with_error(bint_embed(z, q, p)) for q in range(2, p.degree + 1)]
    values, errors = frac_beta_powers_float(
        [z], [[x for x, _ in conj]], [[e for _, e in conj]], k_max, p
    )
    return values[0], errors[0]


def circle_distance(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_float_head_within_bound_of_exact_head(data):
    minpoly = data.draw(st.sampled_from(FLOAT_HEAD_BASES))
    p = cached_pisot(minpoly)
    coords = st.lists(st.integers(-10**6, 10**6), min_size=p.degree, max_size=p.degree)
    z = tuple(data.draw(coords))
    k_max = data.draw(st.integers(0, 200))
    values, errors = float_head(z, k_max, p)
    # frac_beta_powers equals frac_beta_power value for value (test above).
    for k, exact in enumerate(frac_beta_powers(z, k_max, p)):
        assert circle_distance(values[k], exact.value) <= errors[k] + exact.bound, (minpoly, z, k)
        # the bound is a usable one, not a vacuous inf
        assert errors[k] < 1e-6, (minpoly, z, k)


def test_float_head_rational_integer_and_large_coordinates(golden, tribonacci):
    values, errors = float_head(bint_from_int(-7, tribonacci), 30, tribonacci)
    assert (values[0], errors[0]) == (0.0, 0.0)
    assert 0 < errors[1:].max() < 1e-13
    # past float range the errors are inf, and the head is left to the exact tier
    _, errors = float_head((10**400, -(10**400)), 5, golden)
    assert np.isinf(errors).all()
    with pytest.raises(ValueError):
        float_head(bint_from_int(1, golden), -1, golden)


# ---------------------------------------------------------------- Q(beta)

def test_qbeta_div_self(golden):
    beta = (Fraction(0), Fraction(1))
    assert qbeta_div(beta, beta, golden) == qbeta_from_int(1, golden)


def test_qbeta_div_takes_int_coordinates_exactly(golden):
    quotient = qbeta_div((1, 0), (3, 0), golden)
    assert quotient == (Fraction(1, 3), Fraction(0))
    assert all(type(c) is Fraction for c in quotient)


def test_qbeta_div_inverse_products(golden):
    one = qbeta_from_int(1, golden)
    beta_minus_one = (Fraction(-1), Fraction(1))
    inv = qbeta_div(one, beta_minus_one, golden)
    assert qbeta_mul(inv, beta_minus_one, golden) == one
    assert inv == (Fraction(0), Fraction(1))  # 1/(beta-1) = beta

    beta_sq_minus_one = (Fraction(0), Fraction(1))  # beta^2-1 reduces to beta
    inv2 = qbeta_div(one, beta_sq_minus_one, golden)
    assert qbeta_mul(inv2, beta_sq_minus_one, golden) == one
    assert inv2 == (Fraction(-1), Fraction(1))  # beta - 1


def test_qbeta_div_by_zero(golden):
    with pytest.raises(ZeroDivisionError):
        qbeta_div(qbeta_from_int(1, golden), qbeta_from_int(0, golden), golden)


def test_qbeta_embed_rational(golden):
    x = (Fraction(1, 2), Fraction(1, 3))
    ball = qbeta_embed(x, 1, golden)
    assert abs(float(ball.mid) - (0.5 + 1.6180339887498949 / 3)) < 1e-12


def test_precision_cap_env(golden, monkeypatch):
    from measure_lab import algebraic
    from measure_lab.errors import PrecisionExhausted

    # Warm the certification memo at high precision under the default cap
    # first: the memo must never widen a cap lowered afterwards.
    monkeypatch.delenv("MEASURE_LAB_PRECISION_CAP", raising=False)
    monkeypatch.setattr(algebraic, "FRAC_MAX_ERR", 2.0**-1000)
    fr = frac_beta_power(bint_from_int(1, golden), 12, golden)
    assert 0 < fr.value < 1
    monkeypatch.setenv("MEASURE_LAB_PRECISION_CAP", "256")
    with pytest.raises(PrecisionExhausted):
        frac_beta_power(bint_from_int(1, golden), 12, golden)


def test_certification_memo_keyed_by_cap(monkeypatch):
    # Force _classified_disks to escalate internally to 512 bits, memoise
    # that success under the default cap, then lower the cap below 512: the
    # memoised certification must not be returned past the lower cap.
    from measure_lab import algebraic
    from measure_lab.errors import PrecisionExhausted

    real = algebraic._root_disks
    monkeypatch.setattr(
        algebraic, "_root_disks",
        lambda minpoly, prec: None if prec < 512 else real(minpoly, prec),
    )
    minpoly = (-1, -1, 1)
    algebraic._classified_disks_capped.cache_clear()
    try:
        monkeypatch.delenv("MEASURE_LAB_PRECISION_CAP", raising=False)
        beta, _ = algebraic._classified_disks(minpoly, 64)
        assert abs(float(beta.mid) - (1 + math.sqrt(5)) / 2) < 1e-15
        monkeypatch.setenv("MEASURE_LAB_PRECISION_CAP", "256")
        with pytest.raises(PrecisionExhausted):
            algebraic._classified_disks(minpoly, 64)
    finally:
        # Entries certified through the stub are sharper than the real
        # ones; drop them so later tests see the usual enclosures.
        algebraic._classified_disks_capped.cache_clear()


def test_pisot_numbers_compare_and_hash_by_minimal_polynomial():
    # Memos keyed on the base hash its minimal polynomial, not the mpf
    # balls of its enclosures: two certifications of one polynomial share
    # every entry, whatever enclosures they hold.
    golden, again = make_pisot([-1, -1, 1]), make_pisot((-1, -1, 1))
    other_enclosures = dataclasses.replace(golden, conjugates=())
    for other in (again, other_enclosures):
        assert golden == other and hash(golden) == hash(other)
        assert {golden: "memo"}[other] == "memo"
    assert golden != make_pisot([-1, -1, -1, 1])
    assert golden != golden.minpoly
