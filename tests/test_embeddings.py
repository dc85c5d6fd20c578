"""Embeddings of Z[beta] and Q(beta) elements at every index.

The bit-for-bit test keeps the earlier ball arithmetic (separate real and
complex ball classes, ``from_int``/``from_fraction``/``from_ball``
constructors, a Horner loop over int coefficients and a separate Horner
loop over Fraction coordinates) as the reference that the shared
arithmetic must reproduce exactly, midpoint and radius.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from measure_lab.algebraic import (
    PRECISION,
    bint_embed,
    frac_beta_powers,
    make_pisot,
    precision_cap,
    qbeta_div,
    qbeta_embed,
    refined_enclosures,
)

from helpers import qbeta_add, qbeta_from_bint, qbeta_from_int, qbeta_mul, qbeta_mul_beta, qbeta_sub

BASES = {
    "golden": (-1, -1, 1),
    "tribonacci": (-1, -1, -1, 1),
    "plastic": (-1, -1, 0, 1),
    "quartic": (-1, 0, 0, -1, 1),
}


# ------------------------------------------------ reference ball arithmetic

def _eps():
    return mpf(2) ** (4 - mp.prec)


def _exact(n):
    if n == 0:
        return mpf(0)
    with mp.workprec(max(mp.prec, n.bit_length() + 8)):
        return mpf(n)


@dataclass(frozen=True)
class RefBall:
    mid: mpf
    rad: mpf

    @staticmethod
    def from_int(n):
        return RefBall(_exact(n), mpf(0))

    @staticmethod
    def from_fraction(q):
        mid = _exact(q.numerator) / _exact(q.denominator)
        return RefBall(mid, abs(mid) * _eps())

    def __add__(self, other):
        e = _eps()
        mid = self.mid + other.mid
        return RefBall(mid, (self.rad + other.rad) * (1 + e) + abs(mid) * e)

    def __mul__(self, other):
        e = _eps()
        mid = self.mid * other.mid
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad) * (1 + 4 * e) + abs(mid) * e
        return RefBall(mid, rad)

    def add_int(self, n):
        e = _eps()
        mid = self.mid + _exact(n)
        return RefBall(mid, self.rad * (1 + e) + abs(mid) * e)


@dataclass(frozen=True)
class RefCBall:
    mid: mpc
    rad: mpf

    @staticmethod
    def from_int(n):
        return RefCBall(mpc(_exact(n)), mpf(0))

    @staticmethod
    def from_ball(b):
        return RefCBall(mpc(b.mid), b.rad)

    def __add__(self, other):
        e = _eps()
        mid = self.mid + other.mid
        return RefCBall(mid, (self.rad + other.rad) * (1 + e) + abs(mid) * e)

    def __neg__(self):
        return RefCBall(-self.mid, self.rad)

    def __mul__(self, other):
        e = _eps()
        mid = self.mid * other.mid
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad) * (1 + 4 * e) + abs(mid) * e
        return RefCBall(mid, rad)

    def add_int(self, n):
        e = _eps()
        mid = self.mid + _exact(n)
        return RefCBall(mid, self.rad * (1 + e) + abs(mid) * e)


def ref_horner(coeffs, point):
    acc = point.from_int(coeffs[-1]) if coeffs else point.from_int(0)
    for c in reversed(coeffs[:-1]):
        acc = (acc * point).add_int(c)
    return acc


def ref_points(p, prec):
    beta, conj = refined_enclosures(p, prec)
    return [RefBall(beta.mid, beta.rad)] + [RefCBall(c.mid, c.rad) for c in conj]


def ref_escalate(p, attempt):
    prec, cap = PRECISION, max(precision_cap(), PRECISION)
    while True:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
        assert prec <= cap, "reference ran out of precision"


def ref_bint_embed(x, q, p):
    target = mpf(2) ** -(PRECISION // 2)

    def attempt(prec):
        point = ref_points(p, prec)[q - 1]
        with mp.workprec(prec + 64):
            ball = ref_horner(x, point)
        return ball if ball.rad <= target else None

    return ref_escalate(p, attempt)


def ref_qbeta_embed(x, q, p):
    target = mpf(2) ** -(PRECISION // 2)

    def attempt(prec):
        point = ref_points(p, prec)[q - 1]
        with mp.workprec(prec + 64):
            if q == 1:
                acc = RefBall.from_fraction(x[-1])
            else:
                acc = RefCBall.from_ball(RefBall.from_fraction(x[-1]))
            for c in reversed(x[:-1]):
                fb = RefBall.from_fraction(c)
                step = fb if q == 1 else RefCBall.from_ball(fb)
                acc = acc * point + step
        return acc if acc.rad <= target else None

    return ref_escalate(p, attempt)


def ref_frac(w, k, p, max_err=2.0**-60):
    if all(c == 0 for c in w[1:]):
        return (0.0, 0.0)

    def attempt(prec):
        points = ref_points(p, prec)
        with mp.workprec(prec + 64):
            if k <= 8:
                ball = ref_horner(w, points[0])
            else:
                total = RefCBall.from_int(0)
                for point in points[1:]:
                    total = total + ref_horner(w, point)
                total = -total
                ball = RefBall(total.mid.real, total.rad)
            if ball.rad > max_err:
                return None
            n = int(mp.floor(ball.mid))
            lo_gap, hi_gap = ball.mid - n, (n + 1) - ball.mid
            if lo_gap > ball.rad and hi_gap > ball.rad:
                return float(lo_gap), float(ball.rad * (1 + mpf(2) ** -20)) + 1e-300
        return None

    return ref_escalate(p, attempt)


def ref_mul_beta(coords, minpoly):
    top = coords[-1]
    shifted = (0,) + coords[:-1]
    return tuple(s - top * minpoly[i] for i, s in enumerate(shifted))


def random_elements(r, rng):
    """Small and large elements of Z[beta] (int coordinates) and Q(beta)
    (Fraction coordinates); the large ones make the embeddings escalate
    past the starting precision."""
    ints = [tuple(rng.randint(-50, 50) for _ in range(r)) for _ in range(6)]
    ints += [(0,) * r, (2**300,) + (1,) * (r - 1)]
    fracs = [tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(r))
             for _ in range(6)]
    fracs += [(Fraction(2**300, 3),) + (Fraction(0),) * (r - 1),
              qbeta_from_bint(ints[0])]
    return ints, fracs


@pytest.mark.parametrize("name", list(BASES))
def test_embeddings_match_reference_bit_for_bit(name):
    p = make_pisot(list(BASES[name]))
    ints, fracs = random_elements(p.degree, random.Random(name))
    for q in range(1, p.degree + 1):
        for x in ints:
            got, ref = bint_embed(x, q, p), ref_bint_embed(x, q, p)
            assert (got.mid, got.rad) == (ref.mid, ref.rad), (x, q)
        for x in fracs:
            got, ref = qbeta_embed(x, q, p), ref_qbeta_embed(x, q, p)
            assert (got.mid, got.rad) == (ref.mid, ref.rad), (x, q)
    for z in ints[:3]:
        walk, w = [], z
        for k in range(41):
            walk.append(ref_frac(w, k, p))
            w = ref_mul_beta(w, p.minpoly)
        got = frac_beta_powers(z, 40, p)
        assert [fr.value for fr in got] == [value for value, _ in walk]
        # The bound adds the float conversion's rounding, 2^-54 for a value
        # in [0, 1), to the enclosure's radius; exact integers stay exact.
        assert [fr.bound for fr in got] == [bound + 2.0**-54 if bound else 0.0 for _, bound in walk]


# ------------------------------------------------ conjugate embeddings

@lru_cache(maxsize=None)
def roots_200_digits(minpoly):
    """Every root at 200 digits, ordered as the package's embeddings."""
    p = make_pisot(list(minpoly))
    with mp.workdps(200):
        roots = mp.polyroots([mpf(c) for c in reversed(minpoly)], maxsteps=400, extraprec=800)
        centres = [mpc(p.root_beta.mid)] + [c.mid for c in p.conjugates]
        return p, [min(roots, key=lambda z: abs(z - centre)) for centre in centres]


coordinate = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)


@pytest.mark.parametrize("name", ["golden", "tribonacci", "plastic"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_qbeta_embeddings_at_every_index(name, data):
    p, roots = roots_200_digits(BASES[name])
    r = p.degree
    x = tuple(data.draw(st.lists(coordinate, min_size=r, max_size=r)))
    y = tuple(data.draw(st.lists(coordinate, min_size=r, max_size=r)))
    b = tuple(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=r, max_size=r)))
    for q, root in enumerate(roots, start=1):
        ball = qbeta_embed(x, q, p)
        with mp.workdps(200):
            exact = sum(mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(x))
            assert abs(exact - ball.mid) <= ball.rad, (x, q)
        lifted, direct = qbeta_embed(qbeta_from_bint(b), q, p), bint_embed(b, q, p)
        assert abs(lifted.mid - direct.mid) <= lifted.rad + direct.rad, (b, q)
    results = [qbeta_add(x, y), qbeta_sub(x, y), qbeta_mul(x, y, p), qbeta_mul_beta(x, p),
               qbeta_from_bint(b), qbeta_from_int(3, p)]
    if any(y):
        results.append(qbeta_div(x, y, p))
    for z in results:
        assert all(type(c) is Fraction for c in z), z
