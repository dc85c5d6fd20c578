"""Exact arithmetic over Z[beta] and Q(beta) for a Pisot base beta.

An element of Z[beta] is the tuple of its coordinates in the power basis
1, beta, ..., beta^(r-1), Python ints of any size; an element of Q(beta)
is a tuple of Fractions.  One multiplication (``bint_mul``) and one
multiplication by beta (``bint_mul_beta``) serve both, and
``format_coords`` writes either as text.  Numeric values are only
ever produced as certified enclosures (midpoint plus radius), so that
boundary comparisons can never silently misclassify.  Every enclosure
follows one precision policy, ``_escalate``: start at ``PRECISION``
(128 bits), double until the decision is certified, and raise
``PrecisionExhausted`` past ``MEASURE_LAB_PRECISION_CAP``.
Embeddings of both element types are one ``ball_horner`` evaluation: int
coordinates enter exactly, Fraction coordinates rounded to the working
precision.  The nearest double of a Q(beta) value comes from integers
alone: beta's powers in fixed point, with an error that follows from
beta's enclosure, under the same doubling policy.

``make_pisot`` proves the minimal polynomial p irreducible in every
degree with one exact gate and the disk test.  The gate rejects a
repeated factor and p(0) = 0, then compares p with its reversal
p*(x) = x^r p(1/x).  A root zeta on the unit circle is a root of p* as
well, because conj(zeta) = 1/zeta is a root of p; so a proper common
factor makes p reducible, and p* = +-p leaves no Pisot root (bar
x^2 + bx + 1 with |b| > 2).  Past the gate no root has modulus one, and
the disk test certifies one root beta > 1 and all others inside the
unit circle, or rejects p.  Then p is irreducible: if p = g h with g, h
monic in Z[x] and g(beta) = 0, every root of h lies inside the unit
circle, so 0 < |h(0)| < 1, impossible for an integer.

Root enclosures are certified once per (minimal polynomial, precision,
precision cap) and reused by every later embedding and comparison.

The fractional part of z*beta^k is computed through the trace identity:
z*beta^k plus the sum of its Galois conjugates is a rational integer, and
the conjugate sum is tiny because all conjugates of a Pisot number have
modulus below one.  It comes in two tiers.  ``frac_beta_powers_float``
runs the conjugate powers z_q*beta_q^k in float64, one complex
multiplication per step for a whole array of z, with a certified error
per value; ``frac_beta_powers`` is the exact tier, which walks z*beta^j
for j = 0..k with one exact multiplication by beta per step (O(k) ring
operations) and encloses each conjugate sum with mpmath balls.
``frac_inverse_beta_powers`` gives x*beta^-k mod 1 from the enclosure of
beta, for transform arguments too large for floats.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpc, mpf

# mpmath's working precision is process-global state; every public entry
# point that touches it holds this lock so library callers that share the
# process across threads cannot race each other's precision escalations.
_MP_LOCK = threading.RLock()

from ._ball import Ball, CBall, ball_horner
from .errors import NotMonic, NotPisot, PrecisionExhausted, Reducible, ValidationError

PRECISION = 128  # bits: the start of every escalation and of make_pisot's enclosures
FRAC_MAX_ERR = 2.0**-60  # largest radius of a certified fractional part, read on each call
_PRECISION_CAP_ENV = "MEASURE_LAB_PRECISION_CAP"


def precision_cap() -> int:
    """The cap in bits, read on each call: 4096 when the variable is unset
    or empty, ValidationError unless it is an integer >= 1."""
    text = os.environ.get(_PRECISION_CAP_ENV) or "4096"
    try:
        cap = int(text)
    except ValueError:
        cap = 0  # rejected below, as any value under 1
    if cap < 1:
        raise ValidationError(f"{_PRECISION_CAP_ENV} must be an integer >= 1, got {text!r}")
    return cap


def _serialized(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with _MP_LOCK:
            return fn(*args, **kwargs)

    return wrapper


def _escalate(attempt, failure, start: int = PRECISION, cap: int | None = None):
    """The one precision policy: attempt(prec) at start, 2*start, ... while
    prec stays within the cap (the precision cap unless given, never below
    start); the first result that is not None wins.  Past the cap raises
    PrecisionExhausted(failure(cap))."""
    cap = max(precision_cap() if cap is None else cap, start)
    prec = start
    while prec <= cap:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted(failure(cap))


class FracPart(NamedTuple):
    value: float
    bound: float


@dataclass(frozen=True)
class PisotNumber:
    """A certified Pisot number given by its monic minimal polynomial.

    ``minpoly`` lists integer coefficients constant-term first, so
    x^2 - x - 1 is (-1, -1, 1).  ``root_beta`` encloses the dominant real
    root; ``conjugates`` enclose the remaining roots as complex disks, all
    certified to have modulus below one (which of them are real is never
    decided, since no test needs it).  ``make_pisot`` proves ``minpoly``
    irreducible in every degree: its exact gate rules out a root on the
    unit circle and a root 0, and then no monic integer factor can avoid
    beta, because the other factor's constant term would be a nonzero
    integer of modulus below one.
    """

    minpoly: tuple[int, ...]
    root_beta: Ball
    conjugates: tuple[CBall, ...]

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def beta_float(self) -> float:
        return float(self.root_beta.mid)

    def __repr__(self) -> str:
        return f"PisotNumber(minpoly={self.minpoly}, beta~{self.beta_float:.10f})"


# ----------------------------------------------------------------------
# Polynomial helpers (exact, over Z or Q)
# ----------------------------------------------------------------------


def _poly_derivative(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * coeffs[i] for i in range(1, len(coeffs)))


def _poly_degree(coeffs) -> int:
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    db, da = _poly_degree(b), _poly_degree(a)
    lead = b[db]
    while da >= db and da >= 0:
        f = a[da] / lead
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a[da] = Fraction(0)
        da = _poly_degree(a)
    return a


def _gcd_degree(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while _poly_degree(b) >= 0:
        a, b = b, _poly_mod(a, b)
    return _poly_degree(a)


@lru_cache(maxsize=None)
def _exact_gate(coeffs: tuple[int, ...]) -> tuple[type, str] | None:
    """The exact tests ``make_pisot`` runs on a monic polynomial p of
    degree r >= 2 before its disk test: the error class and message to
    raise, or None.  Memoised per coefficient tuple.

    g = gcd(p, p*), with p* the reversal x^r p(1/x), has every root of p
    on the unit circle among its roots.  0 < deg g < r makes g a proper
    factor; deg g = r means p* = +-p, and p* = -p gives p(1) = 0.
    """
    r = len(coeffs) - 1
    if _gcd_degree(coeffs, _poly_derivative(coeffs)) > 0:
        return Reducible, "polynomial has a repeated factor"
    if coeffs[0] == 0:
        return Reducible, f"rational root 0 found, degree {r} > 1"
    reverse = coeffs[::-1]
    if reverse == tuple(-c for c in coeffs):
        return Reducible, f"rational root 1 found, degree {r} > 1"
    if reverse == coeffs:
        if r == 2 and abs(coeffs[1]) > 2:
            return None
        return NotPisot, (
            "polynomial equals its reversal x^r p(1/x), so its roots pair z with 1/z "
            "and not all roots but one lie inside the unit circle"
        )
    shared = _gcd_degree(coeffs, reverse)
    if shared > 0:
        return Reducible, f"shares a factor of degree {shared} with its reversal x^r p(1/x)"
    return None


# ----------------------------------------------------------------------
# Certified root isolation
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_disks(minpoly: tuple[int, ...], prec: int):
    """Disjoint disks, one per root, or None if this precision is not enough.

    Each entry is (mid: mpc, rad: mpf).  The radius bound n*|p(z)|/|p'(z)|
    always contains a root; disjointness of all n disks then pins exactly
    one root per disk.  Dominant root (largest modulus) first.
    """
    deg = len(minpoly) - 1
    maxbits = max(abs(c).bit_length() for c in minpoly)
    work = max(prec + 64, maxbits + 64)
    if deg == 1:
        with mp.workprec(work):
            return ((mpc(-minpoly[0]), mpf(0)),)
    deriv = _poly_derivative(minpoly)
    with mp.workprec(work):
        try:
            roots = mp.polyroots(
                [mpf(c) for c in reversed(minpoly)],
                maxsteps=300,
                extraprec=prec,
            )
        except Exception:
            return None
        disks = []
        for z in roots:
            zb = CBall(mpc(z), mpf(0))
            pval = ball_horner(minpoly, zb)
            pder = ball_horner(deriv, zb)
            der_low = pder.abs_ball().mig()
            if der_low <= 0:
                return None
            rad = deg * pval.mag() / der_low * (1 + mpf(2) ** -20)
            disks.append((mpc(z), rad))
        for i in range(deg):
            for j in range(i + 1, deg):
                gap = abs(disks[i][0] - disks[j][0])
                if gap * (1 - mpf(2) ** -20) <= disks[i][1] + disks[j][1]:
                    return None
        disks.sort(key=lambda d: (-float(abs(d[0])), float(d[0].real), float(d[0].imag)))
        return tuple(disks)


def _classified_disks(minpoly: tuple[int, ...], target_prec: int):
    """Certified enclosures with dominant-root classification.

    Returns (beta: Ball, conjugates: tuple[CBall]), an integer root
    exactly.  Raises NotPisot when the root-modulus condition is
    certifiably violated, PrecisionExhausted past the cap.  Results are memoised per
    (minpoly, target_prec, cap); the cap is read on every call and is part
    of the key, so lowering it can never be bypassed by an earlier, wider
    certification.  Exceptions are not memoised.
    """
    return _classified_disks_capped(minpoly, target_prec, precision_cap())


@lru_cache(maxsize=None)
def _classified_disks_capped(minpoly: tuple[int, ...], target_prec: int, cap: int):
    width_goal = mpf(2) ** -(target_prec // 2)

    def attempt(prec: int):
        disks = _root_disks(minpoly, prec)
        if disks is None:
            return None
        with mp.workprec(prec + 64):
            big = [d for d in disks if abs(d[0]) - d[1] > 1]
            small = [d for d in disks if abs(d[0]) + d[1] < 1]
            if len(big) >= 2:
                z = big[1][0]
                raise NotPisot(
                    f"root {complex(z):.6g} has modulus > 1 besides the dominant root"
                )
            if len(big) + len(small) == len(disks) and len(big) == 0:
                raise NotPisot("no root with modulus > 1")
            sharp = all(d[1] <= width_goal for d in disks)
            if not (sharp and len(big) == 1 and len(small) == len(disks) - 1):
                return None
            dom = disks[0]
            # Exactly one root outside the unit circle: complex roots
            # pair with their conjugates, so this one is real.
            if dom[0].real < 0:
                raise NotPisot(f"dominant root {complex(dom[0]):.6g} is negative")
            return Ball(dom[0].real, dom[1]), tuple(CBall(mid, rad) for mid, rad in disks[1:])

    return _escalate(
        attempt,
        lambda cap: f"cannot certify root enclosures of {minpoly} within {cap} bits",
        max(64, target_prec),
        cap,
    )


@_serialized
def make_pisot(minpoly) -> PisotNumber:
    """Validate a monic integer polynomial and certify its Pisot root, with
    enclosures at ``PRECISION`` bits.

    Above degree 1, the exact gate ``_exact_gate`` runs first: a repeated
    factor, a root 0 or a factor shared with the reversal x^r p(1/x) is
    ``Reducible``, and a polynomial equal to its reversal is ``NotPisot``
    (bar x^2 + bx + 1 with |b| > 2).  Every root on the unit circle is a
    root of the reversal too, so none is left for the disk test, which
    then certifies one root beta > 1 and every other root inside the unit
    circle, or raises ``NotPisot``.  That proves p irreducible in every
    degree: were p = g h with g, h monic in Z[x] and g(beta) = 0, every
    root of h would lie inside the unit circle, so 0 < |h(0)| < 1 for the
    integer h(0), since p(0) != 0.
    """
    coeffs = tuple(int(c) for c in minpoly)
    if len(coeffs) < 2:
        raise NotMonic("degree must be at least 1")
    if coeffs[-1] != 1:
        raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")

    if len(coeffs) == 2:
        root = -coeffs[0]
        if root < 2:
            raise NotPisot(f"root {root} is not a real algebraic integer > 1")
        beta = Ball.enclose(root)
        return PisotNumber(coeffs, beta, ())

    rejection = _exact_gate(coeffs)
    if rejection is not None:
        error, message = rejection
        raise error(message)
    beta, conjugates = _classified_disks(coeffs, PRECISION)
    return PisotNumber(coeffs, beta, conjugates)


@_serialized
def refined_enclosures(p: PisotNumber, prec: int):
    """Root enclosures of p.minpoly at >= prec bits, certified once per
    (minpoly, prec, precision cap) and reused afterwards."""
    return _classified_disks(p.minpoly, prec)


# ----------------------------------------------------------------------
# Ring operations in Z[beta]
# ----------------------------------------------------------------------


def format_coords(x: tuple) -> str:
    """The text of an element: "(c0,c1,...)", each coordinate an int or a
    Fraction as ``str`` writes it.  Zero-automaton state names, c_map
    values and error messages all read this way."""
    return "(" + ",".join(map(str, x)) + ")"


def bint_mul(x: tuple, y: tuple, minpoly: tuple[int, ...]) -> tuple:
    """x * y in Z[beta], or in Q(beta) on Fraction coordinates."""
    r = len(minpoly) - 1
    prod = [0] * (2 * r - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for i in range(2 * r - 2, r - 1, -1):  # beta^i = beta^(i-r) * beta^r
        c = prod[i]
        if c:
            for j in range(r):
                prod[i - r + j] -= c * minpoly[j]
    return tuple(prod[:r])


def bint_mul_beta(x: tuple, minpoly: tuple[int, ...], add=0) -> tuple:
    """beta * x + add by one companion step, on int or Fraction
    coordinates: beta^r = -(minpoly[0] + ... + minpoly[r-1] beta^(r-1))."""
    top = x[-1]
    return (add - top * minpoly[0],) + tuple(
        low - top * m for low, m in zip(x[:-1], minpoly[1:])
    )


# ----------------------------------------------------------------------
# Embeddings and fractional parts
# ----------------------------------------------------------------------


def _embed(x, q: int, p: PisotNumber):
    if not 1 <= q <= p.degree:
        raise ValueError(f"embedding index {q} outside 1..{p.degree}")
    target = mpf(2) ** -(PRECISION // 2)

    def attempt(prec: int):
        beta, conj = refined_enclosures(p, prec)
        with mp.workprec(prec + 64):
            ball = ball_horner(x, beta if q == 1 else conj[q - 2])
        return ball if ball.rad <= target else None

    return _escalate(attempt, lambda cap: f"embedding of {format_coords(x)} at index {q}")


@_serialized
def bint_embed(x: tuple[int, ...], q: int, p: PisotNumber):
    """Certified enclosure of x under the q-th embedding (q=1 is beta itself).

    Returns a Ball for q=1 and a CBall otherwise; width is at most
    2^(-PRECISION/2), escalating internally as needed.
    """
    return _embed(x, q, p)


@_serialized
def qbeta_embed(x: tuple[Fraction, ...], q: int, p: PisotNumber):
    """Certified enclosure of a Q(beta) element; Ball for q=1, CBall else.

    Same evaluation and width as ``bint_embed``, with each rational
    coordinate rounded to the working precision.
    """
    return _embed(x, q, p)


# First fixed-point scale of qbeta_nearest_floats.
_FIXED_BITS = 160


def qbeta_nearest_floats(rows: Sequence[tuple[int, ...]], den: int, p: PisotNumber) -> list[float]:
    """The double nearest the value of each x = row / den (its embedding at
    beta itself), for integer coordinate rows over one denominator den > 0,
    decided in fixed point under ``_escalate``: K = 160 bits on
    ``p.root_beta`` first, then the values still undecided at K = 320,
    640, ... bits on ``refined_enclosures(p, K)``.

    With b = floor(mid * 2^K), b is within e = ceil(rad * 2^K) + 1 of
    beta * 2^K for every beta in the enclosure.  B_0 = 2^K and B_(i+1) =
    floor(B_i b / 2^K) are within e_0 = 0 and e_(i+1) = ceil((B_i e + e_i
    (b + e)) / 2^K) + 1 of beta^i 2^K: with beta^i 2^K = B_i + d_i and
    beta 2^K = b + d, the product misses by (B_i d + d_i b + d_i d) / 2^K,
    and the floor by less than 1.  With x = sum n_i beta^i / D, x D 2^K
    lies in [S - E, S + E] for S = sum n_i B_i and E = sum |n_i| e_i.  Int
    true division rounds correctly to nearest, so when both ends round to
    the same double, so does x.
    """
    out: list[float | None] = [None] * len(rows)

    def attempt(k: int) -> list[float] | None:
        beta = p.root_beta if k == _FIXED_BITS else refined_enclosures(p, k)[0]
        man, exp = beta.mid.man_exp
        b = man << (exp + k) if exp + k >= 0 else man >> -(exp + k)
        man, exp = beta.rad.man_exp
        e = (man << (exp + k) if exp + k >= 0 else -(-man >> -(exp + k))) + 1
        powers = [(1 << k, 0)]
        for _ in range(p.degree - 1):
            big, err = powers[-1]
            powers.append((big * b >> k, -(-(big * e + err * (b + e)) >> k) + 1))
        scale = den << k
        for i in [i for i, value in enumerate(out) if value is None]:
            total = err = 0
            for n, (big, e_i) in zip(rows[i], powers):
                total += n * big
                err += abs(n) * e_i
            low = (total - err) / scale
            if low == (total + err) / scale:
                out[i] = low
        return None if None in out else out

    return _escalate(
        attempt, lambda cap: f"cannot round a Q(beta) value to a double at {cap} bits", _FIXED_BITS
    )


# Rounding a value in [0, 1) to the nearest float moves it by at most half
# an ulp of [1/2, 1).
_FLOAT_ROUNDING = 2.0**-54


def _rad_float(rad: mpf) -> float:
    # Upper bound for a radius as a float; the inflation absorbs the
    # conversion's rounding.
    return float(rad * (1 + mpf(2) ** -20)) + 1e-300


def _frac_of_real_ball(ball: Ball) -> FracPart | None:
    """Fractional part of a real ball, or None when the ball straddles an
    integer.  The bound covers the radius and the float conversion."""
    with mp.workprec(max(mp.prec, 64)):
        n = int(mp.floor(ball.mid))
        lo_gap = ball.mid - n
        hi_gap = (n + 1) - ball.mid
        if lo_gap > ball.rad and hi_gap > ball.rad:
            return FracPart(float(lo_gap), _rad_float(ball.rad) + _FLOAT_ROUNDING)
    return None


@_serialized
def float_with_error(ball: Ball | CBall) -> tuple[float | complex, float]:
    """The float (complex for a CBall) nearest a ball's midpoint, and an
    upper bound on its distance from every point of the ball."""
    x = complex(ball.mid) if isinstance(ball, CBall) else float(ball.mid)
    with mp.workprec(max(mp.prec, 64)):
        return x, _rad_float(abs(ball.mid - x) + ball.rad)


@_serialized
def frac_inverse_beta_powers(x: float | tuple[int, ...], n: int, p: PisotNumber) -> list[FracPart]:
    """x * beta^-k mod 1 for k = 1..n, from the certified enclosure of beta.

    x is a float, taken exactly, or an element of Z[beta].  A value is a
    residue on the circle: it lies within its bound of x * beta^-k plus
    some integer, possibly at the other end of [0, 1) when x * beta^-k is
    near an integer, which is all a 1-periodic function of the argument
    needs.  Precision escalates until every enclosure is narrower than the
    float conversion's rounding, which each bound adds; the precision
    needed grows with log2|x| (1,024 bits for |x| = 1e300).
    """
    def attempt(prec: int):
        beta, _ = refined_enclosures(p, prec)
        with mp.workprec(prec + 64):
            ball = ball_horner(x, beta) if isinstance(x, tuple) else Ball(mpf(x), mpf(0))
            inv = beta.inv()
            out = []
            for _ in range(n):
                ball = ball * inv
                if ball.rad > _FLOAT_ROUNDING:
                    return None
                residue = ball.mid - mp.floor(ball.mid)  # exact
                out.append(FracPart(float(residue), _rad_float(ball.rad) + _FLOAT_ROUNDING))
            return out

    return _escalate(
        attempt,
        lambda cap: f"{format_coords(x) if isinstance(x, tuple) else x}*beta^-k for k <= {n} "
        f"cannot be enclosed to float precision within {cap} bits",
    )


@_serialized
def frac_beta_power(z: tuple[int, ...], k: int, p: PisotNumber) -> FracPart:
    """frac(z * beta^k) with a certified error bound.

    Computed through the trace identity (the conjugate sum of z*beta^k
    differs from it by a rational integer), which stays stable for large k
    where direct floating evaluation of beta^k has no fractional precision
    left.  Small k falls back to direct embedding.  Exactly-integer values
    return 0 with bound 0.  Root enclosures come from the per-base
    certification memo, so repeated calls do not re-certify; use
    ``frac_beta_powers`` for a whole range of k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = z
    for _ in range(k):
        w = bint_mul_beta(w, p.minpoly)
    return _certified_frac(z, k, w, p)


@_serialized
def frac_beta_powers(z: tuple[int, ...], k_max: int, p: PisotNumber) -> list[FracPart]:
    """[frac_beta_power(z, k, p) for k in 0..k_max], equal value for value,
    from one walk over z*beta^k with one exact multiplication by beta per
    step (O(k_max) ring operations instead of O(k_max^2))."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = []
    w = z
    for k in range(k_max + 1):
        if k:
            w = bint_mul_beta(w, p.minpoly)
        out.append(_certified_frac(z, k, w, p))
    return out


_U = 2.0**-53


def frac_beta_powers_float(
    zs: Sequence[tuple[int, ...]], conj: np.ndarray, conj_err: np.ndarray, k_max: int, p: PisotNumber
) -> tuple[np.ndarray, np.ndarray]:
    """frac(z * beta^k) for k = 0..k_max and every z of zs, in float64:
    arrays of values and of certified errors, one row per z.

    conj[i, q - 2] is a complex float within conj_err[i, q - 2] of the
    q-th embedding z_q of zs[i] (``float_with_error`` of ``bint_embed``).
    By the trace identity, which holds for every k >= 0, frac(z beta^k) =
    -sum_q z_q beta_q^k (mod 1) over the conjugates q = 2..r.  Each term
    y_k = z_q beta_q^k is run as the float product y^_k of z^ (the float
    z_q) with the k-th entry of a cumprod of b^, the float copy of beta_q
    within delta of it (``float_with_error`` of its enclosure).  With u =
    2^-53 and B = |b^|(1 + 2u) + delta, which bounds |b^| (hypot rounds by
    at most 2u relative) and |beta_q|:

    - products: a complex multiplication rounds by at most 4u relative,
      and y^_k takes at most k + 1 of them (the cumprod, then the product
      with z^), so |y^_k - z^ b^^k| <= |z^| B^k ((1 + 4u)^(k+1) - 1);
    - root error: |b^^k - beta_q^k| <= k delta B^(k-1), times |z^|;
    - z error: |z^ - z_q| |beta_q^k| <= conj_err B^k;
    - the sum s^ of -Re y^ over the r - 1 conjugates rounds by at most
      (r - 1) u sum_q |y^_k|, and dropping the imaginary parts adds nothing
      because the exact sum is real;
    - the value s^ - floor(s^) lies in [0, 1] and rounds by at most u.

    Roundings that underflow add at most 2^-1073 absolute per complex
    product; they and the underflow of the bound's own arithmetic are
    covered by 2^-1000 (k + 1)(1 + sum_q |z^| max(1, B^k)).  The sum of
    the terms is inflated by 1 + 2^-20, which covers its own rounding
    (with B^k a cumprod, about k u relative).  A value is a residue on
    the circle, within its error of frac(z beta^k) plus some integer,
    which is all a 1-periodic function of it needs.  An exact rational
    integer z keeps (0.0, 0.0) at k = 0.  A non-finite error (a
    coordinate too large for float) is inf.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    conj = np.asarray(conj, dtype=complex).reshape(len(zs), p.degree - 1)
    conj_err = np.asarray(conj_err, dtype=float).reshape(conj.shape)
    k = np.arange(k_max + 1)
    rounding = np.expm1((k + 1) * math.log1p(4 * _U))  # (1 + 4u)^(k+1) - 1
    total = np.zeros((len(zs), k_max + 1))
    err, mags, underflow = np.zeros_like(total), np.zeros_like(total), np.zeros_like(total)
    with np.errstate(over="ignore", invalid="ignore"):
        for q, point in enumerate(p.conjugates):
            b_hat, delta = float_with_error(point)
            big_b = abs(b_hat) * (1 + 2 * _U) + delta
            b_pow = np.cumprod(np.r_[1.0, np.full(k_max, big_b)])  # B^k
            b_prev = np.r_[0.0, b_pow[:-1]]  # B^(k-1); k = 0 multiplies it
            z_hat = conj[:, q, None]
            z_abs = np.abs(z_hat)
            y = z_hat * np.cumprod(np.r_[1.0, np.full(k_max, b_hat)])
            total -= y.real
            mags += np.abs(y)
            err += z_abs * (b_pow * rounding + k * delta * b_prev) + conj_err[:, q, None] * b_pow
            underflow += z_abs * np.maximum(b_pow, 1.0)
        values = total - np.floor(total)
        err += (p.degree - 1) * _U * mags + _U
        errors = err * (1 + 2.0**-20) + 2.0**-1000 * (k + 1) * (1 + underflow)
    errors[~np.isfinite(errors)] = np.inf
    integer = np.array([not any(z[1:]) for z in zs], dtype=bool)
    values[integer, 0] = errors[integer, 0] = 0.0
    return values, errors


def _certified_frac(z: tuple[int, ...], k: int, w: tuple[int, ...], p: PisotNumber) -> FracPart:
    """frac(w) for the exact element w = z*beta^k, escalating precision
    until the enclosure is within FRAC_MAX_ERR and clear of every integer."""
    if not any(w[1:]):
        return FracPart(0.0, 0.0)

    balls = []

    def attempt(prec: int):
        beta, conj = refined_enclosures(p, prec)
        with mp.workprec(prec + 64):
            if k <= 8:
                ball = ball_horner(w, beta)
            else:
                total = CBall.enclose(0)
                for point in conj:
                    total = total + ball_horner(w, point)
                ball = (-total).real_ball()
            balls.append(ball)
            return _frac_of_real_ball(ball) if ball.rad <= FRAC_MAX_ERR else None

    return _escalate(
        attempt,
        lambda cap: f"frac({format_coords(z)}*beta^{k}) enclosure {float(balls[-1].mid)!r} "
        f"+- {float(balls[-1].rad)!r} cannot be separated from an integer",
    )


# ----------------------------------------------------------------------
# Division in Q(beta)
# ----------------------------------------------------------------------


def qbeta_div(num: tuple, den: tuple, p: PisotNumber) -> tuple[Fraction, ...]:
    """Exact quotient via the r x r linear system of multiplication by den;
    int coordinates are taken as exact rationals.  ``make_pisot`` proves
    the minimal polynomial irreducible, so Q(beta) is a field and the
    system is regular for every nonzero den."""
    if not any(den):
        raise ZeroDivisionError("division by zero in Q(beta)")
    r = p.degree
    cols = []
    power = den
    for _ in range(r):
        cols.append(power)
        power = bint_mul_beta(power, p.minpoly)
    # A[i][j] = coefficient of beta^i in den * beta^j
    a = [[cols[j][i] for j in range(r)] + [num[i]] for i in range(r)]
    for col in range(r):
        pivot = next(row for row in range(col, r) if a[row][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for row in range(r):
            if row != col and a[row][col]:
                f = a[row][col]
                a[row] = [v - f * w for v, w in zip(a[row], a[col])]
    return tuple(a[i][r] for i in range(r))
