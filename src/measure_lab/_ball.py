"""Midpoint-radius ball arithmetic on top of mpmath.

A small self-contained layer for certified evaluation of algebraic
numbers: every operation returns a ball guaranteed to contain the exact
result, with the radius inflated to absorb floating-point rounding of the
midpoint.  Real balls and complex disks share one arithmetic.  Callers
set the working precision through ``mp.workprec`` and escalate it through
``algebraic._escalate``; radii are nonnegative ``mpf`` values so they
survive down to exponents far below double range.  An int enters exactly,
a Fraction rounded (radius |mid|*eps, even for denominator 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf


def _eps() -> mpf:
    # One-ulp rounding per operation, padded by a few bits.
    return mpf(2) ** (4 - mp.prec)


def _to_mpf_exact(n: int) -> mpf:
    if n == 0:
        return mpf(0)
    with mp.workprec(max(mp.prec, n.bit_length() + 8)):
        return mpf(n)


class _Arith:
    """The arithmetic shared by Ball and CBall; results keep the type."""

    @classmethod
    def enclose(cls, c: int | Fraction):
        """Ball around an int (exact) or a Fraction (rounded)."""
        if isinstance(c, Fraction):
            mid = _to_mpf_exact(c.numerator) / _to_mpf_exact(c.denominator)
            rad = abs(mid) * _eps()
        else:
            mid, rad = _to_mpf_exact(c), mpf(0)
        return cls(cls._lift(mid), rad)

    def __add__(self, other):
        e = _eps()
        mid = self.mid + other.mid
        rad = (self.rad + other.rad) * (1 + e) + abs(mid) * e
        return type(self)(mid, rad)

    def __neg__(self):
        return type(self)(-self.mid, self.rad)

    def __mul__(self, other):
        e = _eps()
        mid = self.mid * other.mid
        rad = (
            abs(self.mid) * other.rad
            + abs(other.mid) * self.rad
            + self.rad * other.rad
        ) * (1 + 4 * e) + abs(mid) * e
        return type(self)(mid, rad)

    def add_int(self, n: int):
        e = _eps()
        mid = self.mid + _to_mpf_exact(n)
        return type(self)(mid, self.rad * (1 + e) + abs(mid) * e)

    def mag(self) -> mpf:
        """Upper bound for |value|."""
        return abs(self.mid) + self.rad


@dataclass(frozen=True)
class Ball(_Arith):
    """Real ball [mid - rad, mid + rad]."""

    mid: mpf
    rad: mpf

    # Identity, not mpf(): that would round an exact big integer.
    _lift = staticmethod(lambda x: x)

    def lower(self) -> mpf:
        return self.mid - self.rad

    def mig(self) -> mpf:
        """Lower bound for |value|."""
        low = abs(self.mid) - self.rad
        return low if low > 0 else mpf(0)

    def inv(self) -> Ball:
        """Ball containing 1/value; the ball must exclude zero."""
        e = _eps()
        low = self.mig()
        if low == 0:
            raise ZeroDivisionError("ball contains zero")
        mid = 1 / self.mid
        return Ball(mid, self.rad / (low * abs(self.mid)) * (1 + 4 * e) + abs(mid) * e)


@dataclass(frozen=True)
class CBall(_Arith):
    """Complex ball: disk of radius rad around mid."""

    mid: mpc
    rad: mpf

    _lift = staticmethod(mpc)

    def abs_ball(self) -> Ball:
        """Real ball containing |value|."""
        e = _eps()
        m = abs(self.mid)
        return Ball(m, self.rad * (1 + e) + m * e)

    def real_ball(self) -> Ball:
        """Real ball containing the value, valid when the value is known real."""
        return Ball(self.mid.real, self.rad)


def ball_horner(coeffs, point):
    """Evaluate sum(coeffs[i] * point**i) as a ball of point's type.

    Coefficients are ints or Fractions, entering as ``enclose`` does.
    """
    acc = point.enclose(coeffs[-1] if coeffs else 0)
    for c in reversed(coeffs[:-1]):
        acc = acc * point
        acc = acc + point.enclose(c) if isinstance(c, Fraction) else acc.add_int(c)
    return acc
