"""Fourier transform of the push-forward measure via weighted matrix
products, limit coefficients along beta-power sequences, and the lattice
scan for nonvanishing limits.

Every value here is one product row0 W(x_1) W(x_2) ... v_R with W(t) =
(1/lambda) sum_a e(-at) M_a.  The transform at t starts at row0 = v_L with
the tail arguments t/beta, t/beta^2, ...; the initial-state transform
starts at the normalised indicator row of the initial states; the limit
coefficient psi-hat(z) puts a finite head of factors W(frac(z beta^j)) in
front of the tail at t = z.  Truncation after N tail factors replaces the
remainder by W(0)-factors, which leave v_L (and v_R) fixed; the committed
error is bounded through |W(t)-W(0)| <= 2 pi max|a| |t| ||M|| / lambda
together with a bound K on the l1 norms of all partial rows.  K is exact:
W(0) >= 0 and |W(t)| <= W(0) entrywise, so a start row with row0 <= c v_L
keeps every partial row below c v_L W(0)^n = c v_L, and K = c ||v_L||_1
(c = 1 for v_L itself).  Head arguments decay like the conjugate powers of
beta (Pisot property); fractional parts come from the exact
trace-identity evaluation, never from floating beta powers, in one O(J)
pass over the J head terms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebraic import BetaInt, PisotNumber, bint_embed, frac_beta_powers
from .automaton import LabeledAutomaton, TransitionMatrices, transition_matrices
from .errors import ValidationError
from .parry import PerronData, initial_row

DEFAULT_TOL = 1e-8
_FP_EPS = 1e-14


@dataclass
class WeightMatrixCache:
    """Shared read-only data for repeated transform evaluations."""

    lam: float
    labels: tuple[int, ...]
    mats: dict[int, np.ndarray]
    max_abs_label: int
    norm_m: float  # max row sum of the total matrix
    k_left: float  # uniform l1 bound on partial rows started at v_L
    v_l: np.ndarray
    v_r: np.ndarray

    def weight(self, t: float) -> np.ndarray:
        t = t % 1.0  # integer labels make W 1-periodic
        w = np.zeros_like(next(iter(self.mats.values())), dtype=complex)
        for a, m in self.mats.items():
            w += np.exp(-2j * np.pi * a * t) * m
        return w / self.lam

    def apply(self, row: np.ndarray, t: float) -> np.ndarray:
        return row @ self.weight(t)


def build_weight_cache(
    a: LabeledAutomaton, pd: PerronData, tm: TransitionMatrices | None = None
) -> WeightMatrixCache:
    tm = tm or transition_matrices(a)
    mats = {label: m.astype(complex) for label, m in tm.per_label.items()}
    norm_m = float(np.abs(tm.total).sum(axis=1).max())
    # |v_L W(t_1)...W(t_n)| <= v_L W(0)^n = v_L entrywise, so the l1 norms
    # of all partial rows stay below ||v_L||_1.
    k_left = float(np.abs(pd.v_L).sum()) * (1 + 1e-9) + 1e-12
    return WeightMatrixCache(
        lam=pd.lam,
        labels=a.alphabet,
        mats=mats,
        max_abs_label=max(abs(x) for x in a.alphabet),
        norm_m=norm_m,
        k_left=k_left,
        v_l=pd.v_L.astype(complex),
        v_r=pd.v_R.astype(complex),
    )


def _tail_constant(cache: WeightMatrixCache, k_row: float) -> float:
    return k_row * (2 * math.pi * cache.max_abs_label / cache.lam) * cache.norm_m * float(
        np.abs(cache.v_r).max()
    )


def _tail_length(c: float, t_abs: float, beta: float, tol: float) -> int:
    # c * |t| * beta^-N / (1 - 1/beta) <= tol, solved in logarithms so that
    # no product overflows: every finite t gets a finite N.
    if t_abs == 0 or c == 0:
        return 1
    n = (math.log(c) + math.log(t_abs) - math.log(tol * (1 - 1 / beta))) / math.log(beta)
    return max(1, math.ceil(n))


def _eig_slack(pd: PerronData, k_row: float, n_factors: int) -> float:
    return (pd.res_L + pd.res_R) * k_row * (n_factors + 2) + _FP_EPS * k_row * (n_factors + 1)


def _product(
    cache: WeightMatrixCache,
    pd: PerronData,
    beta: float,
    row: np.ndarray,
    k_row: float,
    t: float,
    n_tail: int,
    head: Sequence[float] = (),
) -> tuple[complex, float, float]:
    """row W(head[0]) ... W(head[-1]) W(t/beta) ... W(t/beta^n_tail) v_R.

    k_row bounds the l1 norm of every partial row started at row.  Returns
    the value, the tail term of its bound (the factors after n_tail) and
    the eigenvector and rounding slack over all factors.
    """
    args = [*head, *(t * beta**-k for k in range(1, n_tail + 1))]
    for x in args:
        row = cache.apply(row, x)
    tail = _tail_constant(cache, k_row) * abs(t) * beta**-n_tail / (1 - 1 / beta)
    return complex(row @ cache.v_r), tail, _eig_slack(pd, k_row, len(args))


def _transform(
    cache: WeightMatrixCache,
    pd: PerronData,
    beta: float,
    row: np.ndarray,
    k_row: float,
    t: float,
    tol: float,
) -> tuple[complex, float]:
    n = _tail_length(_tail_constant(cache, k_row), abs(t), beta, tol)
    value, tail, slack = _product(cache, pd, beta, row, k_row, t, n)
    return value, tail + slack


def nu_hat(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    t: float,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
) -> tuple[complex, float]:
    """Transform of the measure at t, with a certified truncation bound."""
    if t == 0:
        return 1.0 + 0j, abs(float(pd.v_L @ pd.v_R) - 1.0) + 1e-15
    cache = cache or build_weight_cache(a, pd)
    return _transform(cache, pd, p.beta_float, cache.v_l, cache.k_left, t, tol)


def nu_hat_initial(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    t: float,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
) -> tuple[complex, float]:
    """Transform of the initial-state measure at t."""
    v_i, denom = initial_row(pd, a)
    if t == 0:
        return 1.0 + 0j, 1e-15
    cache = cache or build_weight_cache(a, pd)
    row0 = v_i / denom
    # row0 <= c v_L entrywise, so every partial row stays below c ||v_L||_1.
    c = float((row0 / pd.v_L).max())
    return _transform(cache, pd, p.beta_float, row0, c * cache.k_left, t, tol)


@dataclass(frozen=True)
class PsiValue:
    value: complex
    bound: float
    head_terms: int
    tail_terms: int


def psi_hat(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    z,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
    head_terms: int | None = None,
    tail_terms: int | None = None,
) -> PsiValue:
    """Limit of the transform along z*beta^k for z in Z[beta].

    The value is v_L [prod_{j=J..0} W(frac(z beta^j))] [prod_{n=1..N}
    W(z beta^-n)] v_R with J chosen so the discarded head arguments
    (bounded by the conjugate decay of z beta^j) and N chosen so the tail
    both fit inside tol.  For integer beta every head factor is W(0), so
    the value coincides with nu_hat at the integer z.
    """
    if isinstance(z, BetaInt):
        zint = z
    else:
        zint = BetaInt(tuple(int(c) for c in z))
    if len(zint.coords) != p.degree:
        raise ValueError(f"z must have {p.degree} coordinates")
    if zint.is_zero:
        return PsiValue(1.0 + 0j, 1e-15, 0, 0)

    if p.degree == 1:
        value, bound = nu_hat(a, p, pd, float(zint.coords[0]), tol, cache)
        return PsiValue(value, bound, 0, 0)

    cache = cache or build_weight_cache(a, pd)
    beta = p.beta_float
    c = _tail_constant(cache, cache.k_left)

    z_val = float(bint_embed(zint, 1, p).mid)
    conj_mags = []
    for q in range(2, p.degree + 1):
        zq = bint_embed(zint, q, p).mag()
        bq = p.conjugates[q - 2].mag()
        conj_mags.append((float(zq), float(bq)))

    def head_residual(j: int) -> float:
        # sum_{i > j} dist(z beta^i, Z) <= sum_q |z_q| |beta_q|^(i) ...
        return sum(zq * bq ** (j + 1) / (1 - bq) for zq, bq in conj_mags)

    if head_terms is None:
        target = tol / (2 * c) if c > 0 else 1.0
        j = 0
        while head_residual(j) > target and j < 100_000:
            j += 1
        head_terms = j
    if tail_terms is None:
        tail_terms = _tail_length(c, abs(z_val), beta, tol / 2)

    fracs = frac_beta_powers(zint, head_terms, p)[::-1]
    value, tail, slack = _product(
        cache, pd, beta, cache.v_l, cache.k_left, z_val, tail_terms, [fr.value for fr in fracs]
    )
    arg_err = sum(fr.bound for fr in fracs)
    bound = c * head_residual(head_terms) + tail + c * arg_err + slack
    return PsiValue(value, bound, head_terms, tail_terms)


@dataclass(frozen=True)
class ScanEntry:
    z_coords: tuple[int, ...]
    value: complex
    bound: float


@dataclass(frozen=True)
class ScanResult:
    height: int
    entries: tuple[ScanEntry, ...]
    max_abs: float
    argmax: tuple[int, ...]


def check_scan_height(height: int) -> None:
    if height < 1:
        raise ValidationError(f"scan height must be >= 1, got {height}")


def rajchman_scan(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    height: int,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
) -> ScanResult:
    """Evaluate psi-hat over all nonzero z with coordinates in [-H, H].

    Only the canonical half (first nonzero coordinate positive) is
    evaluated since psi-hat(-z) is the conjugate of psi-hat(z).  Entries
    come back in lexicographic coordinate order; the maximum breaks ties
    towards the earlier z.
    """
    check_scan_height(height)
    cache = cache or build_weight_cache(a, pd)
    r = p.degree
    candidates = [
        coords
        for coords in itertools.product(range(-height, height + 1), repeat=r)
        if any(coords) and next(c for c in coords if c) > 0
    ]
    candidates.sort()

    entries = []
    for coords in candidates:
        res = psi_hat(a, p, pd, coords, tol, cache)
        entries.append(ScanEntry(z_coords=coords, value=res.value, bound=res.bound))

    best = max(range(len(entries)), key=lambda i: abs(entries[i].value))
    return ScanResult(
        height=height,
        entries=tuple(entries),
        max_abs=abs(entries[best].value),
        argmax=entries[best].z_coords,
    )
