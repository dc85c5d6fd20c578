"""Fourier transform of the push-forward measure via weighted matrix
products, limit coefficients along beta-power sequences, and the lattice
scan for nonvanishing limits.

The transform at t is the left-to-right product v_L W(t/beta) W(t/beta^2)
... v_R with W(t) = (1/lambda) sum_a e(-at) M_a.  Truncation after N
factors replaces the remainder by W(0)-factors, which leave v_L (and v_R)
fixed; the committed error is bounded through |W(t)-W(0)| <= 2 pi max|a|
|t| ||M|| / lambda together with a computed uniform bound K on the l1
norms of all partial row vectors.  Limit coefficients psi-hat(z) pick up a
finite head of factors W(frac(z beta^j)) whose arguments decay like the
conjugate powers of beta (Pisot property); fractional parts come from the
exact trace-identity evaluation, never from floating beta powers, in one
O(J) pass over the J head terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebraic import BetaInt, PisotNumber, bint_embed, frac_beta_powers
from .automaton import LabeledAutomaton, TransitionMatrices, transition_matrices
from .errors import EmptyInitialSet
from .parry import PerronData

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
    # c * |t| * beta^-N / (1 - 1/beta) <= tol
    geo = 1 - 1 / beta
    if t_abs == 0:
        return 1
    n = math.log(c * t_abs / (tol * geo)) / math.log(beta) if c * t_abs > tol * geo else 0
    return max(1, math.ceil(n))


def _eig_slack(pd: PerronData, k_row: float, n_factors: int) -> float:
    return (pd.res_L + pd.res_R) * k_row * (n_factors + 2) + _FP_EPS * k_row * (n_factors + 1)


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
    beta = p.beta_float
    c = _tail_constant(cache, cache.k_left)
    n = _tail_length(c, abs(t), beta, tol)
    row = cache.v_l.copy()
    for k in range(1, n + 1):
        row = cache.apply(row, t * beta**-k)
    value = complex(row @ cache.v_r)
    tail = c * abs(t) * beta ** -n / (1 - 1 / beta)
    return value, tail + _eig_slack(pd, cache.k_left, n)


def _initial_row(a: LabeledAutomaton, pd: PerronData) -> tuple[np.ndarray, float]:
    if not a.initial:
        raise EmptyInitialSet("automaton has no initial states")
    idx = a.state_index()
    v_i = np.zeros(pd.n_states)
    for s in a.initial:
        v_i[idx[s]] = 1.0
    denom = float(v_i @ pd.v_R)
    return v_i / denom, denom


def _k_initial(cache: WeightMatrixCache, row0: np.ndarray) -> float:
    # The initial row is not left-invariant under W(0); bound all partial
    # rows by iterating W(0) = M/lambda and taking the running l1 maximum
    # (the iterates converge to a multiple of v_L, so the max stabilises).
    w0 = sum(cache.mats.values()).real / cache.lam
    row = np.abs(row0.copy())
    best = row.sum()
    for _ in range(200):
        row = row @ w0
        best = max(best, row.sum())
    return float(best) * (1 + 1e-9) + 1e-12


def nu_hat_initial(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    t: float,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
) -> tuple[complex, float]:
    """Transform of the initial-state measure at t."""
    row0, _ = _initial_row(a, pd)
    if t == 0:
        return 1.0 + 0j, 1e-15
    cache = cache or build_weight_cache(a, pd)
    beta = p.beta_float
    k_row = _k_initial(cache, row0)
    c = _tail_constant(cache, k_row)
    n = _tail_length(c, abs(t), beta, tol)
    row = row0.astype(complex)
    for k in range(1, n + 1):
        row = cache.apply(row, t * beta**-k)
    value = complex(row @ cache.v_r)
    tail = c * abs(t) * beta ** -n / (1 - 1 / beta)
    return value, tail + _eig_slack(pd, k_row, n)


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

    row = cache.v_l.copy()
    arg_err = 0.0
    for fr in reversed(frac_beta_powers(zint, head_terms, p)):
        row = cache.apply(row, fr.value)
        arg_err += fr.bound
    for n in range(1, tail_terms + 1):
        row = cache.apply(row, z_val * beta**-n)
    value = complex(row @ cache.v_r)

    bound = (
        c * head_residual(head_terms)
        + c * abs(z_val) * beta**-tail_terms / (1 - 1 / beta)
        + c * arg_err
        + _eig_slack(pd, cache.k_left, head_terms + tail_terms + 1)
    )
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


def rajchman_scan(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    height: int,
    tol: float = DEFAULT_TOL,
    cache: WeightMatrixCache | None = None,
    jobs: int = 1,
) -> ScanResult:
    """Evaluate psi-hat over all nonzero z with coordinates in [-H, H].

    Only the canonical half (first nonzero coordinate positive) is
    evaluated since psi-hat(-z) is the conjugate of psi-hat(z).  Entries
    come back in lexicographic coordinate order; the maximum breaks ties
    towards the earlier z.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    cache = cache or build_weight_cache(a, pd)
    r = p.degree
    candidates = [
        coords
        for coords in itertools.product(range(-height, height + 1), repeat=r)
        if any(coords) and next(c for c in coords if c) > 0
    ]
    candidates.sort()

    def evaluate(coords):
        res = psi_hat(a, p, pd, coords, tol, cache)
        return ScanEntry(z_coords=coords, value=res.value, bound=res.bound)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(evaluate, candidates))
    else:
        entries = [evaluate(c) for c in candidates]

    best = max(range(len(entries)), key=lambda i: abs(entries[i].value))
    return ScanResult(
        height=height,
        entries=tuple(entries),
        max_abs=abs(entries[best].value),
        argmax=entries[best].z_coords,
    )
