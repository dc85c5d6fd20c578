"""Fourier transform of the push-forward measure via weighted matrix
products, limit coefficients along beta-power sequences, and the lattice
scan for nonvanishing limits.

Every value here is one product row0 W(x_1) W(x_2) ... v_R with W(x) =
(1/lambda) sum_a e(-ax) M_a.  The transform at t starts at row0 = v_L with
the tail arguments t/beta, t/beta^2, ...; the initial-state transform
starts at the normalised indicator row of the initial states; the limit
coefficient psi-hat(z) puts a finite head of factors W(frac(z beta^j)) in
front of the tail at t = z.

One batched engine evaluates a whole grid of such products, one row per
point.  The rows are sorted by their number of factors, longest first, so
the rows that still have a factor at step k are a prefix, and each step
is rows <- sum_a e(-a x)[:, None] (rows @ M_a / lambda), one matrix
product for all labels.  The grid runs in blocks of _BLOCK rows, so memory
stays O(_BLOCK * states) besides the arguments.

A value's bound adds up these terms:
- truncation: after N tail factors the remainder is replaced by
  W(0)-factors, which leave v_L (and v_R) fixed.  With |W(x) - W(y)| <=
  2 pi max|a| |x - y| ||M|| / lambda and a bound K on the l1 norms of all
  partial rows this costs c |t| beta^-N / (1 - 1/beta), c =
  ``_tail_constant``;
- arguments: by the same estimate a factor whose argument is known to
  within e_k (mod 1) costs c e_k, so the bound adds c sum e_k.  Tail
  arguments are float products of t with float powers of 1/beta_float,
  reduced mod 1 exactly (fmod); e_k covers beta_float's distance from the
  certified root, the roundings of beta^-k and of t beta^-k, and for
  psi-hat the error of the float value of z.  Where these float arguments
  push a bound past tol, the row first takes the longer tail that leaves
  them their share of tol.  Where no share is left (large |t|), the tail
  arguments come instead from the certified beta enclosure at escalating
  precision (``frac_inverse_beta_powers``), which raises
  PrecisionExhausted past the cap.  Head arguments frac(z beta^j) are
  float64 conjugate sums -sum_q z_q beta_q^j with a certified error
  (``frac_beta_powers_float``, O(1) per term for a whole block of z).  A
  row whose float head pushes its bound past tol, where exact head
  arguments would bring it back within tol (the tail taken at its best),
  or whose head errors are not finite, takes the exact head
  (``frac_beta_powers``) instead;
- psi-hat's discarded head, bounded through the conjugate decay of z
  beta^j (Pisot property);
- eigenvector residuals and float rounding, per factor.
K is exact: W(0) >= 0 and |W(t)| <= W(0) entrywise, so a start row with
row0 <= c v_L keeps every partial row below c v_L W(0)^n = c v_L, and K =
c ||v_L||_1 (c = 1 for v_L itself).  Neither head tier takes a float
power of beta, which has no fractional precision left for large j: the
float tier runs the conjugate powers, which shrink with j, and the exact
tier encloses the exact element z beta^j.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebraic import (
    PisotNumber,
    bint_embed,
    float_with_error,
    frac_beta_powers,
    frac_beta_powers_float,
    frac_inverse_beta_powers,
)
from .automaton import LabeledAutomaton, transition_matrices
from .errors import CapExceeded, ValidationError
from .parry import PerronData, initial_row

DEFAULT_TOL = 1e-8
_FP_EPS = 1e-14
_BLOCK = 256  # grid rows per engine pass
# Most values of z one lattice scan evaluates.  A fig3 scan of height 300
# (180,600 z) took 52 s at a peak RSS of 244 MB, about 1.1 KB per z on a
# 38 MB base, so a scan at the cap stays near 270 MB and a minute.
SCAN_CAP = 200_000
_TINY = np.finfo(float).tiny
# Largest |log(1 + d)| over the relative errors d of one float64 rounding.
_LOG_ROUND = -math.log1p(-(2.0**-53))


@dataclass
class WeightMatrixCache:
    """Shared read-only data for the products of one transform grid:
    ``stack`` is the label stack of ``transition_matrices`` over lambda."""

    lam: float
    stack: np.ndarray  # complex; block i is M_a / lambda for the i-th letter a
    stack_labels: np.ndarray  # the label of each block of stack, as floats
    max_abs_label: int
    norm_m: float  # max row sum of the total matrix
    k_left: float  # uniform l1 bound on partial rows started at v_L
    v_l: np.ndarray
    v_r: np.ndarray

    def weight(self, t: float) -> np.ndarray:
        t = t % 1.0  # integer labels make W 1-periodic
        n = len(self.v_r)
        phases = np.exp(-2j * np.pi * self.stack_labels * t)
        return np.einsum("a,ian->in", phases, self.stack.reshape(n, len(phases), n))


def build_weight_cache(a: LabeledAutomaton, pd: PerronData) -> WeightMatrixCache:
    src, _, _ = a.edge_arrays()
    norm_m = float(np.bincount(src).max())  # the largest out-degree
    # |v_L W(t_1)...W(t_n)| <= v_L W(0)^n = v_L entrywise, so the l1 norms
    # of all partial rows stay below ||v_L||_1.
    k_left = float(np.abs(pd.v_L).sum()) * (1 + 1e-9) + 1e-12
    return WeightMatrixCache(
        lam=pd.lam,
        stack=transition_matrices(a).astype(complex) / pd.lam,
        stack_labels=np.array(a.alphabet, dtype=float),
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


def _eig_slack(pd: PerronData, k_row: float, n_factors):
    return (pd.res_L + pd.res_R) * k_row * (n_factors + 2) + _FP_EPS * k_row * (n_factors + 1)


@dataclass(frozen=True)
class _Product:
    """One row of a batch: row0 W(frac(s beta^(n_head-1))) ... W(frac(s))
    W(s/beta) ... W(s/beta^n_tail) v_R."""

    scale: float | tuple[int, ...]  # s, exact
    s_hat: float  # the float nearest s
    s_err: float  # bound on |s_hat - s|
    n_tail: int
    n_head: int = 0
    conj: tuple[complex, ...] = ()  # float conjugate embeddings of s, for the head
    conj_err: tuple[float, ...] = ()  # bounds on their errors
    fixed: float = 0.0  # bound terms settled before the product


def _float_powers(p: PisotNumber, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta^-k for k = 1..n in float, one rounding per step from
    1/beta_float, and coefficients a_k, b_k such that the float product
    x_k of a float s with the k-th power is within |s| a_k + d b_k of
    s' beta^-k for every real s' within d of s (while the power is a
    normal float)."""
    beta, beta_err = float_with_error(p.root_beta)
    k = np.arange(1, n + 1)
    # |x_k / (s beta^-k) - 1| <= rho_k: 2k roundings (the reciprocal raised
    # to the k-th power, k - 1 steps, the product with s) and the k-th power
    # of beta / beta_float.
    rho = np.expm1(k * (2 * _LOG_ROUND - math.log1p(-beta_err / beta)))
    pw = np.cumprod(np.full(n, 1 / beta))
    b = pw / (1 - rho)  # >= beta^-k
    return pw, b * rho, b


def _arguments(
    cache: WeightMatrixCache,
    pd: PerronData,
    p: PisotNumber,
    k_row: float,
    tol: float,
    block: Sequence[_Product],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arguments of a block of rows (head, then tail, reduced mod 1, zero
    padded), their errors e_k, the rows' lengths and bounds.

    Head arguments are the float tier's; a row whose bound they push past
    tol while exact ones would not (or whose head errors are not finite)
    takes the exact head.  Tail arguments are floats.  A row whose bound
    they push past tol first gets the longer tail that leaves them their
    share of tol; where no share is left (large |s|), its tail arguments
    come from the certified beta enclosure instead.
    """
    c = _tail_constant(cache, k_row)
    beta = p.beta_float
    s_hat = np.array([q.s_hat for q in block])
    s_err = np.array([q.s_err for q in block])
    s_abs = np.abs(s_hat) + s_err
    fixed = np.array([q.fixed for q in block])
    j = np.array([q.n_head for q in block])
    n = np.array([q.n_tail for q in block])
    head_args = head_errs = np.zeros((len(block), 0))
    if j.any():  # in power order: column i holds frac(s beta^i)
        head_args, head_errs = frac_beta_powers_float(
            [q.scale for q in block], [q.conj for q in block], [q.conj_err for q in block],
            int(j.max()) - 1, p,
        )

    def truncation(n):
        return c * s_abs * beta ** -n.astype(float) / (1 - 1 / beta)

    def bound(n, errs):
        return fixed + truncation(n) + _eig_slack(pd, k_row, j + n) + c * errs.sum(axis=1)

    def assemble(n):
        pw, a, b = _float_powers(p, int(n.max()))
        steps = np.arange(int((j + n).max())) - j[:, None]  # tail step per column
        tail = (steps >= 0) & (steps < n[:, None])
        k = np.clip(steps, 0, len(pw) - 1)
        err = (np.abs(s_hat)[:, None] * a[k] + s_err[:, None] * b[k]) * (1 + 2.0**-40)
        args = np.where(tail, s_hat[:, None] * pw[k], 0.0)
        errs = np.where(tail, np.where(pw[k] >= _TINY, err, np.inf), 0.0)
        if j.any():  # head column i of a row holds power j - 1 - i = -1 - steps
            head = steps < 0
            power = np.clip(-1 - steps, 0, head_args.shape[1] - 1)
            args = np.where(head, np.take_along_axis(head_args, power, axis=1), args)
            errs = np.where(head, np.take_along_axis(head_errs, power, axis=1), errs)
        return args, errs, tail

    args, errs, tail = assemble(n)
    # The tail taken at its best: its errors are the longer or ball tail's job.
    float_head = bound(n, np.where(tail, 0.0, errs))
    exact_args = bound(n, np.zeros_like(errs))
    exact_head = np.flatnonzero(
        (j > 0) & ~(float_head <= tol) & ((exact_args <= tol) | ~np.isfinite(float_head))
    )
    for r in exact_head:
        fracs = frac_beta_powers(block[r].scale, int(j[r]) - 1, p)
        head_args[r, : j[r]] = [fr.value for fr in fracs]
        head_errs[r, : j[r]] = [fr.bound for fr in fracs]
    if len(exact_head):
        args, errs, tail = assemble(n)
    bounds = bound(n, errs)
    share = tol - (bounds - truncation(n))
    longer = np.flatnonzero((bounds > tol) & (share > 0))
    for r in longer:
        n[r] = max(n[r], _tail_length(c, s_abs[r], beta, share[r]))
    if len(longer):
        args, errs, tail = assemble(n)
        bounds = bound(n, errs)
    exact_tail = bound(n, np.where(tail, 0.0, errs))
    ball = np.flatnonzero((bounds > tol) & ((exact_tail <= tol) | ~np.isfinite(bounds)))
    for r in ball:
        fracs = frac_inverse_beta_powers(block[r].scale, int(n[r]), p)
        args[r, j[r] : j[r] + n[r]] = [fr.value for fr in fracs]
        errs[r, j[r] : j[r] + n[r]] = [fr.bound for fr in fracs]
    if len(ball):
        bounds = bound(n, errs)
    return np.fmod(args, 1.0), errs, j + n, bounds


def _products(
    cache: WeightMatrixCache, row0: np.ndarray, args: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """row0 W(args[i, 0]) ... W(args[i, lengths[i] - 1]) v_R for every row i.

    lengths must not increase, so the rows with a factor left at step k
    are the first active[k]; each step is one product with the labels'
    matrices side by side (``cache.stack``).
    """
    rows = np.tile(np.asarray(row0, dtype=complex), (len(lengths), 1))
    n = rows.shape[1]
    labels = cache.stack_labels
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    for k, m in enumerate(active):
        phases = np.exp(-2j * np.pi * np.outer(args[:m, k], labels))
        parts = (rows[:m] @ cache.stack).reshape(m, len(labels), n)
        rows[:m] = np.einsum("ma,man->mn", phases, parts)
    return rows @ cache.v_r


def _transform_batch(
    cache: WeightMatrixCache,
    pd: PerronData,
    p: PisotNumber,
    row0: np.ndarray,
    k_row: float,
    tol: float,
    products: Sequence[_Product],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, bounds and tail lengths of a batch of products that share
    row0, in blocks of _BLOCK rows of similar length.  k_row bounds the l1
    norm of every partial row started at row0."""
    values = np.empty(len(products), dtype=complex)
    bounds = np.empty(len(products))
    n_tail = np.empty(len(products), dtype=int)
    order = np.argsort([-(q.n_head + q.n_tail) for q in products], kind="stable")
    for start in range(0, len(order), _BLOCK):
        idx = order[start : start + _BLOCK]
        block = [products[i] for i in idx]
        args, _, lengths, block_bounds = _arguments(cache, pd, p, k_row, tol, block)
        bounds[idx] = block_bounds
        n_tail[idx] = lengths - [q.n_head for q in block]
        by_length = np.argsort(-lengths, kind="stable")
        values[idx[by_length]] = _products(cache, row0, args[by_length], lengths[by_length])
    return values, bounds, n_tail


def nu_hat_grid(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    ts: Sequence[float],
    tol: float = DEFAULT_TOL,
    initial: bool = False,
) -> list[tuple[complex, float]]:
    """Transform (of the initial-state measure if initial) with its
    certified bound at every t of a grid, from one batched product."""
    cache = build_weight_cache(a, pd)
    if initial:
        v_i, denom = initial_row(pd, a)
        row0 = v_i / denom
        # row0 <= c v_L entrywise, so every partial row stays below c ||v_L||_1.
        k_row = float((row0 / pd.v_L).max()) * cache.k_left
        at_zero = 1.0 + 0j, 1e-15
    else:
        row0, k_row = cache.v_l, cache.k_left
        at_zero = 1.0 + 0j, abs(float(pd.v_L @ pd.v_R) - 1.0) + 1e-15
    c = _tail_constant(cache, k_row)
    products = [
        _Product(t, t, 0.0, _tail_length(c, abs(t), p.beta_float, tol)) for t in ts if t != 0
    ]
    values, bounds, _ = _transform_batch(cache, pd, p, row0, k_row, tol, products)
    rest = iter(zip(values.tolist(), bounds.tolist()))
    return [at_zero if t == 0 else next(rest) for t in ts]


def nu_hat(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    t: float,
    tol: float = DEFAULT_TOL,
) -> tuple[complex, float]:
    """Transform of the measure at t, with a certified bound."""
    return nu_hat_grid(a, p, pd, [t], tol)[0]


def nu_hat_initial(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    t: float,
    tol: float = DEFAULT_TOL,
) -> tuple[complex, float]:
    """Transform of the initial-state measure at t."""
    return nu_hat_grid(a, p, pd, [t], tol, initial=True)[0]


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
    head_terms: int | None = None,
    tail_terms: int | None = None,
) -> PsiValue:
    """Limit of the transform along z*beta^k for z in Z[beta].

    The value is v_L [prod_{j=J..0} W(frac(z beta^j))] [prod_{n=1..N}
    W(z beta^-n)] v_R with J chosen so the discarded head arguments
    (bounded by the conjugate decay of z beta^j) and N chosen so the tail
    both fit inside tol.  Head arguments frac(z beta^j) are float64
    conjugate sums with a certified error; the exact trace-identity walk
    replaces them where their errors would keep the bound above tol.  For
    integer beta every head factor is W(0), so the value coincides with
    nu_hat at the integer z.
    """
    return _psi_grid(a, p, pd, [z], tol, head_terms, tail_terms)[0]


def _psi_grid(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    zs: Sequence,
    tol: float,
    head_terms: int | None = None,
    tail_terms: int | None = None,
) -> list[PsiValue]:
    """psi_hat at every z of a list, from one batched product."""
    zints = [tuple(int(c) for c in z) for z in zs]
    if any(len(z) != p.degree for z in zints):
        raise ValueError(f"z must have {p.degree} coordinates")
    check_z_coords(c for z in zints for c in z)
    nonzero = [z for z in zints if any(z)]

    if p.degree == 1:
        limits = [
            PsiValue(value, bound, 0, 0)
            for value, bound in nu_hat_grid(
                a, p, pd, [float(z[0]) for z in nonzero], tol
            )
        ]
    else:
        cache = build_weight_cache(a, pd)
        c = _tail_constant(cache, cache.k_left)
        products = [_psi_product(z, p, c, tol, head_terms, tail_terms) for z in nonzero]
        values, bounds, n_tail = _transform_batch(
            cache, pd, p, cache.v_l, cache.k_left, tol, products
        )
        limits = [
            PsiValue(value, bound, q.n_head - 1, n)
            for value, bound, q, n in zip(values.tolist(), bounds.tolist(), products, n_tail.tolist())
        ]
    rest = iter(limits)
    return [next(rest) if any(z) else PsiValue(1.0 + 0j, 1e-15, 0, 0) for z in zints]


def _psi_product(
    z: tuple[int, ...],
    p: PisotNumber,
    c: float,
    tol: float,
    head_terms: int | None,
    tail_terms: int | None,
) -> _Product:
    """The batch row of psi-hat(z): head length J and tail length N as
    psi_hat describes, unless given."""
    z_hat, z_err = float_with_error(bint_embed(z, 1, p))
    embeds = [bint_embed(z, q, p) for q in range(2, p.degree + 1)]
    conj_mags = [(float(zq.mag()), float(bq.mag())) for zq, bq in zip(embeds, p.conjugates)]
    conj, conj_err = zip(*map(float_with_error, embeds))

    def head_residual(j: int) -> float:
        # sum_{i > j} dist(z beta^i, Z) <= sum_q |z_q| |beta_q|^(i) ...
        # added left to right: Python's sum is compensated from 3.12 on.
        terms = [zq * bq ** (j + 1) / (1 - bq) for zq, bq in conj_mags]
        return functools.reduce(operator.add, terms)

    if head_terms is None:
        target = tol / (2 * c) if c > 0 else 1.0
        head_terms = 0
        while head_residual(head_terms) > target and head_terms < 100_000:
            head_terms += 1
    if tail_terms is None:
        tail_terms = _tail_length(c, abs(z_hat), p.beta_float, tol / 2)
    return _Product(
        z, z_hat, z_err, tail_terms, head_terms + 1, conj, conj_err, c * head_residual(head_terms)
    )


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


def check_z_coords(coords) -> None:
    """Reject integer coordinates whose float value is not finite: tail
    and head lengths are sized from float magnitudes of z."""
    for c in coords:
        try:
            float(c)
        except OverflowError:
            raise ValidationError(
                f"z coordinate of {int(c).bit_length()} bits has no finite float value"
            ) from None


def check_scan_height(height: int, degree: int) -> None:
    """Reject a height below 1, or one whose scan in this degree would
    evaluate more than ``SCAN_CAP`` (read on each call) values of z: the
    canonical half ((2H + 1)^degree - 1) / 2 of the lattice, counted
    before any z is built."""
    if height < 1:
        raise ValidationError(f"scan height must be >= 1, got {height}")
    count = ((2 * height + 1) ** degree - 1) // 2
    if count > SCAN_CAP:
        raise CapExceeded(
            f"a height-{height} scan in degree {degree} has {count} values of z, "
            f"above the cap of {SCAN_CAP}"
        )


def rajchman_scan(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    height: int,
    tol: float = DEFAULT_TOL,
) -> ScanResult:
    """Evaluate psi-hat over all nonzero z with coordinates in [-H, H], as
    one batch.

    Only the canonical half (first nonzero coordinate positive) is
    evaluated since psi-hat(-z) is the conjugate of psi-hat(z).  Entries
    come back in lexicographic coordinate order; the maximum breaks ties
    towards the earlier z.
    """
    check_scan_height(height, p.degree)
    r = p.degree
    candidates = [
        coords
        for coords in itertools.product(range(-height, height + 1), repeat=r)
        if any(coords) and next(c for c in coords if c) > 0
    ]
    candidates.sort()

    entries = [
        ScanEntry(z_coords=coords, value=res.value, bound=res.bound)
        for coords, res in zip(candidates, _psi_grid(a, p, pd, candidates, tol))
    ]

    best = max(range(len(entries)), key=lambda i: abs(entries[i].value))
    return ScanResult(
        height=height,
        entries=tuple(entries),
        max_abs=abs(entries[best].value),
        argmax=entries[best].z_coords,
    )
