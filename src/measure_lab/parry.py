"""Perron-Frobenius eigendata and the Parry (maximal-entropy) measure.

Cylinder masses are lambda^(-k) v_L M_w v_R with the left/right
eigenvector pair normalised to v_L . v_R = 1.  The start distribution
pi(v) = v_L(v) v_R(v) together with edge weights v_R(to)/(lambda v_R(from))
is the unique Markov lift reproducing those masses.

The Perron triple (lambda, v_L, v_R) comes from one power iteration on
the automaton's edge list (``perron``): each step costs O(edges), and no
n x n matrix is built, so automata with thousands of states cost
milliseconds.  Cylinder masses step on the same edge index, one gather
and one bincount per letter of the word; no module function here builds
a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automaton import LabeledAutomaton, primitivity_check
from .errors import EmptyInitialSet, NotPrimitive, PrecisionExhausted

EIGEN_TOL = 1e-12  # largest relative quotient spread perron accepts, read on each call
_CHECK_EVERY = 4  # power steps between Collatz-Wielandt checks
_PATIENCE = 4  # checks without a smaller spread that end the polish
_FLOOR_ULPS = 64  # spreads below this many rounding errors per quotient are noise


@dataclass(frozen=True)
class PerronData:
    """Dominant eigenvalue with paired eigenvectors and residual bounds.

    lam_bound comes from the Collatz-Wielandt quotient spread, so
    [lam - lam_bound, lam + lam_bound] certifiably contains the spectral
    radius.  v_R has max entry 1; v_L is rescaled so v_L . v_R = 1.
    """

    lam: float
    lam_bound: float
    v_L: np.ndarray
    v_R: np.ndarray
    res_L: float
    res_R: float

    @property
    def n_states(self) -> int:
        return len(self.v_R)


def perron(a: LabeledAutomaton) -> PerronData:
    """Dominant eigendata of the total transition matrix M, by power
    iteration on the edge list.

    No n x n matrix is built.  The iterate x = [v_R, v_L] has length 2n,
    and one step is one gather and one bincount over the edges: (M v_R)_i
    sums v_R over the out-edges of i, (M^T v_L)_j sums v_L over the
    in-edges of j, parallel edges counting with their multiplicity.  Every
    _CHECK_EVERY steps the Collatz-Wielandt quotients of each half bound the
    spectral radius, min_i (Mv)_i/v_i <= rho(M) <= max_i, and x is rescaled.

    Stopping rule: the iteration runs past EIGEN_TOL, polishing the
    residuals to the rounding floor, and keeps the iterate with the
    smallest quotient spread.  Once that spread is within _FLOOR_ULPS
    roundings per quotient, _PATIENCE checks without a smaller one end the
    run.  A larger spread must fall within (n-1)^2 + 1 steps (Wielandt:
    M^k > 0 from there on), so a stall that long ends it too.  If the best
    spread is then above EIGEN_TOL * lambda, raises PrecisionExhausted.
    The run time grows like 1/(1 - |lambda_2|/lambda): a nearly periodic
    automaton needs many steps.
    Requires primitivity; raises NotPrimitive otherwise.
    """
    check = primitivity_check(a)
    if not check["primitive"]:
        raise NotPrimitive(
            f"automaton is not primitive: strongly_connected={check['strongly_connected']}, "
            f"period={check['period']}"
        )
    n = a.n_states
    src, dst, _ = a.edge_arrays()
    into = np.concatenate([src, dst + n])
    take = np.concatenate([dst, src + n])
    # A quotient over d edges carries up to d + 1 roundings.
    degree = max(np.bincount(src).max(), np.bincount(dst).max())
    floor = _FLOOR_ULPS * (degree + 1) * 2.0**-52
    # Wielandt: M^k > 0 for k >= (n-1)^2 + 1.
    stall_checks = max(_PATIENCE, -(-((n - 1) ** 2 + 1) // _CHECK_EVERY))
    x = np.ones(2 * n)
    # Every state has an out- and an in-edge, so the first check sees
    # x >= 1 and sets best: (iterate, quotient minima, quotient maxima).
    spread, best = math.inf, None
    stale = steps = 0
    while True:
        for _ in range(_CHECK_EVERY - 1):
            x = np.bincount(into, weights=x[take], minlength=2 * n)
        w = np.bincount(into, weights=x[take], minlength=2 * n)
        steps += _CHECK_EVERY
        stale += 1
        if x.min() > 0:  # an entry underflows only past a 1e308 ratio
            q = (w / x).reshape(2, n)
            lo, hi = q.min(axis=1), q.max(axis=1)
            width = float((hi - lo).max())
            if width < spread:
                spread, best, stale = width, (x, lo, hi), 0
        settled = spread <= floor * best[2][0]
        if spread == 0 or stale >= (_PATIENCE if settled else stall_checks):
            break
        top = w.max()
        if top == 0:
            raise NotPrimitive("matrix is nilpotent on the iterate")
        x = w / top
    x, lo, hi = best
    lam, lam_l = (float(m) for m in (lo + hi) / 2)
    if spread > EIGEN_TOL * lam:
        raise PrecisionExhausted(
            f"Perron quotient spread stopped falling at {spread / lam:.3g} * lambda, "
            f"above tolerance {EIGEN_TOL} (after {steps} steps)"
        )
    v_r = x[:n] / x[:n].max()
    v_l = x[n:] / float(x[n:] @ v_r)
    lam_bound = spread / 2 + 1e-15 * lam + abs(lam - lam_l)
    res_r = float(np.abs(np.bincount(src, weights=v_r[dst], minlength=n) - lam * v_r).max())
    res_l = float(np.abs(np.bincount(dst, weights=v_l[src], minlength=n) - lam * v_l).max())
    return PerronData(lam=lam, lam_bound=lam_bound, v_L=v_l, v_R=v_r, res_L=res_l, res_R=res_r)


def _word_row(start: np.ndarray, a: LabeledAutomaton, word) -> np.ndarray:
    # One step per letter on the edge index; a letter outside the alphabet
    # matches no edge.
    src, dst, label = a.edge_arrays()
    letter = {x: i for i, x in enumerate(a.alphabet)}
    row = start
    for x in word:
        on = label == letter.get(x, -1)
        row = np.bincount(dst[on], weights=row[src[on]], minlength=len(start))
    return row


def cylinder_measure(pd: PerronData, a: LabeledAutomaton, word) -> float:
    """Mass of the cylinder of the given label word; 0 if not admissible."""
    word = tuple(word)
    row = _word_row(pd.v_L, a, word)
    return float(row @ pd.v_R) * pd.lam ** -len(word)


def initial_row(pd: PerronData, a: LabeledAutomaton) -> tuple[np.ndarray, float]:
    """Indicator row v_I of the initial states and its normaliser v_I . v_R."""
    if not a.initial:
        raise EmptyInitialSet("automaton has no initial states")
    idx = a.state_index()
    v_i = np.zeros(pd.n_states)
    for s in a.initial:
        v_i[idx[s]] = 1.0
    return v_i, float(v_i @ pd.v_R)


def cylinder_measure_initial(pd: PerronData, a: LabeledAutomaton, word) -> float:
    """Cylinder mass under the initial-state measure (paths started in I)."""
    v_i, denom = initial_row(pd, a)
    word = tuple(word)
    row = _word_row(v_i, a, word)
    return float(row @ pd.v_R) * pd.lam ** -len(word) / denom


def start_distribution(pd: PerronData) -> np.ndarray:
    """Stationary state distribution pi(v) = v_L(v) v_R(v)."""
    return pd.v_L * pd.v_R
