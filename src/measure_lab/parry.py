"""Perron-Frobenius eigendata and the Parry (maximal-entropy) measure.

Cylinder masses are lambda^(-k) v_L M_w v_R with the left/right
eigenvector pair normalised to v_L . v_R = 1.  The start distribution
pi(v) = v_L(v) v_R(v) together with edge weights v_R(to)/(lambda v_R(from))
is the unique Markov lift reproducing those masses, which is what the
sampler uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .automaton import LabeledAutomaton, TransitionMatrices, primitivity_check, transition_matrices
from .errors import EmptyInitialSet, NotPrimitive

DEFAULT_EIGEN_TOL = 1e-12
_MAX_ITERATIONS = 500_000


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


def _power_iterate(m: np.ndarray, tol: float) -> tuple[np.ndarray, float, float]:
    """Positive dominant eigenvector of a primitive nonnegative matrix.

    Returns (vector with max entry 1, lambda, quotient spread).  Stops on
    the Collatz-Wielandt spread: min_i (Mv)_i/v_i <= rho(M) <= max_i.
    """
    n = m.shape[0]
    v = np.ones(n)
    # A few squarings accelerate tight spectral gaps; certification below
    # always runs against the original matrix.
    p = m.astype(float)
    for _ in range(6):
        p = p @ p
        p /= p.max()
    lam = float(m.sum())
    for it in range(_MAX_ITERATIONS):
        w = (p if it < 60 else m) @ v
        top = w.max()
        if top == 0:
            raise NotPrimitive("matrix is nilpotent on the iterate")
        v = w / top
        mv = m @ v
        if (v > 0).all():
            quotients = mv / v
            lam_lo, lam_hi = float(quotients.min()), float(quotients.max())
            lam = 0.5 * (lam_lo + lam_hi)
            if lam_hi - lam_lo <= tol * lam:
                spread = (lam_hi - lam_lo) / 2 + 1e-15 * lam
                return v, lam, spread
    raise NotPrimitive(
        f"power iteration did not reach tolerance {tol} in {_MAX_ITERATIONS} steps"
    )


def perron(a: LabeledAutomaton, tol: float = DEFAULT_EIGEN_TOL) -> PerronData:
    """Dominant eigendata of the total transition matrix.

    Requires primitivity; raises NotPrimitive otherwise.
    """
    check = primitivity_check(a)
    if not check["primitive"]:
        raise NotPrimitive(
            f"automaton is not primitive: strongly_connected={check['strongly_connected']}, "
            f"period={check['period']}"
        )
    m = transition_matrices(a).total.astype(float)
    v_r, lam, spread_r = _power_iterate(m, tol)
    v_l, lam_l, spread_l = _power_iterate(m.T, tol)
    lam_bound = max(spread_r, spread_l) + abs(lam - lam_l)
    v_l = v_l / float(v_l @ v_r)
    res_r = float(np.abs(m @ v_r - lam * v_r).max())
    res_l = float(np.abs(m.T @ v_l - lam * v_l).max())
    return PerronData(lam=lam, lam_bound=lam_bound, v_L=v_l, v_R=v_r, res_L=res_l, res_R=res_r)


def _word_row(start: np.ndarray, tm: TransitionMatrices, word) -> np.ndarray:
    row = start
    for letter in word:
        if letter not in tm.per_label:
            return np.zeros_like(start)
        row = row @ tm.per_label[letter]
    return row


def cylinder_measure(pd: PerronData, a: LabeledAutomaton, word, tm: TransitionMatrices | None = None) -> float:
    """Mass of the cylinder of the given label word; 0 if not admissible."""
    word = tuple(word)
    tm = tm or transition_matrices(a)
    row = _word_row(pd.v_L, tm, word)
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


def cylinder_measure_initial(
    pd: PerronData, a: LabeledAutomaton, word, tm: TransitionMatrices | None = None
) -> float:
    """Cylinder mass under the initial-state measure (paths started in I)."""
    v_i, denom = initial_row(pd, a)
    word = tuple(word)
    tm = tm or transition_matrices(a)
    row = _word_row(v_i, tm, word)
    return float(row @ pd.v_R) * pd.lam ** -len(word) / denom


def start_distribution(pd: PerronData) -> np.ndarray:
    """Stationary state distribution pi(v) = v_L(v) v_R(v)."""
    return pd.v_L * pd.v_R


def _edge_chain(pd: PerronData, a: LabeledAutomaton):
    """Per-state cumulative out-edge distribution of the Markov lift."""
    idx = a.state_index()
    chain: list[list[tuple[float, int, int]]] = [[] for _ in a.states]
    for src, dst, label in a.edges:
        i, j = idx[src], idx[dst]
        weight = pd.v_R[j] / (pd.lam * pd.v_R[i])
        chain[i].append((weight, j, label))
    cumulative = []
    for entries in chain:
        entries.sort(key=lambda e: (e[1], e[2]))
        acc, rows = 0.0, []
        for weight, j, label in entries:
            acc += weight
            rows.append((acc, j, label))
        cumulative.append(rows)
    return cumulative


def sample_run(pd: PerronData, a: LabeledAutomaton, length: int, seed: int):
    """One stationary sample path: (state names, label word), deterministic
    in the seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = random.Random(seed)
    pi = start_distribution(pd)
    chain = _edge_chain(pd, a)

    u = rng.random()
    state = 0
    acc = 0.0
    for i, mass in enumerate(pi):
        acc += mass
        if u <= acc:
            state = i
            break

    states = [state]
    labels = []
    for _ in range(length):
        u = rng.random()
        rows = chain[state]
        nxt = rows[-1]
        for row in rows:
            if u <= row[0]:
                nxt = row
                break
        state = nxt[1]
        states.append(state)
        labels.append(nxt[2])
    return [a.states[i] for i in states], labels


def sample_many(pd: PerronData, a: LabeledAutomaton, n_runs: int, length: int, seed: int):
    """Vectorised sampler: arrays (n_runs, length+1) of state indices and
    (n_runs, length) of labels."""
    rng = np.random.default_rng(seed)
    pi = start_distribution(pd)
    pi = pi / pi.sum()
    chain = _edge_chain(pd, a)
    max_deg = max(len(rows) for rows in chain)
    cum = np.ones((len(chain), max_deg))
    to_state = np.zeros((len(chain), max_deg), dtype=np.int64)
    to_label = np.zeros((len(chain), max_deg), dtype=np.int64)
    for i, rows in enumerate(chain):
        for k, (acc, j, label) in enumerate(rows):
            cum[i, k] = acc
            to_state[i, k] = j
            to_label[i, k] = label
        for k in range(len(rows), max_deg):
            cum[i, k] = 2.0
            to_state[i, k] = rows[-1][1]
            to_label[i, k] = rows[-1][2]
    cum[:, -1] = 2.0  # guard against rounding in the last cumulative weight

    states = np.zeros((n_runs, length + 1), dtype=np.int64)
    labels = np.zeros((n_runs, length), dtype=np.int64)
    states[:, 0] = rng.choice(len(pi), size=n_runs, p=pi)
    for step in range(length):
        u = rng.random(n_runs)
        current = states[:, step]
        pick = (cum[current] < u[:, None]).sum(axis=1)
        states[:, step + 1] = to_state[current, pick]
        labels[:, step] = to_label[current, pick]
    return states, labels
