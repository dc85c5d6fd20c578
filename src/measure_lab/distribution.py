"""Depth-n discretisations of the push-forward measure.

One level-synchronous refinement builds both views.  Level 0 is a single
bucket holding v_L; each level expands all its buckets at once, one
stacked matrix product per label, and either keeps every nonzero child or
merges the children.  ``depth_cloud`` merges nothing, so each admissible
word of length n becomes an entry: its truncated value sum(eps_k
beta^-k), its cylinder mass, and certified bounds [lo, hi] on the full
digit-map value over the cylinder, obtained from per-state value ranges
(a Bellman fixed point with contraction 1/beta).  ``cdf_bracket`` merges
children of equal exact value, compared on int64 Z[beta] coordinates, and
equal reachable-state support, which keeps fig3 feasible at depth 24.
Every mass is one stacked product ``rows @ v_R``.  CDF brackets sum the
masses of buckets entirely below (lower) or not entirely above (upper)
the query point; beyond every bucket they are exactly 1, below every
bucket exactly 0.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .algebraic import PisotNumber
from .automaton import LabeledAutomaton, transition_matrices
from .errors import CapExceeded, DeadState, ValidationError
from .parry import PerronData

CLOUD_CAP = 1_000_000
_BOUND_TOL = 1e-12  # fixed-point gap and outward inflation of value_bounds
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class CloudEntry:
    word: tuple[int, ...]
    value: float
    mass: float
    lo: float
    hi: float


@dataclass(frozen=True, eq=False)
class DepthCloud:
    """One row per admissible word of length ``depth``, in lexicographic
    word order.  ``labels`` holds each word as indices into ``alphabet``
    (entries x depth); ``values``, ``masses``, ``lo`` and ``hi`` are
    float64 arrays over the same rows."""

    depth: int
    alphabet: tuple[int, ...]
    labels: np.ndarray
    values: np.ndarray
    masses: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def words(self, rows) -> Iterator[tuple]:
        """Label words of the given rows, as tuples of alphabet letters: the
        words of the JSON report and of ``entries``.  The CSV writer reads
        ``labels`` itself."""
        labels = self.labels[rows]
        if not self.depth:
            return repeat((), len(labels))
        table = np.array(self.alphabet, dtype=object)
        return zip(*(table[column] for column in labels.T))

    @property
    def entries(self) -> tuple[CloudEntry, ...]:
        """The rows as ``CloudEntry`` objects, built on each access."""
        columns = (self.values.tolist(), self.masses.tolist(), self.lo.tolist(), self.hi.tolist())
        return tuple(map(CloudEntry, self.words(slice(None)), *columns))

    @property
    def total_mass(self) -> float:
        # Python's sum in word order keeps the reported bits on every Python
        # version (3.12's sum is compensated); np.sum adds pairwise.
        return float(sum(self.masses.tolist()))

    @property
    def max_radius(self) -> float:
        return float((self.hi - self.lo).max())

    @property
    def max_deviation(self) -> float:
        """Largest distance from a truncated value to its cylinder range."""
        return float(np.maximum(self.hi - self.values, self.values - self.lo).max())


def value_bounds(a: LabeledAutomaton, p: PisotNumber) -> dict[str, tuple[float, float]]:
    """Per-state min/max of the digit-map value over infinite paths.

    Bellman iteration m(v) <- min/max over edges (label + m(target))/beta;
    the map contracts by 1/beta, and the returned intervals are inflated
    outward by the fixed-point gap, so they are genuine outer bounds.
    """
    beta = p.beta_float
    src, dst = a.edge_arrays()
    n = a.n_states
    dead = np.flatnonzero(np.bincount(src, minlength=n) == 0)
    if dead.size:
        raise DeadState(f"state {a.states[dead[0]]!r} has no outgoing edge")
    labels = np.array([float(label) for _, _, label in a.edges])

    lo = np.zeros(n)
    hi = np.zeros(n)
    gap_target = _BOUND_TOL * (1 - 1 / beta)
    for _ in range(100_000):
        # Each candidate is the float64 (label + m(target)) / beta; min and
        # max are exact, so the order of the edges does not matter.
        new_lo = np.full(n, np.inf)
        np.minimum.at(new_lo, src, (labels + lo[dst]) / beta)
        new_hi = np.full(n, -np.inf)
        np.maximum.at(new_hi, src, (labels + hi[dst]) / beta)
        change = max(np.abs(new_lo - lo).max(), np.abs(new_hi - hi).max())
        lo, hi = new_lo, new_hi
        if change <= gap_target:
            break
    return {
        name: (float(l - _BOUND_TOL), float(h + _BOUND_TOL)) for name, l, h in zip(a.states, lo, hi)
    }


def _refine(a: LabeledAutomaton, p: PisotNumber, pd: PerronData, depth: int, merge: bool):
    """Level-synchronous depth-``depth`` refinement shared by clouds and brackets.

    Level 0 is one bucket holding v_L.  Level k expands the whole level in
    one stacked product per label (``rows @ per_label[label]``), with the
    children in parent-major, label-minor order, and drops children whose
    row is zero.  Without ``merge`` every child is a bucket, named by its
    label word.  With it, each bucket also carries the exact Z[beta]
    coordinates of its words' common value beta^k * sum(eps_i beta^-i),
    walked as key_k = beta * key_(k-1) + eps_k in int64, and children of
    equal key and equal support share a bucket.  Buckets keep first-seen
    order, take their float value from their first-seen child and sum
    their children's rows in child order.  ``CLOUD_CAP``, read on each
    call, is checked once per level, on its bucket count after the merge,
    so a level of CLOUD_CAP + 1 buckets raises at that depth; so does a key
    step that could leave int64.  The last level's masses are one stacked product ``rows @ v_R``.
    Returns the last level's words as an (entries x depth) array of
    alphabet indices (None when merging) and arrays of its truncated
    values, masses and certified [lo, hi].
    """
    if depth < 0:
        raise ValidationError(f"refinement depth must be >= 0, got {depth}")
    per_label = transition_matrices(a).per_label
    mats = [per_label[label].astype(float) for label in a.alphabet]
    labels = np.array(a.alphabet, dtype=float)
    bounds = value_bounds(a, p)
    beta = p.beta_float
    n = a.n_states
    if merge:
        key_limit = _key_limit(a.alphabet, p.minpoly)
        keys = np.zeros((1, p.degree), np.int64)

    values, rows = np.zeros(1), np.array([pd.v_L])
    trail = []  # per level: flat (parent, label) index of every kept child
    for k in range(1, depth + 1):
        # A level has at most |alphabet| times as many buckets as the one
        # before, so this is the level's largest allocation.
        children = np.empty((len(rows), len(mats), n))
        for j, m in enumerate(mats):
            children[:, j] = rows @ m
        children = children.reshape(-1, n)
        kept = np.flatnonzero(children.max(axis=1) > 0)
        child_values = (values[:, None] + labels * beta ** -k).ravel()[kept]
        children = children[kept]
        if merge:
            if np.abs(keys).max() > key_limit:
                raise CapExceeded(f"refinement keys leave int64 at depth {k}")
            child_keys = _mul_beta_add(keys, p.minpoly, a.alphabet)[kept]
            first, group = _first_seen_groups(child_keys, children > 0)
            if len(first) > CLOUD_CAP:
                raise CapExceeded(f"refinement exceeds {CLOUD_CAP} buckets at depth {k}")
            values, keys, rows = child_values[first], child_keys[first], np.zeros((len(first), n))
            np.add.at(rows, group, children)
        else:
            if len(kept) > CLOUD_CAP:
                raise CapExceeded(f"refinement exceeds {CLOUD_CAP} buckets at depth {k}")
            values, rows = child_values, children
            trail.append(kept)
        del children  # free this level's children before the next level's

    words = None if merge else _label_indices(trail, len(a.alphabet), len(rows))
    tail = beta ** -depth
    mass = pd.lam ** -depth * (rows @ pd.v_R)
    support = rows > 0
    blo = np.array([bounds[s][0] for s in a.states])
    bhi = np.array([bounds[s][1] for s in a.states])
    lo = values + tail * np.where(support, blo, np.inf).min(axis=1)
    hi = values + tail * np.where(support, bhi, -np.inf).max(axis=1)
    return words, values, mass, lo, hi


def _key_limit(letters: tuple[int, ...], minpoly: tuple[int, ...]) -> int:
    """Largest max|key| for which ``_mul_beta_add`` stays in int64, or -1
    when the letters or the coefficients do not fit in int64 themselves.
    Each new coordinate is at most max|key| * (1 + max|coefficient|) +
    max|letter| in magnitude."""
    most_letter = max(abs(x) for x in letters)
    most_coeff = max(abs(c) for c in minpoly)
    if max(most_letter, most_coeff) > _INT64_MAX:
        return -1
    return (_INT64_MAX - most_letter) // (1 + most_coeff)


def _mul_beta_add(keys: np.ndarray, minpoly: tuple[int, ...], letters: tuple[int, ...]):
    """beta * key + letter for every (key, letter) pair, key-major and
    letter-minor, on int64 rows of Z[beta] coordinates: the companion step
    of ``algebraic.bint_mul_beta`` on whole arrays."""
    minpoly = np.array(minpoly, np.int64)
    top = keys[:, -1:]
    shifted = np.empty_like(keys)
    shifted[:, :1] = -top * minpoly[0]
    shifted[:, 1:] = keys[:, :-1] - top * minpoly[1:-1]
    out = np.repeat(shifted[:, None], len(letters), axis=1)
    out[:, :, 0] += np.array(letters, np.int64)
    return out.reshape(-1, keys.shape[1])


def _first_seen_groups(keys: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows on (exact int64 key, support): the index of each group's
    first member, groups in first-seen order, and each row's group number."""
    key = np.concatenate([keys.view(np.uint8), np.packbits(support, axis=1)], axis=1)
    key = np.ascontiguousarray(key).view(np.dtype((np.void, key.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def _label_indices(trail: list[np.ndarray], n_labels: int, n_rows: int) -> np.ndarray:
    """Label words of the last level's rows as alphabet indices, read back
    from each level's kept (parent, label) indices, last level first."""
    words = np.empty((n_rows, len(trail)), np.min_scalar_type(n_labels - 1))
    rows = np.arange(n_rows)
    for k in range(len(trail) - 1, -1, -1):
        rows, words[:, k] = np.divmod(trail[k][rows], n_labels)
    return words


def depth_cloud(a: LabeledAutomaton, p: PisotNumber, pd: PerronData, n: int) -> DepthCloud:
    """One entry per admissible word of length n, in lexicographic order
    (words deduplicated; the matrix product already accounts for multiple
    runs)."""
    return DepthCloud(n, a.alphabet, *_refine(a, p, pd, n, merge=False))


def cdf_bracket(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    depth: int,
    points,
) -> list[tuple[float, float]]:
    """CDF brackets at the given points from a depth-``depth`` refinement
    whose buckets merge words of equal exact value and equal support.

    Since 0 <= F <= 1, the ends are exact: every bucket lies at or below a
    point x >= max(hi), so F(x) = 1 there, and none at or below a point
    x < min(lo), so F(x) = 0.  Elsewhere both sums are clamped to at most
    1; masses are nonnegative, so the sums are already at least 0."""
    _, _, mass, lo, hi = _refine(a, p, pd, depth, merge=True)
    top, bottom = hi.max(), lo.min()
    brackets = []
    for x in points:
        if x >= top:
            brackets.append((1.0, 1.0))
        elif x < bottom:
            brackets.append((0.0, 0.0))
        else:
            # Buckets with hi <= x certainly lie below x, buckets with
            # lo <= x possibly do.  The sums run left to right in bucket
            # order (cumsum, not np.sum's pairwise order).
            lower = float(np.cumsum(np.where(hi <= x, mass, 0.0))[-1])
            upper = float(np.cumsum(np.where(lo <= x, mass, 0.0))[-1])
            brackets.append((min(lower, 1.0), min(upper, 1.0)))
    return brackets
