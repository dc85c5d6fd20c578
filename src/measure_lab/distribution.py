"""Depth-n discretisations of the push-forward measure.

One level-synchronous refinement builds both views.  Level 0 is a single
bucket holding v_L; each level expands all its buckets at once, one
product with the automaton's label stack (every label matrix side by
side, ``transition_matrices``), and either keeps every nonzero child or
merges the children.  ``depth_cloud`` merges nothing, so each admissible
word of length n becomes an entry: its truncated value sum(eps_k
beta^-k), its cylinder mass, and bounds [lo, hi] on the full digit-map
value over the cylinder, obtained from per-state value ranges (a Bellman
fixed point with contraction 1/beta).  ``cdf_bracket`` merges children of
equal exact value, compared on int64 Z[beta] coordinates, and equal
reachable-state support, which keeps fig3 feasible at depth 24.  Every
mass is one stacked product ``rows @ v_R``.  CDF brackets sum the masses
of buckets entirely below (lower) or not entirely above (upper) the query
point; beyond every bucket they are exactly 1, below every bucket exactly
0.

Only those two ends are exact.  Values, masses and the [lo, hi] bounds
are float64: the per-state ranges are float Bellman values widened by the
fixed ``_BOUND_TOL`` = 1e-12, with no rounding term derived for them yet,
so interior brackets are not certified.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .algebraic import PisotNumber, bint_mul_beta_rows, int64_step_limit
from .automaton import LabeledAutomaton, check_dense_cap, transition_matrices
from .errors import CapExceeded, DeadState, ValidationError
from .parry import PerronData

CLOUD_CAP = 1_000_000
_BOUND_TOL = 1e-12  # fixed-point gap and outward inflation of value_bounds


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
        # Left to right in word order, the same bits on every Python version:
        # Python's sum is compensated from 3.12 on, and np.sum adds pairwise.
        return float(np.cumsum(self.masses)[-1])

    @property
    def max_radius(self) -> float:
        return float((self.hi - self.lo).max())

    @property
    def max_deviation(self) -> float:
        """Largest distance from a truncated value to its cylinder range."""
        return float(np.maximum(self.hi - self.values, self.values - self.lo).max())


def value_bounds(a: LabeledAutomaton, p: PisotNumber) -> dict[str, tuple[float, float]]:
    """Per-state min/max of the digit-map value over infinite paths.

    Bellman iteration m(v) <- min/max over edges (label + m(target))/beta
    in float64; the map contracts by 1/beta, and iteration stops once a
    step moves no value by more than ``_BOUND_TOL`` * (1 - 1/beta).  The
    returned intervals are the last iterate widened by the fixed
    ``_BOUND_TOL`` = 1e-12 on each side.  That covers the fixed-point gap;
    no term for the rounding of the float steps is derived, so these are
    float estimates of the ranges, not proven outer bounds.
    """
    beta = p.beta_float
    src, dst, label = a.edge_arrays()
    n = a.n_states
    counts = np.bincount(src, minlength=n)
    dead = np.flatnonzero(counts == 0)
    if dead.size:
        raise DeadState(f"state {a.states[dead[0]]!r} has no outgoing edge")
    # Edges grouped by source, each state's edges kept in document order.
    # Past the check above every state owns a nonempty segment, starting
    # at ``starts``: reduceat would return an element, not +-inf, for an
    # empty one.
    by_source = np.argsort(src, kind="stable")
    dst = dst[by_source]
    labels = np.array(a.alphabet, dtype=float)[label[by_source]]
    starts = np.cumsum(counts) - counts

    lo = np.zeros(n)
    hi = np.zeros(n)
    gap_target = _BOUND_TOL * (1 - 1 / beta)
    for _ in range(100_000):
        # Each candidate is the float64 (label + m(target)) / beta; min and
        # max are exact, so the order of the edges does not matter.
        new_lo = np.minimum.reduceat((labels + lo[dst]) / beta, starts)
        new_hi = np.maximum.reduceat((labels + hi[dst]) / beta, starts)
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
    one product with the label stack (``rows @ stack``), each row of which
    holds a parent's children in label order, and drops children whose
    row is zero.  Without ``merge`` every child is a bucket, named by its
    label word.  With it, each bucket also carries the exact Z[beta]
    coordinates of its words' common value beta^k * sum(eps_i beta^-i),
    walked as key_k = beta * key_(k-1) + eps_k in int64, and children of
    equal key and equal support share a bucket.  Buckets keep first-seen
    order, take their float value from their first-seen child and sum
    their children's rows in child order (one ``bincount`` per state
    column).  ``CLOUD_CAP``, read on each call, is checked once per level,
    on its bucket count after the merge, so a level of CLOUD_CAP + 1
    buckets raises at that depth; so does a key step that could leave
    int64, and a level whose product would hold more than
    ``automaton.DENSE_CAP`` cells, checked before it is allocated.  The
    last level's masses are one stacked product ``rows @ v_R``.  Every
    pass runs along the long bucket axis, one call per state column where
    needed, never reducing across the few states of a row.
    Returns the last level's words as an (entries x depth) array of
    alphabet indices (None when merging) and arrays of its truncated
    values, masses and [lo, hi] (``value_bounds`` ranges scaled by
    beta^-depth).
    """
    if depth < 0:
        raise ValidationError(f"refinement depth must be >= 0, got {depth}")
    stack = transition_matrices(a)
    labels = np.array(a.alphabet, dtype=float)
    bounds = value_bounds(a, p)
    beta = p.beta_float
    n = a.n_states
    if merge:
        key_limit = int64_step_limit(a.alphabet, p.minpoly)
        keys = np.zeros((1, p.degree), np.int64)

    values, rows = np.zeros(1), np.array([pd.v_L])
    trail = []  # per level: the parent and the label index of every kept child
    for k in range(1, depth + 1):
        # A level has at most |alphabet| times as many buckets as the one
        # before, so this is the level's largest allocation.
        check_dense_cap(len(rows) * stack.shape[1], f"refinement level {k}")
        children = (rows @ stack).reshape(-1, n)
        positive = children > 0
        kept = positive[:, 0].copy()
        for column in positive.T[1:]:
            kept |= column
        kept = np.flatnonzero(kept)
        child_values = (values[:, None] + labels * beta ** -k).ravel()[kept]
        # np.take gathers whole rows far faster than children[kept]
        children = np.take(children, kept, axis=0)
        if merge:
            if np.abs(keys).max() > key_limit:
                raise CapExceeded(f"refinement keys leave int64 at depth {k}")
            child_keys = np.take(_mul_beta_add(keys, p.minpoly, a.alphabet), kept, axis=0)
            first, group = _first_seen_groups(child_keys, np.take(positive, kept, axis=0))
            del positive
            if len(first) > CLOUD_CAP:
                raise CapExceeded(f"refinement exceeds {CLOUD_CAP} buckets at depth {k}")
            values, keys = child_values[first], np.take(child_keys, first, axis=0)
            rows = np.empty((len(first), n))
            # bincount adds each group's children in child order from 0.0
            for j in range(n):
                rows[:, j] = np.bincount(group, weights=children[:, j], minlength=len(first))
        else:
            del positive
            if len(kept) > CLOUD_CAP:
                raise CapExceeded(f"refinement exceeds {CLOUD_CAP} buckets at depth {k}")
            values, rows = child_values, children
            parent = kept // len(labels)
            trail.append((parent, kept - parent * len(labels)))
        del children  # free this level's children before the next level's

    words = None if merge else _label_indices(trail, len(a.alphabet), len(rows))
    tail = beta ** -depth
    mass = pd.lam ** -depth * (rows @ pd.v_R)
    # Each bucket's value range: min lo and max hi over its support states
    low, high = np.full(len(rows), np.inf), np.full(len(rows), -np.inf)
    for j, s in enumerate(a.states):
        support = rows[:, j] > 0
        np.minimum(low, bounds[s][0], out=low, where=support)
        np.maximum(high, bounds[s][1], out=high, where=support)
    return words, values, mass, values + tail * low, values + tail * high


def _mul_beta_add(keys: np.ndarray, minpoly: tuple[int, ...], letters: tuple[int, ...]):
    """beta * key + letter for every (key, letter) pair, key-major and
    letter-minor, on int64 rows of Z[beta] coordinates: one array
    companion step, ``algebraic.bint_mul_beta_rows``."""
    out = np.repeat(bint_mul_beta_rows(keys, minpoly)[:, None], len(letters), axis=1)
    out[:, :, 0] += np.array(letters, np.int64)
    return out.reshape(-1, keys.shape[1])


def _first_seen_groups(keys: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows on (exact int64 key, support): the index of each group's
    first member, groups in first-seen order, and each row's group number.

    One stable ``lexsort`` over the key columns and the support packed into
    uint64 words puts equal rows next to each other, each run led by its
    first-seen row; a run starts wherever a sorted column changes."""
    n_rows, n_states = support.shape
    width = -(-n_states // 8)  # support bytes per row
    # Pad each row to whole bytes and pack the array flat: packing along
    # axis 1 loops over rows only one or two states wide.
    bits = np.zeros((n_rows, 8 * width), bool)
    bits[:, :n_states] = support
    packed = np.zeros((n_rows, -(-width // 8) * 8), np.uint8)
    packed[:, :width] = np.packbits(bits, bitorder="little").reshape(n_rows, width)
    del bits
    columns = [*keys.T, *packed.view(np.uint64).T]
    order = np.lexsort(columns)
    starts = np.zeros(n_rows, bool)
    starts[:1] = True
    for column in columns:
        column = column[order]
        starts[1:] |= column[1:] != column[:-1]
    leader = np.empty_like(order)  # each row's run leader, by row index
    leader[order] = order[starts][np.cumsum(starts) - 1]
    is_first = leader == np.arange(n_rows)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[leader]


def _label_indices(trail: list[tuple[np.ndarray, np.ndarray]], n_labels: int, n_rows: int) -> np.ndarray:
    """Label words of the last level's rows as alphabet indices, read back
    from each level's (parent, label) arrays, last level first: two
    gathers per level."""
    words = np.empty((n_rows, len(trail)), np.min_scalar_type(n_labels - 1))
    rows = np.arange(n_rows)
    for k in range(len(trail) - 1, -1, -1):
        parent, label = trail[k]
        words[:, k] = label[rows]
        rows = parent[rows]
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
