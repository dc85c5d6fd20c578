"""The cancellation automaton: digit words over an integer alphabet whose
beta-value is zero.

States are exact elements of Z[beta]; from state x the digit a leads to
y = beta*x - a whenever y survives the closed bounds |y| <= M/(beta-1) and
|y_q| <= M/(1-|beta_q|) for every conjugate embedding (M the largest digit
modulus).  All genuine zero words run from the zero state back to the
zero state, so trimming to the strongly co-reachable part of the zero
state preserves the recognised language.

The walk carries each state as the tuple of its coordinates, Python ints
that never overflow, so huge digits take the same path as small ones.
One dict maps each tuple to its number, edges are (source, letter,
target) triples on those numbers, and each state that survives the trim
is named once, at the end.  The float tier's constants are taken once
per base, not once per BFS level.

Bound membership is decided in two tiers, and both are certified, so the
automaton does not depend on which tier decided a state.

1. ``float_tier`` evaluates a whole array of candidates in float64, at
   every embedding in one Horner pass (``_tier_bounds``), and calls each
   IN, OUT or UNDECIDED.  It tests |y(beta)|*(beta-1) <= M and
   |y(beta_q)|*(1-|beta_q|) <= M with the float copies x of beta and of
   every conjugate (Horner over the coordinates c_i, d = r-1 the
   polynomial's degree), each within delta of its root, and with float
   copies of (beta-1) and (1-|beta_q|) within e of theirs; all of these
   come from the enclosures ``make_pisot`` certified (radius plus the
   rounding to float).  With u = 2^-53 and X = |x| + delta:

   - Horner rounding: each of the at most 2d roundings is a relative
     error of at most sqrt(5)*u (complex product) or u (sum), so the
     computed value is within 8*(d+1)*u * sum |c_i| X^i of y(x);
   - root error: |y(root) - y(x)| <= delta * sum i*|c_i| X^(i-1);
   - together E_y bounds |y_float - y(root)|, and a product of y_float
     (or its modulus, which hypot rounds by at most 2u relative) with a
     factor f within e of its true value is within
     E_y*|f| + (|y_float| + E_y)*e + u*|product| of the true product.

   Every error term is a sum and product of nonnegative floats, inflated
   by 1 + 2^-20 and 2^-1000 to cover its own rounding and underflow.
   A bound is decided when the computed value clears M by more than its
   error; since M is a float and rounding is monotone, the float sums in
   these comparisons never flip a decision.  A row is IN when every bound
   is decided inside, OUT as soon as one is decided outside.  Rows with a
   coordinate of modulus >= 2^53 (not a float exactly), and every row
   when M >= 2^53, are UNDECIDED.

2. ``state_within_bounds`` decides one UNDECIDED state.  It is in when
   y*(beta-1) or y*(beta+1) equals +-M in Z[beta]: |beta+1| > beta-1 =
   |beta-1| at beta, and |beta_q -+ 1| >= 1-|beta_q| at every conjugate.
   Any other state is decided strictly with mpmath balls under
   ``algebraic._escalate``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np
from mpmath import mp

from ._ball import ball_horner
from .algebraic import (
    PRECISION,
    PisotNumber,
    _escalate,
    _serialized,
    bint_mul,
    bint_mul_beta,
    float_with_error,
    format_coords,
    refined_enclosures,
)
from .automaton import LabeledAutomaton, reachable
from .errors import CapExceeded, ValidationError

_BOX_CAP = 1_000_000

# Decisions of the float tier.
OUT, IN, UNDECIDED = 0, 1, 2

_U = 2.0**-53
_EXACT = 2**53  # integers below this modulus are floats exactly


def zero_state_name(p: PisotNumber) -> str:
    return format_coords((0,) * p.degree)


@_serialized
def state_within_bounds(y: tuple[int, ...], p: PisotNumber, m_abs: int) -> bool:
    """Closed-bound membership of one state.

    If y*(beta - 1) or y*(beta + 1) equals +-M in Z[beta], y is in: at
    beta, |beta - 1| = beta - 1 and |beta + 1| > beta - 1, and at every
    conjugate |beta_q -+ 1| >= 1 - |beta_q|.  These cover every tie: the
    bound at beta is |y*(beta - 1)|, at a real conjugate of sign s it is
    |y*(1 - s*beta)|, and an embedding is +-M only at the element +-M.
    Otherwise mpmath balls under ``algebraic._escalate`` decide strictly:
    out once a bound certifiably exceeds M, in once all are below it.
    """
    minpoly, zero_tail = p.minpoly, (0,) * (p.degree - 1)
    t_minus, t_plus = (
        bint_mul(y, bint_mul_beta((1,) + zero_tail, minpoly, add), minpoly) for add in (-1, 1)
    )
    boundary = {(m_abs,) + zero_tail, (-m_abs,) + zero_tail}
    if t_minus in boundary or t_plus in boundary:
        return True

    def attempt(prec: int) -> bool | None:
        beta, conj = refined_enclosures(p, prec)
        with mp.workprec(prec + 64):
            bounds = chain(
                [ball_horner(t_minus, beta)],  # y(beta)*(beta-1)
                (ball_horner(y, c).abs_ball() * (-c.abs_ball()).add_int(1) for c in conj),
            )
            inside = True
            for bound in bounds:
                if bound.mig() > m_abs:
                    return False
                inside &= bound.mag() < m_abs
            return True if inside else None

    return _escalate(
        attempt,
        lambda cap: f"cannot resolve bound membership of state {format_coords(y)} at {cap} bits",
    )


@_serialized
@lru_cache(maxsize=None)
def _float_constants(p: PisotNumber):
    """Float copies of every embedding's point and factor, each with an
    error bound, as arrays over the embeddings: beta (a complex with zero
    imaginary part) with beta - 1, then each conjugate beta_q with
    1 - |beta_q|, from the enclosures ``make_pisot`` certified, and
    X = |x| + dx, the largest modulus within dx of x.  X takes Python's
    abs, whose hypot numpy's complex abs does not always match to the
    last bit.  Returns (x, dx, X, f, df).  Taken once per base."""
    with mp.workprec(PRECISION + 64):
        x, dx = zip(*map(float_with_error, [p.root_beta, *p.conjugates]))
        f, df = zip(*map(float_with_error, [p.root_beta.add_int(-1)] + [
            (-c.abs_ball()).add_int(1) for c in p.conjugates
        ]))
    big_x = [abs(z) + dz for z, dz in zip(x, dx)]
    return np.array(x, complex), np.array(dx), np.array(big_x), np.array(f), np.array(df)


def _padded(err):
    # Covers the rounding and underflow of the error terms' own arithmetic.
    return err * (1 + 2.0**-20) + 2.0**-1000


def _tier_bounds(c: np.ndarray, p: PisotNumber) -> tuple[np.ndarray, np.ndarray]:
    """The bound each row of the float coordinates c takes at each
    embedding, |y(beta)|*(beta - 1) and |y(beta_q)|*(1 - |beta_q|), and
    its certified error, as (rows x embeddings) arrays from one Horner
    pass over every embedding at once.

    Horner runs on the complex points.  At beta, whose imaginary part is
    zero, every imaginary part stays a zero, so the real parts are the
    real Horner's bits, and the modulus (hypot with a zero) is exact."""
    x, dx, big_x, f, df = _float_constants(p)
    size = np.abs(c)
    y = c[:, -1:] + 0 * x
    mag, deriv = size[:, -1:], np.zeros((len(c), 1))
    for i in range(c.shape[1] - 2, -1, -1):
        y = y * x + c[:, i:i + 1]
        deriv = deriv * big_x + mag  # sum i |c_i| X^(i-1)
        mag = mag * big_x + size[:, i:i + 1]  # sum |c_i| X^i
    err = _padded(8 * c.shape[1] * _U * mag + dx * deriv)
    y = np.abs(y)
    # A conjugate's bound is on the modulus, which hypot rounds.
    err[:, 1:] = _padded(err[:, 1:] + 2 * _U * y[:, 1:])
    value = np.abs(y * f)
    err = _padded(err * np.abs(f) + (y + err) * df + _U * value)
    return value, err


def float_tier(coords: np.ndarray, p: PisotNumber, m_abs: int) -> np.ndarray:
    """IN, OUT or UNDECIDED for each row of an (n x r) integer array of
    coordinates, decided in float64 with the certified error bound that
    the module docstring derives, at every embedding at once
    (``_tier_bounds``)."""
    coords = np.asarray(coords)
    decision = np.full(len(coords), UNDECIDED, dtype=np.int8)
    if m_abs >= _EXACT or not len(coords):
        return decision
    exact = (np.abs(coords) < _EXACT).all(axis=1)
    c = np.where(exact[:, None], coords, 0).astype(np.float64)
    value, err = _tier_bounds(c, p)
    decision[exact & (value + err < m_abs).all(axis=1)] = IN
    decision[exact & (value - err > m_abs).any(axis=1)] = OUT
    return decision


def _accept(coords: np.ndarray, row, p: PisotNumber, m_abs: int) -> np.ndarray:
    """Membership per row of coords: the float tier's decision, or for an
    UNDECIDED row the certified test of the coordinate tuple row(i)."""
    decision = float_tier(coords, p, m_abs)
    keep = decision == IN
    for i in np.flatnonzero(decision == UNDECIDED):
        keep[i] = state_within_bounds(row(i), p, m_abs)
    return keep


def _candidate_box(p: PisotNumber, m_abs: int) -> list[tuple[int, ...]]:
    """Coordinates of all elements of Z[beta] inside the closed bounds,
    zero first then lexicographic."""
    r = p.degree
    if r == 1:  # an integer base n: |y| <= M/(n - 1)
        coord_bound = [m_abs // (-p.minpoly[0] - 1)]
    else:
        roots = [complex(p.root_beta.mid)] + [complex(c.mid) for c in p.conjugates]
        bounds = [m_abs / (abs(roots[0]) - 1)] + [
            m_abs / (1 - abs(z)) for z in roots[1:]
        ]
        vand = np.array([[z**i for i in range(r)] for z in roots])
        inv = np.linalg.inv(vand)
        coord_bound = [
            int(np.ceil(sum(abs(inv[i, q]) * bounds[q] for q in range(r)) * 1.01 + 1e-9))
            for i in range(r)
        ]
    volume = 1
    for b in coord_bound:
        volume *= 2 * b + 1
    if volume > _BOX_CAP:
        raise CapExceeded(f"candidate box of size {volume} exceeds {_BOX_CAP}")
    # rows in lexicographic order: the first coordinate varies slowest
    axes = np.meshgrid(*[np.arange(-b, b + 1) for b in coord_bound], indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, r)
    keep = _accept(box, lambda i: tuple(box[i].tolist()), p, m_abs)
    members = list(map(tuple, box[keep].tolist()))
    zero = (0,) * r
    members.remove(zero)
    return [zero] + members


def build_zero_automaton(p: PisotNumber, alphabet, trim: str = "both") -> LabeledAutomaton:
    """Construct the automaton of all zero-value digit words over the alphabet.

    ``trim`` selects how much of the bounded state set is kept: ``none``
    keeps every element within the closed bounds, ``accessible`` keeps
    those reachable from the zero state, ``both`` (default) also
    requires co-reachability back to the zero state.  The zero state is
    always first, and is both initial and terminal.  If no nonempty digit
    word cancels, the result is the single zero state (with its 0-loop
    when 0 is a digit).
    """
    if trim not in ("both", "accessible", "none"):
        raise ValueError(f"unknown trim mode {trim!r}")
    alphabet = tuple(sorted(set(int(a) for a in alphabet)))
    if not alphabet:
        raise ValidationError("alphabet must be nonempty")
    m_abs = max(abs(a) for a in alphabet)
    minpoly = p.minpoly

    def successors(x: tuple[int, ...]) -> list[tuple[int, ...]]:
        # y = beta*x - a for each letter a, in alphabet order
        head, *tail = bint_mul_beta(x, minpoly)
        return [(head - a, *tail) for a in alphabet]

    # States are coordinate tuples, numbered by their position in states;
    # an edge is (source, letter, target) on those numbers.
    if trim == "none":
        states = _candidate_box(p, m_abs)
        index = {x: i for i, x in enumerate(states)}
        edges = [
            (i, a, index[y])
            for i, x in enumerate(states)
            for a, y in zip(alphabet, successors(x))
            if y in index
        ]
    else:
        # BFS from the zero state under y = beta*x - a, bounds-filtered,
        # one level at a time: the new successors of a whole level go
        # through the float tier together.  index holds every state tested
        # so far: its number, or -1 when it is out of bounds.
        states = [(0,) * p.degree]
        index = {states[0]: 0}
        edges = []
        level = range(1)
        while level:
            steps = [
                (i, a, y) for i in level for a, y in zip(alphabet, successors(states[i]))
            ]
            fresh = list(dict.fromkeys(y for _, _, y in steps if y not in index))
            coords = np.array(fresh).reshape(len(fresh), p.degree)
            keep = _accept(coords, fresh.__getitem__, p, m_abs)
            first = len(states)
            for y, k in zip(fresh, keep.tolist()):
                index[y] = len(states) if k else -1
                if k:
                    states.append(y)
            level = range(first, len(states))
            edges += [(i, a, index[y]) for i, a, y in steps if index[y] >= 0]
    # Sources come in increasing number (the box in order, or BFS levels
    # that are runs of increasing numbers) and each source's letters in
    # alphabet order, so edges are already in (source, letter) order.

    kept = [True] * len(states)
    if trim == "both":
        # Keep states with a path back to zero (state 0): walk the edges backward.
        src, dst = (np.array([e[k] for e in edges], np.intp) for k in (0, 2))
        kept = [depth >= 0 for depth in reachable(dst, src, len(states), 0)[1]]

    names = [format_coords(x) if k else None for x, k in zip(states, kept)]
    zero_name = names[0]
    return LabeledAutomaton(
        states=tuple(name for name in names if name),
        alphabet=alphabet,
        edges=tuple((names[i], names[j], a) for i, a, j in edges if kept[i] and kept[j]),
        initial=(zero_name,),
        terminal=(zero_name,),
        beta_minpoly=p.minpoly,
    )


def verify_zero_language(a: LabeledAutomaton, p: PisotNumber, n_max: int) -> dict:
    """Exhaustive soundness/completeness check of the recognised language.

    Walks the digit tree up to depth n_max one length at a time, carrying
    each word's exact value sum(x_k beta^(n-k)) in Z[beta] (independent
    of the automaton) and the set of automaton states it reaches from the
    zero state, and compares exact zeroness against acceptance at every
    length.  Words that share both extend alike, so each length keeps one
    bucket per (value, state set) with its number of words and its
    lexicographically first word.  ``missed`` and ``spurious`` name up to
    20 wrong classes each, once, by their shortest and then lexicographically
    first word, in (length, lexicographic) order.
    """
    if n_max > 14:
        raise CapExceeded("verification depth capped at 14")
    if n_max < 0:
        raise ValidationError(f"verification depth must be >= 0, got {n_max}")
    idx = a.state_index()
    zero_name = zero_state_name(p)
    if zero_name not in idx:
        raise ValueError(f"automaton has no zero state {zero_name!r}")
    step_masks = [[0] * a.n_states for _ in a.alphabet]
    for src, dst, label in zip(*(column.tolist() for column in a.edge_arrays())):
        step_masks[label][src] |= 1 << dst

    def advance_mask(mask: int, label: int) -> int:
        out = 0
        table = step_masks[label]
        while mask:
            low = mask & -mask
            out |= table[low.bit_length() - 1]
            mask ^= low
        return out

    zero_bit = 1 << idx[zero_name]
    zero_coords = (0,) * p.degree
    zero_counts, accepted_counts = [], []
    missed: list[tuple[int, ...]] = []
    spurious: list[tuple[int, ...]] = []
    listed = set()
    # (coordinates, state mask) -> [words, first word]; a dict keeps the
    # buckets in the order of their first words
    level = {(zero_coords, zero_bit): [1, ()]}
    for _ in range(n_max):
        nxt: dict = {}
        for (coords, mask), (words, word) in level.items():
            base = bint_mul_beta(coords, p.minpoly)
            for label, digit in enumerate(a.alphabet):
                key = ((base[0] + digit,) + base[1:], advance_mask(mask, label))
                if key in nxt:
                    nxt[key][0] += words
                else:
                    nxt[key] = [words, word + (digit,)]
        zero_counts.append(0)
        accepted_counts.append(0)
        for key, (words, word) in nxt.items():
            is_zero = key[0] == zero_coords
            accepted = bool(key[1] & zero_bit)
            zero_counts[-1] += words * is_zero
            accepted_counts[-1] += words * accepted
            wrong = spurious if accepted else missed
            if is_zero != accepted and key not in listed and len(wrong) < 20:
                listed.add(key)
                wrong.append(word)
        level = nxt
    return {
        "max_length": n_max,
        "zero_word_counts": zero_counts,
        "accepted_counts": accepted_counts,
        "sound": not spurious,
        "complete": not missed,
        "missed": [list(w) for w in missed],
        "spurious": [list(w) for w in spurious],
        "empty_language": not a.edges,
    }
