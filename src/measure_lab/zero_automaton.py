"""The cancellation automaton: digit words over an integer alphabet whose
beta-value is zero.

States are exact elements of Z[beta]; from state x the digit a leads to
y = beta*x - a whenever y survives the closed bounds |y| <= M/(beta-1) and
|y_q| <= M/(1-|beta_q|) for every conjugate embedding (M the largest digit
modulus).  Boundary membership is decided exactly through element
identities such as y*(beta-1) = +-M, everything else through adaptive
enclosures.  All genuine zero words run from the zero state back to the
zero state, so trimming to the strongly co-reachable part of the zero
state preserves the recognised language.
"""

from __future__ import annotations

import itertools

import numpy as np
from mpmath import mp

from ._ball import ball_horner
from .algebraic import (
    BetaInt,
    PisotNumber,
    _escalate,
    bint_from_int,
    bint_mul,
    bint_mul_beta,
    bint_neg,
    refined_enclosures,
)
from .automaton import LabeledAutomaton
from .errors import CapExceeded

_BOX_CAP = 1_000_000

TRIM_NONE = "none"
TRIM_ACCESSIBLE = "accessible"
TRIM_BOTH = "trim_both"


def state_name(x: BetaInt) -> str:
    return str(x)


def beta_int_from_name(name: str, p: PisotNumber) -> BetaInt:
    coords = tuple(int(c) for c in name.strip("()").split(","))
    if len(coords) != p.degree:
        raise ValueError(f"state name {name!r} has wrong arity for degree {p.degree}")
    return BetaInt(coords)


def zero_state_name(p: PisotNumber) -> str:
    return state_name(bint_from_int(0, p))


def _beta_plus_one(p: PisotNumber, sign: int) -> BetaInt:
    # 1 - sign*beta as an element
    return BetaInt((1, -sign) + (0,) * (p.degree - 2))


def _conj_tie_is_boundary(y: BetaInt, p: PisotNumber, q: int, m_abs: int, prec: int) -> bool | None:
    """Exact boundary test |y_q|(1-|beta_q|) = M for a real conjugate.

    Returns True when the element identity certifies the boundary, False
    when no identity can hold, None when the conjugate's sign is not yet
    resolved at this precision.
    """
    if not p.conjugate_is_real[q - 2]:
        return False
    _, conj = refined_enclosures(p, prec)
    ball = conj[q - 2]
    with mp.workprec(prec + 64):
        if ball.mid.real > ball.rad:
            sign = 1
        elif ball.mid.real < -ball.rad:
            sign = -1
        else:
            return None
    elem = bint_mul(y, _beta_plus_one(p, sign), p)
    m_unit = bint_from_int(m_abs, p)
    return elem == m_unit or elem == bint_neg(m_unit)


def state_within_bounds(y: BetaInt, p: PisotNumber, m_abs: int) -> bool:
    """Closed-bound membership test with exact boundary resolution."""
    if p.degree == 1:
        n = -p.minpoly[0]
        return abs(y.coords[0]) * (n - 1) <= m_abs

    t_real = bint_mul(y, BetaInt((-1, 1) + (0,) * (p.degree - 2)), p)  # y*(beta-1)
    m_unit = bint_from_int(m_abs, p)
    real_done = t_real == m_unit or t_real == bint_neg(m_unit)  # exact boundary
    conj_done = [False] * (p.degree - 1)

    def attempt(prec: int) -> bool | None:
        nonlocal real_done
        beta, conj = refined_enclosures(p, prec)
        with mp.workprec(prec + 64):
            if not real_done:
                ball = ball_horner(t_real.coords, beta)
                if ball.mag() < m_abs:
                    real_done = True
                elif ball.mig() > m_abs:
                    return False
            for qi in range(p.degree - 1):
                if conj_done[qi]:
                    continue
                yq = ball_horner(y.coords, conj[qi])
                one_minus_mod = (-conj[qi].abs_ball()).add_int(1)
                product = yq.abs_ball() * one_minus_mod
                if product.mag() < m_abs:
                    conj_done[qi] = True
                elif product.mig() > m_abs:
                    return False
                else:
                    tie = _conj_tie_is_boundary(y, p, qi + 2, m_abs, prec)
                    if tie is True:
                        conj_done[qi] = True
        return True if real_done and all(conj_done) else None

    return _escalate(
        p.precision,
        attempt,
        lambda cap: f"cannot resolve bound membership of state {y} at {cap} bits",
    )


def _candidate_box(p: PisotNumber, m_abs: int) -> list[BetaInt]:
    """All elements of Z[beta] inside the closed bounds, zero first then
    lexicographic by coordinates."""
    r = p.degree
    if r == 1:
        n = -p.minpoly[0]
        top = m_abs // (n - 1)
        coords = [(c,) for c in range(-top, top + 1)]
    else:
        beta, conj = refined_enclosures(p, p.precision)
        roots = [complex(beta.mid)] + [complex(c.mid) for c in conj]
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
        coords = itertools.product(*[range(-b, b + 1) for b in coord_bound])
    members = [
        BetaInt(tuple(c)) for c in coords if state_within_bounds(BetaInt(tuple(c)), p, m_abs)
    ]
    zero = bint_from_int(0, p)
    members.sort(key=lambda x: x.coords)
    members.remove(zero)
    return [zero] + members


def build_zero_automaton(p: PisotNumber, alphabet, trim: str = TRIM_BOTH) -> LabeledAutomaton:
    """Construct the automaton of all zero-value digit words over the alphabet.

    ``trim`` selects how much of the bounded state set is kept: ``none``
    keeps every element within the closed bounds, ``accessible`` keeps
    those reachable from the zero state, ``trim_both`` (default) also
    requires co-reachability back to the zero state.  The zero state is
    always first, and is both initial and terminal.  If no nonempty digit
    word cancels, the result is the single zero state (with its 0-loop
    when 0 is a digit).
    """
    if trim not in (TRIM_NONE, TRIM_ACCESSIBLE, TRIM_BOTH):
        raise ValueError(f"unknown trim mode {trim!r}")
    alphabet = tuple(sorted(set(int(a) for a in alphabet)))
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    m_abs = max(abs(a) for a in alphabet)
    zero = bint_from_int(0, p)

    def successor(x: BetaInt, a: int) -> BetaInt:
        bx = bint_mul_beta(x, p)
        return BetaInt((bx.coords[0] - a,) + bx.coords[1:])

    if trim == TRIM_NONE:
        states = _candidate_box(p, m_abs)
        member = set(states)
        edges = []
        for x in states:
            for a in alphabet:
                y = successor(x, a)
                if y in member:
                    edges.append((x, y, a))
    else:
        # BFS from the zero state under y = beta*x - a, bounds-filtered.
        states = [zero]
        seen = {zero}
        edges = []
        queue = [zero]
        while queue:
            x = queue.pop(0)
            for a in alphabet:
                y = successor(x, a)
                if y in seen:
                    edges.append((x, y, a))
                    continue
                if state_within_bounds(y, p, m_abs):
                    seen.add(y)
                    states.append(y)
                    queue.append(y)
                    edges.append((x, y, a))

    if trim == TRIM_BOTH:
        # Keep states with a path back to zero.
        reverse: dict[BetaInt, set[BetaInt]] = {s: set() for s in states}
        for x, y, _ in edges:
            reverse[y].add(x)
        co = {zero}
        queue = [zero]
        while queue:
            y = queue.pop(0)
            for x in reverse[y]:
                if x not in co:
                    co.add(x)
                    queue.append(x)
        states = [s for s in states if s in co]
        edges = [(x, y, a) for x, y, a in edges if x in co and y in co]

    order = {s: i for i, s in enumerate(states)}
    edges.sort(key=lambda e: (order[e[0]], e[2], order[e[1]]))
    zero_name = state_name(zero)
    return LabeledAutomaton(
        states=tuple(state_name(s) for s in states),
        alphabet=alphabet,
        edges=tuple((state_name(x), state_name(y), a) for x, y, a in edges),
        initial=(zero_name,),
        terminal=(zero_name,),
        beta_minpoly=p.minpoly,
    )


def verify_zero_language(a: LabeledAutomaton, p: PisotNumber, n_max: int) -> dict:
    """Exhaustive soundness/completeness check of the recognised language.

    Walks the full digit tree up to depth n_max carrying the exact value
    sum(x_k beta^(n-k)) in Z[beta] (independent of the automaton), and
    simultaneously the subset of automaton states reachable from the zero
    state, comparing exact zeroness against acceptance at every length.
    """
    if n_max > 14:
        raise CapExceeded("verification depth capped at 14")
    idx = a.state_index()
    zero_name = zero_state_name(p)
    if zero_name not in idx:
        raise ValueError(f"automaton has no zero state {zero_name!r}")
    n_states = a.n_states
    step_masks: dict[int, list[int]] = {lab: [0] * n_states for lab in a.alphabet}
    for src, dst, label in a.edges:
        step_masks[label][idx[src]] |= 1 << idx[dst]

    zero_bit = 1 << idx[zero_name]
    r = p.degree
    minpoly = p.minpoly
    alphabet = a.alphabet
    zero_counts = [0] * (n_max + 1)
    accepted_counts = [0] * (n_max + 1)
    missed: list[tuple[int, ...]] = []
    spurious: list[tuple[int, ...]] = []

    def mul_beta_coords(c: tuple[int, ...]) -> tuple[int, ...]:
        top = c[-1]
        if r == 1:
            return (-top * minpoly[0],)
        shifted = (0,) + c[:-1]
        if top == 0:
            return shifted
        return tuple(s - top * minpoly[i] for i, s in enumerate(shifted))

    def advance_mask(mask: int, label: int) -> int:
        out = 0
        table = step_masks[label]
        m = mask
        while m:
            low = m & -m
            out |= table[low.bit_length() - 1]
            m ^= low
        return out

    zero_coords = (0,) * r
    word: list[int] = []

    def walk(coords: tuple[int, ...], mask: int, depth: int) -> None:
        if depth == n_max:
            return
        base = mul_beta_coords(coords)
        for a_ in alphabet:
            nxt = (base[0] + a_,) + base[1:]
            nmask = advance_mask(mask, a_)
            word.append(a_)
            is_zero = nxt == zero_coords
            accepted = bool(nmask & zero_bit)
            if is_zero:
                zero_counts[depth + 1] += 1
            if accepted:
                accepted_counts[depth + 1] += 1
            if is_zero and not accepted and len(missed) < 20:
                missed.append(tuple(word))
            if accepted and not is_zero and len(spurious) < 20:
                spurious.append(tuple(word))
            walk(nxt, nmask, depth + 1)
            word.pop()

    walk(zero_coords, 1 << idx[zero_name], 0)
    return {
        "max_length": n_max,
        "zero_word_counts": zero_counts[1:],
        "accepted_counts": accepted_counts[1:],
        "sound": not spurious,
        "complete": not missed,
        "missed": [list(w) for w in missed],
        "spurious": [list(w) for w in spurious],
        "empty_language": not a.edges,
    }
