"""Shared generators and oracles for the test suite."""

import csv
import importlib.util
import io
import json
import math
import random
import sys
from collections import deque
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from mpmath import mp, mpf

from measure_lab.algebraic import (
    PRECISION,
    PisotNumber,
    bint_mul_beta,
    float_with_error,
    format_coords,
    make_pisot,
    qbeta_div,
    refined_enclosures,
)
from measure_lab.automaton import (
    LabeledAutomaton,
    parse_automaton,
    primitivity_check,
    transition_matrices,
)
from measure_lab.distribution import DepthCloud
from measure_lab.errors import (
    CapExceeded,
    DeadState,
    DuplicateEdge,
    LabelOutsideAlphabet,
    NotStronglyConnected,
    SchemaError,
    UnknownState,
)
from measure_lab.parry import PerronData
from measure_lab.zero_automaton import (
    _BOX_CAP,
    IN,
    OUT,
    UNDECIDED,
    build_zero_automaton,
    float_tier,
    state_within_bounds,
    zero_state_name,
)


def bench_tracing():
    """``bench/tracing.py``, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def random_primitive_automata(count, seed, max_states=5):
    """Seeded stream of random primitive automata with alphabet in -2..2."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n_states = rng.randint(1, max_states)
        states = [f"s{i}" for i in range(n_states)]
        alphabet = sorted(rng.sample([-2, -1, 0, 1, 2], rng.randint(1, 4)))
        edges = []
        for i in range(n_states):  # a random cycle encourages connectivity
            j = (i + 1) % n_states
            edges.append((states[i], states[j], rng.choice(alphabet)))
        for src in states:
            for dst in states:
                for lab in alphabet:
                    if rng.random() < 0.25 and (src, dst, lab) not in edges:
                        edges.append((src, dst, lab))
        doc = {
            "alphabet": alphabet,
            "states": states,
            "edges": [{"from": s, "to": t, "label": l} for s, t, l in edges],
        }
        a = parse_automaton(doc)
        if primitivity_check(a)["primitive"]:
            found.append(a)
    return found


@st.composite
def signed_automata(draw):
    """Primitive automata whose label matrices have three or more in-edges
    per column, so a level's stacked product sums three or more terms per
    entry.  The first label has every edge, which makes the total matrix
    positive; labels are signed."""
    n = draw(st.integers(3, 5))
    alphabet = sorted(draw(st.sets(st.integers(-3, 3), min_size=2, max_size=4)
                           .filter(lambda labels: min(labels) < 0)))
    edges = []
    for i, label in enumerate(alphabet):
        for dst in range(n):
            sources = range(n) if i == 0 else draw(st.sets(st.integers(0, n - 1), min_size=3))
            edges += [{"from": f"s{src}", "to": f"s{dst}", "label": label} for src in sources]
    return parse_automaton(
        {"alphabet": alphabet, "states": [f"s{i}" for i in range(n)], "edges": edges}
    )


# ---------------------------------------------------------------- Q(beta)
# Reference field arithmetic on Fraction coordinates, and the finite-image
# test written with it, as the oracle for the package's integer version.


def beta_int_from_name(name: str, p: PisotNumber) -> tuple[int, ...]:
    """The coordinates of a zero-automaton state from its name "(c0,...)"."""
    coords = tuple(int(c) for c in name.strip("()").split(","))
    if len(coords) != p.degree:
        raise ValueError(f"state name {name!r} has wrong arity for degree {p.degree}")
    return coords


def bint_from_int(n: int, p: PisotNumber) -> tuple[int, ...]:
    """The rational integer n as an element of Z[beta]."""
    return (n,) + (0,) * (p.degree - 1)


def bint_pow_beta(k: int, p: PisotNumber) -> tuple[int, ...]:
    """beta^k as an element of Z[beta]."""
    x = bint_from_int(1, p)
    for _ in range(k):
        x = bint_mul_beta(x, p.minpoly)
    return x


def qbeta_from_int(n: int, p: PisotNumber) -> tuple[Fraction, ...]:
    return (Fraction(n),) + (Fraction(0),) * (p.degree - 1)


def qbeta_from_bint(x: tuple[int, ...]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in x)


def qbeta_add(x: tuple, y: tuple) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(x, y))


def qbeta_sub(x: tuple, y: tuple) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(x, y))


def qbeta_mul_beta(x: tuple, p: PisotNumber) -> tuple[Fraction, ...]:
    """beta * x, reducing beta^r = -(minpoly[0] + ... + minpoly[r-1] beta^(r-1))."""
    top = x[-1]
    shifted = (Fraction(0),) + tuple(x[:-1])
    return tuple(c - top * m for c, m in zip(shifted, p.minpoly))


def qbeta_mul(x: tuple, y: tuple, p: PisotNumber) -> tuple[Fraction, ...]:
    """x * y by Horner in beta over the coordinates of x."""
    acc = qbeta_from_int(0, p)
    for c in reversed(x):
        acc = qbeta_add(qbeta_mul_beta(acc, p), tuple(c * b for b in y))
    return acc


def first_cycle_through_root(a: LabeledAutomaton) -> list[tuple[str, int, str]]:
    """A cycle through states[0], found by BFS over edges in document order."""
    root = a.states[0]
    out: dict[str, list[tuple[str, int, str]]] = {s: [] for s in a.states}
    for src, dst, label in a.edges:
        out[src].append((src, label, dst))
    parent: dict[str, tuple[str, int, str]] = {}
    queue = [root]
    seen = {root}
    while queue:
        u = queue.pop(0)
        for edge in out[u]:
            dst = edge[2]
            if dst == root:
                cycle = [edge]
                while edge[0] != root:
                    edge = parent[edge[0]]
                    cycle.append(edge)
                return cycle[::-1]
            if dst not in seen:
                seen.add(dst)
                parent[dst] = edge
                queue.append(dst)
    raise NotStronglyConnected(f"no cycle through state {root!r}")


def ref_finite_image_test(a: LabeledAutomaton, p: PisotNumber):
    """The finite-image test in Q(beta) Fractions: the cycle value through
    the first state, c(w) = beta*c(u) - label along the BFS tree, then
    every edge in document order.  Returns (ok, c_map, witness), the
    fields a ``FiniteImageResult`` gives."""
    cycle = first_cycle_through_root(a)
    num = qbeta_from_int(0, p)
    for _, label, _ in cycle:
        num = qbeta_add(qbeta_mul_beta(num, p), qbeta_from_int(label, p))
    power = qbeta_from_int(1, p)
    for _ in cycle:
        power = qbeta_mul_beta(power, p)
    c_map = {a.states[0]: qbeta_div(num, qbeta_sub(power, qbeta_from_int(1, p)), p)}
    out = {s: [] for s in a.states}
    for src, dst, label in a.edges:
        out[src].append((label, dst))
    queue = [a.states[0]]
    while queue:
        u = queue.pop(0)
        for label, w in out[u]:
            if w not in c_map:
                c_map[w] = qbeta_sub(qbeta_mul_beta(c_map[u], p), qbeta_from_int(label, p))
                queue.append(w)
    if len(c_map) != a.n_states:
        raise NotStronglyConnected("some states unreachable from the first state")
    for src, dst, label in a.edges:
        if qbeta_sub(qbeta_mul_beta(c_map[src], p), qbeta_from_int(label, p)) != c_map[dst]:
            return False, None, (src, label, dst)
    return True, c_map, None


# ---------------------------------------------------------------- random bases
# (minpoly, alphabet) pairs of degree 1 to 4 whose zero automata have 3 to
# 179 states.

ZERO_BASES = (
    ((-2, 1), (-2, -1, 0, 1, 2)),
    ((-1, -1, 1), (-1, 0, 1)),
    ((-1, -1, 1), (-2, -1, 0, 1, 2)),
    ((1, -3, 1), (-2, -1, 0, 1, 2)),
    ((-1, -2, 1), (-2, -1, 0, 1, 2)),
    ((-1, -1, -1, 1), (-1, 0, 1)),
    ((-1, -1, -1, 1), (-2, -1, 0, 1, 2)),
    ((-1, -1, 0, 1), (-1, 0, 1)),
    ((-1, 0, -1, 1), (-1, 0, 1)),
    ((-1, -2, -1, 1), (-2, -1, 0, 1, 2)),
    ((-1, -1, -1, -1, 1), (-1, 0, 1)),
    ((-1, -2, -2, -1, 1), (-2, -1, 0, 1, 2)),
)
PISOT_BASES = sorted({minpoly for minpoly, _ in ZERO_BASES} | {(-3, 1), (-2, -2, -2, 1)})


@lru_cache(maxsize=None)
def pisot(minpoly: tuple[int, ...]) -> PisotNumber:
    return make_pisot(minpoly)


@lru_cache(maxsize=None)
def zero_automaton(minpoly: tuple[int, ...], alphabet: tuple[int, ...]) -> LabeledAutomaton:
    return build_zero_automaton(pisot(minpoly), list(alphabet))


def _reach(start: str, edges, forward: bool) -> set[str]:
    succ: dict[str, list[str]] = {}
    for src, dst, _ in edges:
        a, b = (src, dst) if forward else (dst, src)
        succ.setdefault(a, []).append(b)
    seen, stack = {start}, [start]
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _document(states, edges, alphabet) -> LabeledAutomaton:
    edges = list(dict.fromkeys(edges))  # parallel edges need distinct labels
    return parse_automaton({
        "alphabet": sorted(alphabet),
        "states": list(states),
        "edges": [{"from": s, "to": t, "label": l} for s, t, l in edges],
    })


@st.composite
def zero_subautomata(draw):
    """(automaton, base, edited): the strongly connected part through the
    zero state of a random edge subset of a zero automaton, which keeps the
    zero state's 0-loop and so is primitive with every c(v) = v.  States
    and edges are shuffled, so the first state is random.  ``edited`` adds
    one random edge, which usually breaks the finite image."""
    minpoly, alphabet = draw(st.sampled_from(ZERO_BASES))
    p = pisot(minpoly)
    za = zero_automaton(minpoly, alphabet)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero = zero_state_name(p)
    keep = rng.uniform(0.7, 1.0)
    edges = [e for e in za.edges if e == (zero, zero, 0) or rng.random() < keep]
    states = _reach(zero, edges, True) & _reach(zero, edges, False)
    edges = [e for e in edges if e[0] in states and e[1] in states]
    order = sorted(states)
    edited = draw(st.booleans())
    if edited:
        edges.append((rng.choice(order), rng.choice(order), rng.choice(alphabet)))
    rng.shuffle(order)
    rng.shuffle(edges)
    return _document(order, edges, alphabet), p, edited


@st.composite
def strongly_connected_automata(draw):
    """(automaton, base): a labelled cycle through 1 to 8 states plus up to
    2n random edges, labels in -3..3, over a random base from the pool."""
    p = pisot(draw(st.sampled_from(PISOT_BASES)))
    n = draw(st.integers(1, 8))
    label = st.integers(-3, 3)
    node = st.integers(0, n - 1)
    edges = [(i, (i + 1) % n, draw(label)) for i in range(n)]
    edges += draw(st.lists(st.tuples(node, node, label), max_size=2 * n))
    edges = [(f"s{i}", f"s{j}", lab) for i, j, lab in edges]
    return _document([f"s{i}" for i in range(n)], edges, {lab for _, _, lab in edges}), p


@st.composite
def small_graphs(draw):
    """Labelled graphs of 1 to 9 states, labels in -2..2.  With step p in
    {2, 3} every edge runs from class i % p to the next class, so the graph
    is periodic when connected; a forced cycle through all states in order
    (n a multiple of p) usually makes it strongly connected.  Self-loops,
    parallel edges with different labels, graphs that are not strongly
    connected and a single state with no edge are all drawn."""
    step = draw(st.sampled_from([1, 2, 3]))
    n = step * draw(st.integers(1, 9 // step))
    node = st.integers(0, n - 1)
    label = st.integers(-2, 2)
    edges = [(i, (i + 1) % n, draw(label)) for i in range(n)] if draw(st.booleans()) else []
    edges += [(i, j, lab) for i, j, lab in draw(st.lists(st.tuples(node, node, label), max_size=2 * n))
              if (j - i - 1) % step == 0]
    if edges:  # parallel copies with a different label
        edges += [(i, j, (lab + 3) % 5 - 2) for i, j, lab in draw(st.lists(st.sampled_from(edges), max_size=3))]
    edges = [(f"s{i}", f"s{j}", lab) for i, j, lab in edges]
    return _document([f"s{i}" for i in range(n)], edges, {0} | {lab for _, _, lab in edges})


@lru_cache(maxsize=None)
def beta_reference(minpoly: tuple[int, ...]) -> mpf:
    """beta to about 460 bits, by Newton's method from the float root."""
    with mp.workprec(460):
        return mp.findroot(lambda x: mp.polyval(list(reversed(minpoly)), x),
                           mpf(pisot(minpoly).beta_float))


def nearest_double_reference(x: tuple[Fraction, ...], minpoly: tuple[int, ...]) -> float:
    """The double nearest the value of x, from a 400-bit evaluation."""
    beta = beta_reference(minpoly)
    with mp.workprec(400):
        value = sum(mpf(c.numerator) / c.denominator * beta**i for i, c in enumerate(x))
        return float(value)


def _sorted_cloud_entries(cloud: DepthCloud):
    return sorted(cloud.entries, key=lambda e: (e.value, e.mass))


def reference_cloud_csv(cloud: DepthCloud) -> bytes:
    """The `cloud --csv` file as csv.writer writes it from the entries
    sorted by (value, mass)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["word", "value", "mass", "lo", "hi"])
    writer.writerows([";".join(str(x) for x in e.word), e.value, e.mass, e.lo, e.hi]
                     for e in _sorted_cloud_entries(cloud))
    return buffer.getvalue().encode("utf-8")


def reference_table_csv(report: dict) -> bytes:
    """The `fourier --csv` or `scan --csv` file as csv.writer writes it
    from the rows of the command's JSON report (floats survive JSON bit
    for bit)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["t_or_z", "re", "im", "abs", "bound"])
    for r in report["values"] if "values" in report else report["table"]:
        key = r["t"] if "t" in r else ";".join(str(c) for c in r["z"])
        writer.writerow([key, r["re"], r["im"], r["abs"], r["bound"]])
    return buffer.getvalue().encode("utf-8")


def reference_cloud_report(cloud: DepthCloud, file: str, written: str | None = None) -> str:
    """The `cloud` JSON report built as dicts from the entries sorted by
    (value, mass); with ``written`` it is the report of a `--csv` run."""
    entries = _sorted_cloud_entries(cloud)
    report = {
        "file": file,
        "depth": cloud.depth,
        "entries": len(entries),
        "total_mass": float(sum(e.mass for e in cloud.entries)),
        "max_radius": max((e.hi - e.lo) for e in cloud.entries),
    }
    if written is None:
        report["cloud"] = [
            {"word": list(e.word), "value": e.value, "mass": e.mass, "lo": e.lo, "hi": e.hi}
            for e in entries
        ]
    else:
        report["written"] = written
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def reference_cdf_bounds(cloud: DepthCloud, x: float) -> tuple[float, float]:
    """CDF bracket summed entry by entry, left to right in word order."""
    lower = upper = 0.0
    for e in cloud.entries:
        if e.hi <= x:
            lower += e.mass
        if e.lo <= x:
            upper += e.mass
    return lower, upper


# ---------------------------------------------------------------- zero automaton
# The walk and candidate box that built zero automata before the walk
# numbered its states, as the oracle for build_zero_automaton.


def _reference_accept(decision: np.ndarray, state, p: PisotNumber, m_abs: int) -> np.ndarray:
    keep = decision == IN
    for i in np.flatnonzero(decision == UNDECIDED):
        keep[i] = state_within_bounds(state(i), p, m_abs)
    return keep


_U = 2.0**-53


def _reference_padded(err):
    return err * (1 + 2.0**-20) + 2.0**-1000


def reference_float_tier(coords: np.ndarray, p: PisotNumber, m_abs: int):
    """The float tier one embedding at a time, as it ran before it took
    every embedding in one Horner pass: a real pass at the float beta, a
    complex one at each conjugate, each bound decided on its own.
    Returns the decisions and (rows x embeddings) arrays of the bounds
    and their errors, on the float coordinates the tier reads (rows with
    a coordinate of modulus >= 2^53 as zeros)."""
    exact = (np.abs(coords) < 2**53).all(axis=1)
    c = np.where(exact[:, None], coords, 0).astype(np.float64)
    with mp.workprec(PRECISION + 64):
        constants = [
            (float_with_error(root), float_with_error(factor))
            for root, factor in [(p.root_beta, p.root_beta.add_int(-1))]
            + [(z, (-z.abs_ball()).add_int(1)) for z in p.conjugates]
        ]
    size = np.abs(c)
    values, errors = [], []
    for q, ((x, dx), (f, df)) in enumerate(constants):
        big_x = abs(x) + dx
        y = c[:, -1] + 0 * x
        mag, deriv = size[:, -1], np.zeros(len(c))
        for i in range(c.shape[1] - 2, -1, -1):
            y = y * x + c[:, i]
            deriv = deriv * big_x + mag
            mag = mag * big_x + size[:, i]
        err = _reference_padded(8 * c.shape[1] * _U * mag + dx * deriv)
        if q:
            y = np.abs(y)
            err = _reference_padded(err + 2 * _U * y)
        value = np.abs(y * f)
        errors.append(_reference_padded(err * abs(f) + (np.abs(y) + err) * df + _U * value))
        values.append(value)
    inside, outside = exact.copy(), np.zeros(len(c), dtype=bool)
    for value, err in zip(values, errors):
        inside &= value + err < m_abs
        outside |= value - err > m_abs
    decision = np.full(len(c), UNDECIDED, dtype=np.int8)
    if m_abs < 2**53:
        decision[inside] = IN
        decision[exact & outside] = OUT
    return decision, np.stack(values, axis=1), np.stack(errors, axis=1)


def _reference_candidate_box(p: PisotNumber, m_abs: int) -> list[tuple[int, ...]]:
    r = p.degree
    if r == 1:
        n = -p.minpoly[0]
        top = m_abs // (n - 1)
        coord_bound = [top]
    else:
        beta, conj = refined_enclosures(p, PRECISION)
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
    axes = np.meshgrid(*[np.arange(-b, b + 1) for b in coord_bound], indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, r)
    keep = _reference_accept(float_tier(box, p, m_abs), lambda i: tuple(box[i].tolist()), p, m_abs)
    members = [tuple(c) for c in box[keep].tolist()]
    zero = bint_from_int(0, p)
    members.sort()
    members.remove(zero)
    return [zero] + members


def reference_zero_automaton(p: PisotNumber, alphabet, trim: str = "both") -> LabeledAutomaton:
    alphabet = tuple(sorted(set(int(a) for a in alphabet)))
    m_abs = max(abs(a) for a in alphabet)
    zero = bint_from_int(0, p)

    def successors(x: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        head, *tail = bint_mul_beta(x, p.minpoly)
        return [((head - a, *tail), a) for a in alphabet]

    if trim == "none":
        states = _reference_candidate_box(p, m_abs)
        member = set(states)
        edges = [(x, y, a) for x in states for y, a in successors(x) if y in member]
    else:
        states = [zero]
        member = {zero: True}  # every state tested so far
        edges = []
        level = [zero]
        while level:
            steps = [(x, y, a) for x in level for y, a in successors(x)]
            fresh = list(dict.fromkeys(y for _, y, _ in steps if y not in member))
            coords = np.array(fresh).reshape(len(fresh), p.degree)
            keep = _reference_accept(float_tier(coords, p, m_abs), fresh.__getitem__, p, m_abs)
            member.update(zip(fresh, keep.tolist()))
            level = [y for y, k in zip(fresh, keep) if k]
            states += level
            edges += [step for step in steps if member[step[1]]]

    if trim == "both":
        order = {s: i for i, s in enumerate(states)}
        _, level, _ = reference_walk([order[y] for _, y, _ in edges], [order[x] for x, _, _ in edges],
                                     len(states), 0)
        co = {s for s, depth in zip(states, level) if depth >= 0}
        states = [s for s in states if s in co]
        edges = [(x, y, a) for x, y, a in edges if x in co and y in co]

    order = {s: i for i, s in enumerate(states)}
    edges.sort(key=lambda e: (order[e[0]], e[2], order[e[1]]))
    zero_name = format_coords(zero)
    return LabeledAutomaton(
        states=tuple(format_coords(s) for s in states),
        alphabet=alphabet,
        edges=tuple((format_coords(x), format_coords(y), a) for x, y, a in edges),
        initial=(zero_name,),
        terminal=(zero_name,),
        beta_minpoly=p.minpoly,
    )


# ---------------------------------------------------------------- document oracle


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def reference_parse_automaton(document) -> LabeledAutomaton:
    """``parse_automaton`` with its edge-by-edge loop: every check runs on
    one edge before the next edge is read."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    _require(isinstance(document, dict), "document must be a JSON object")
    allowed = {"beta", "alphabet", "states", "edges", "initial", "terminal"}
    unknown = set(document) - allowed
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    for key in ("alphabet", "states", "edges"):
        _require(key in document, f"missing key '{key}'")

    beta_minpoly = None
    if "beta" in document:
        beta = document["beta"]
        _require(isinstance(beta, dict) and "minpoly" in beta, "'beta' must be {'minpoly': [...]}")
        mp_ = beta["minpoly"]
        _require(
            isinstance(mp_, list) and mp_ and all(_is_int(c) for c in mp_),
            "'beta.minpoly' must be a nonempty integer list",
        )
        beta_minpoly = tuple(mp_)

    alphabet = document["alphabet"]
    _require(
        isinstance(alphabet, list) and all(_is_int(a) for a in alphabet),
        "'alphabet' must be a list of integers",
    )
    _require(len(set(alphabet)) == len(alphabet), "duplicate alphabet letters")
    _require(all(abs(a) <= sys.float_info.max for a in alphabet),
             "alphabet letters must lie within the float range")

    states = document["states"]
    _require(
        isinstance(states, list) and states and all(isinstance(s, str) for s in states),
        "'states' must be a nonempty list of strings",
    )
    _require(len(set(states)) == len(states), "duplicate state names")
    state_set = set(states)

    edges = []
    seen = set()
    alpha_set = set(alphabet)
    _require(isinstance(document["edges"], list), "'edges' must be a list")
    for e in document["edges"]:
        _require(
            isinstance(e, dict) and set(e) == {"from", "to", "label"},
            f"edge must have exactly keys from/to/label: {e}",
        )
        src, dst, label = e["from"], e["to"], e["label"]
        _require(isinstance(src, str) and isinstance(dst, str), f"edge states must be strings: {e}")
        if src not in state_set:
            raise UnknownState(f"edge source '{src}' not declared")
        if dst not in state_set:
            raise UnknownState(f"edge target '{dst}' not declared")
        _require(not isinstance(label, bool), f"edge label must be an integer: {e}")
        if not isinstance(label, int) or label not in alpha_set:
            raise LabelOutsideAlphabet(f"label {label!r} outside alphabet {sorted(alpha_set)}")
        triple = (src, dst, label)
        if triple in seen:
            raise DuplicateEdge(f"duplicate edge {triple}")
        seen.add(triple)
        edges.append(triple)

    def _state_subset(key: str) -> tuple[str, ...]:
        value = document.get(key, [])
        _require(isinstance(value, list) and all(isinstance(s, str) for s in value),
                 f"'{key}' must be a list of strings")
        for s in value:
            if s not in state_set:
                raise UnknownState(f"{key} state '{s}' not declared")
        _require(len(set(value)) == len(value), f"duplicate {key} states")
        return tuple(value)

    return LabeledAutomaton(
        states=tuple(states),
        alphabet=tuple(sorted(alphabet)),
        edges=tuple(edges),
        initial=_state_subset("initial"),
        terminal=_state_subset("terminal"),
        beta_minpoly=beta_minpoly,
    )


# ---------------------------------------------------------------- graph oracles


def reference_walk(src, dst, n_states: int, start: int):
    """``automaton.reachable`` on a deque over per-state edge lists: the
    BFS order, the levels and the tree edges (-1 for none)."""
    out = [[] for _ in range(n_states)]
    for e, u in enumerate(src):
        out[u].append(e)
    level, tree = [-1] * n_states, [-1] * n_states
    level[start] = 0
    order, queue = [start], deque([start])
    while queue:
        u = queue.popleft()
        for e in out[u]:
            v = dst[e]
            if level[v] == -1:
                level[v], tree[v] = level[u] + 1, e
                order.append(v)
                queue.append(v)
    return order, level, tree


def label_blocks(a: LabeledAutomaton) -> dict[int, np.ndarray]:
    """The label matrices of ``transition_matrices``' stack, by letter in
    alphabet order; their sum is the total transition matrix."""
    n = a.n_states
    stack = transition_matrices(a).reshape(n, len(a.alphabet), n)
    return {x: stack[:, i] for i, x in enumerate(a.alphabet)}


def _boolean_power(m: np.ndarray, k: int) -> np.ndarray:
    """m^k > 0 for a 0/1 matrix m, one Boolean product per step."""
    power = np.eye(len(m), dtype=bool)
    for _ in range(k):
        power = (power.astype(np.int64) @ m) > 0
    return power


def dense_primitivity(a: LabeledAutomaton) -> dict:
    """primitivity_check's answer from the dense adjacency matrix A.

    Strongly connected: the reflexive-transitive closure (I + A)^(n-1) is
    all true, so a single state with no edge counts as connected.  Period:
    gcd{k <= n : trace(A^k) > 0} when strongly connected, else 0.
    """
    n = a.n_states
    adj = (sum(label_blocks(a).values()) > 0).astype(np.int64)
    strongly_connected = bool(_boolean_power(adj | np.eye(n, dtype=np.int64), n - 1).all())
    period = 0
    if strongly_connected:
        for k in range(1, n + 1):
            if _boolean_power(adj, k).diagonal().any():
                period = math.gcd(period, k)
    return {
        "strongly_connected": strongly_connected,
        "period": period,
        "primitive": strongly_connected and period == 1,
    }


def wielandt_positive(a: LabeledAutomaton) -> bool:
    """A^((n-1)^2 + 1) > 0, which holds exactly when A is primitive."""
    adj = (sum(label_blocks(a).values()) > 0).astype(np.int64)
    return bool(_boolean_power(adj, (a.n_states - 1) ** 2 + 1).all())


def reference_value_bounds(a: LabeledAutomaton, p: PisotNumber, tol: float = 1e-12):
    """value_bounds as a per-state Bellman loop: min/max over each state's
    out-edges in Python, one state at a time."""
    beta = p.beta_float
    idx = a.state_index()
    out: list[list[tuple[int, int]]] = [[] for _ in a.states]
    for src, dst, label in a.edges:
        out[idx[src]].append((label, idx[dst]))
    for name, lst in zip(a.states, out):
        if not lst:
            raise DeadState(f"state {name!r} has no outgoing edge")

    n = a.n_states
    lo = np.zeros(n)
    hi = np.zeros(n)
    gap_target = tol * (1 - 1 / beta)
    for _ in range(100_000):
        new_lo = np.array([min((lab + lo[j]) / beta for lab, j in out[i]) for i in range(n)])
        new_hi = np.array([max((lab + hi[j]) / beta for lab, j in out[i]) for i in range(n)])
        change = max(np.abs(new_lo - lo).max(), np.abs(new_hi - hi).max())
        lo, hi = new_lo, new_hi
        if change <= gap_target:
            break
    return {
        name: (float(lo[i] - tol), float(hi[i] + tol))
        for name, i in ((s, idx[s]) for s in a.states)
    }


# ---------------------------------------------------------------- word-count oracles

ENUMERATION_CAP = 14


def count_words(a: LabeledAutomaton, n: int, use_initial_terminal: bool = False) -> int:
    """Number of length-n label words along paths, counted with path
    multiplicity (a word with several runs counts once per run).

    With ``use_initial_terminal`` the paths are restricted to start in the
    initial set and end in the terminal set.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    idx = a.state_index()
    src, dst, _ = a.edge_arrays()
    start, end = (a.initial, a.terminal) if use_initial_terminal else (a.states, a.states)
    # runs[j]: paths of the current length that end in state j, held as
    # Python ints (object dtype) so counts never overflow
    runs = np.zeros(a.n_states, dtype=object)
    runs[[idx[s] for s in start]] = 1
    for _ in range(n):
        nxt = np.zeros(a.n_states, dtype=object)
        np.add.at(nxt, dst, runs[src])
        runs = nxt
    return sum(runs[idx[s]] for s in end)


def enumerate_paths(a: LabeledAutomaton, n: int, from_set, to_set, cap: int = ENUMERATION_CAP):
    """All length-n label words along paths from from_set to to_set, with
    run multiplicity, in lexicographic (state order, then label) order."""
    if n > cap:
        raise CapExceeded(f"enumeration length {n} exceeds cap {cap}")
    idx = a.state_index()
    out_edges: list[list[tuple[int, int]]] = [[] for _ in a.states]
    for src, dst, label in a.edges:
        out_edges[idx[src]].append((idx[dst], label))
    for lst in out_edges:
        lst.sort()
    targets = {idx[s] for s in to_set}
    words: list[tuple[int, ...]] = []

    def walk(state: int, depth: int, word: list[int]) -> None:
        if depth == n:
            if state in targets:
                words.append(tuple(word))
            return
        for dst, label in out_edges[state]:
            word.append(label)
            walk(dst, depth + 1, word)
            word.pop()

    for name in from_set:
        walk(idx[name], 0, [])
    return words


# ---------------------------------------------------------------- sampling

def _reference_edge_chain(pd: PerronData, a: LabeledAutomaton):
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


def reference_sample_many(pd: PerronData, a: LabeledAutomaton, n_runs: int, length: int, seed: int):
    """Stationary sample paths of the Markov lift, deterministic in the
    seed: arrays (n_runs, length+1) of state indices and (n_runs, length)
    of labels.

    Each state's out-edges are ordered by (target, label), ties in document
    order, and a step picks the first edge whose cumulative weight
    v_R(to)/(lambda v_R(from)) reaches a uniform draw.  Short rows are
    padded with their last edge at cumulative weight 2."""
    rng = np.random.default_rng(seed)
    pi = pd.v_L * pd.v_R
    pi = pi / pi.sum()
    chain = _reference_edge_chain(pd, a)
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


def reference_tail_length(c: float, t_abs: float, beta: float, tol: float) -> int:
    """The least N >= 1 with c |t| beta^-N / (1 - 1/beta) <= tol, one t at a
    time in logarithms on Python floats: the tail length a transform grid
    gives each of its points."""
    if t_abs == 0 or c == 0:
        return 1
    n = (math.log(c) + math.log(t_abs) - math.log(tol * (1 - 1 / beta))) / math.log(beta)
    return max(1, math.ceil(n))
