"""Labelled automata over integer alphabets.

Parsing and validation of the JSON document format, the one labelled
edge index (``edge_arrays``), the one BFS (``reachable``) and the count of
ambiguous words.  The BFS walks the index forward or backward and returns
its order, levels and tree edges: strong connectivity, primitivity, the
finite-image test's spanning tree (``LabeledAutomaton.forward_walk``) and
the zero automaton's trim all read it.  The dense 0/1 label stack
(``transition_matrices``) is built only for the batched engines, under
``DENSE_CAP``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ._jsontext import dumps
from .errors import (
    CapExceeded,
    DuplicateEdge,
    LabelOutsideAlphabet,
    SchemaError,
    UnknownState,
)

# Most cells one dense array built from the automaton may hold: the label
# stack, or one refinement level's product with it.  Read on each call.
# At the cap, on a shared 2-core host: a cloud whose last level holds 10^8
# cells (the 100-state de Bruijn graph over ten letters, depth 6) peaked at
# 1.8 GB RSS, and fourier on a 99,980,187-cell stack at 2.3 GB.  The
# largest level below it that runs, quartic cloud --depth 10, holds
# 73,988,397 cells and peaks at 1.5 GB.
DENSE_CAP = 100_000_000


@dataclass(frozen=True)
class LabeledAutomaton:
    """Finite directed multigraph with integer edge labels.

    State order is document order and fixes the indexing of every matrix
    and report derived from the automaton.  ``beta_minpoly`` carries the
    base polynomial from the document for CLI convenience; library
    functions always take the Pisot number explicitly.
    """

    states: tuple[str, ...]
    alphabet: tuple[int, ...]
    edges: tuple[tuple[str, str, int], ...]
    initial: tuple[str, ...] = ()
    terminal: tuple[str, ...] = ()
    beta_minpoly: tuple[int, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Source and target state indices and alphabet index of the label,
        one entry per edge in document order (parallel edges count with their
        multiplicity): read-only arrays, built once per automaton."""
        return self._edge_index

    # Cached values live in the instance __dict__, which the frozen
    # dataclass leaves writable, and never enter eq or hash.
    @functools.cached_property
    def _edge_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = self.state_index()
        letter = {x: i for i, x in enumerate(self.alphabet)}
        index = np.array([(idx[s], idx[t], letter[x]) for s, t, x in self.edges], np.intp)
        index = index.reshape(-1, 3).T.copy()
        index.flags.writeable = False  # and so are the row views
        return tuple(index)

    @functools.cached_property
    def forward_walk(self) -> tuple[list[int], list[int], list[int]]:
        """``reachable`` from state 0, walked once per automaton: read only."""
        src, dst, _ = self.edge_arrays()
        return reachable(src, dst, self.n_states, 0)

    @functools.cached_property
    def _primitivity(self) -> dict:
        # primitivity_check's answer, found once per automaton.
        src, dst, _ = self.edge_arrays()
        n, level = self.n_states, np.array(self.forward_walk[1])
        strongly_connected = bool(level.min() >= 0 and min(reachable(dst, src, n, 0)[1]) >= 0)
        period = int(np.gcd.reduce(level[src] + 1 - level[dst])) if strongly_connected else 0
        return {
            "strongly_connected": strongly_connected,
            "period": period,
            "primitive": strongly_connected and period == 1,
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(x) -> bool:
    # JSON true/false parse to bool, which is a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


_EDGE_KEYS = frozenset({"from", "to", "label"})


def _raise_first(edges: list, fault) -> None:
    """Raise the error ``fault`` returns for the first edge it faults."""
    for e in edges:
        error = fault(e)
        if error is not None:
            raise error


def parse_automaton(document) -> LabeledAutomaton:
    """Validate an automaton document (JSON text or parsed dict)."""
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
    # Transforms, clouds and brackets take the letters as floats.
    _require(all(abs(a) <= sys.float_info.max for a in alphabet),
             "alphabet letters must lie within the float range")

    states = document["states"]
    _require(
        isinstance(states, list) and states and all(isinstance(s, str) for s in states),
        "'states' must be a nonempty list of strings",
    )
    _require(len(set(states)) == len(states), "duplicate state names")
    state_set = set(states)

    edges = document["edges"]
    _require(isinstance(edges, list), "'edges' must be a list")
    alpha_set = set(alphabet)

    # The edges are checked column by column, each check over all edges
    # before the next.  A column test asks for exact types, so it passes
    # only where every edge passes; when it fails, the check's edge-by-edge
    # form names the first faulty edge, or passes every edge when the test
    # failed on subclasses of the JSON types.
    def shape(e):
        if not (isinstance(e, dict) and set(e) == _EDGE_KEYS):
            return SchemaError(f"edge must have exactly keys from/to/label: {e}")

    def strings(e):
        if not (isinstance(e["from"], str) and isinstance(e["to"], str)):
            return SchemaError(f"edge states must be strings: {e}")

    def declared(e):
        if e["from"] not in state_set:
            return UnknownState(f"edge source '{e['from']}' not declared")
        if e["to"] not in state_set:
            return UnknownState(f"edge target '{e['to']}' not declared")

    def in_alphabet(e):
        label = e["label"]
        if isinstance(label, bool):
            return SchemaError(f"edge label must be an integer: {e}")
        if not isinstance(label, int) or label not in alpha_set:
            return LabelOutsideAlphabet(f"label {label!r} outside alphabet {sorted(alpha_set)}")

    if not (set(map(type, edges)) <= {dict} and set(map(frozenset, edges)) <= {_EDGE_KEYS}):
        _raise_first(edges, shape)
    src = list(map(itemgetter("from"), edges))
    dst = list(map(itemgetter("to"), edges))
    lab = list(map(itemgetter("label"), edges))
    if not set(map(type, src)).union(map(type, dst)) <= {str}:
        _raise_first(edges, strings)
    if not (state_set.issuperset(src) and state_set.issuperset(dst)):
        _raise_first(edges, declared)
    if not (set(map(type, lab)) <= {int} and alpha_set.issuperset(lab)):
        _raise_first(edges, in_alphabet)
    edges = list(zip(src, dst, lab))
    if len(set(edges)) < len(edges):
        seen = set()
        for triple in edges:
            if triple in seen:
                raise DuplicateEdge(f"duplicate edge {triple}")
            seen.add(triple)

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


def serialize_automaton(a: LabeledAutomaton) -> dict:
    doc = {}
    if a.beta_minpoly is not None:
        doc["beta"] = {"minpoly": list(a.beta_minpoly)}
    doc["alphabet"] = list(a.alphabet)
    doc["states"] = list(a.states)
    doc["edges"] = [{"from": s, "to": t, "label": l} for s, t, l in a.edges]
    doc["initial"] = list(a.initial)
    doc["terminal"] = list(a.terminal)
    return doc


def automaton_to_json(a: LabeledAutomaton) -> str:
    return dumps(serialize_automaton(a)) + "\n"


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


def check_dense_cap(cells: int, what: str) -> None:
    """Raise CapExceeded, before anything is allocated, when a dense array
    of ``cells`` cells would exceed ``DENSE_CAP`` (read on each call)."""
    if cells > DENSE_CAP:
        raise CapExceeded(f"{what} of {cells} cells exceeds {DENSE_CAP}")


def transition_matrices(a: LabeledAutomaton) -> np.ndarray:
    """The label stack: the 0/1 label matrices in state order side by side,
    in alphabet order, as one (n, |alphabet| * n) float64 array, the dtype
    the refinement multiplies in.  Only the batched engines (the transform's
    weight cache and the refinement) build it; ``check_dense_cap`` guards
    its n * |alphabet| * n cells."""
    src, dst, label = a.edge_arrays()
    n, k = a.n_states, len(a.alphabet)
    check_dense_cap(n * k * n, "dense label stack")
    # The parser rejects duplicate edges, so one assignment sets them all.
    cube = np.zeros((n, k, n))
    cube[src, label, dst] = 1
    return cube.reshape(n, k * n)


# ----------------------------------------------------------------------
# Connectivity and primitivity
# ----------------------------------------------------------------------


def reachable(src: np.ndarray, dst: np.ndarray, n_states: int, start: int):
    """BFS from ``start`` over the edges src[e] -> dst[e], scanning each
    state's edges in index order; (dst, src) walks them backward.

    Returns the states in the order reached (``start`` first, unreached
    states absent), each state's level (the length of a shortest path, -1
    where none leads), and each state's tree edge, the first edge to reach
    it (-1 for ``start`` and for unreached states).
    """
    by_src = np.argsort(src, kind="stable")
    first = np.searchsorted(src[by_src], np.arange(n_states + 1)).tolist()
    by_src, dst = by_src.tolist(), dst.tolist()
    level, tree = [-1] * n_states, [-1] * n_states
    level[start] = 0
    order = [start]  # grows while it is walked: the BFS queue
    for u in order:
        for e in by_src[first[u]:first[u + 1]]:
            v = dst[e]
            if level[v] < 0:
                level[v], tree[v] = level[u] + 1, e
                order.append(v)
    return order, level, tree


def primitivity_check(a: LabeledAutomaton) -> dict:
    """Strong connectivity, period (gcd of cycle lengths), primitivity.

    Period is 0 when there is no cycle or the graph is not strongly
    connected; primitive means strongly connected with period 1.  The graph
    is strongly connected when BFS from state 0 reaches every state both
    forward and backward.  Every edge u->v then contributes
    level[u] + 1 - level[v], and the gcd of these over the edges is the
    period whichever BFS tree the levels come from.

    The two walks run on the first call for an automaton only; ``perron``
    and ``finite_image_test`` on the same automaton share them.  Each call
    returns a fresh dict, so a caller may keep or change it.
    """
    return dict(a._primitivity)


# ----------------------------------------------------------------------
# Ambiguous words
# ----------------------------------------------------------------------


def ambiguous_word_count(a: LabeledAutomaton, n_max: int = 8) -> int:
    """Number of words of length <= n_max realised by more than one run.

    Run counts are taken over all start states; a positive value warns
    that path counts and distinct-word counts diverge.  Words with the
    same run-count vector extend alike, so each level keeps one bucket
    per vector with its number of words; nothing extends the last level,
    so it is counted but not kept.
    """
    src, dst, label = a.edge_arrays()
    by_label = [list(zip(src[label == i].tolist(), dst[label == i].tolist()))
                for i in range(len(a.alphabet))]

    ambiguous = 0
    # run-count vector (runs of the word ending in each state) -> words
    level = Counter({(1,) * a.n_states: 1})
    for step in range(1, n_max + 1):
        nxt: Counter = Counter()
        for counts, words in level.items():
            for edges in by_label:
                new = [0] * a.n_states
                for i, j in edges:
                    new[j] += counts[i]
                total = sum(new)
                if total > 1:
                    ambiguous += words
                if total and step < n_max:
                    nxt[tuple(new)] += words
        level = nxt
    return ambiguous
