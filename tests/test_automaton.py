import itertools
import json
import random
import re
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from measure_lab import automaton
from measure_lab.automaton import (
    LabeledAutomaton,
    ambiguous_word_count,
    automaton_to_json,
    parse_automaton,
    primitivity_check,
    reachable,
    serialize_automaton,
    transition_matrices,
)
from measure_lab.errors import (
    CapExceeded,
    DuplicateEdge,
    LabelOutsideAlphabet,
    MeasureLabError,
    SchemaError,
    UnknownState,
)
from measure_lab.fixtures import fixture_document

from helpers import (
    count_words,
    dense_primitivity,
    enumerate_paths,
    label_blocks,
    reference_parse_automaton,
    reference_walk,
    small_graphs,
    strongly_connected_automata,
    wielandt_positive,
    zero_automaton,
)


# ---------------------------------------------------------------- oracles

def words_without_adjacent_ones(n):
    """Brute-force words over {0,1} with no factor '11'."""
    out = []
    for word in itertools.product((0, 1), repeat=n):
        if not any(word[i] == word[i + 1] == 1 for i in range(n - 1)):
            out.append(word)
    return out


def golden_zero_words(n):
    """Brute-force words over {0,+-1} whose golden beta-value vanishes,
    detected numerically at high precision (values are algebraic integers,
    so anything below 1e-40 is exactly zero at these sizes)."""
    with mp.workprec(300):
        beta = (1 + mp.sqrt(5)) / 2
        count = 0
        for word in itertools.product((-1, 0, 1), repeat=n):
            acc = mp.mpf(0)
            for digit in word:
                acc = acc * beta + digit
            if abs(acc) < mp.mpf(10) ** -40:
                count += 1
    return count


# ---------------------------------------------------------------- parsing

def test_parse_fibonacci(automata):
    fib = automata["fibonacci"]
    assert fib.states == ("p", "q")
    assert len(fib.edges) == 3
    assert fib.initial == ("p",)


def test_parse_single_state_full_shift():
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["s"],
         "edges": [{"from": "s", "to": "s", "label": 0},
                   {"from": "s", "to": "s", "label": 1}]}
    )
    assert a.n_states == 1 and len(a.edges) == 2


def test_label_outside_alphabet():
    with pytest.raises(LabelOutsideAlphabet):
        parse_automaton(
            {"alphabet": [0, 1], "states": ["s"],
             "edges": [{"from": "s", "to": "s", "label": 5}]}
        )


def test_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        parse_automaton(
            {"alphabet": [0], "states": ["s"],
             "edges": [{"from": "s", "to": "s", "label": 0},
                       {"from": "s", "to": "s", "label": 0}]}
        )


def test_unknown_state():
    with pytest.raises(UnknownState):
        parse_automaton(
            {"alphabet": [0], "states": ["s"],
             "edges": [{"from": "s", "to": "t", "label": 0}]}
        )


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_automaton("{not json")
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0], "states": ["s"], "edges": [], "extra": 1})
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0], "states": []})
    with pytest.raises(SchemaError, match="float range"):
        # such a letter used to end cdf, cloud and fourier in an OverflowError
        parse_automaton({"alphabet": [0, -10**400], "states": ["s"], "edges": []})
    # unhashable state names used to raise TypeError
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0], "states": ["s"],
                         "edges": [{"from": [], "to": "s", "label": 0}]})
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0], "states": ["s"], "edges": [], "initial": [{}]})
    # JSON true/false parse to bool, a subclass of int, and used to pass as 1/0
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [True, 0], "states": ["s"], "edges": []})
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0, 1], "states": ["s"],
                         "edges": [{"from": "s", "to": "s", "label": True}]})
    with pytest.raises(SchemaError):
        parse_automaton({"alphabet": [0, 1], "states": ["s"],
                         "edges": [{"from": "s", "to": "s", "label": False}]})
    with pytest.raises(SchemaError):
        parse_automaton({"beta": {"minpoly": [-2, True]}, "alphabet": [0],
                         "states": ["s"], "edges": []})


@st.composite
def edge_documents(draw):
    """A valid document with a random edge list over random state names."""
    states = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True))
    alphabet = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    triples = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(states), st.sampled_from(alphabet)),
        unique=True, max_size=12,
    ))
    doc = {
        "alphabet": alphabet,
        "states": states,
        "edges": [{"from": s, "to": t, "label": l} for s, t, l in triples],
    }
    if draw(st.booleans()):
        doc["initial"] = draw(st.lists(st.sampled_from(states), unique=True))
    if draw(st.booleans()):
        doc["beta"] = {"minpoly": [-1, -1, 1]}
    return doc


EDGE_FAULTS = ("keys", "state", "source", "target", "ends", "bool", "label", "duplicate")


def _undeclared(states) -> str:
    name = "undeclared"
    while name in states:
        name += "'"
    return name


@st.composite
def faulty_edge_documents(draw):
    """A valid document with one fault injected into one edge."""
    doc = draw(edge_documents())
    edges = doc["edges"]
    if not edges:
        edges.append({"from": doc["states"][0], "to": doc["states"][0], "label": doc["alphabet"][0]})
    i = draw(st.integers(0, len(edges) - 1))
    edge = edges[i]
    fault = draw(st.sampled_from(EDGE_FAULTS))
    if fault == "keys":
        edges[i] = draw(st.sampled_from([
            {"from": edge["from"], "to": edge["to"]},
            {**edge, "weight": 1},
            {"from": edge["from"], "to": edge["to"], "letter": edge["label"]},
            [edge["from"], edge["to"], edge["label"]],
            ["from", "to", "label"],
        ]))
    elif fault == "state":
        edge[draw(st.sampled_from(["from", "to"]))] = draw(st.sampled_from([7, None, ["s"], 1.5]))
    elif fault in ("source", "target", "ends"):
        if fault != "target":
            edge["from"] = _undeclared(doc["states"])
        if fault != "source":
            edge["to"] = _undeclared(doc["states"]) + "'"
    elif fault == "bool":
        edge["label"] = draw(st.booleans())
    elif fault == "label":
        edge["label"] = draw(st.sampled_from([2.5, 0.0, float(edge["label"]), max(doc["alphabet"]) + 1, "1", None]))
    else:
        edges.insert(draw(st.integers(i + 1, len(edges))), dict(edge))
    return doc


def _outcome(parse, document):
    try:
        return parse(document)
    except MeasureLabError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(doc=edge_documents(), as_text=st.booleans())
def test_parse_matches_reference_on_valid_documents(doc, as_text):
    document = json.dumps(doc) if as_text else doc
    a = parse_automaton(document)
    assert isinstance(a, LabeledAutomaton)
    assert a == reference_parse_automaton(document)


@settings(max_examples=300, deadline=None)
@given(doc=faulty_edge_documents(), as_text=st.booleans())
def test_parse_fails_as_reference_on_one_faulty_edge(doc, as_text):
    document = json.dumps(doc) if as_text else doc
    expected = _outcome(reference_parse_automaton, document)
    assert isinstance(expected, tuple)
    assert _outcome(parse_automaton, document) == expected


def test_edge_checks_run_check_by_check():
    # Each check runs over every edge before the next check starts, so of
    # two faulty edges the one whose fault is checked first is named, even
    # when it comes later: key sets, then state types, then declared
    # states, then labels, then duplicates.  Edge by edge, the reference
    # names the first faulty edge.
    doc = {"alphabet": [0], "states": ["s"], "edges": [
        {"from": "s", "to": "t", "label": 0},
        {"from": "s", "to": "s"},
    ]}
    with pytest.raises(SchemaError, match=re.escape("exactly keys from/to/label: {'from': 's', 'to': 's'}")):
        parse_automaton(doc)
    with pytest.raises(UnknownState, match="edge target 't' not declared"):
        reference_parse_automaton(doc)


def test_subclasses_of_json_types_parse_as_before():
    class Name(str):
        pass

    class Letter(int):
        pass

    doc = {"alphabet": [0, 1], "states": ["s", "t"], "edges": [
        OrderedDict([("from", Name("s")), ("to", "t"), ("label", Letter(1))]),
        {"from": "t", "to": Name("s"), "label": 0},
    ]}
    assert parse_automaton(doc) == reference_parse_automaton(doc)


def test_round_trip_all_fixtures(automata):
    for name, a in automata.items():
        doc = serialize_automaton(a)
        again = parse_automaton(doc)
        assert again == a, name
        assert automaton_to_json(again) == automaton_to_json(a)


def test_round_trip_preserves_document(automata):
    for name in ("fibonacci", "fig3"):
        doc = fixture_document(name)
        assert serialize_automaton(parse_automaton(doc)) == doc


# ---------------------------------------------------------------- matrices

def test_transition_matrices_fibonacci(automata):
    per_label = label_blocks(automata["fibonacci"])
    assert sum(per_label.values()).tolist() == [[1, 1], [1, 0]]
    assert per_label[1].tolist() == [[0, 1], [0, 0]]
    assert per_label[0].tolist() == [[1, 0], [1, 0]]


def test_transition_matrices_full_shift(automata):
    per_label = label_blocks(automata["fullshift4"])
    assert sum(per_label.values()).tolist() == [[4]]
    assert sum(m.sum() for m in per_label.values()) == 4


def test_total_is_sum_of_labels(automata):
    for a in automata.values():
        n, k = a.n_states, len(a.alphabet)
        total = sum(label_blocks(a).values())
        assert np.array_equal(np.asarray(total), transition_matrices(a).reshape(n, k, n).sum(axis=1))


def test_edge_arrays_is_one_read_only_labelled_index(automata):
    for a in automata.values():
        index = a.edge_arrays()
        assert len(index) == 3
        assert all(again is first for again, first in zip(a.edge_arrays(), index))
        for column in index:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        idx = a.state_index()
        src, dst, label = (column.tolist() for column in index)
        assert src == [idx[s] for s, _, _ in a.edges]
        assert dst == [idx[t] for _, t, _ in a.edges]
        assert label == [a.alphabet.index(x) for _, _, x in a.edges]


@settings(max_examples=60, deadline=None)
@given(a=small_graphs())
def test_transition_matrices_match_per_edge_reference(a):
    n, idx = a.n_states, a.state_index()
    reference = {x: np.zeros((n, n), np.int64) for x in a.alphabet}
    for s, t, x in a.edges:
        reference[x][idx[s], idx[t]] += 1
    per_label = label_blocks(a)
    assert list(per_label) == list(a.alphabet)
    for x, m in reference.items():
        assert np.array_equal(per_label[x], m)
    assert np.array_equal(transition_matrices(a), np.hstack(list(reference.values())))
    assert np.array_equal(sum(per_label.values()), sum(reference.values()))


def test_label_stack_is_built_as_float64(automata):
    # The refinement multiplies in float64, and the transform's cache
    # converts to complex: no int64 copy of the stack is ever made.
    for a in automata.values():
        assert transition_matrices(a).dtype == np.float64


def test_label_stack_cap_is_checked_before_allocating(automata, monkeypatch):
    # fig3: 2 states over 3 letters, a stack of 2 * 3 * 2 = 12 cells
    fig3 = automata["fig3"]
    monkeypatch.setattr(automaton, "DENSE_CAP", 12)
    assert transition_matrices(fig3).shape == (2, 6)
    monkeypatch.setattr(automaton, "DENSE_CAP", 11)
    with pytest.raises(CapExceeded, match="12 cells exceeds 11"):
        transition_matrices(fig3)


# ---------------------------------------------------------------- walks and primitivity

@settings(max_examples=200, deadline=None)
@given(a=small_graphs(), data=st.data())
def test_reachable_matches_deque_reference(a, data):
    # BFS order, levels and tree edges, forward and on the reversed arrays
    start = data.draw(st.integers(0, a.n_states - 1))
    src, dst, _ = a.edge_arrays()
    for ends in ((src, dst), (dst, src)):
        walk = reachable(*ends, a.n_states, start)
        assert walk == reference_walk(*(e.tolist() for e in ends), a.n_states, start)
        order, level, tree = walk
        assert sorted(order) == [s for s in range(a.n_states) if level[s] >= 0]
        assert all(ends[1][tree[s]] == s and level[ends[0][tree[s]]] == level[s] - 1 for s in order[1:])


def test_primitivity_fibonacci(automata):
    assert primitivity_check(automata["fibonacci"]) == {
        "strongly_connected": True, "period": 1, "primitive": True,
    }


def test_bipartite_two_cycle():
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "q", "label": 0},
                   {"from": "q", "to": "p", "label": 1}]}
    )
    check = primitivity_check(a)
    assert check["strongly_connected"] and check["period"] == 2
    assert not check["primitive"]


def test_disconnected():
    a = parse_automaton(
        {"alphabet": [0], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "p", "label": 0},
                   {"from": "q", "to": "q", "label": 0}]}
    )
    check = primitivity_check(a)
    assert not check["strongly_connected"] and not check["primitive"]


def test_period_divides_sampled_cycles(automata):
    # period-2 bipartite graph: every cycle length is even
    a = parse_automaton(
        {"alphabet": [0, 1], "states": ["p", "q"],
         "edges": [{"from": "p", "to": "q", "label": 0},
                   {"from": "q", "to": "p", "label": 1},
                   {"from": "p", "to": "q", "label": 1}]}
    )
    period = primitivity_check(a)["period"]
    for n in (2, 4, 6):
        assert count_words(a, n) > 0
        assert n % period == 0


_LONE_STATE = parse_automaton({"alphabet": [0], "states": ["s"], "edges": []})


@settings(max_examples=200, deadline=None)
@given(a=small_graphs())
@example(a=_LONE_STATE)
def test_primitivity_matches_dense_oracle(a):
    check = primitivity_check(a)
    assert check == dense_primitivity(a)
    assert check["primitive"] == wielandt_positive(a)
    # the answer is kept per automaton, but each call gets its own dict
    check["primitive"] = None
    assert primitivity_check(a) == dense_primitivity(a)


# ---------------------------------------------------------------- counting

def test_fibonacci_counts_match_no_11_oracle(automata):
    fib = automata["fibonacci"]
    for n in (1, 2, 3, 6):
        expected = len(words_without_adjacent_ones(n))
        assert count_words(fib, n, use_initial_terminal=True) == expected
    assert [count_words(fib, n, use_initial_terminal=True) for n in (1, 2, 3)] == [2, 3, 5]


def test_full_shift_counts(automata):
    assert count_words(automata["fullshift4"], 5) == 4**5


def test_zero_automaton_counts_match_bruteforce(automata):
    za = automata["example1-9edge"]
    for n in range(1, 6):
        assert count_words(za, n, use_initial_terminal=True) == golden_zero_words(n)
    assert [count_words(za, n, use_initial_terminal=True) for n in range(1, 6)] == [1, 1, 3, 5, 9]


def test_count_matches_enumeration_random():
    rng = random.Random(3)
    built = 0
    while built < 12:
        n_states = rng.randint(1, 4)
        states = [f"s{i}" for i in range(n_states)]
        alphabet = sorted(rng.sample([-2, -1, 0, 1, 2], rng.randint(1, 3)))
        edges = []
        for src in states:
            for dst in states:
                for lab in alphabet:
                    if rng.random() < 0.35:
                        edges.append({"from": src, "to": dst, "label": lab})
        if not edges:
            continue
        initial = [s for s in states if rng.random() < 0.5]
        terminal = [s for s in states if rng.random() < 0.5]
        a = parse_automaton({"alphabet": alphabet, "states": states, "edges": edges,
                             "initial": initial, "terminal": terminal})
        built += 1
        for n in (0, 1, 2, 4, 6):
            words = enumerate_paths(a, n, a.states, a.states)
            assert count_words(a, n) == len(words)
            words = enumerate_paths(a, n, a.initial, a.terminal)
            assert count_words(a, n, use_initial_terminal=True) == len(words)


def test_enumerate_fibonacci(automata):
    fib = automata["fibonacci"]
    assert enumerate_paths(fib, 2, ["p"], ["p", "q"]) == [(0, 0), (0, 1), (1, 0)]
    assert enumerate_paths(fib, 2, [], ["p"]) == []


def test_enumerate_full_shift(automata):
    words = enumerate_paths(automata["fullshift4"], 3, ["s"], ["s"])
    assert len(words) == 64


def test_enumerate_cap(automata):
    with pytest.raises(CapExceeded):
        enumerate_paths(automata["fibonacci"], 15, ["p"], ["p"])


def test_ambiguity_diagnostic(automata):
    # "0" has runs from both states of the fibonacci automaton, and
    # single-state automata (fullshift4) have exactly one run per word
    pinned = {"fibonacci": 87, "example1-9edge": 15, "example1-7edge": 8,
              "fullshift4": 0, "fig3": 2583}
    assert {name: ambiguous_word_count(automata[name]) for name in pinned} == pinned
    # x^3 - x - 1 over {-1,0,1}: 179 states, and every one of the
    # 3 + 9 + ... + 3^8 = 9,840 words has several runs
    assert ambiguous_word_count(zero_automaton((-1, -1, 0, 1), (-1, 0, 1))) == 9840


@settings(max_examples=40, deadline=None)
@given(case=strongly_connected_automata())
def test_ambiguity_count_matches_run_enumeration(case):
    a, _ = case
    ambiguous = 0
    for n in range(1, 9):
        runs = Counter(enumerate_paths(a, n, a.states, a.states))
        ambiguous += sum(1 for count in runs.values() if count > 1)
        assert ambiguous_word_count(a, n) == ambiguous
