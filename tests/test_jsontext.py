"""The indented emitter writes the bytes of ``json.dumps(indent=2)``."""

import json
import math

from hypothesis import example, given, settings, strategies as st

from measure_lab._jsontext import Table, dumps


class Count(int):
    pass


class Ratio(float):
    pass


ODD_TEXT = ["", "é", "\u2028", "\\", '"}],\n[{', "{x}", "}{", "a\nb", "\x00"]

texts = st.one_of(st.text(max_size=6), st.sampled_from(ODD_TEXT))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**30),
    floats,
    texts,
    st.integers().map(Count),
    floats.map(Ratio),
)
flat_lists = st.lists(scalars, max_size=4)


@st.composite
def same_keyed_rows(draw, children):
    """A list of dicts that share their keys in one order: each column holds
    scalars, flat scalar lists or tuples (empty ones included), or any
    value."""
    keys = draw(st.lists(texts, unique=True, max_size=4))
    columns = [scalars, flat_lists, flat_lists.map(tuple), st.just([]), children]
    kinds = {k: draw(st.sampled_from(columns)) for k in keys}
    n = draw(st.integers(1, 5))
    return [{k: draw(kinds[k]) for k in keys} for _ in range(n)]


json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        same_keyed_rows(children),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=json_values, sort_keys=st.booleans())
@example(value=[{"z": [1, -2], "re": -0.0, "{x}": "}],\n[{"}, {"z": [], "re": math.nan, "{x}": ""}],
         sort_keys=False)
@example(value={"\u2028": [5e-324, math.inf, -math.inf, 10**30, True, None]}, sort_keys=True)
@example(value=[[], {}, (), [[]], [{}]], sort_keys=True)
@example(value=-0.0, sort_keys=False)
def test_dumps_matches_json_indent_2(value, sort_keys):
    assert dumps(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


def test_dumps_fails_as_json_does():
    # A value json cannot encode raises json's error, not a wrong text.
    for value in ([1, {2, 3}], {"a": [object()]}, {1: "a", "b": 2}):
        try:
            expected = json.dumps(value, indent=2, sort_keys=True)
        except TypeError as exc:
            expected = str(exc)
        try:
            got = dumps(value, sort_keys=True)
        except TypeError as exc:
            got = str(exc)
        assert got == expected


TABLE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]),
)
TABLE_CELLS = {
    "float": TABLE_FLOATS,
    "int": st.one_of(st.integers(), st.just(10**30)),
    "str": texts,
    "z": st.lists(st.integers(-(2**70), 2**70), max_size=3),
    "mixed": st.one_of(TABLE_FLOATS, st.integers(), texts, st.none(), st.booleans()),
}


@st.composite
def tables(draw):
    """Columns of one kind of cell each, under distinct keys (odd ones
    included), as a Table and as the list of row dicts it stands for."""
    keys = draw(st.lists(st.one_of(st.sampled_from(["t", "z", "re", "im", "abs", "bound"]), texts),
                         unique=True, min_size=1, max_size=5))
    n = draw(st.integers(0, 6))
    columns = {k: draw(st.lists(TABLE_CELLS[draw(st.sampled_from(sorted(TABLE_CELLS)))],
                                min_size=n, max_size=n)) for k in keys}
    rows = [{k: columns[k][i] for k in keys} for i in range(n)]
    return Table(columns), rows


@settings(max_examples=300, deadline=None)
@given(case=tables(), sort_keys=st.booleans(), read_texts=st.booleans())
@example(case=(Table({"t": [-0.0, math.inf, 5e-324], "re": [math.nan, -math.inf, 1.7976931348623157e308],
                      "z": [[1, -2], [], [10**30]]}),
               [{"t": -0.0, "re": math.nan, "z": [1, -2]}, {"t": math.inf, "re": -math.inf, "z": []},
                {"t": 5e-324, "re": 1.7976931348623157e308, "z": [10**30]}]),
         sort_keys=True, read_texts=True)
def test_table_matches_json_indent_2(case, sort_keys, read_texts):
    # A Table is written as its list of row dicts, alone or inside a
    # report, whether or not its texts were read first; each text of a
    # column of scalars is json's text of that cell.
    table, rows = case
    if read_texts:
        for key, column in table.columns.items():
            if all(type(x) in (float, int, str, bool, type(None)) for x in column):
                assert table.texts(key) == [json.dumps(x) for x in column]
    assert dumps(table, sort_keys) == json.dumps(rows, indent=2, sort_keys=sort_keys)
    report = {"values": table, "file": "a.json"}
    assert dumps(report, sort_keys) == json.dumps({"values": rows, "file": "a.json"}, indent=2, sort_keys=sort_keys)
