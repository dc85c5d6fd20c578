"""The indented emitter writes the bytes of ``json.dumps(indent=2)``."""

import json
import math

from hypothesis import example, given, settings, strategies as st

from measure_lab._jsontext import dumps


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
