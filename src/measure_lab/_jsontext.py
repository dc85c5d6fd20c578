"""Indented JSON text from the C encoder.

``dumps(value, sort_keys)`` returns exactly the text of ``json.dumps(value,
indent=2, sort_keys=sort_keys)``.  Any indent sends ``json`` to its
pure-Python encoder; here the C encoder runs without one, with ",\\n" as
its item separator.  An encoded JSON string never holds a raw newline, so
every ",\\n" in that text is an item boundary and plain ``str`` methods
can indent or split it.  The items of a list (or tuple) are written
together:

- scalars take one encoder call;
- flat lists of scalars take one encoder call, split between the lists;
- dicts that share their keys are written column by column, each column
  as such a list of items, and one format template lays out every row;
- anything else is written item by item.

A ``Table`` holds such rows as columns and is written as their list, with
no dict per row.  Its columns of scalars are encoded once and their texts
kept, so another writer of the same table (a CSV) reads the same text
for each cell.

A dict recurses into its values.  Any other value (a dict with non-``str``
keys, a subclass of a JSON type) is ``json.dumps`` at depth 0 with each
"\\n" followed by its indent, which is the same text.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

_SCALARS = frozenset({str, int, float, bool, type(None)})
_SEQUENCES = frozenset({list, tuple})  # json writes a tuple as a list
# indent=None keeps the C encoder; ",\n" marks every item boundary.
_encode = json.JSONEncoder(separators=(",\n", ": "), check_circular=False).encode


def dumps(value, sort_keys: bool = False) -> str:
    return _text(value, sort_keys, "\n")


def _text(value, sort_keys: bool, nl: str) -> str:
    """The text of ``value`` whose own line starts after ``nl``."""
    kind = type(value)
    if kind in _SCALARS:
        return _encode(value)
    if kind in _SEQUENCES:
        if not value:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_items(value, sort_keys, inner)) + nl + "]"
    if kind is Table:
        if not len(value):
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_row_texts(value, sort_keys, inner)) + nl + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        inner = nl + "  "
        keys = sorted(value) if sort_keys else value
        return "{" + inner + ("," + inner).join(
            [_encode(k) + ": " + _text(value[k], sort_keys, inner) for k in keys]
        ) + nl + "}"
    return json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", nl)


def _items(values, sort_keys: bool, nl: str) -> list[str]:
    """The texts of the nonempty sequence ``values``, each starting after
    ``nl``."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return _encode(values)[1:-1].split(",\n")
    if kinds <= _SEQUENCES and set(map(type, chain.from_iterable(values))) <= _SCALARS:
        # No scalar ends in "]" or starts with "[", so only the boundaries
        # between the inner lists read "],<indent>[".
        item = nl + "  "
        bodies = _encode(values)[2:-2].replace(",\n", "," + item).split("]," + item + "[")
        return ["[" + item + b + nl + "]" if b else "[]" for b in bodies]
    if kinds == {dict}:
        rows = _rows(values, sort_keys, nl)
        if rows is not None:
            return rows
    return [_text(v, sort_keys, nl) for v in values]


def _rows(rows, sort_keys: bool, nl: str) -> list[str] | None:
    """The texts of dicts that have the same ``str`` keys in the same order,
    as a ``Table``; None for any other dicts."""
    shapes = set(map(tuple, rows))
    if len(shapes) != 1:
        return None
    keys = shapes.pop()
    if not keys or set(map(type, keys)) != {str}:
        return None
    return _row_texts(Table({k: list(map(itemgetter(k), rows)) for k in keys}), sort_keys, nl)


class Table:
    """Rows held as columns: ``dumps`` writes a table exactly as the list
    of dicts {key: columns[key][i] for key in columns}, one for each i.

    ``columns`` maps ``str`` keys to lists of equal length (at least one
    key).  ``texts(key)`` is the JSON text of each cell of a column of
    scalars; it is encoded on the first call, by one encoder call, and
    every later reader, ``dumps`` included, shares it."""

    __slots__ = ("columns", "_texts")

    def __init__(self, columns: dict[str, list]):
        self.columns = columns
        self._texts: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def texts(self, key: str) -> list[str]:
        if key not in self._texts:
            column = self.columns[key]
            self._texts[key] = _encode(column)[1:-1].split(",\n") if column else []
        return self._texts[key]


def _row_texts(table: Table, sort_keys: bool, nl: str) -> list[str]:
    """The texts of a nonempty table's rows, each starting after ``nl``:
    one list of texts per column, and one format template lays out every
    row."""
    keys = sorted(table.columns) if sort_keys else list(table.columns)
    field = nl + "  "
    columns = [
        table.texts(k) if set(map(type, table.columns[k])) <= _SCALARS
        else _items(table.columns[k], sort_keys, field)
        for k in keys
    ]
    template = "{{" + ",".join(
        field + _encode(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys
    ) + nl + "}}"
    return list(map(template.format, *columns))
