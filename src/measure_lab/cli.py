"""Command-line interface.

Every subcommand emits a JSON report (stdout or --out; zero-automaton's
--out is its automaton document, and its report goes to stdout) and returns exit
code 0 on success, 2 on validation errors, 3 when adaptive precision hit
its cap.  Reports are byte-stable for identical inputs.

``fourier``, ``scan`` and ``cloud`` also write a CSV (``--csv``) through
one streamed writer, ``_write_csv``.  The ``fourier`` and ``scan`` tables
go from the engine's arrays into a ``_jsontext.Table`` with no dict per
row, and the CSV reads the texts the report's JSON encodes for its t
and float columns, so every float is formatted once (repr, but nan and
inf where JSON writes NaN and Infinity).  The ``cloud`` CSV writes its
four float fields as one piece per run of equal rows.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import sys

import numpy as np

from ._jsontext import Table, dumps
from .algebraic import make_pisot
from .automaton import (
    ambiguous_word_count,
    automaton_to_json,
    parse_automaton,
    primitivity_check,
    serialize_automaton,
)
from .classify import atoms, atoms_to_dicts, classify, finite_image_test, verdict_to_dict
from .distribution import cdf_bracket, depth_cloud
from .errors import MeasureLabError, PrecisionExhausted, SchemaError, ValidationError
from .fixtures import run_all
from .fourier import DEFAULT_TOL, check_z_coords, nu_hat_columns, psi_hat, rajchman_scan
from .parry import cylinder_measure, cylinder_measure_initial, perron, start_distribution
from .zero_automaton import build_zero_automaton, verify_zero_language


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise SchemaError(f"not a comma-separated list of integers: {text!r}") from None


def _float_list(text: str) -> list[float]:
    message = f"not a comma-separated list of finite numbers: {text!r}"
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise SchemaError(message) from None
    if not all(map(math.isfinite, values)):
        raise SchemaError(message)
    return values


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    a = parse_automaton(document)
    if a.beta_minpoly is None:
        raise ValidationError(f"{path}: document lacks beta.minpoly")
    return a


def _emit(report: dict, out: str | None) -> None:
    text = dumps(report, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_TABLE_HEADER = "t_or_z,re,im,abs,bound"
_TABLE_COLUMNS = ("re", "im", "abs", "bound")


# Rows per write.  A block of rows is one string, so the whole table never is.
_CSV_BLOCK = 4096
# Most strings in the table of one piece of a word field.
_WORD_TABLE = 4096


def _write_csv(path: str, header: str, pieces: list) -> None:
    """The bytes ``csv.writer`` writes for the table whose rows ``pieces``
    spell: CRLF, no field needs quoting.

    A row is its pieces side by side, in order, and a piece is one of:

    - a string, the same on every row (a separator);
    - a list of strings, one per row;
    - a pair (table, index): an object array of strings, and an index
      array with one entry per row, so that the row's piece is
      table[index].

    For each block of ``_CSV_BLOCK`` rows the writer repeats the row of
    separators, gathers every other piece for the whole block, puts the
    pieces in place by slice assignment and writes one join: no Python
    code runs per row."""
    width = len(pieces)
    rows = next(len(p) if isinstance(p, list) else len(p[1]) for p in pieces if not isinstance(p, str))
    separators = [p if isinstance(p, str) else "" for p in pieces]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(header + "\r\n")
        for start in range(0, rows, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, rows)
            flat = separators * (stop - start)
            for j, piece in enumerate(pieces):
                if isinstance(piece, list):
                    flat[j::width] = piece[start:stop]
                elif isinstance(piece, tuple):
                    table, index = piece
                    flat[j::width] = table[index[start:stop]].tolist()
            handle.write("".join(flat))


# The JSON text of a float is its repr, but for these three.
_REPR = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _repr_texts(table: Table, key: str) -> list[str]:
    """The repr of every float of a table column, from the column's JSON
    texts, which the report then shares."""
    texts = table.texts(key)
    if np.isfinite(table.columns[key]).all():
        return texts
    return [_REPR.get(text, text) for text in texts]


def _transform_table(key: dict, values: np.ndarray, bounds: np.ndarray) -> Table:
    """The rows of a ``fourier`` or ``scan`` table: the key column, then re,
    im, abs and bound of each complex value.  abs is Python's (hypot):
    numpy's abs of a complex array can round differently (numpy 2.4 on
    x86-64 did on 35% of a million random values)."""
    return Table({**key, "re": values.real.tolist(), "im": values.imag.tolist(),
                  "abs": list(map(abs, values.tolist())), "bound": bounds.tolist()})


def _table_pieces(keys: list[str], table: Table) -> list:
    """The pieces of a ``fourier`` or ``scan`` row: its t or z text, then
    the repr of re, im, abs and bound."""
    pieces = [keys]
    for key in _TABLE_COLUMNS:
        pieces += [",", _repr_texts(table, key)]
    return pieces + ["\r\n"]


def _run_piece(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The float fields of the sorted cloud, "value,mass,lo,hi" and the
    line end, as one piece: one string per run of rows whose four float64
    bit patterns are equal (rows sorted on (value, mass) hold equal rows
    side by side; fullshift4's depth-8 cloud has 766 runs in 65,536 rows),
    and each row's run.

    Each column of the run leaders is written by repr once per distinct
    value.  Values are keyed on their float64 bit patterns, never on float
    equality: -0.0 and 0.0 compare equal but print differently, and a NaN
    equals nothing."""
    bits = np.stack([np.asarray(c, dtype=np.float64).view(np.uint64) for c in columns], axis=1)
    starts = np.ones(len(bits), dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    fields = []
    for column in bits[starts].T:
        distinct, inverse = np.unique(column, return_inverse=True)
        texts = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
        fields.append(texts[inverse].tolist())
    runs = np.array(list(map("{},{},{},{}\r\n".format, *fields)), dtype=object)
    return runs, np.cumsum(starts) - 1


def _word_pieces(labels: np.ndarray, alphabet) -> list[tuple[np.ndarray, np.ndarray]]:
    """A first field of label words: each row of ``labels`` (rows x depth
    indices into ``alphabet``) written as its letters joined by ";".

    The positions go in groups of g, the most for which the |alphabet|^g
    strings of a group fit in ``_WORD_TABLE`` and do not outnumber the
    rows (at least one position).  A group's table holds every string of
    its letters in ``itertools.product`` order, with ";" before it unless
    the group is first; its index is the group's mixed-radix code, code *
    |alphabet| + label per position.  The empty word of depth 0 is the
    one string ""."""
    rows, depth = labels.shape
    if not depth:
        return [(np.array([""], dtype=object), np.zeros(rows, np.intp))]
    letters = [str(x) for x in alphabet]
    n, group = len(letters), 1
    while group < depth and n ** (group + 1) <= min(_WORD_TABLE, rows):
        group += 1
    pieces = []
    for start in range(0, depth, group):
        stop = min(start + group, depth)
        prefix = ";" if start else ""
        table = [prefix + ";".join(w) for w in itertools.product(letters, repeat=stop - start)]
        code = np.zeros(rows, np.intp)
        for column in labels[:, start:stop].T:
            code = code * n + column
        pieces.append((np.array(table, dtype=object), code))
    return pieces


def _cmd_validate(args) -> dict:
    a = _load(args.automaton)
    report = {
        "file": args.automaton,
        "states": list(a.states),
        "alphabet": list(a.alphabet),
        "edges": len(a.edges),
        "initial": list(a.initial),
        "terminal": list(a.terminal),
        "beta_minpoly": list(a.beta_minpoly),
        "primitivity": primitivity_check(a),
        "ambiguous_words_up_to_8": ambiguous_word_count(a),
    }
    if report["primitivity"]["primitive"]:
        pd = perron(a)
        report["lambda"] = pd.lam
        report["residuals"] = {"left": pd.res_L, "right": pd.res_R}
        report["pi"] = [float(x) for x in start_distribution(pd)]
    return report


def _state_decimals(names, beta: float) -> list[float]:
    """sum(c_i * beta**i) for each state name "(c0,...,c(r-1))": every
    coordinate parsed once, as the double nearest it (what c * beta**i
    converts c to), then one column product per power and the columns
    added left to right, the same bits on every Python version (sum is
    compensated from 3.12 on)."""
    text = ",".join(name[1:-1] for name in names).split(",")
    coords = np.array(list(map(float, text))).reshape(len(names), -1)
    return functools.reduce(operator.add, [c * beta**i for i, c in enumerate(coords.T)]).tolist()


def _cmd_zero_automaton(args) -> dict:
    p = make_pisot(_int_list(args.minpoly))
    a = build_zero_automaton(p, _int_list(args.alphabet), trim=args.trim)
    if args.document:
        with open(args.document, "w", encoding="utf-8") as handle:
            handle.write(automaton_to_json(a))
    state_table = [
        {"state": name, "decimal": decimal}
        for name, decimal in zip(a.states, _state_decimals(a.states, p.beta_float))
    ]
    report = {
        "minpoly": list(p.minpoly),
        "alphabet": list(a.alphabet),
        "trim": args.trim,
        "states": state_table,
        "edges": len(a.edges),
        "empty_language": not a.edges,
    }
    if args.verify:
        report["verification"] = verify_zero_language(a, p, args.verify)
    if args.document:
        report["written"] = args.document
    else:
        report["automaton"] = serialize_automaton(a)
    return report


def _cmd_classify(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    verdict = classify(a, p, scan_height=args.height, tol=args.tol)
    report = verdict_to_dict(verdict)
    report["file"] = args.automaton
    return report


def _cmd_atoms(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    fi = finite_image_test(a, p)
    if not fi.ok:
        raise ValidationError(
            f"measure is continuous (witness edge {fi.witness}); no atoms"
        )
    atom_list = atoms(a, p, pd, fi)
    return {
        "file": args.automaton,
        "atoms": atoms_to_dicts(atom_list),
        # Left to right on every Python version, as the zero-automaton decimals.
        "mass_total": functools.reduce(operator.add, [at.mass for at in atom_list]),
    }


def _cmd_cylinder(args) -> dict:
    a = _load(args.automaton)
    pd = perron(a)
    word = _int_list(args.word)
    report = {
        "file": args.automaton,
        "word": word,
        "measure": cylinder_measure(pd, a, word),
        "lambda": pd.lam,
    }
    if a.initial:
        report["measure_initial"] = cylinder_measure_initial(pd, a, word)
    return report


def _cmd_fourier(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    ts = _float_list(args.t)
    values, bounds = nu_hat_columns(a, p, pd, ts, args.tol, initial=args.initial)
    table = _transform_table({"t": ts}, values, bounds)
    if args.csv:
        _write_csv(args.csv, _TABLE_HEADER, _table_pieces(_repr_texts(table, "t"), table))
    return {"file": args.automaton, "tol": args.tol, "values": table}


def _cmd_limit(args) -> dict:
    a = _load(args.automaton)
    z = _int_list(args.z)
    check_z_coords(z)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    if len(z) > p.degree:
        raise ValidationError(f"--z has {len(z)} coordinates, base degree is {p.degree}")
    z = z + [0] * (p.degree - len(z))
    res = psi_hat(a, p, pd, z, args.tol)
    return {
        "file": args.automaton,
        "z": z,
        "re": res.value.real,
        "im": res.value.imag,
        "abs": abs(res.value),
        "bound": res.bound,
        "head_terms": res.head_terms,
        "tail_terms": res.tail_terms,
    }


def _cmd_scan(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    result = rajchman_scan(a, p, pd, height=args.height, tol=args.tol)
    zs = [e.z_coords for e in result.entries]
    table = _transform_table(
        {"z": list(map(list, zs))},
        np.array([e.value for e in result.entries], dtype=complex),
        np.array([e.bound for e in result.entries], dtype=float),
    )
    if args.csv:
        keys = [";".join(map(str, z)) for z in zs]
        _write_csv(args.csv, _TABLE_HEADER, _table_pieces(keys, table))
    return {
        "file": args.automaton,
        "height": args.height,
        "max_abs": result.max_abs,
        "argmax": list(result.argmax),
        "table": table,
    }


def _cmd_cdf(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    points = _float_list(args.points)
    brackets = cdf_bracket(a, p, pd, args.depth, points)
    return {
        "file": args.automaton,
        "depth": args.depth,
        "brackets": [
            {"x": x, "lower": lo, "upper": hi} for x, (lo, hi) in zip(points, brackets)
        ],
    }


def _cmd_cloud(args) -> dict:
    a = _load(args.automaton)
    p = make_pisot(a.beta_minpoly)
    pd = perron(a)
    cloud = depth_cloud(a, p, pd, args.depth)
    # lexsort is stable, so rows of equal (value, mass) keep word order.
    order = np.lexsort((cloud.masses, cloud.values))
    columns = [c[order] for c in (cloud.values, cloud.masses, cloud.lo, cloud.hi)]
    report = {
        "file": args.automaton,
        "depth": args.depth,
        "entries": len(order),
        "total_mass": cloud.total_mass,
        "max_radius": cloud.max_radius,
    }
    if args.csv:
        words = _word_pieces(cloud.labels[order], cloud.alphabet)
        _write_csv(args.csv, "word,value,mass,lo,hi", words + [",", _run_piece(columns)])
        report["written"] = args.csv
    else:
        report["cloud"] = [
            {"word": w, "value": v, "mass": m, "lo": l, "hi": h}
            for w, v, m, l, h in zip(cloud.words(order), *(c.tolist() for c in columns))
        ]
    return report


def _cmd_examples(args) -> dict:
    return run_all(args.dir)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later
    ``main`` in the process.  Parsing leaves it unchanged: each call gets
    a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="measure-lab",
        description="Push-forward measures of Parry measures under Pisot digit maps: "
        "classification, atoms, Fourier transforms, distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=False, automaton=True, report_out=True):
        # Only the subcommands that read --tol declare it.
        if automaton:
            sp.add_argument("automaton", help="automaton JSON file")
        if report_out:
            sp.add_argument("--out", help="write the JSON report here instead of stdout")
        if tol:
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL)

    sp = sub.add_parser("validate", help="parse and validate an automaton document")
    common(sp)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("zero-automaton", help="build the zero-value digit automaton")
    sp.add_argument("--minpoly", required=True, help="e.g. -1,-1,1")
    sp.add_argument("--alphabet", required=True, help="e.g. -1,0,1")
    sp.add_argument("--trim", choices=["both", "accessible", "none"], default="both")
    sp.add_argument("--verify", type=int, default=0, help="verify language up to this length")
    sp.add_argument("--out", dest="document",
                    help="write the automaton document here; the report always goes to stdout")
    common(sp, automaton=False, report_out=False)
    sp.set_defaults(fn=_cmd_zero_automaton)

    sp = sub.add_parser("classify", help="atomic vs continuous verdict")
    sp.add_argument("--height", type=int, default=3)
    common(sp, tol=True)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("atoms", help="exact atom values and masses")
    common(sp)
    sp.set_defaults(fn=_cmd_atoms)

    sp = sub.add_parser("cylinder", help="cylinder masses of a label word")
    sp.add_argument("--word", required=True, help="e.g. 1,0,1")
    common(sp)
    sp.set_defaults(fn=_cmd_cylinder)

    sp = sub.add_parser("fourier", help="transform values at given t")
    sp.add_argument("--t", required=True, help="comma-separated t values")
    sp.add_argument("--initial", action="store_true", help="use the initial-state measure")
    sp.add_argument("--csv", help="write a CSV table here")
    common(sp, tol=True)
    sp.set_defaults(fn=_cmd_fourier)

    sp = sub.add_parser("limit", help="limit coefficient along z*beta^k")
    sp.add_argument("--z", required=True, help="integer coordinates, e.g. 1,0")
    common(sp, tol=True)
    sp.set_defaults(fn=_cmd_limit)

    sp = sub.add_parser("scan", help="scan limit coefficients up to a height")
    sp.add_argument("--height", type=int, default=3)
    sp.add_argument("--csv", help="write a CSV table here")
    common(sp, tol=True)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("cdf", help="certified CDF brackets")
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--points", required=True, help="e.g. 0.5,1.0,1.5")
    common(sp)
    sp.set_defaults(fn=_cmd_cdf)

    sp = sub.add_parser("cloud", help="depth-n weighted point cloud")
    sp.add_argument("--depth", type=int, default=10)
    sp.add_argument("--csv", help="write the cloud as CSV here")
    common(sp)
    sp.set_defaults(fn=_cmd_cloud)

    sp = sub.add_parser("examples", help="materialize bundled fixtures and run their checks")
    sp.add_argument("--dir", default="fixtures", help="directory for fixture files")
    common(sp, automaton=False)
    sp.set_defaults(fn=_cmd_examples)

    return parser


_LIST_FLAGS = {"--minpoly", "--alphabet", "--word", "--z", "--t", "--points"}


def _fuse_list_flags(argv: list[str]) -> list[str]:
    # argparse rejects values like "-1,-1,1" as option strings; fuse them
    # into --flag=value form so the documented syntax works.
    fused = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _LIST_FLAGS and i + 1 < len(argv):
            fused.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            fused.append(token)
    return fused


def _error(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_list_flags(list(argv if argv is not None else sys.argv[1:])))
    code = 0
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
            raise ValidationError(f"--tol must be a finite number > 0, got {args.tol!r}")
        report = args.fn(args)
    except PrecisionExhausted as exc:
        report, code = _error(exc), 3
    except (MeasureLabError, OSError) as exc:
        # OSError: a path the command reads or writes cannot be opened.
        report, code = _error(exc), 2
    try:
        _emit(report, args.out if "out" in args else None)
    except OSError as exc:  # --out itself cannot be opened
        _emit(_error(exc), None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
