import csv
import functools
import io
import json
import math
import operator
import os
import struct
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from measure_lab import automaton, cli, fourier
from measure_lab.algebraic import make_pisot
from measure_lab.automaton import parse_automaton
from measure_lab.cli import _float_pieces, _load, _text_piece, _word_pieces, _write_csv, build_parser, main
from measure_lab.distribution import depth_cloud
from measure_lab.errors import CapExceeded
from measure_lab.fixtures import FIXTURE_NAMES, materialize
from measure_lab.parry import perron
from measure_lab.zero_automaton import beta_int_from_name

from helpers import reference_cloud_csv, reference_cloud_report, reference_table_csv


@pytest.fixture()
def fixture_dir(tmp_path):
    materialize(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate(capsys, fixture_dir):
    code, out = run(capsys, "validate", str(fixture_dir / "fibonacci.json"))
    assert code == 0
    report = json.loads(out)
    assert report["primitivity"]["primitive"]
    assert abs(report["lambda"] - 1.618033988749895) < 1e-9
    assert len(report["pi"]) == 2


def test_validate_rejects_bad_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [0], "states": ["s"], "edges": []')
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


def test_zero_automaton_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "za.json"
    code, out = run(
        capsys, "zero-automaton", "--minpoly", "-1,-1,1",
        "--alphabet", "-1,0,1", "--trim", "both", "--verify", "5",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["states"]) == 5 and report["edges"] == 9
    assert report["verification"]["zero_word_counts"] == [1, 1, 3, 5, 9]
    doc = json.loads(out_file.read_text())
    a = parse_automaton(doc)
    assert a.n_states == 5


def test_zero_automaton_not_pisot(capsys):
    code, out = run(capsys, "zero-automaton", "--minpoly", "-3,-1,1", "--alphabet", "0,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotPisot"


def test_zero_automaton_error_report_goes_to_stdout(capsys, tmp_path):
    # --out names the automaton document; a failed build writes none and
    # prints its error report like every other report of this subcommand.
    out_file = tmp_path / "za.json"
    code, out = run(capsys, "zero-automaton", "--minpoly", "-2,0,1", "--alphabet", "-1,0,1",
                    "--out", str(out_file))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotPisot"
    assert not out_file.exists()


def test_classify_fixture(capsys, fixture_dir):
    code, out = run(capsys, "classify", str(fixture_dir / "fibonacci.json"), "--height", "2")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "continuous"
    assert report["evidence"]["type"] == "inconclusive"


def test_atoms_fixture(capsys, fixture_dir):
    code, out = run(capsys, "atoms", str(fixture_dir / "example1-7edge.json"))
    assert code == 0
    report = json.loads(out)
    assert len(report["atoms"]) == 5
    assert abs(report["mass_total"] - 1) < 1e-10


def test_atoms_on_continuous_measure(capsys, fixture_dir):
    code, out = run(capsys, "atoms", str(fixture_dir / "fibonacci.json"))
    assert code == 2
    assert "continuous" in json.loads(out)["error"]["message"]


def test_cylinder(capsys, fixture_dir):
    code, out = run(capsys, "cylinder", str(fixture_dir / "fibonacci.json"), "--word", "1,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["measure"] > 0
    assert "measure_initial" in report


def test_fourier_with_csv(capsys, fixture_dir, tmp_path):
    csv_path = tmp_path / "fourier.csv"
    code, out = run(
        capsys, "fourier", str(fixture_dir / "fullshift4.json"),
        "--t", "0.25,1.0", "--tol", "1e-8", "--csv", str(csv_path),
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["values"][0]["abs"] - 0.573159) < 1e-4
    header = csv_path.read_text().splitlines()[0]
    assert header == "t_or_z,re,im,abs,bound"


def test_limit(capsys, fixture_dir):
    code, out = run(capsys, "limit", str(fixture_dir / "fig3.json"), "--z", "1,0")
    assert code == 0
    report = json.loads(out)
    assert report["abs"] > 1e-3
    assert report["bound"] < 1e-6
    # single coordinate is padded to the base degree
    code, out_short = run(capsys, "limit", str(fixture_dir / "fig3.json"), "--z", "1")
    assert code == 0
    assert json.loads(out_short)["re"] == report["re"]
    code, _ = run(capsys, "limit", str(fixture_dir / "fig3.json"), "--z", "1,0,0")
    assert code == 2


def test_scan(capsys, fixture_dir):
    code, out = run(capsys, "scan", str(fixture_dir / "fibonacci.json"), "--height", "1")
    assert code == 0
    report = json.loads(out)
    assert report["max_abs"] < 1e-6
    assert len(report["table"]) == 4


def test_cdf(capsys, fixture_dir):
    code, out = run(
        capsys, "cdf", str(fixture_dir / "fullshift4.json"),
        "--depth", "10", "--points", "0.5,1.5,2.5",
    )
    assert code == 0
    report = json.loads(out)
    brackets = report["brackets"]
    assert brackets[0]["lower"] <= 0.0625 <= brackets[0]["upper"]


@pytest.mark.parametrize("argv", [
    ("cdf", "--depth", "-1", "--points", "0.5"),
    ("cloud", "--depth", "-1"),
], ids=["cdf", "cloud"])
def test_negative_depth_exit_code(capsys, fixture_dir, argv):
    command, *flags = argv
    code, out = run(capsys, command, str(fixture_dir / "fibonacci.json"), *flags)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("command, flag, value", [
    ("cdf", "--points", "0.5,abc"),
    ("cdf", "--points", "nan"),
    ("limit", "--z", "1,x"),
    ("fourier", "--t", "nan"),
    ("fourier", "--t", "0.5,1e999"),
])
def test_malformed_list_flag_exit_code(capsys, fixture_dir, command, flag, value):
    code, out = run(capsys, command, str(fixture_dir / "fibonacci.json"), flag, value)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    ("limit", "--z", "1", "--tol", "-1"),
    ("fourier", "--t", "1", "--tol", "0"),
    ("limit", "--z", "1", "--tol", "nan"),
    ("scan", "--height", "1", "--tol", "inf"),
    ("classify", "--height", "1", "--tol=-inf"),
], ids=["negative", "zero", "nan", "inf", "minus-inf"])
def test_bad_tol_exit_code(capsys, fixture_dir, argv):
    command, *flags = argv
    code, out = run(capsys, command, str(fixture_dir / "fibonacci.json"), *flags)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ("validate", "fibonacci.json", "--tol", "1e-8"),
    ("validate", "fibonacci.json", "--precision", "64"),
    ("zero-automaton", "--minpoly", "-1,-1,1", "--alphabet", "-1,0,1", "--tol", "1e-8"),
    ("atoms", "example1-7edge.json", "--tol", "1e-8"),
    ("cdf", "fibonacci.json", "--points", "0.5", "--tol", "1e-8"),
    ("cloud", "fibonacci.json", "--depth", "2", "--tol", "1e-8"),
    ("cylinder", "fibonacci.json", "--word", "1", "--tol", "1e-8"),
    ("cylinder", "fibonacci.json", "--word", "1", "--precision", "64"),
    ("examples", "--dir", "fx", "--tol", "1e-8"),
    ("examples", "--dir", "fx", "--precision", "64"),
    ("zero-automaton", "--minpoly", "-1,-1,1", "--alphabet", "-1,0,1", "--precision", "64"),
    ("classify", "fibonacci.json", "--precision", "64"),
    ("atoms", "example1-7edge.json", "--precision", "64"),
    ("fourier", "fibonacci.json", "--t", "1", "--precision", "64"),
    ("limit", "fibonacci.json", "--z", "1", "--precision", "64"),
    ("scan", "fibonacci.json", "--height", "1", "--precision", "64"),
    ("cdf", "fibonacci.json", "--points", "0.5", "--precision", "64"),
    ("cloud", "fibonacci.json", "--depth", "2", "--precision", "64"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_a_subcommand_does_not_read_exit_code(capsys, fixture_dir, argv):
    # A subcommand declares --tol only if it reads it, and none declares
    # --precision, which is internal; any other flag is unknown, and
    # argparse rejects it before the command runs.
    argv = [str(fixture_dir / a) if a.endswith(".json") or a == "fx" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("zero-automaton", "--minpoly", "-1,-1,1", "--alphabet", ",,,"),
    ("zero-automaton", "--minpoly", "-1,-1,1", "--alphabet", "-1,0,1", "--verify", "-1"),
], ids=["empty-alphabet", "negative-verify"])
def test_bad_input_exit_code(capsys, fixture_dir, argv):
    # --verify -1 used to recurse without end
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("case, error", [
    ("missing input", "FileNotFoundError"),
    ("directory input", "IsADirectoryError"),
    ("unwritable csv", "FileNotFoundError"),
    ("unwritable out", "FileNotFoundError"),
    ("non-UTF-8 input", "SchemaError"),
])
def test_bad_path_exit_code(capsys, fixture_dir, tmp_path, case, error):
    # A path the CLI cannot open or decode ends in a JSON error and exit 2;
    # a report whose --out cannot be opened goes to stdout.
    doc, missing = str(fixture_dir / "fig3.json"), str(fixture_dir / "missing" / "file")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe")
    argv = {
        "missing input": ("validate", str(fixture_dir / "nope.json")),
        "directory input": ("validate", str(fixture_dir)),
        "unwritable csv": ("cloud", doc, "--depth", "3", "--csv", missing),
        "unwritable out": ("validate", doc, "--out", missing),
        "non-UTF-8 input": ("validate", str(tmp_path / "utf16.json")),
    }[case]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_parser_shared_across_calls(capsys, fixture_dir, tmp_path, monkeypatch):
    # One parser serves every main() of a process, an argparse failure
    # included, and gives the bytes a fresh parser gives.
    doc, csv_path = str(fixture_dir / "fig3.json"), tmp_path / "cloud.csv"
    calls = [
        ("cloud", doc, "--depth", "three"),
        ("validate", doc),
        ("cloud", doc, "--depth", "4", "--csv", str(csv_path)),
    ]

    def outputs():
        results = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, csv_path.read_bytes() if "--csv" in argv else None))
        return results

    shared = outputs()
    assert build_parser() is build_parser()
    assert [code for code, *_ in shared] == [2, 0, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert outputs() == shared


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Floats that print alike but differ in bits, or compare equal but print
# differently, drawn from a small pool so that the columns repeat.
_FLOAT_POOL = [
    0.0, -0.0, math.nan, _float_of_bits(0x7FF8_0000_0000_0001), _float_of_bits(0xFFF8_0000_0000_0000),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    0.1, -1.5, 1 / 3, 1e16, 123456.789,
]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.lists(st.integers(-3, 3), max_size=3).map(lambda w: ";".join(map(str, w))),
        *[st.sampled_from(_FLOAT_POOL) | st.floats()] * 4,
    ), max_size=40),
    as_arrays=st.booleans(),
)
@example(rows=[("", *_FLOAT_POOL[:4]), ("0", *_FLOAT_POOL[1:5]), ("1;2", *_FLOAT_POOL[:4])], as_arrays=False)
def test_write_csv_matches_csv_writer(rows, as_arrays):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["key", "a", "b", "c", "d"])
    writer.writerows(rows)
    keys, *columns = zip(*rows) if rows else [()] * 5
    if as_arrays:
        columns = [np.array(c, dtype=np.float64) for c in columns]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        _write_csv(path, "key,a,b,c,d", [_text_piece(keys), *_float_pieces(*columns)])
        with open(path, "rb") as handle:
            assert handle.read() == buffer.getvalue().encode("utf-8")


@st.composite
def _label_words(draw):
    """An alphabet, a (rows x depth) matrix of indices into it, as the cloud
    stores them, and the writer's block and word-table sizes."""
    alphabet = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=70, unique=True))
    depth, rows = draw(st.integers(0, 12)), draw(st.integers(0, 20))
    labels = draw(st.lists(st.lists(st.integers(0, len(alphabet) - 1), min_size=depth, max_size=depth),
                           min_size=rows, max_size=rows))
    labels = np.array(labels, np.min_scalar_type(len(alphabet) - 1)).reshape(rows, depth)
    return alphabet, labels, draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 9, cli._WORD_TABLE]))


@settings(max_examples=200, deadline=None)
@given(case=_label_words())
@example(case=([-10, 7, 123], np.arange(50, dtype=np.uint8).reshape(10, 5) % 3, 3, cli._WORD_TABLE))
@example(case=([5], np.zeros((7, 12), np.uint8), 3, cli._WORD_TABLE))
@example(case=(list(range(-35, 35)), np.arange(140, dtype=np.uint8).reshape(70, 2) % 70, 3, cli._WORD_TABLE))
@example(case=([0, 1], np.zeros((4, 0), np.uint8), 3, cli._WORD_TABLE))
def test_word_pieces_match_csv_writer(case):
    # Blocks of a few rows put block edges inside and at the end of the
    # table; small word tables make groups of one letter.  The first example
    # writes 10 words of 5 letters in groups of 2, 2 and 1; the third has
    # 70 letters, so even the full table holds one letter per group.
    alphabet, labels, block, table = case
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["word", "x"])
    writer.writerows([";".join(str(alphabet[i]) for i in word), 0.5] for word in labels.tolist())
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_CSV_BLOCK", block), mock.patch.object(cli, "_WORD_TABLE", table):
        path = os.path.join(tmp, "words.csv")
        _write_csv(path, "word,x", _word_pieces(labels, alphabet) + _float_pieces(np.full(len(labels), 0.5)))
        with open(path, "rb") as handle:
            assert handle.read() == buffer.getvalue().encode("utf-8")


def test_atoms_walks_the_graph_once(capsys, tmp_path, monkeypatch):
    # perron and the finite-image test both ask whether the quartic's zero
    # automaton (1,253 states) is primitive, and the finite-image test reads
    # the forward walk's tree; one forward and one backward walk answer all.
    doc = str(tmp_path / "quartic.json")
    assert run(capsys, "zero-automaton", "--minpoly", "-1,0,0,-1,1", "--alphabet", "-1,0,1", "--out", doc)[0] == 0
    walks, reachable = [], automaton.reachable

    def counted(src, dst, n_states, start):
        walks.append(start)
        return reachable(src, dst, n_states, start)

    monkeypatch.setattr(automaton, "reachable", counted)
    code, out = run(capsys, "atoms", doc)
    assert code == 0 and len(json.loads(out)["atoms"]) == 1253
    assert len(walks) == 2


def test_report_sums_add_left_to_right(capsys, tmp_path):
    # Python's sum is compensated from 3.12 on.  Each state's decimal and
    # the atoms' mass_total are the plain left-to-right float sums of their
    # terms on every version.
    doc = str(tmp_path / "quartic.json")
    code, out = run(capsys, "zero-automaton", "--minpoly", "-1,0,0,-1,1", "--alphabet", "-1,0,1", "--out", doc)
    assert code == 0
    p = make_pisot([-1, 0, 0, -1, 1])
    for row in json.loads(out)["states"]:
        terms = [c * p.beta_float**i for i, c in enumerate(beta_int_from_name(row["state"], p))]
        assert row["decimal"] == functools.reduce(operator.add, terms), row
    code, out = run(capsys, "atoms", doc)
    report = json.loads(out)
    assert code == 0 and len(report["atoms"]) == 1253
    assert report["mass_total"] == functools.reduce(operator.add, [at["mass"] for at in report["atoms"]])


TRIBONACCI_SHIFT = {
    "beta": {"minpoly": [-1, -1, -1, 1]},
    "alphabet": [0, 1],
    "states": ["s"],
    "edges": [{"from": "s", "to": "s", "label": label} for label in (0, 1)],
}


@pytest.mark.parametrize("command", ["scan", "classify"])
@pytest.mark.parametrize("name", ["fig3", "tribonacci"])
def test_scan_over_cap_exits_before_allocating(capsys, fixture_dir, command, name):
    # Degree 2 and degree 3: at a height of 10^9 the lattice alone would
    # hold 10^18 or more tuples; the count is checked before any is built.
    path = fixture_dir / f"{name}.json"
    if name == "tribonacci":
        path.write_text(json.dumps(TRIBONACCI_SHIFT))
    start = time.perf_counter()
    code, out = run(capsys, command, str(path), "--height", str(10**9))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(out)["error"]["type"] == "CapExceeded"


@pytest.mark.parametrize("minpoly, height, count", [([-1, -1, 1], 2, 12), ([-1, -1, -1, 1], 1, 13)])
def test_scan_cap_boundary(monkeypatch, minpoly, height, count):
    # ((2H + 1)^r - 1) / 2 values of z: a cap of exactly that many passes and
    # the scan evaluates them all; one fewer raises.
    p = make_pisot(minpoly)
    a = parse_automaton(dict(TRIBONACCI_SHIFT, beta={"minpoly": minpoly}))
    pd = perron(a)
    monkeypatch.setattr(fourier, "SCAN_CAP", count)
    assert len(fourier.rajchman_scan(a, p, pd, height).entries) == count
    monkeypatch.setattr(fourier, "SCAN_CAP", count - 1)
    with pytest.raises(CapExceeded):
        fourier.check_scan_height(height, p.degree)
    with pytest.raises(CapExceeded):
        fourier.rajchman_scan(a, p, pd, height)


def test_fourier_huge_t(capsys, fixture_dir):
    code, out = run(capsys, "fourier", str(fixture_dir / "fibonacci.json"), "--t", "1e300,-1e300")
    assert code == 0
    for row in json.loads(out)["values"]:
        assert math.isfinite(row["bound"]) and row["bound"] <= 1e-8


@pytest.mark.parametrize(
    "command, name",
    [
        pytest.param("scan", "fibonacci", id="scan"),
        pytest.param("classify", "fibonacci", id="classify"),
        # atomic: the height must be checked before the finite-image test
        pytest.param("classify", "example1-7edge", id="classify-example1-7edge"),
    ],
)
def test_bad_height_exit_code(capsys, fixture_dir, command, name):
    code, out = run(capsys, command, str(fixture_dir / f"{name}.json"), "--height", "0")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


SIGNED_TIES = {
    # parse_automaton sorts the alphabet; over base 2 the words (0, 1) and
    # (1, -1) have equal values and masses, so the sort must be stable.
    "beta": {"minpoly": [-2, 1]},
    "alphabet": [1, -1, 0],
    "states": ["s"],
    "edges": [{"from": "s", "to": "s", "label": label} for label in (1, -1, 0)],
}


def test_cloud_csv(capsys, fixture_dir, tmp_path):
    # The reports and the CSV file are the bytes the entry-by-entry writers
    # give: on every fixture, at depth 0, and on an alphabet with ties.
    (fixture_dir / "signed-ties.json").write_text(json.dumps(SIGNED_TIES))
    cases = [(name, 6 if name == "fullshift4" else 8) for name in FIXTURE_NAMES]
    csv_path = tmp_path / "cloud.csv"
    for name, depth in cases + [("fig3", 0), ("signed-ties", 5)]:
        doc = str(fixture_dir / f"{name}.json")
        a = _load(doc)
        cloud = depth_cloud(a, make_pisot(a.beta_minpoly), perron(a), depth)

        code, out = run(capsys, "cloud", doc, "--depth", str(depth), "--csv", str(csv_path))
        assert code == 0
        assert out == reference_cloud_report(cloud, doc, written=str(csv_path)), name
        assert abs(json.loads(out)["total_mass"] - 1) < 1e-10
        assert csv_path.read_bytes() == reference_cloud_csv(cloud), name

        code, out = run(capsys, "cloud", doc, "--depth", str(depth))
        assert code == 0
        assert out == reference_cloud_report(cloud, doc), name


def test_table_csv(capsys, fixture_dir, tmp_path):
    # fourier (of both measures) and scan write the bytes csv.writer gives
    # for their reports' rows.
    csv_path = tmp_path / "table.csv"
    for name in FIXTURE_NAMES:
        doc = str(fixture_dir / f"{name}.json")
        for argv in (
            ("fourier", doc, "--t", "0,0.25,-1.7,1e5"),
            ("fourier", doc, "--t", "0,0.25,-1.7", "--initial"),
            ("scan", doc, "--height", "1"),
        ):
            code, out = run(capsys, *argv, "--csv", str(csv_path))
            assert code == 0, argv
            assert csv_path.read_bytes() == reference_table_csv(json.loads(out)), argv


def test_examples_command(capsys, tmp_path):
    code, out = run(capsys, "examples", "--dir", str(tmp_path / "fx"))
    assert code == 0
    report = json.loads(out)
    assert set(report["fixtures"]) == set(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        assert (tmp_path / "fx" / f"{name}.json").exists()
    assert report["fixtures"]["example1-7edge"]["reference_masses"]["reconciled"] is False
    assert report["fixtures"]["fig3"]["limit_z1"]["reconciled"] is False


def test_reports_byte_stable(capsys, fixture_dir):
    _, first = run(capsys, "classify", str(fixture_dir / "fig3.json"), "--height", "1")
    _, second = run(capsys, "classify", str(fixture_dir / "fig3.json"), "--height", "1")
    assert first == second
    _, first = run(capsys, "scan", str(fixture_dir / "fibonacci.json"), "--height", "1")
    _, second = run(capsys, "scan", str(fixture_dir / "fibonacci.json"), "--height", "1")
    assert first == second


def test_fixture_files_round_trip(fixture_dir):
    for name in FIXTURE_NAMES:
        path = fixture_dir / f"{name}.json"
        doc = json.loads(path.read_text())
        a = parse_automaton(doc)
        from measure_lab.automaton import serialize_automaton

        assert serialize_automaton(a) == doc


def test_precision_exhaustion_exit_code(capsys, monkeypatch, fixture_dir):
    # |z| = 1e300 needs 1,024 bits for its residues z*beta^-k; a cap of 512
    # turns that into exit code 3 instead of a silent loss of precision
    monkeypatch.setenv("MEASURE_LAB_PRECISION_CAP", "512")
    fig3 = str(fixture_dir / "fig3.json")
    code, out = run(capsys, "limit", fig3, "--z", f"{10**300},{-10**300}")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PrecisionExhausted"


@pytest.mark.parametrize("command", [
    ("fourier", "--t", "1e300"),
    ("cloud", "--depth", "2"),
], ids=["fourier", "cloud"])
@pytest.mark.parametrize("cap, code", [
    ("", 0), ("abc", 2), ("0", 2), ("-5", 2),
], ids=["empty", "abc", "zero", "negative"])
def test_precision_cap_must_be_a_positive_integer(capsys, monkeypatch, fixture_dir, command, cap, code):
    # An empty cap is the default 4,096 bits, enough for |t| = 1e300; a cap
    # that is not an integer >= 1 is a validation error naming the variable,
    # not a traceback or a cap below the start precision.
    monkeypatch.setenv("MEASURE_LAB_PRECISION_CAP", cap)
    name, *flags = command
    exit_code, out = run(capsys, name, str(fixture_dir / "fibonacci.json"), *flags)
    assert exit_code == code
    if code:
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert "MEASURE_LAB_PRECISION_CAP" in error["message"]


def test_lehmer_polynomial_not_pisot(capsys):
    # Lehmer's polynomial equals its reversal and has roots on the unit
    # circle, which no precision separates from modulus one; the exact
    # gate rejects it before any root is enclosed
    lehmer = "1,1,0,-1,-1,-1,-1,-1,0,1,1"
    code, out = run(capsys, "zero-automaton", "--minpoly", lehmer, "--alphabet", "0,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotPisot"


def test_limit_huge_z(capsys, fixture_dir):
    fig3 = str(fixture_dir / "fig3.json")
    code, out = run(capsys, "limit", fig3, "--z", f"{10**400},{-10**400}")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"
    code, out = run(capsys, "limit", fig3, "--z", f"{10**300},{-10**300}")
    assert code == 0
    assert math.isfinite(json.loads(out)["bound"])


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, code", [
    (("limit", "--z", f"{10**308},{10**308}"), 2),  # z itself is past the float range
    (("limit", "--z", f"{10**308},{-(10**308)}"), 0),  # c |z| overflows in the bound
    (("fourier", "--t", "1e308"), 0),
], ids=["limit-value-overflows", "limit-near-max", "fourier-near-max"])
def test_values_near_the_float_maximum(capsys, fixture_dir, command, code):
    # Each exits 2 with a ValidationError, or 0 with a finite bound within
    # tol: no traceback, and no Infinity or NaN in a report.
    name, *flags = command
    exit_code, out = run(capsys, name, str(fixture_dir / "fig3.json"), *flags)
    report = _strict_json(out)
    assert exit_code == code
    if code:
        assert report["error"]["type"] == "ValidationError"
    else:
        for row in report.get("values", [report]):
            assert math.isfinite(row["bound"]) and row["bound"] <= fourier.DEFAULT_TOL, row


def test_truncation_term_stays_finite_when_the_power_underflows(capsys, fixture_dir):
    # At tol = 1e-200 the tail of t = 1e308 is long enough that beta^-N
    # underflows to 0 while c |t| overflows: the truncation term comes from
    # logarithms, not from inf * 0, and the report holds no NaN.
    code, out = run(capsys, "fourier", str(fixture_dir / "fig3.json"), "--t", "1e308", "--tol", "1e-200")
    assert code == 0
    assert math.isfinite(_strict_json(out)["values"][0]["bound"])


# ---------------------------------------------------------------- fuzzing

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _odd_documents(draw):
    """Automaton documents near the schema: small strongly connected
    automata, some over non-Pisot or huge bases, with up to three parts
    dropped, replaced by other JSON values or made odd (unknown states,
    labels outside the alphabet, huge labels, unknown keys), and some
    texts that are not JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '{"alphabet": [0]'])
                    | st.text(max_size=20))
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    alphabet = draw(st.lists(st.integers(-3, 3) | st.sampled_from([10**20, -(10**400)]),
                             min_size=1, max_size=3, unique=True))
    state, label = st.sampled_from(states), st.sampled_from(alphabet)
    cycle = [(src, dst, draw(label)) for src, dst in zip(states, states[1:] + states[:1])]
    extra = draw(st.lists(st.tuples(state, state, label), max_size=4))
    edges = [{"from": a, "to": b, "label": c} for a, b, c in dict.fromkeys(cycle + extra)]
    doc = {
        "beta": {"minpoly": draw(st.sampled_from([[-1, -1, 1], [-2, 1], [1, -3, 1], [-1, 0, 1], [0, 1],
                                                  [1], [-1, -1, -1, 1], [-(10**20), 1]]))},
        "alphabet": alphabet,
        "states": states,
        "edges": edges,
        "initial": draw(st.lists(state, max_size=2, unique=True)),
        "terminal": draw(st.lists(state, max_size=2, unique=True)),
    }
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        target = doc
        if key == "edges" and edges and draw(st.booleans()):
            target, key = draw(st.sampled_from(edges)), draw(st.sampled_from(["from", "to", "label"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_json_values | st.sampled_from(["x", 7, True, 2.5]))
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(text=_odd_documents(), command=st.sampled_from([
    ("validate",),
    ("cdf", "--depth", "4", "--points", "0.25,1"),
    ("cloud", "--depth", "3", "--csv", "{csv}"),
]))
def test_odd_documents_exit_cleanly(text, command):
    # Every document ends in a report or a JSON error, never a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        doc, out, csv_path = (os.path.join(tmp, name) for name in ("doc.json", "out.json", "cloud.csv"))
        with open(doc, "w", encoding="utf-8") as handle:
            handle.write(text)
        head, *flags = command
        code = main([head, doc, *(f.format(csv=csv_path) for f in flags), "--out", out])
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
    assert code in (0, 2, 3)
    assert ("error" in report) == (code != 0)
