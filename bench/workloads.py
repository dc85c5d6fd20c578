"""The workloads: their operations, seeded inputs and output checks.

Every operation is one call of ``measure_lab.cli.main`` with ``--out`` (and
``--csv`` where the subcommand offers it).  A check reads the report back
and compares it against ``oracles`` or against a property the method must
have; it raises ``Mismatch`` on disagreement.  Checks run after all
operations of a round, so they may read each other's reports (the atoms of
a fixture check its transform, its cloud checks its CDF brackets).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from prepare import SHIFT_BASES

FIXTURES = ("fibonacci", "example1-9edge", "example1-7edge", "fullshift4", "fig3")

# What is known about each bundled fixture's measure, and so which oracle
# or property checks it: "parry" is the golden Parry density (absolutely
# continuous, so every limit coefficient vanishes), "fullshift4" the
# trapezoid law of 2U + V, "atomic" a finite measure on Z[beta] (every limit
# coefficient is 1), "singular" fig3 with its nonvanishing coefficients.
KIND = {
    "fibonacci": "parry",
    "example1-9edge": "atomic",
    "example1-7edge": "atomic",
    "fullshift4": "fullshift4",
    "fig3": "singular",
}
# Where each fixture's measure lives, for drawing CDF points.
SUPPORT = {
    "fibonacci": (0.0, 1.0),
    "example1-9edge": (-1.2, 1.2),
    "example1-7edge": (-1.2, 1.2),
    "fullshift4": (0.0, 3.0),
    "fig3": (0.0, 3.2),
}
# The fixtures' alphabets, for drawing cylinder words before the
# `examples` operation has written the documents.
ALPHABET = {
    "fibonacci": [0, 1],
    "example1-9edge": [-1, 0, 1],
    "example1-7edge": [-1, 0, 1],
    "fullshift4": [0, 1, 2, 3],
    "fig3": [0, 1, 2],
}
for _name in SHIFT_BASES:
    KIND[_name] = "cosine"

# Float sums of masses may leave [0, 1] or reorder by a few ulps.
MASS_SLACK = 1e-12


class Mismatch(Exception):
    """A report that disagrees with its oracle or with a required property."""


def expect(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    command: str
    argv: list[str]
    key: str
    out: Path
    check: Callable[["Outputs", dict], None]
    csv: Path | None = None

    @property
    def report_on_stdout(self) -> bool:
        # zero-automaton writes the automaton document to --out and the
        # report to stdout
        return self.command == "zero-automaton"


class Outputs:
    """Reports and tables of one round, by operation key."""

    def __init__(self) -> None:
        self.reports: dict[str, dict] = {}
        self.csv: dict[str, Path] = {}
        self._tables: dict[Path, np.ndarray] = {}

    def report(self, key: str) -> dict:
        expect(key in self.reports, f"needs the report of {key}, which failed")
        return self.reports[key]

    def csv_of(self, key: str) -> Path:
        self.report(key)
        return self.csv[key]

    def table(self, path: Path) -> np.ndarray:
        """The numeric columns of a CSV table (all but the first, which
        names the word, z or t), one row per line."""
        if path not in self._tables:
            with open(path, encoding="utf-8") as handle:
                width = len(handle.readline().split(","))
            self._tables[path] = np.loadtxt(path, delimiter=",", skiprows=1,
                                            usecols=range(1, width), ndmin=2)
        return self._tables[path]


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _draw(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _doc(path: Path) -> dict:
    return json.loads(path.read_text())


@functools.lru_cache(maxsize=None)
def _cosine(minpoly: tuple[int, ...], z: tuple[int, ...]) -> float:
    return oracles.cosine_product(minpoly, z)


def canonical_lattice(height: int, degree: int) -> list[tuple[int, ...]]:
    """Nonzero z in [-H, H]^r with first nonzero coordinate positive."""
    return sorted(
        z for z in itertools.product(range(-height, height + 1), repeat=degree)
        if any(z) and next(c for c in z if c) > 0
    )


def _complex(row: dict) -> complex:
    return complex(row["re"], row["im"])


# ----------------------------------------------------------------------
# Checks, one per subcommand; ``kind`` selects the oracle
# ----------------------------------------------------------------------


def check_validate(doc_path: Path):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        expect(report["primitivity"]["primitive"], "bundled fixture reported not primitive")
        expect(report["edges"] == len(doc["edges"]), "edge count differs from the document")
        lam, v_l, v_r = oracles.perron_dense(doc)
        expect(abs(report["lambda"] - lam) <= 1e-9 * lam, f"lambda {report['lambda']} != {lam}")
        pi = np.array(report["pi"])
        expect(abs(pi.sum() - 1) <= 1e-9, "start distribution does not sum to 1")
        expect(np.abs(pi - v_l * v_r).max() <= 1e-9, "start distribution differs from v_L v_R")

    return check


def _check_atom_list(atoms: list[dict], doc: dict) -> None:
    """Masses sum to 1, every state sits in one atom, and where states are
    named by Z[beta] coordinates (zero automata) each atom's value is the
    coordinate vector of its states."""
    expect(atoms, "no atoms reported")
    masses = [a["mass"] for a in atoms]
    expect(abs(sum(masses) - 1) <= 1e-9, f"atom masses sum to {sum(masses)}")
    expect(min(masses) >= 0, "negative atom mass")
    states = [s for a in atoms for s in a["states"]]
    expect(sorted(states) == sorted(doc["states"]), "atoms do not partition the states")
    minpoly = doc["beta"]["minpoly"]
    beta = oracles.beta_float(minpoly)
    for a in atoms:
        coords = [float(Fraction(c)) for c in a["value_coords"]]
        decimal = sum(c * beta**i for i, c in enumerate(coords))
        expect(abs(a["value_decimal"] - decimal) <= 1e-9 * (1 + abs(decimal)),
               f"atom value {a['value_decimal']} != {decimal}")
        if doc["states"][0].startswith("("):
            for s in a["states"]:
                expect([str(c) for c in oracles.state_coords(s)] == a["value_coords"],
                       f"atom {a['value_coords']} is not the coordinate vector of state {s}")


def check_classify(doc_path: Path, kind: str):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        if kind == "atomic":
            expect(report["kind"] == "atomic", f"atomic measure classified {report['kind']}")
            _check_atom_list(report["atoms"], doc)
            return
        expect(report["kind"] == "continuous", f"continuous measure classified {report['kind']}")
        evidence = report["evidence"]
        if kind == "singular":
            expect(evidence["type"] == "singular_by_fourier", f"fig3 evidence {evidence['type']}")
            expect(evidence["psi_hat_abs"] > evidence["threshold"], "evidence below its threshold")
        else:
            # absolutely continuous: no singularity may be claimed
            expect(evidence["type"] == "inconclusive", f"absolutely continuous measure: {evidence['type']}")

    return check


def check_atoms(doc_path: Path):
    def check(out: Outputs, report: dict) -> None:
        _check_atom_list(report["atoms"], _doc(doc_path))
        expect(abs(report["mass_total"] - 1) <= 1e-9, "mass_total is not 1")

    return check


def check_cylinder(doc_path: Path, word: list[int]):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        lam, v_l, v_r = oracles.perron_dense(doc)
        mats = oracles.label_matrices(doc)

        def mass(row):
            for a in word:
                row = row @ mats[a] if a in mats else 0 * row
            return float(row @ v_r) * lam ** -len(word)

        expected = mass(v_l)
        expect(abs(report["measure"] - expected) <= 1e-9 * expected + 1e-15,
               f"cylinder {word}: {report['measure']} != {expected}")
        if doc["initial"]:
            start = np.array([1.0 if s in doc["initial"] else 0.0 for s in doc["states"]])
            expected = mass(start / float(start @ v_r))
            got = report["measure_initial"]
            expect(abs(got - expected) <= 1e-9 * expected + 1e-15,
                   f"initial cylinder {word}: {got} != {expected}")

    return check


def _cloud_quadrature(out: Outputs, cloud_csv: Path, t: np.ndarray):
    """Transform of the depth cloud and the distance by which it may miss
    the true transform: 2 pi |t| times the largest offset of a cylinder's
    range from its truncated value."""
    value, mass, lo, hi = out.table(cloud_csv).T
    quad = np.exp(-2j * np.pi * np.outer(t, value)) @ mass
    offset = max(float((hi - value).max()), float((value - lo).max()))
    return quad, 2 * np.pi * np.abs(t) * offset + 1e-9


def check_fourier(kind: str, fixture: str, ts: list[float], csv_path: Path, initial: bool):
    def check(out: Outputs, report: dict) -> None:
        rows = report["values"]
        expect([r["t"] for r in rows] == ts, "t values differ from the request")
        table = out.table(csv_path)
        expect(len(table) == len(ts), "CSV row count differs")
        t = np.array(ts)
        value = np.array([_complex(r) for r in rows])
        bound = np.array([r["bound"] for r in rows])
        expect(np.array_equal(table[:, 0] + 1j * table[:, 1], value), "CSV values differ from the report")
        expect((np.abs(value) <= 1 + bound).all(), "|transform| exceeds 1")
        # A real measure has nu(-t) = conj(nu(t)); grids hold both signs.
        where = {x: i for i, x in enumerate(ts)}
        for i, x in enumerate(ts):
            j = where.get(-x)
            if j is not None:
                expect(abs(value[j] - value[i].conjugate()) <= bound[i] + bound[j],
                       f"nu(-t) != conj nu(t) at t={x}")
        if initial:
            return
        if kind == "fullshift4":
            truth = oracles.fullshift4_transform(t)
        elif kind == "parry":
            truth = oracles.golden_parry_transform(t)
        elif kind == "atomic":
            atoms = out.report(f"atoms:{fixture}")["atoms"]
            truth = oracles.atomic_transform(t, [a["value_decimal"] for a in atoms],
                                             [a["mass"] for a in atoms])
            bound = bound + MASS_SLACK
        else:
            truth, slack = _cloud_quadrature(out, out.csv_of(f"cloud:{fixture}"), t)
            bound = bound + slack
        err = np.abs(value - truth)
        worst = int(np.argmax(err - bound))
        expect((err <= bound).all(), f"t={ts[worst]}: error {err[worst]:.3g} > bound {bound[worst]:.3g}")

    return check


def _check_psi(doc: dict, kind: str, z: tuple[int, ...], value: complex, bound: float) -> None:
    """A limit coefficient against what is known of the measure."""
    if kind == "cosine":
        truth = _cosine(tuple(doc["beta"]["minpoly"]), z)
        expect(abs(abs(value) - truth) <= bound, f"z={z}: |psi| {abs(value)} != cosine product {truth}")
    elif kind == "fullshift4":
        truth = complex(oracles.fullshift4_transform(np.array([float(z[0])]))[0])
        expect(abs(value - truth) <= bound, f"z={z}: {value} != {truth}")
    elif kind == "parry":
        expect(abs(value) <= bound, f"z={z}: |psi| {abs(value)} of an absolutely continuous measure")
    elif kind == "atomic":
        expect(abs(value - 1) <= bound + MASS_SLACK, f"z={z}: psi {value} of atoms in Z[beta] is not 1")
    else:
        expect(abs(value) <= 1 + bound, f"z={z}: |psi| exceeds 1")


def check_limit(doc_path: Path, kind: str, z: list[int], scan_key: str | None = None):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        degree = len(doc["beta"]["minpoly"]) - 1
        padded = tuple(z + [0] * (degree - len(z)))
        expect(tuple(report["z"]) == padded, "z differs from the request")
        value = _complex(report)
        expect(report["head_terms"] >= 0 and report["tail_terms"] >= 0, "negative term counts")
        _check_psi(doc, kind, padded, value, report["bound"])
        if scan_key is not None:
            # the scan of the same round evaluates z (or -z, conjugated)
            rows = {tuple(r["z"]): r for r in out.report(scan_key)["table"]}
            neg = tuple(-c for c in padded)
            row = rows.get(padded) or rows.get(neg)
            other = _complex(row) if padded in rows else _complex(row).conjugate()
            expect(abs(value - other) <= report["bound"] + row["bound"], f"z={padded}: limit != scan entry")

    return check


def check_scan(doc_path: Path, kind: str, height: int, csv_path: Path):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        degree = len(doc["beta"]["minpoly"]) - 1
        table = report["table"]
        zs = [tuple(r["z"]) for r in table]
        expect(len(zs) == ((2 * height + 1) ** degree - 1) // 2, f"{len(zs)} scan entries")
        expect(zs == canonical_lattice(height, degree), "entries are not the canonical half in order")
        expect(len(out.table(csv_path)) == len(zs), "CSV row count differs")
        absolute = [abs(_complex(r)) for r in table]
        best = max(range(len(table)), key=lambda i: absolute[i])
        expect(report["max_abs"] == absolute[best] and tuple(report["argmax"]) == zs[best],
               "max_abs/argmax disagree with the table")
        for z, r in zip(zs, table):
            _check_psi(doc, kind, z, _complex(r), r["bound"])
        if kind == "singular":
            expect(report["max_abs"] > table[best]["bound"], "fig3 nonvanishing not certified")

    return check


def _cloud_bracket(out: Outputs, cloud_csv: Path, x: float) -> tuple[float, float]:
    _, mass, lo, hi = out.table(cloud_csv).T
    return float(mass[hi <= x].sum()), float(mass[lo <= x].sum())


def _truth_cdf(out: Outputs, kind: str, fixture: str, x: float) -> float | None:
    if kind == "fullshift4":
        return oracles.fullshift4_cdf(x)
    if kind == "parry":
        return oracles.golden_parry_cdf(x)
    if kind == "atomic":
        atoms = out.report(f"atoms:{fixture}")["atoms"]
        return sum(a["mass"] for a in atoms if a["value_decimal"] <= x)
    return None


def check_cdf(kind: str, fixture: str, points: list[float]):
    def check(out: Outputs, report: dict) -> None:
        brackets = report["brackets"]
        expect([b["x"] for b in brackets] == points, "points differ from the request")
        lower = [b["lower"] for b in brackets]
        upper = [b["upper"] for b in brackets]
        for x, lo, hi in zip(points, lower, upper):
            expect(-MASS_SLACK <= lo <= hi + MASS_SLACK and hi <= 1 + MASS_SLACK,
                   f"x={x}: bracket [{lo}, {hi}] is not inside [0, 1]")
            truth = _truth_cdf(out, kind, fixture, x)
            if truth is not None:
                expect(lo - MASS_SLACK <= truth <= hi + MASS_SLACK, f"x={x}: F={truth} outside [{lo}, {hi}]")
            else:
                # the cloud of the same fixture brackets the same CDF
                clo, chi = _cloud_bracket(out, out.csv_of(f"cloud:{fixture}"), x)
                expect(max(lo, clo) <= min(hi, chi) + MASS_SLACK,
                       f"x={x}: bracket [{lo}, {hi}] misses the cloud's [{clo}, {chi}]")
        for seq in (lower, upper):
            expect(all(a <= b + MASS_SLACK for a, b in zip(seq, seq[1:])), "brackets not monotone in x")

    return check


def check_cloud(kind: str, fixture: str, depth: int, csv_path: Path, points: list[float]):
    def check(out: Outputs, report: dict) -> None:
        value, mass, lo, hi = out.table(csv_path).T
        expect(report["entries"] == len(mass), "entry count differs from the CSV")
        expect(abs(report["total_mass"] - 1) <= 1e-9 and abs(mass.sum() - 1) <= 1e-9, "cloud mass is not 1")
        expect((mass > 0).all(), "nonpositive cloud mass")
        expect((lo <= hi).all(), "empty cylinder range")
        if kind != "atomic":
            # digits >= 0 with an all-zero tail from every state: the
            # truncated value is the least value of its cylinder.  Signed
            # digits (the atomic fixtures) carry no such guarantee.
            expect(((lo <= value) & (value <= hi)).all(), "truncated value outside its range")
        expect(abs(report["max_radius"] - float((hi - lo).max())) <= 1e-12, "max_radius differs")
        if kind == "fullshift4":
            expect(len(mass) == 4**depth, f"{len(mass)} words at depth {depth}")
            expect(np.abs(mass * 4**depth - 1).max() <= 1e-9, "fullshift4 masses are not uniform")
        if kind == "atomic":
            # every cylinder carries mass, so holds an atom
            atoms = np.sort([a["value_decimal"] for a in out.report(f"atoms:{fixture}")["atoms"]])
            first = np.searchsorted(atoms, lo - 1e-12)
            inside = (first < len(atoms)) & (atoms[np.minimum(first, len(atoms) - 1)] <= hi + 1e-12)
            expect(inside.all(), "a cylinder range holds no atom")
        for x in points:
            truth = _truth_cdf(out, kind, fixture, x)
            if truth is not None:
                clo, chi = _cloud_bracket(out, csv_path, x)
                expect(clo - 1e-9 <= truth <= chi + 1e-9, f"x={x}: F={truth} outside cloud [{clo}, {chi}]")

    return check


def check_zero_automaton(doc_path: Path, minpoly: list[int], alphabet: list[int], depth: int):
    def check(out: Outputs, report: dict) -> None:
        doc = _doc(doc_path)
        ver = report["verification"]
        expect(ver["sound"] and ver["complete"], "zero automaton reported unsound or incomplete")
        expect(doc["beta"]["minpoly"] == minpoly and doc["alphabet"] == sorted(alphabet),
               "document base or alphabet differs")
        zero = "(" + ",".join(["0"] * (len(minpoly) - 1)) + ")"
        expect(doc["initial"] == [zero] and doc["terminal"] == [zero], "zero state is not initial and terminal")
        expect(len(report["states"]) == len(doc["states"]), "state table differs from the document")
        for e in doc["edges"]:
            x = oracles.mul_beta(oracles.state_coords(e["from"]), minpoly)
            expect((x[0] - e["label"],) + x[1:] == oracles.state_coords(e["to"]),
                   f"edge {e} is not y = beta x - a")
        beta = oracles.beta_float(minpoly)
        for row in report["states"]:
            decimal = sum(c * beta**i for i, c in enumerate(oracles.state_coords(row["state"])))
            expect(abs(row["decimal"] - decimal) <= 1e-9 * (1 + abs(decimal)), f"state {row['state']} decimal")
        zeros, accepted = oracles.zero_language(doc, depth)
        expect(zeros == accepted, "the automaton's language is not the zero words")
        expect(ver["zero_word_counts"] == zeros and ver["accepted_counts"] == accepted,
               "reported word counts differ from the exact enumeration")

    return check


def check_examples():
    def check(out: Outputs, report: dict) -> None:
        fx = report["fixtures"]
        expect(sorted(fx) == sorted(FIXTURES), "fixture set differs")
        expect(sorted(Path(p).name for p in report["written"]) == sorted(f"{n}.json" for n in FIXTURES),
               "written fixture files differ")
        # the reconciled flags the README documents
        for name in ("example1-7edge", "example1-9edge"):
            expect(fx[name]["reference_masses"]["reconciled"] is False, f"{name} masses reconciled")
        expect(fx["fig3"]["limit_z1"]["reconciled"] is False, "fig3 limit reconciled")
        expect(fx["fig3"]["verdict"]["evidence"]["type"] == "singular_by_fourier", "fig3 not singular")
        fs4 = fx["fullshift4"]
        expect(fs4["reference_cdf"]["reconciled"] is True, "fullshift4 CDF not reconciled")
        expect(fs4["transform_checks"]["quarter_agrees"] is True, "fullshift4 quarter check failed")
        quarter = abs(complex(oracles.fullshift4_transform(np.array([0.25]))[0]))
        expect(abs(fs4["transform_checks"]["abs_nu_at_quarter"] - quarter) <= 1e-8, "|nu(1/4)| wrong")
        # fibonacci is the Parry density, not the uniform reference: its
        # brackets hold the Parry CDF, so the uniform claim stays unreconciled
        fib = fx["fibonacci"]["reference_cdf"]
        expect(fib["reconciled"] is False, "fibonacci uniform reference reconciled")
        for row in fib["rows"]:
            lo, hi = row["bracket"]
            expect(lo - MASS_SLACK <= oracles.golden_parry_cdf(row["x"]) <= hi + MASS_SLACK,
                   f"fibonacci bracket at {row['x']} misses the Parry CDF")
        minpoly = [-1, -1, 1]
        lang9 = fx["example1-9edge"]["zero_language"]
        expect(lang9["sound"] and lang9["complete"], "example1-9edge language not exact")
        lang7 = fx["example1-7edge"]["zero_language"]
        expect(lang7["sound"] and not lang7["complete"], "example1-7edge should miss zero words")
        for word in lang7["missed"]:
            expect(not any(oracles.word_value(word, minpoly)), f"missed word {word} is not a zero word")

    return check


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Workload:
    ops: list[Op]
    # (minpoly, z) pairs whose cosine products the checks will need
    cosine_inputs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    # files the operations write, removed before each round so that a
    # failed operation cannot leave an earlier round's output to be checked
    written: list[Path]

    def warm_oracles(self) -> None:
        for minpoly, z in self.cosine_inputs:
            _cosine(minpoly, z)


class _Builder:
    def __init__(self, inputs: Path, outputs: Path) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.ops: list[Op] = []
        self.cosine: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.written: list[Path] = []

    def _paths(self, command: str) -> tuple[Path, Path]:
        stem = self.outputs / f"{len(self.ops):03d}-{command}"
        return stem.with_suffix(".json"), stem.with_suffix(".csv")

    def add(self, command: str, args: list[str], key: str, check, out: Path | None = None,
            csv_path: Path | None = None) -> None:
        out = out or self._paths(command)[0]
        argv = [command] + args + ["--out", str(out)]
        if csv_path is not None:
            argv += ["--csv", str(csv_path)]
        self.ops.append(Op(command, argv, key, out, check, csv_path))
        self.written += [p for p in (out, csv_path) if p is not None]

    def doc(self, name: str) -> Path:
        return self.inputs / f"{name}.json"

    def _cosine_input(self, name: str, z) -> None:
        if KIND[name] == "cosine":
            minpoly = tuple(SHIFT_BASES[name])
            self.cosine.append((minpoly, tuple(z) + (0,) * (len(minpoly) - 1 - len(z))))

    def scan(self, name: str, height: int) -> None:
        if KIND[name] == "cosine":
            for z in canonical_lattice(height, len(SHIFT_BASES[name]) - 1):
                self._cosine_input(name, z)
        csv_path = self._paths("scan")[1]
        self.add("scan", [str(self.doc(name)), "--height", str(height)], f"scan:{name}",
                 check_scan(self.doc(name), KIND[name], height, csv_path), csv_path=csv_path)

    def limit(self, name: str, z: list[int], scan_key: str | None = None) -> None:
        self._cosine_input(name, z)
        self.add("limit", [str(self.doc(name)), "--z", ",".join(map(str, z))], f"limit:{len(self.ops)}",
                 check_limit(self.doc(name), KIND[name], z, scan_key))

    def fourier(self, name: str, ts: list[float], initial: bool = False) -> None:
        csv_path = self._paths("fourier")[1]
        extra = ["--initial"] if initial else []
        self.add("fourier", [str(self.doc(name)), "--t", _floats(ts)] + extra, f"fourier:{name}",
                 check_fourier(KIND[name], name, ts, csv_path, initial), csv_path=csv_path)

    def cdf(self, name: str, depth: int, points: list[float]) -> None:
        self.add("cdf", [str(self.doc(name)), "--depth", str(depth), "--points", _floats(points)],
                 f"cdf:{name}", check_cdf(KIND[name], name, points))

    def cloud(self, name: str, depth: int, points: list[float]) -> None:
        csv_path = self._paths("cloud")[1]
        self.add("cloud", [str(self.doc(name)), "--depth", str(depth)], f"cloud:{name}",
                 check_cloud(KIND[name], name, depth, csv_path, points), csv_path=csv_path)

    def zero_automaton(self, name: str, minpoly: list[int], alphabet: list[int], verify: int) -> None:
        # --out receives the automaton document, which later operations read
        doc = self.doc(name)
        self.add("zero-automaton",
                 ["--minpoly", ",".join(map(str, minpoly)), "--alphabet", ",".join(map(str, alphabet)),
                  "--trim", "both", "--verify", str(verify)],
                 f"zero-automaton:{name}", check_zero_automaton(doc, minpoly, alphabet, verify), out=doc)

    def classify(self, name: str, height: int, kind: str) -> None:
        self.add("classify", [str(self.doc(name)), "--height", str(height)], f"classify:{name}",
                 check_classify(self.doc(name), kind))

    def atoms(self, name: str) -> None:
        self.add("atoms", [str(self.doc(name))], f"atoms:{name}", check_atoms(self.doc(name)))

    def build(self) -> Workload:
        return Workload(self.ops, self.cosine, self.written)


def _signed(ts: list[float]) -> list[float]:
    """The grid with every t followed by -t."""
    return [s * t for t in ts for s in (1, -1)]


def _nonzero_z(rng: random.Random, height: int, degree: int) -> list[int]:
    while True:
        z = [rng.randint(-height, height) for _ in range(degree)]
        if any(z):
            return z


def fixtures(b: _Builder, rng: random.Random) -> None:
    """Every subcommand on the five bundled fixtures at the README's sizes."""
    b.add("examples", ["--dir", str(b.inputs)], "examples", check_examples())
    b.written += [b.doc(name) for name in FIXTURES]
    b.zero_automaton("za-golden", [-1, -1, 1], [-1, 0, 1], 8)
    for name in FIXTURES:
        kind = KIND[name]
        doc = b.doc(name)
        lo, hi = SUPPORT[name]
        points = sorted(_draw(rng, lo, hi, 5))
        word = [rng.choice(ALPHABET[name]) for _ in range(rng.randint(2, 5))]
        b.add("validate", [str(doc)], f"validate:{name}", check_validate(doc))
        b.classify(name, 2, kind)
        if kind == "atomic":
            b.atoms(name)
        b.add("cylinder", [str(doc), "--word", ",".join(map(str, word))], f"cylinder:{name}",
              check_cylinder(doc, word))
        b.fourier(name, _signed(_draw(rng, 0.0, 8.0, 3)))
        b.limit(name, [1], scan_key=f"scan:{name}" if kind == "singular" else None)
        b.scan(name, 2)
        b.cdf(name, 12, points)
        b.cloud(name, 8 if name == "fullshift4" else 10, points)


def deep(b: _Builder, rng: random.Random) -> None:
    """Degree <= 2 fixtures at scale: long scans, large transform grids,
    deep CDF refinements and a large cloud."""
    b.scan("fig3", 5)
    b.scan("goldshift", 3)
    for _ in range(12):
        b.limit("goldshift", _nonzero_z(rng, 12, 2))
    b.fourier("fullshift4", _draw(rng, -64.0, 64.0, 1500))
    b.fourier("fig3", _signed(_draw(rng, 0.0, 64.0, 300)), initial=True)
    fig3_points = sorted(_draw(rng, 0.0, 3.2, 6))
    b.cdf("fig3", 16, fig3_points)
    b.cdf("fibonacci", 21, sorted(_draw(rng, 0.0, 1.0, 6)))
    b.cdf("fullshift4", 12, sorted(_draw(rng, 0.0, 3.0, 6)))
    b.cloud("fig3", 10, fig3_points)


def high_degree(b: _Builder, rng: random.Random) -> None:
    """Cubic and quartic Pisot bases: zero automata up to a thousand states,
    their atoms, and limit coefficients over degree-3 bases."""
    b.zero_automaton("za-cubic", [-1, -1, 0, 1], [-1, 0, 1], 8)
    b.classify("za-cubic", 2, "atomic")
    b.atoms("za-cubic")
    b.zero_automaton("za-quartic", [-1, 0, 0, -1, 1], [-1, 0, 1], 8)
    b.atoms("za-quartic")
    b.scan("tribshift", 1)
    for _ in range(3):
        b.limit("tribshift", _nonzero_z(rng, 6, 3))
        b.limit("plasticshift", _nonzero_z(rng, 3, 3))


BUILDERS = {"fixtures": fixtures, "deep": deep, "high-degree": high_degree}


def build(name: str, seed: int, inputs: Path, outputs: Path) -> Workload:
    b = _Builder(inputs, outputs)
    BUILDERS[name](b, random.Random(f"{name}:{seed}"))
    return b.build()
