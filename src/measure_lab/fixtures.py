"""Bundled automaton fixtures and their cross-check reports.

Each fixture document carries its base polynomial.  ``REFERENCE`` holds
externally reported values shipped alongside the fixtures; the report
runners compare computed results against them and flag disagreements as
unreconciled instead of calibrating anything to the reference numbers.

The two example1 fixtures present the same cancellation language two
ways: example1-9edge is the full bounded construction for the golden base
over digits {0,+-1} (growth rate the tribonacci constant), example1-7edge
drops the two (+-(beta-1)) -> (+-1) : 0 edges, reproducing the reference
growth rate x^3 = x^2 + 2 but missing genuine zero words such as
(-1, 1, 0, 1, 1).  Both are kept, and reports surface the discrepancy
between their computed atom masses and the reference masses.

fig3 is the two-state automaton of base-(beta^2) digit words over
{0, 1, 2} read through the golden digit map; the squared-base reading
(minpoly x^2 - 3x + 1) makes every scanned limit coefficient vanish, so
the fixture bundles the golden base, which reproduces the reference's
qualitative singularity.  The reference limit value itself is not
reproduced by either reading and stays flagged unreconciled.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._jsontext import dumps
from .algebraic import make_pisot
from .automaton import (
    LabeledAutomaton,
    ambiguous_word_count,
    parse_automaton,
    primitivity_check,
)
from .classify import classify, verdict_to_dict
from .distribution import cdf_bracket
from .fourier import nu_hat, psi_hat
from .parry import perron
from .zero_automaton import verify_zero_language

FIXTURES: dict[str, dict] = {
    "fibonacci": {
        "beta": {"minpoly": [-1, -1, 1]},
        "alphabet": [0, 1],
        "states": ["p", "q"],
        "edges": [
            {"from": "p", "to": "p", "label": 0},
            {"from": "p", "to": "q", "label": 1},
            {"from": "q", "to": "p", "label": 0},
        ],
        "initial": ["p"],
        "terminal": ["p", "q"],
    },
    "example1-9edge": {
        "beta": {"minpoly": [-1, -1, 1]},
        "alphabet": [-1, 0, 1],
        "states": ["(0,0)", "(1,0)", "(-1,0)", "(-1,1)", "(1,-1)"],
        "edges": [
            {"from": "(0,0)", "to": "(1,0)", "label": -1},
            {"from": "(0,0)", "to": "(0,0)", "label": 0},
            {"from": "(0,0)", "to": "(-1,0)", "label": 1},
            {"from": "(1,0)", "to": "(-1,1)", "label": 1},
            {"from": "(-1,0)", "to": "(1,-1)", "label": -1},
            {"from": "(-1,1)", "to": "(1,0)", "label": 0},
            {"from": "(-1,1)", "to": "(0,0)", "label": 1},
            {"from": "(1,-1)", "to": "(0,0)", "label": -1},
            {"from": "(1,-1)", "to": "(-1,0)", "label": 0},
        ],
        "initial": ["(0,0)"],
        "terminal": ["(0,0)"],
    },
    "example1-7edge": {
        "beta": {"minpoly": [-1, -1, 1]},
        "alphabet": [-1, 0, 1],
        "states": ["(0,0)", "(1,0)", "(-1,0)", "(-1,1)", "(1,-1)"],
        "edges": [
            {"from": "(0,0)", "to": "(1,0)", "label": -1},
            {"from": "(0,0)", "to": "(0,0)", "label": 0},
            {"from": "(0,0)", "to": "(-1,0)", "label": 1},
            {"from": "(1,0)", "to": "(-1,1)", "label": 1},
            {"from": "(-1,0)", "to": "(1,-1)", "label": -1},
            {"from": "(-1,1)", "to": "(0,0)", "label": 1},
            {"from": "(1,-1)", "to": "(0,0)", "label": -1},
        ],
        "initial": ["(0,0)"],
        "terminal": ["(0,0)"],
    },
    "fullshift4": {
        "beta": {"minpoly": [-2, 1]},
        "alphabet": [0, 1, 2, 3],
        "states": ["s"],
        "edges": [
            {"from": "s", "to": "s", "label": 0},
            {"from": "s", "to": "s", "label": 1},
            {"from": "s", "to": "s", "label": 2},
            {"from": "s", "to": "s", "label": 3},
        ],
        "initial": ["s"],
        "terminal": ["s"],
    },
    "fig3": {
        "beta": {"minpoly": [-1, -1, 1]},
        "alphabet": [0, 1, 2],
        "states": ["q0", "q1"],
        "edges": [
            {"from": "q0", "to": "q0", "label": 0},
            {"from": "q0", "to": "q0", "label": 1},
            {"from": "q0", "to": "q1", "label": 2},
            {"from": "q1", "to": "q1", "label": 1},
            {"from": "q1", "to": "q0", "label": 0},
        ],
        "initial": ["q0"],
        "terminal": ["q0", "q1"],
    },
}

# Externally reported values for cross-checking.  Reports flag mismatches
# as unreconciled; nothing in the library is tuned to satisfy them.
REFERENCE: dict[str, dict] = {
    "example1-7edge": {
        "growth_cubic": [-2, 0, -1, 1],  # x^3 - x^2 - 2
        "atom_masses": {
            "0": 0.34781038477993104,
            "1": 0.12097206376076368,
            "-1": 0.12097206376076368,
            "1/beta": 0.20512274384927081,
            "-1/beta": 0.20512274384927081,
        },
    },
    "example1-9edge": {
        "atom_masses": {
            "0": 0.34781038477993104,
            "1": 0.12097206376076368,
            "-1": 0.12097206376076368,
            "1/beta": 0.20512274384927081,
            "-1/beta": 0.20512274384927081,
        },
    },
    "fibonacci": {
        # reference claim: the push-forward is the uniform measure on [0, 1]
        "cdf_points": [0.1, 0.25, 0.5, 0.75, 0.9],
        "cdf_values": [0.1, 0.25, 0.5, 0.75, 0.9],
    },
    "fullshift4": {
        "cdf_points": [0.5, 1.0, 1.5, 2.0, 2.5],
        "cdf_values": [0.0625, 0.25, 0.5, 0.75, 0.9375],
    },
    "fig3": {
        "limit_z1": [0.0608424, 0.0208583],
        "alternative_minpoly": [1, -3, 1],
    },
}

FIXTURE_NAMES = tuple(FIXTURES)


def fixture_document(name: str) -> dict:
    return json.loads(json.dumps(FIXTURES[name]))


def fixture_automaton(name: str) -> LabeledAutomaton:
    return parse_automaton(fixture_document(name))


def fixture_pisot(name: str):
    return make_pisot(FIXTURES[name]["beta"]["minpoly"])


def materialize(directory) -> list[str]:
    """Write all fixture documents as <name>.json files; returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in FIXTURES.items():
        path = directory / f"{name}.json"
        path.write_text(dumps(doc) + "\n")
        written.append(str(path))
    return written


def _common_report(name: str, a: LabeledAutomaton, p, pd) -> dict:
    return {
        "fixture": name,
        "states": a.n_states,
        "edges": len(a.edges),
        "beta_minpoly": list(p.minpoly),
        "beta": p.beta_float,
        "lambda": pd.lam,
        "lambda_bound": pd.lam_bound,
        "primitivity": primitivity_check(a),
        "ambiguous_words_up_to_8": ambiguous_word_count(a),
    }


def _mass_comparison(atoms, reference: dict[str, float], beta: float) -> dict:
    # reference keys name the atom values 0, +-1, +-1/beta
    value_of = {
        "0": 0.0,
        "1": 1.0,
        "-1": -1.0,
        "1/beta": 1 / beta,
        "-1/beta": -1 / beta,
    }
    rows = []
    reconciled = True
    for key, ref_mass in reference.items():
        target = value_of[key]
        match = min(atoms, key=lambda at: abs(at.value_decimal - target))
        ok = abs(match.value_decimal - target) < 1e-9
        agrees = ok and abs(match.mass - ref_mass) < 1e-6
        if not agrees:
            reconciled = False
        rows.append(
            {
                "value": key,
                "reference_mass": ref_mass,
                "computed_mass": match.mass if ok else None,
                "agrees": agrees,
            }
        )
    return {
        "rows": rows,
        "reconciled": reconciled,
        "note": None
        if reconciled
        else "computed start-distribution masses differ from the reference "
        "masses; both are reported and the discrepancy is left standing",
    }


def _cdf_comparison(a: LabeledAutomaton, p, pd, depth: int, ref: dict, note: str | None) -> dict:
    """Reference CDF values against certified brackets (1e-9 slack);
    ``note`` is reported when some point disagrees."""
    points = ref["cdf_points"]
    brackets = cdf_bracket(a, p, pd, depth, points)
    rows = []
    reconciled = True
    for x, target, (lo, hi) in zip(points, ref["cdf_values"], brackets):
        agrees = lo - 1e-9 <= target <= hi + 1e-9
        reconciled = reconciled and agrees
        rows.append({"x": x, "reference_cdf": target, "bracket": [lo, hi], "agrees": agrees})
    return {"rows": rows, "reconciled": reconciled, "note": None if reconciled else note}


def fixture_report(name: str) -> dict:
    """Analysis report plus reference cross-checks for one fixture."""
    a = fixture_automaton(name)
    p = fixture_pisot(name)
    pd = perron(a)
    report = _common_report(name, a, p, pd)
    ref = REFERENCE.get(name, {})

    if name in ("example1-7edge", "example1-9edge"):
        verdict = classify(a, p)
        report["verdict"] = verdict_to_dict(verdict)
        if name == "example1-7edge":
            lam = pd.lam
            report["growth_cubic_residual"] = abs(lam**3 - lam**2 - 2)
        else:
            lam = pd.lam
            report["tribonacci_residual"] = abs(lam**3 - lam**2 - lam - 1)
        report["zero_language"] = verify_zero_language(a, p, 8)
        report["reference_masses"] = _mass_comparison(
            verdict.atoms, ref["atom_masses"], p.beta_float
        )

    elif name == "fibonacci":
        verdict = classify(a, p, scan_height=2)
        report["verdict"] = verdict_to_dict(verdict)
        report["scan_max_abs"] = verdict.diagnostics["scan_max_abs"]
        report["reference_cdf"] = _cdf_comparison(
            a, p, pd, 14, ref,
            "measured CDF brackets exclude the uniform reference at some "
            "points; the measured invariant-density profile is reported instead",
        )

    elif name == "fullshift4":
        verdict = classify(a, p)
        report["verdict"] = verdict_to_dict(verdict)
        v1, b1 = nu_hat(a, p, pd, 1.0)
        vq, bq = nu_hat(a, p, pd, 0.25)
        closed_quarter = 4 * math.sqrt(2) / math.pi**2
        report["transform_checks"] = {
            "abs_nu_at_1": abs(v1),
            "abs_nu_at_quarter": abs(vq),
            "closed_form_quarter": closed_quarter,
            "quarter_agrees": abs(abs(vq) - closed_quarter) < 1e-4,
        }
        report["reference_cdf"] = _cdf_comparison(a, p, pd, 12, ref, None)

    elif name == "fig3":
        verdict = classify(a, p, scan_height=1)
        report["verdict"] = verdict_to_dict(verdict)
        res = psi_hat(a, p, pd, (1, 0))
        res2 = psi_hat(
            a, p, pd, (1, 0), head_terms=2 * res.head_terms, tail_terms=2 * res.tail_terms
        )
        ref_value = complex(*ref["limit_z1"])
        agrees = abs(res.value - ref_value) < 1e-4
        report["limit_z1"] = {
            "computed": [res.value.real, res.value.imag],
            "bound": res.bound,
            "doubling_drift": abs(res.value - res2.value),
            "reference": ref["limit_z1"],
            "reconciled": agrees,
            "note": None
            if agrees
            else "computed limit differs from the reference value; both are "
            "reported and the discrepancy is left standing",
        }
        # squared-base reading, kept as a diagnostic: every scanned limit
        # vanishes there, so that reading cannot exhibit the singularity
        alt = make_pisot(ref["alternative_minpoly"])
        alt_res = psi_hat(a, alt, pd, (1, 0))
        report["alternative_base"] = {
            "minpoly": ref["alternative_minpoly"],
            "limit_z1": [alt_res.value.real, alt_res.value.imag],
            "abs": abs(alt_res.value),
        }

    return report


def run_all(directory=None) -> dict:
    """Materialise fixtures (optionally) and run every fixture report."""
    out: dict = {"fixtures": {}}
    if directory is not None:
        out["written"] = materialize(directory)
    for name in FIXTURE_NAMES:
        out["fixtures"][name] = fixture_report(name)
    return out
