"""Atomic-versus-continuous classification of the push-forward measure.

The digit map's image over a strongly connected automaton is finite
exactly when every vertex carries a single cycle value c(v) (the value of
any cycle through it, suitably normalised); then the measure is purely
atomic with atoms among the c(v), each of mass sum of pi over its fibre.
Otherwise the image is perfect and the measure is continuous, and the
verdict carries singularity evidence: a dimension bound when beta exceeds
the entropy growth rate lambda, or a nonvanishing limit Fourier
coefficient found by the lattice scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebraic import (
    PisotNumber,
    QBeta,
    bint_pow_beta,
    qbeta_add,
    qbeta_div,
    qbeta_embed,
    qbeta_from_bint,
    qbeta_from_int,
    qbeta_mul_beta,
    qbeta_sub,
)
from .automaton import LabeledAutomaton, primitivity_check
from .errors import NotPrimitive, NotStronglyConnected
from .fourier import DEFAULT_TOL as DEFAULT_FOURIER_TOL, check_scan_height, rajchman_scan
from .parry import PerronData, perron, start_distribution

DEFAULT_SCAN_HEIGHT = 3
EVIDENCE_FLOOR = 1e-4


@dataclass(frozen=True)
class FiniteImageResult:
    """Either the full cycle-value map or the first inconsistent edge."""

    ok: bool
    c_map: dict[str, QBeta] | None
    witness: tuple[str, int, str] | None  # (from, label, to)


@dataclass(frozen=True)
class Atom:
    value: QBeta
    mass: float
    value_decimal: float
    states: tuple[str, ...]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "atomic" | "continuous"
    atoms: tuple[Atom, ...] | None
    evidence: dict | None
    witness: dict  # value map for atomic, conflicting edge for continuous
    diagnostics: dict


def _first_cycle_through_root(a: LabeledAutomaton) -> list[tuple[str, int, str]]:
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


def finite_image_test(a: LabeledAutomaton, p: PisotNumber) -> FiniteImageResult:
    """Decide whether the digit map has finite image over the automaton.

    Picks one cycle through the first state, solves its value exactly in
    Q(beta), propagates candidate values c(w) = beta*c(u) - label along a
    spanning tree, then verifies the relation on every edge.  Success
    returns the full value map; failure returns the first violated edge.
    """
    if not a.edges:
        raise NotStronglyConnected("automaton has no edges")
    if not primitivity_check(a)["strongly_connected"]:
        raise NotStronglyConnected("automaton is not strongly connected")

    cycle = _first_cycle_through_root(a)
    n = len(cycle)
    num = qbeta_from_int(0, p)
    for _, label, _ in cycle:
        num = qbeta_mul_beta(num, p)
        num = qbeta_add(num, qbeta_from_int(label, p))
    den = qbeta_sub(
        qbeta_from_bint(bint_pow_beta(n, p)), qbeta_from_int(1, p)
    )
    c_root = qbeta_div(num, den, p)

    root = a.states[0]
    c_map: dict[str, QBeta] = {root: c_root}
    out: dict[str, list[tuple[int, str]]] = {s: [] for s in a.states}
    for src, dst, label in a.edges:
        out[src].append((label, dst))
    queue = [root]
    while queue:
        u = queue.pop(0)
        for label, w in out[u]:
            if w not in c_map:
                c_map[w] = qbeta_sub(
                    qbeta_mul_beta(c_map[u], p), qbeta_from_int(label, p)
                )
                queue.append(w)
    if len(c_map) != a.n_states:
        raise NotStronglyConnected("some states unreachable from the first state")

    for src, dst, label in a.edges:
        expected = qbeta_sub(qbeta_mul_beta(c_map[src], p), qbeta_from_int(label, p))
        if expected != c_map[dst]:
            return FiniteImageResult(ok=False, c_map=None, witness=(src, label, dst))
    return FiniteImageResult(ok=True, c_map=c_map, witness=None)


def atoms(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    image: FiniteImageResult | None = None,
) -> tuple[Atom, ...]:
    """Atom values and masses; requires a successful finite-image test.

    ``image`` is that test's result when the caller already ran it on
    (a, p); otherwise the test runs here.
    """
    result = image if image is not None else finite_image_test(a, p)
    if not result.ok:
        raise ValueError("image is not finite; no atoms to compute")
    pi = start_distribution(pd)
    idx = a.state_index()
    groups: dict[tuple[Fraction, ...], list[str]] = {}
    for state, value in result.c_map.items():
        groups.setdefault(value.coords, []).append(state)
    collected = []
    for coords, states in groups.items():
        value = QBeta(coords)
        mass = float(sum(pi[idx[s]] for s in states))
        decimal = float(qbeta_embed(value, 1, p).mid)
        collected.append(Atom(value=value, mass=mass, value_decimal=decimal,
                              states=tuple(sorted(states))))
    collected.sort(key=lambda at: (at.value_decimal, at.value.coords))
    return tuple(collected)


def classify(
    a: LabeledAutomaton,
    p: PisotNumber,
    scan_height: int = DEFAULT_SCAN_HEIGHT,
    tol: float = DEFAULT_FOURIER_TOL,
) -> Verdict:
    """Full verdict: atomic with atom list, or continuous with evidence.

    Continuity evidence, in order: beta certifiably above lambda (the
    image then has Hausdorff dimension below one, so the measure is
    singular); otherwise a lattice scan of limit Fourier coefficients up
    to the given height, singular when the largest |psi-hat| clears both
    max(10*tol, 1e-4) and its own error bound, which certifies that the
    coefficient is nonzero; otherwise inconclusive (consistent with
    absolute continuity, which a finite scan can never certify).  The
    height is checked before any other work.
    """
    check_scan_height(scan_height)
    if not primitivity_check(a)["primitive"]:
        raise NotPrimitive("classification requires a primitive automaton")
    pd = perron(a)
    fi = finite_image_test(a, p)
    if fi.ok:
        atom_list = atoms(a, p, pd, fi)
        return Verdict(
            kind="atomic",
            atoms=atom_list,
            evidence=None,
            witness={"c_map": {s: str(v) for s, v in fi.c_map.items()}},
            diagnostics={"lambda": pd.lam},
        )

    witness = {
        "edge": {"from": fi.witness[0], "label": fi.witness[1], "to": fi.witness[2]}
    }
    diagnostics = {
        "lambda": pd.lam,
        "beta": p.beta_float,
    }
    beta_low = float(p.root_beta.lower())
    lam_high = (pd.lam + pd.lam_bound) * (1 + tol)
    if beta_low > lam_high:
        evidence = {
            "type": "singular_by_dimension",
            "beta": p.beta_float,
            "lambda": pd.lam,
            "dimension_bound": math.log(pd.lam) / math.log(p.beta_float),
        }
        return Verdict(kind="continuous", atoms=None, evidence=evidence,
                   witness=witness, diagnostics=diagnostics)

    scan = rajchman_scan(a, p, pd, height=scan_height, tol=tol)
    threshold = max(10 * tol, EVIDENCE_FLOOR)
    diagnostics["scan_max_abs"] = scan.max_abs
    diagnostics["scan_height"] = scan_height
    best = next(e for e in scan.entries if e.z_coords == scan.argmax)
    if scan.max_abs > threshold and scan.max_abs > best.bound:
        evidence = {
            "type": "singular_by_fourier",
            "z_coords": list(scan.argmax),
            "psi_hat_abs": scan.max_abs,
            "threshold": threshold,
        }
    else:
        evidence = {
            "type": "inconclusive",
            "scan_max_abs": scan.max_abs,
            "threshold": threshold,
            "note": "all scanned limit coefficients vanish within tolerance; "
            "absolute continuity is consistent but not certified"
            if scan.max_abs <= threshold
            else "the largest scanned limit coefficient does not exceed its "
            "error bound, so it is not certified nonzero",
        }
    return Verdict(kind="continuous", atoms=None, evidence=evidence,
                   witness=witness, diagnostics=diagnostics)


def atoms_to_dicts(atom_list) -> list[dict]:
    """The report form of atoms, shared by the classify and atoms reports."""
    return [
        {
            "value_coords": [str(c) for c in at.value.coords],
            "value_decimal": at.value_decimal,
            "mass": at.mass,
            "states": list(at.states),
        }
        for at in atom_list
    ]


def verdict_to_dict(v: Verdict) -> dict:
    out: dict = {"kind": v.kind, "witness": v.witness, "diagnostics": v.diagnostics}
    if v.atoms is not None:
        out["atoms"] = atoms_to_dicts(v.atoms)
    if v.evidence is not None:
        out["evidence"] = v.evidence
    return out
