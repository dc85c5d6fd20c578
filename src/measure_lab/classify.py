"""Atomic-versus-continuous classification of the push-forward measure.

The digit map's image over a strongly connected automaton is finite
exactly when every vertex carries a single cycle value c(v) (the value of
any cycle through it, suitably normalised); then the measure is purely
atomic with atoms among the c(v), each of mass sum of pi over its fibre.
Otherwise the image is perfect and the measure is continuous, and the
verdict carries singularity evidence: a dimension bound when beta exceeds
the entropy growth rate lambda, or a nonvanishing limit Fourier
coefficient found by the lattice scan.

Every cycle value is an integer numerator over one common denominator.
The finite-image test walks the numerators on an integer array, one
companion step per BFS level and one for every edge at once, in int64
while the largest coordinate so far keeps the next step there, and on
Python ints from the first level that does not.  Atoms keep
the numerators, their masses come from one ``bincount``, and the reports
write each coordinate from its numerator and the denominator, as
``str(Fraction)`` would, without building a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebraic import (
    PisotNumber,
    bint_mul,
    bint_mul_beta,
    bint_mul_beta_rows,
    format_coords,
    int64_step_limit,
    qbeta_div,
    qbeta_nearest_floats,
)
from .automaton import LabeledAutomaton, primitivity_check
from .errors import NotStronglyConnected
from .fourier import DEFAULT_TOL as DEFAULT_FOURIER_TOL, check_scan_height, rajchman_scan
from .parry import PerronData, perron, start_distribution

DEFAULT_SCAN_HEIGHT = 3
EVIDENCE_FLOOR = 1e-4


@dataclass(frozen=True)
class FiniteImageResult:
    """Either the full cycle-value map or the first inconsistent edge.

    The value of state s is numerators[s] / denominator in Q(beta): integer
    coordinates over one positive integer."""

    ok: bool
    numerators: dict[str, tuple[int, ...]] | None
    denominator: int
    witness: tuple[str, int, str] | None  # (from, label, to)

    @property
    def c_map(self) -> dict[str, tuple[Fraction, ...]] | None:
        """The value map on Fraction coordinates, built on each access."""
        if self.numerators is None:
            return None
        d = self.denominator
        return {s: tuple(Fraction(n, d) for n in x) for s, x in self.numerators.items()}


@dataclass(frozen=True)
class Atom:
    """One atom: the value numerators / denominator in Q(beta), its mass,
    the double nearest the value and the states whose cycle value it is."""

    numerators: tuple[int, ...]
    denominator: int
    mass: float
    value_decimal: float
    states: tuple[str, ...]

    @property
    def value(self) -> tuple[Fraction, ...]:
        """The value on Fraction coordinates, built on each access."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


@dataclass(frozen=True)
class Verdict:
    kind: str  # "atomic" | "continuous"
    atoms: tuple[Atom, ...] | None
    evidence: dict | None
    witness: dict  # value map for atomic, conflicting edge for continuous
    diagnostics: dict


def finite_image_test(a: LabeledAutomaton, p: PisotNumber) -> FiniteImageResult:
    """Decide whether the digit map has finite image over the automaton.

    One BFS from the first state, the automaton's ``forward_walk``, gives
    a spanning tree; the first edge into the first state that its scan
    meets, by (BFS rank of the source, edge index), closes a cycle whose
    value is num/den with num and den = beta^n - 1 in Z[beta].
    den^-1 = adj/D, with adj in Z[beta] and D a positive integer, is found
    once, in Python ints.  Every candidate value c(w) = beta*c(u) - label
    is then N_w/D with N_w = beta*N_u - label*D in Z[beta], propagated
    from N_root = num*adj one BFS level at a time, as one array companion
    step (``bint_mul_beta_rows``) per level; one more step checks that
    identity on every edge at once.  The array is int64 while the largest
    coordinate written so far leaves the next step inside int64
    (``int64_step_limit``, checked after every level), and object, on the
    same code and Python ints, from then on.  Success returns every
    N_w over D, by state name in BFS order; failure returns the first
    violated edge in document order.
    """
    if not a.edges:
        raise NotStronglyConnected("automaton has no edges")
    if not primitivity_check(a)["strongly_connected"]:
        raise NotStronglyConnected("automaton is not strongly connected")

    order, level, tree = a.forward_walk
    src, dst, label = a.edge_arrays()
    rank = np.empty(a.n_states, np.intp)
    rank[order] = np.arange(a.n_states)
    into_root = np.flatnonzero(dst == 0)
    closing = int(into_root[np.argmin(rank[src[into_root]])])

    minpoly = p.minpoly
    labels, e = [], closing
    while e >= 0:  # back along the tree to the root, whose tree edge is -1
        labels.append(a.alphabet[label[e]])
        e = tree[src[e]]
    one = (1,) + (0,) * (p.degree - 1)
    num = (0,) * p.degree
    power = one
    for letter in reversed(labels):
        num = bint_mul_beta(num, minpoly, letter)
        power = bint_mul_beta(power, minpoly)
    den = (power[0] - 1,) + power[1:]  # beta^n - 1
    inverse = qbeta_div(one, den, p)
    d = math.lcm(*(c.denominator for c in inverse))
    adj = tuple(c.numerator * (d // c.denominator) for c in inverse)
    root = bint_mul(num, adj, minpoly)

    order = np.array(order, np.intp)  # levels run in BFS order
    ends = np.searchsorted(np.array(level)[order], np.arange(level[order[-1]] + 1), "right")
    # label*D enters each step, and D itself the array of those products.
    limit = int64_step_limit([x * d for x in a.alphabet] + [d], minpoly)
    dtype = np.int64 if max(map(abs, root)) <= limit else object
    add = np.array(a.alphabet, dtype)[label] * -d  # -label*D per edge
    numer = np.empty((a.n_states, p.degree), dtype)
    numer[0] = root
    tree = np.array(tree, np.intp)
    for begin, end in zip(ends[:-1], ends[1:]):
        states = order[begin:end]
        edges = tree[states]
        step = bint_mul_beta_rows(numer[src[edges]], minpoly)
        step[:, 0] += add[edges]
        numer[states] = step
        if numer.dtype != object and np.abs(step).max() > limit:
            numer, add = numer.astype(object), add.astype(object)
    check = bint_mul_beta_rows(numer[src], minpoly)
    check[:, 0] += add
    bad = np.flatnonzero((check != numer[dst]).any(axis=1))
    if len(bad):
        e = bad[0]
        witness = (a.states[src[e]], a.alphabet[label[e]], a.states[dst[e]])
        return FiniteImageResult(ok=False, numerators=None, denominator=d, witness=witness)
    names = map(a.states.__getitem__, order.tolist())
    numerators = dict(zip(names, map(tuple, numer[order].tolist())))
    return FiniteImageResult(ok=True, numerators=numerators, denominator=d, witness=None)


def _coordinate_text(n: int, d: int) -> str:
    """The text ``str(Fraction(n, d))`` gives for d > 0, from one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def atoms(
    a: LabeledAutomaton,
    p: PisotNumber,
    pd: PerronData,
    image: FiniteImageResult | None = None,
) -> tuple[Atom, ...]:
    """Atom values and masses; requires a successful finite-image test.

    ``image`` is that test's result when the caller already ran it on
    (a, p); otherwise the test runs here.  States group on their
    numerators, and one ``bincount`` over the states in BFS order sums
    each atom's start probabilities left to right from 0.0.
    ``value_decimal`` is the double nearest the exact value
    (``qbeta_nearest_floats``).
    """
    result = image if image is not None else finite_image_test(a, p)
    if not result.ok:
        raise ValueError("image is not finite; no atoms to compute")
    idx = a.state_index()
    # One denominator d > 0 for every value, so numerators order as values.
    groups: dict[tuple[int, ...], int] = {}
    group = [groups.setdefault(numer, len(groups)) for numer in result.numerators.values()]
    members: list[list[str]] = [[] for _ in groups]
    for state, g in zip(result.numerators, group):
        members[g].append(state)
    weights = start_distribution(pd)[[idx[s] for s in result.numerators]]
    masses = np.bincount(group, weights=weights, minlength=len(groups)).tolist()
    d = result.denominator
    decimals = qbeta_nearest_floats(list(groups), d, p)
    collected = sorted(zip(decimals, groups, masses, members), key=lambda entry: entry[:2])
    return tuple(
        Atom(numerators=numer, denominator=d, mass=mass, value_decimal=decimal,
             states=tuple(sorted(states)))
        for decimal, numer, mass, states in collected
    )


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
    height, and the scan's size against ``fourier.SCAN_CAP``, are checked
    before any other work; ``perron`` raises
    NotPrimitive for an automaton that is not primitive.
    """
    check_scan_height(scan_height, p.degree)
    pd = perron(a)
    fi = finite_image_test(a, p)
    if fi.ok:
        atom_list = atoms(a, p, pd, fi)
        return Verdict(
            kind="atomic",
            atoms=atom_list,
            evidence=None,
            witness={"c_map": {
                s: format_coords([_coordinate_text(n, fi.denominator) for n in x])
                for s, x in fi.numerators.items()
            }},
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
            "value_coords": [_coordinate_text(n, at.denominator) for n in at.numerators],
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
