"""Reference values computed apart from measure_lab.

Nothing here imports the package.  The checks in ``workloads.py`` compare
every CLI report against these:

- closed forms for the bundled fixtures: the fullshift4 measure is the law
  of 2U + V with U, V independent uniform on [0, 1], so its transform is
  s(t) s(2t) and its CDF a trapezoid; the fibonacci measure is the Parry
  measure of the golden base, with density proportional to 1 + 1/beta on
  [0, 1/beta) and 1 on [1/beta, 1);
- Erdos's infinite cosine product (Amer. J. Math. 1939): the limit
  coefficient of the two-letter full shift over a Pisot base has modulus
  prod_{j in Z} |cos(pi z beta^j)|, evaluated here directly at 200 digits;
- exact evaluation of digit words over Z[beta] for zero automata, and
  Perron data from a dense eigensolver.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_DIGITS = 200
_PRODUCT_TAIL = 1e-30


def uniform_transform(u) -> np.ndarray:
    """s(u) = (1 - e^{-2 pi i u}) / (2 pi i u), the transform of U[0, 1]."""
    u = np.asarray(u, dtype=float)
    return np.exp(-1j * np.pi * u) * np.sinc(u)


def fullshift4_transform(t) -> np.ndarray:
    return uniform_transform(t) * uniform_transform(2 * np.asarray(t, dtype=float))


def fullshift4_cdf(x: float) -> float:
    if x <= 0:
        return 0.0
    if x <= 1:
        return x * x / 4
    if x <= 2:
        return (2 * x - 1) / 4
    if x <= 3:
        return 1 - (3 - x) ** 2 / 4
    return 1.0


GOLDEN = (1 + math.sqrt(5)) / 2


def golden_parry_cdf(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return (x + min(x, 1 / GOLDEN) / GOLDEN) / (1 + GOLDEN**-2)


def golden_parry_transform(t) -> np.ndarray:
    """Transform of the Parry density: (a - b) c s(c t) + b s(t), c = 1/beta."""
    t = np.asarray(t, dtype=float)
    c = 1 / GOLDEN
    b = 1 / (1 + GOLDEN**-2)
    a = (1 + c) * b
    return (a - b) * c * uniform_transform(c * t) + b * uniform_transform(t)


def atomic_transform(t, values, masses) -> np.ndarray:
    """sum_k m_k e^{-2 pi i t x_k} for a finite atomic measure."""
    t = np.asarray(t, dtype=float)
    phase = np.exp(-2j * np.pi * np.outer(t, np.asarray(values, dtype=float)))
    return phase @ np.asarray(masses, dtype=float)


def cosine_product(minpoly, z) -> float:
    """|psi-hat(z)| for the two-letter full shift {0, 1} over the Pisot root
    of ``minpoly`` (constant term first): prod_{j in Z} |cos(pi z beta^j)|.

    The factors are truncated where the remaining ones differ from 1 by
    less than (pi * 1e-30)^2: for j >= J the distance of z beta^j to the
    integer Tr(z beta^j) is at most sum_q |z_q| |beta_q|^j, and for j < -M
    the argument itself is at most |z| beta^-M.
    """
    ctx = mpmath.MPContext()
    ctx.dps = _DIGITS
    roots = ctx.polyroots([ctx.mpf(c) for c in reversed(minpoly)], maxsteps=500, extraprec=4 * _DIGITS)
    roots = sorted(roots, key=lambda r: -abs(r))
    beta = ctx.re(roots[0])

    def embed(point):
        return ctx.fsum(c * point**i for i, c in enumerate(z))

    z_val = ctx.re(embed(roots[0]))
    conj = [(abs(embed(q)), abs(q)) for q in roots[1:]]

    def head_residual(j: int):
        return ctx.fsum(zq * rq**j / (1 - rq) for zq, rq in conj)

    head = 0
    while head_residual(head) > _PRODUCT_TAIL:
        head += 1
    tail = 0
    while abs(z_val) * beta**-tail / (1 - 1 / beta) > _PRODUCT_TAIL:
        tail += 1
    x = z_val * beta**-tail
    product = ctx.mpf(1)
    for _ in range(-tail, head + 1):
        product *= abs(ctx.cospi(x))
        x *= beta
    return float(product)


def beta_float(minpoly) -> float:
    roots = np.roots(list(reversed(minpoly)))
    return float(max(roots, key=abs).real)


# ----------------------------------------------------------------------
# Exact Z[beta] arithmetic on coordinate tuples (power basis 1..beta^(r-1))
# ----------------------------------------------------------------------


def mul_beta(coords: tuple[int, ...], minpoly) -> tuple[int, ...]:
    """beta * x, reduced with beta^r = -sum_{i<r} m_i beta^i."""
    top = coords[-1]
    shifted = (0,) + coords[:-1]
    return tuple(s - top * m for s, m in zip(shifted, minpoly[:-1]))


def state_coords(name: str) -> tuple[int, ...]:
    return tuple(int(c) for c in name.strip("()").split(","))


def word_value(word, minpoly) -> tuple[int, ...]:
    """sum_k a_k beta^(n-k) for the digit word a_1..a_n, exactly."""
    value = (0,) * (len(minpoly) - 1)
    for a in word:
        value = mul_beta(value, minpoly)
        value = (value[0] + a,) + value[1:]
    return value


def zero_language(doc: dict, n_max: int) -> tuple[list[int], list[int]]:
    """Per length 1..n_max: the number of digit words of value zero, and the
    number the automaton accepts (a run from an initial to a terminal
    state).  Words range over the document's alphabet."""
    minpoly = doc["beta"]["minpoly"]
    step: dict[tuple[str, int], list[str]] = {}
    for e in doc["edges"]:
        step.setdefault((e["from"], e["label"]), []).append(e["to"])
    terminal = set(doc["terminal"])
    alphabet = doc["alphabet"]
    zero_counts = [0] * n_max
    accepted_counts = [0] * n_max

    def walk(value, states: frozenset, depth: int) -> None:
        base = mul_beta(value, minpoly)
        for a in alphabet:
            nxt = (base[0] + a,) + base[1:]
            reached = frozenset(t for s in states for t in step.get((s, a), ()))
            if not any(nxt):
                zero_counts[depth] += 1
            if reached & terminal:
                accepted_counts[depth] += 1
            if depth + 1 < n_max:
                walk(nxt, reached, depth + 1)

    walk((0,) * (len(minpoly) - 1), frozenset(doc["initial"]), 0)
    return zero_counts, accepted_counts


def label_matrices(doc: dict) -> dict[int, np.ndarray]:
    index = {s: i for i, s in enumerate(doc["states"])}
    n = len(index)
    mats = {a: np.zeros((n, n)) for a in doc["alphabet"]}
    for e in doc["edges"]:
        mats[e["label"]][index[e["from"]], index[e["to"]]] += 1
    return mats


def perron_dense(doc: dict):
    """(lambda, v_L, v_R) of the total transition matrix from a dense
    eigensolver, normalised so that v_L . v_R = 1."""
    m = sum(label_matrices(doc).values())
    w, right = np.linalg.eig(m)
    k = int(np.argmax(w.real))
    v_r = np.abs(right[:, k].real)
    w_l, left = np.linalg.eig(m.T)
    v_l = np.abs(left[:, int(np.argmax(w_l.real))].real)
    return float(w[k].real), v_l / float(v_l @ v_r), v_r
