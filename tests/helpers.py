"""Shared generators and oracles for the test suite."""

import random

from hypothesis import strategies as st

from measure_lab.automaton import parse_automaton, primitivity_check


def random_primitive_automata(count, seed, max_states=5):
    """Seeded stream of random primitive automata with alphabet in -2..2."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n_states = rng.randint(1, max_states)
        states = [f"s{i}" for i in range(n_states)]
        alphabet = sorted(rng.sample([-2, -1, 0, 1, 2], rng.randint(1, 4)))
        edges = []
        for i in range(n_states):  # a random cycle encourages connectivity
            j = (i + 1) % n_states
            edges.append((states[i], states[j], rng.choice(alphabet)))
        for src in states:
            for dst in states:
                for lab in alphabet:
                    if rng.random() < 0.25 and (src, dst, lab) not in edges:
                        edges.append((src, dst, lab))
        doc = {
            "alphabet": alphabet,
            "states": states,
            "edges": [{"from": s, "to": t, "label": l} for s, t, l in edges],
        }
        a = parse_automaton(doc)
        if primitivity_check(a)["primitive"]:
            found.append(a)
    return found


@st.composite
def signed_automata(draw):
    """Primitive automata whose label matrices have three or more in-edges
    per column, so a level's stacked product sums three or more terms per
    entry.  The first label has every edge, which makes the total matrix
    positive; labels are signed."""
    n = draw(st.integers(3, 5))
    alphabet = sorted(draw(st.sets(st.integers(-3, 3), min_size=2, max_size=4)
                           .filter(lambda labels: min(labels) < 0)))
    edges = []
    for i, label in enumerate(alphabet):
        for dst in range(n):
            sources = range(n) if i == 0 else draw(st.sets(st.integers(0, n - 1), min_size=3))
            edges += [{"from": f"s{src}", "to": f"s{dst}", "label": label} for src in sources]
    return parse_automaton(
        {"alphabet": alphabet, "states": [f"s{i}" for i in range(n)], "edges": edges}
    )
