import pytest
from hypothesis import settings

from measure_lab.algebraic import make_pisot
from measure_lab.fixtures import FIXTURE_NAMES, fixture_automaton, fixture_pisot
from measure_lab.parry import perron

# CI runs with --hypothesis-profile=ci, so a failure there reproduces; local
# runs keep the default profile and its random examples.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def golden():
    return make_pisot([-1, -1, 1])


@pytest.fixture(scope="session")
def base_two():
    return make_pisot([-2, 1])


@pytest.fixture(scope="session")
def base_three():
    return make_pisot([-3, 1])


@pytest.fixture(scope="session")
def phi_squared():
    return make_pisot([1, -3, 1])


@pytest.fixture(scope="session")
def tribonacci():
    return make_pisot([-1, -1, -1, 1])


@pytest.fixture(scope="session")
def automata():
    return {name: fixture_automaton(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def pisots():
    return {name: fixture_pisot(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def perron_data(automata):
    return {name: perron(a) for name, a in automata.items()}
