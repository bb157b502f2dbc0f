import numpy as np
import pytest
from hypothesis import settings

from rmcover.classify import fn_rep
from rmcover.field import agl_generators
from rmcover.nonlin import build_nl_table
from rmcover.orbit import bfs_orbit, coset_key

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


class TableCache:
    """Session-wide lazy cache of the (6,3) value tables per class index."""

    def __init__(self):
        self._tables = {}

    def __getitem__(self, index: int):
        if index not in self._tables:
            self._tables[index] = build_nl_table(fn_rep(index), 3)
        return self._tables[index]


@pytest.fixture(scope="session")
def tables():
    return TableCache()


@pytest.fixture(scope="session")
def agl6_gens():
    return list(agl_generators(6, 2))


@pytest.fixture(scope="session")
def fn10_orbit(agl6_gens):
    return bfs_orbit(coset_key(fn_rep(10)), agl6_gens, transcript=True)


@pytest.fixture(scope="session")
def matrix_set(fn10_orbit):
    return fn10_orbit.matrix_set


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
