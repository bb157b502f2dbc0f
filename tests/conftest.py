import numpy as np
import pytest
from hypothesis import settings

from rmcover.classify import fn_rep
from rmcover.field import agl_generators
from rmcover.nonlin import build_nl_table
from rmcover.orbit import MatrixSet, canonical_keys, coset_key, image_keys
from rmcover.verify import fn10_sweep_set

import gf2_reference

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
    """fn_10's orbit by the key-level queue search, with its 130,844 matrices."""
    return gf2_reference.fifo_orbit(coset_key(fn_rep(10)), agl6_gens, transcript=True)


@pytest.fixture(scope="session")
def matrix_set(fn10_orbit):
    return fn10_orbit.matrix_set


@pytest.fixture(scope="session")
def sweep_set():
    """The class sweep set and fn_10's orbit size, as the pipeline derives them."""
    return fn10_sweep_set()


@pytest.fixture(scope="session")
def coverage_controls(sweep_set, matrix_set):
    """Sweep sets that miss one class of fn_10's orbit: one class's matrix
    dropped, and one replaced by a second matrix of another class."""
    members = sweep_set[0].members
    f = fn_rep(10)
    others = np.setdiff1d(matrix_set.members, members)
    first_class = canonical_keys(image_keys(f, members[:1]))[0]
    second = others[canonical_keys(image_keys(f, others)) == first_class][0]
    kept = np.delete(members, 7)
    return {"dropped": MatrixSet(kept), "replaced": MatrixSet(np.sort(np.r_[kept, second]))}


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
