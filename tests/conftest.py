import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cpgroups as cg


@pytest.fixture(scope="session")
def s3():
    return cg.symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return cg.symmetric(4)


@pytest.fixture(scope="session")
def z6():
    return cg.cyclic(6)


@pytest.fixture(scope="session")
def q8():
    return cg.dicyclic(2)


@pytest.fixture(scope="session")
def d8():
    return cg.dihedral(4)


@pytest.fixture(scope="session")
def a4():
    return cg.alternating(4)


@pytest.fixture(scope="session")
def a5():
    return cg.alternating(5)


@pytest.fixture()
def tableless_copy(monkeypatch):
    """g on the permutation backend, same indices: element i acts as x -> x*i
    (the right regular representation, built with the table limit at 0; the
    limit is restored afterwards, so the copy's subgroups and quotients are
    realized as usual)."""

    def copy(g):
        with monkeypatch.context() as m:
            m.setattr(cg.core, "TABLE_LIMIT", 0)
            h = cg.FiniteGroup(perms=g.table.T, labels=g.labels, name=g.name, source="regular")
        assert h.table is None
        return h

    return copy
