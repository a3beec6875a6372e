import sys
from pathlib import Path

import numpy as np
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
def tableless_copy():
    """g on the permutation backend, same indices: element i acts as x -> x*i
    (the right regular representation, read from all products of g)."""

    def copy(g):
        products = g.mul_outer(np.arange(g.order))
        h = cg.FiniteGroup(cg.core.PermBackend(products.T), labels=g.labels, name=g.name)
        assert h.table is None
        return h

    return copy


def random_pairs(g):
    """Up to 2000 random pairs (a, b) of elements of a permutation group,
    fewer for wide rows (about a million points in all)."""
    count = min(2000, max(4, (1 << 20) // g.perms.shape[1]))
    return np.random.default_rng(g.order).integers(0, g.order, size=(2, count))


# the three ways a permutation index finds a row, each with the settings
# that force it: a direct key table, binary search in sorted keys (no direct
# table allowed) and whole-row byte keys (no key range at all)
_INDEX_VARIANTS = {
    "_direct": {},
    "_sorted": {"DIRECT_INDEX_ENTRIES": 0},
    "_bybytes": {"INDEX_KEY_RANGE": 0},
}


@pytest.fixture()
def index_variants(monkeypatch):
    """Per index variant of a permutation group g: the lookup of the
    product rows a[i]*b[i] and the inverses a copy of g gets with that
    index, built from g's permutations.  Each variant must find g's own rows and refuse
    a row outside g (a constant row on two or more points, and a
    permutation outside g where a swap of two neighbouring points gives
    one)."""

    def results(g, a, b):
        products = np.take_along_axis(g.perms[b], g.perms[a].astype(np.intp), axis=1)
        outside = [np.zeros(g.perms.shape[1], dtype=g.perms.dtype)][: g.perms.shape[1] - 1]
        known = {row.tobytes() for row in g.perms}
        for c in range(g.perms.shape[1] - 1):
            swapped = g.perms[0].copy()
            swapped[[c, c + 1]] = swapped[[c + 1, c]]
            if swapped.tobytes() not in known:
                outside.append(swapped)
                break
        out = {}
        for variant, settings in _INDEX_VARIANTS.items():
            with monkeypatch.context() as m:
                for attr, value in settings.items():
                    m.setattr(cg.core, attr, value)
                index = cg.core._PermIndex(g.perms)
                copy = cg.FiniteGroup(cg.core.PermBackend(g.perms), labels=g._label, name=g.name)
            path = [name for name in _INDEX_VARIANTS if getattr(index, name) is not None]
            # where no key prefix separates the elements, every variant uses bytes
            assert variant == "_direct" or path in ([variant], ["_bybytes"])
            assert np.array_equal(index.lookup(g.perms), np.arange(g.order))
            for row in outside:
                with pytest.raises(RuntimeError):
                    index.lookup(np.concatenate([g.perms[:3], row[None, :]]))
            out[variant] = (index.lookup(products), copy.inv)
        return out

    return results
