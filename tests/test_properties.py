"""Cross-cutting invariants checked over a small slice of the catalog."""

import numpy as np
import pytest

import cpgroups as cg
from cpgroups.metric import check_metric_axioms, distance_matrix, is_cp, is_cp2, is_cp3
from cpgroups.subgroups import all_subgroups


def catalog_upto(bound):
    return list(cg.catalog_iter(bound))


SMALL = catalog_upto(24)


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_group_axioms_full(name, g):
    """Full associativity, identity and inverse laws on every small catalog group."""
    table = g.mul_outer(np.arange(g.order))
    revalidated = cg.from_cayley(table.tolist(), labels=g.labels, name=name)
    assert np.array_equal(revalidated.table, table)


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_order_of_product_symmetric(name, g):
    orders = g.order_table().orders
    oab = orders[g.mul_outer(np.arange(g.order))]
    assert np.array_equal(oab, oab.T)


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_class_hierarchy(name, g):
    cp3 = is_cp3(g)[0]
    cp2 = is_cp2(g)[0]
    cp = is_cp(g)[0]
    assert (not cp2) or cp3
    assert (not cp3) or cp


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_distance_matrix_shape_invariants(name, g):
    d = distance_matrix(g)
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0).all()
    off = d + np.eye(g.order, dtype=np.int64)
    assert (off > 0).all()
    assert d.max() <= g.order_table().max_order - 1


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_lagrange_for_subgroups(name, g):
    for s in all_subgroups(g):
        assert g.order % s.size == 0


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_quotient_order_product(name, g):
    for n_sub in g.normal_subgroups():
        assert g.quotient(n_sub).order * n_sub.size == g.order


def test_tables_are_immutable():
    g = cg.from_cayley(cg.cyclic(6).mul_outer(np.arange(6)).tolist())
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    for grp in [g] + [h for _, h in SMALL]:
        with pytest.raises(ValueError):
            grp.inv[0] = 1


def test_metric_flags_mirror_predicates():
    for name, g in catalog_upto(16):
        ax = check_metric_axioms(g)
        assert ax.triangle == is_cp3(g)[0]
        assert ax.ultrametric == is_cp2(g)[0]


def test_scan_results_stable_across_instances():
    first = cg.group_from_spec("dihedral:16")
    second = cg.group_from_spec("dihedral:16")
    w1 = is_cp3(first)[1]
    w2 = is_cp3(second)[1]
    assert (w1.a_index, w1.b_index, w1.ab_order) == (w2.a_index, w2.b_index, w2.ab_order)


def test_catalog_runs_are_identical():
    a = [(n, g.order) for n, g in cg.catalog_iter(20)]
    b = [(n, g.order) for n, g in cg.catalog_iter(20)]
    assert a == b
