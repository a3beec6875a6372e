"""Every catalog group of order <= 60, on the table backend or on its own
permutations, against its right regular representation on the permutation
backend, for the algorithms written once on top of the multiplication
primitives ``mul``, ``mul_pairs`` and ``mul_outer``.

Each group is compared with its ``tableless_copy`` (same element indices,
products composed from permutations) and with a slow pure-Python oracle.
"""

import numpy as np
import pytest

import cpgroups as cg
from cpgroups.metric import (
    PAIR_CONDITIONS,
    classify,
    distance_matrix,
    involution_product_witness,
    is_cp2,
    is_cp3,
    layer_check,
)
from cpgroups.subgroups import (
    abelian_subgroup_scan,
    all_subgroups,
    hereditary_check,
    pair_condition_verdicts,
)

from conftest import random_pairs
from oracles import slow_center, slow_element_order, slow_quotient_order_multiset

NAMES = [e.name for e in cg.catalog_entries(60)]


@pytest.fixture(params=NAMES)
def backends(request, tableless_copy):
    g = cg.group_from_spec(request.param)
    return g, tableless_copy(g)


def test_mul_pairs_broadcasts(backends):
    g, h = backends
    x = np.arange(g.order)
    for grp in backends:
        assert np.array_equal(grp.mul_pairs(x[:, None], x[None, :]), g.mul_outer(x, x))
        assert np.array_equal(grp.mul_pairs(x, x[::-1]), g.mul_outer(x, x[::-1]).diagonal())


def test_index_variants(backends, index_variants):
    g, h = backends
    a, b = random_pairs(h)
    products = g.mul_outer(np.arange(g.order))
    for lookup, inv in index_variants(h, a, b).values():
        assert np.array_equal(lookup, products[a, b])
        assert np.array_equal(inv, g.inv)


def test_center_and_is_abelian(backends):
    g, h = backends
    center = slow_center(g)
    for grp in backends:
        assert grp.center().tolist() == center
        assert grp.is_abelian == (len(center) == g.order)


def test_quotients(backends, monkeypatch):
    g, h = backends
    quotients = {}
    for normal in g.normal_subgroups():
        q = quotients[normal] = g.quotient(normal)
        assert sorted(q.order_table().orders.tolist()) == slow_quotient_order_multiset(
            g, normal.indices().tolist()
        )
        other = h.quotient(normal)
        assert np.array_equal(other.table, q.table)
        assert other.labels == q.labels
    # one row per block in the coset and well-definedness loops
    monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", 1)
    for normal, q in quotients.items():
        for grp in backends:
            assert np.array_equal(grp.quotient(normal).table, q.table)


def test_abelian_subgroup_scan(backends):
    g, h = backends
    report = abelian_subgroup_scan(g)
    assert abelian_subgroup_scan(h) == report
    abelian = [
        s
        for s in all_subgroups(g)
        if all(g.mul(a, b) == g.mul(b, a) for a in s.indices().tolist() for b in s.indices().tolist())
    ]
    assert [s for s, _ in report.abelian_subgroups] == abelian


@pytest.mark.parametrize("threshold", [2, 3])
def test_involution_product_witness(backends, threshold):
    g, h = backends
    invol = [x for x in range(g.order) if slow_element_order(g, x) == 2]
    expected = next(
        (
            (a, b)
            for a in invol
            for b in invol
            if slow_element_order(g, g.mul(a, b)) > threshold
        ),
        None,
    )
    for grp in backends:
        wit = involution_product_witness(grp, threshold)
        if expected is None:
            assert wit is None
        else:
            a, b = expected
            assert (wit.a_index, wit.b_index) == expected
            assert (wit.a_order, wit.b_order) == (2, 2)
            assert wit.ab_order == slow_element_order(g, g.mul(a, b))


def test_distance_matrix(backends, monkeypatch):
    g, h = backends
    orders = [slow_element_order(g, x) for x in range(g.order)]
    expected = [
        [orders[g.mul(x, int(g.inv[y]))] - 1 for y in range(g.order)] for x in range(g.order)
    ]
    for grp in backends:
        assert distance_matrix(grp).tolist() == expected
    monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", 1)  # one row per block
    for grp in backends:
        assert distance_matrix(grp).tolist() == expected


def test_layer_check(backends):
    g, h = backends
    if g.is_p_group() is None:
        for grp in backends:
            with pytest.raises(ValueError):
                layer_check(grp)
        return
    report = layer_check(g)
    assert layer_check(h) == report
    orders = [slow_element_order(g, x) for x in range(g.order)]
    for row in report.rows:
        members = {x for x in range(g.order) if orders[x] <= row.threshold}
        closed = all(g.mul(a, b) in members for a in members for b in members)
        normal = closed and all(
            g.mul(g.mul(int(g.inv[t]), x), t) in members for t in range(g.order) for x in members
        )
        assert (row.size, row.is_subgroup, row.is_normal) == (len(members), closed, normal)


def test_classify(backends):
    g, h = backends
    assert classify(h) == classify(g)


def test_element_set_checks_in_one_row_slices(backends, monkeypatch, tableless_copy):
    """With CHECK_ENTRIES = 1 every block of the element-set checks is one
    row of one set; the lattice, the normal subgroups, the pair-condition
    and commutativity verdicts, the quotients and the layers stay the same
    on both backends."""
    g, h = backends

    def results(grp):
        subs = all_subgroups(grp)
        normals = grp.normal_subgroups()
        return (
            subs,
            normals,
            [pair_condition_verdicts(grp, subs, c).tolist() for _, c in PAIR_CONDITIONS],
            hereditary_check(grp, is_cp2),
            hereditary_check(grp, is_cp3),
            abelian_subgroup_scan(grp),
            [grp.quotient(n).table.tolist() for n in normals],
            layer_check(grp) if grp.is_p_group() is not None else None,
        )

    expected = results(g)
    assert results(h) == expected
    # fresh groups: the lattice is cached on the instance
    fresh = cg.FiniteGroup(
        table=g.table, perms=g.perms, labels=g.labels, name=g.name, source=g.source
    )
    fresh_tableless = tableless_copy(g)
    monkeypatch.setattr(cg.core, "CHECK_ENTRIES", 1)
    for grp in (fresh, fresh_tableless):
        assert results(grp) == expected
