"""Every catalog group of order <= 60 three ways, for the algorithms
written once on top of the multiplication primitives ``mul``,
``mul_pairs`` and ``mul_outer``: on its own backend (a formula or its
permutations), on a table backend built from its products, and as its
right regular representation on the permutation backend
(``tableless_copy``), all with the same element indices.  Each is also
compared with a slow pure-Python oracle.
"""

import numpy as np
import pytest

import cpgroups as cg
from cpgroups.core import _subgroup_words
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
from oracles import (
    slow_center,
    slow_conjugacy_classes,
    slow_element_order,
    slow_quotient_order_multiset,
)

NAMES = [e.name for e in cg.catalog_entries(60)]


def all_products(g):
    """The |G| x |G| array of every product x * y of g."""
    return g.mul_outer(np.arange(g.order))


def table_copy(g):
    """g on the table backend, same indices: the table of all its products."""
    table = all_products(g)
    h = cg.FiniteGroup(cg.core.TableBackend(table), labels=g.labels, name=g.name)
    assert h.perms is None
    return h


@pytest.fixture(params=NAMES)
def backends(request, tableless_copy):
    g = cg.group_from_spec(request.param)
    return g, table_copy(g), tableless_copy(g)


def test_mul_pairs_broadcasts(backends):
    g = backends[0]
    x = np.arange(g.order)
    for grp in backends:
        assert np.array_equal(grp.mul_pairs(x[:, None], x[None, :]), g.mul_outer(x, x))
        assert np.array_equal(grp.mul_pairs(x, x[::-1]), g.mul_outer(x, x[::-1]).diagonal())


def test_table_mul_matches_mul_pairs(backends):
    # a scalar product is a plain gather; arrays of products come back as int64
    table = backends[1]
    x = np.arange(table.order)
    products = table.mul_pairs(x[:, None], x[None, :])
    assert products.dtype == np.int64
    assert table.mul_outer(x).dtype == np.int64
    assert [[table.mul(a, b) for b in x.tolist()] for a in x.tolist()] == products.tolist()
    assert all(type(table.mul(a, a)) is int for a in x.tolist())


def test_index_variants(backends, index_variants):
    g, _, h = backends
    a, b = random_pairs(h)
    products = g.mul_outer(np.arange(g.order))
    for lookup, inv in index_variants(h, a, b).values():
        assert np.array_equal(lookup, products[a, b])
        assert np.array_equal(inv, g.inv)


def test_center_and_is_abelian(backends):
    g = backends[0]
    center = slow_center(g)
    for grp in backends:
        assert grp.center().tolist() == center
        assert grp.is_abelian == (len(center) == g.order)


def test_conjugacy_classes(backends):
    classes = slow_conjugacy_classes(backends[0])
    for grp in backends:
        found = grp.conjugacy_classes()
        assert [c.tolist() for c in found] == classes
        assert all(c.dtype == np.int64 for c in found)


def test_quotients(backends, monkeypatch):
    g = backends[0]
    quotients = {}
    for normal in g.normal_subgroups():
        q = quotients[normal] = g.quotient(normal)
        assert sorted(q.order_table().orders.tolist()) == slow_quotient_order_multiset(
            g, normal.indices().tolist()
        )
        for other in (grp.quotient(normal) for grp in backends[1:]):
            assert np.array_equal(all_products(other), all_products(q))
            assert other.labels == q.labels
    # one row per block in the coset and product loops
    monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", 1)
    for normal, q in quotients.items():
        for grp in backends:
            assert np.array_equal(all_products(grp.quotient(normal)), all_products(q))


def test_realized_subgroups_and_quotients_multiply_through_the_parent(backends):
    """A realized subgroup or quotient holds no table: its products are
    the parent's products of its members or coset representatives, read
    back as its own indices, on every backend."""
    for grp in backends:
        for s in all_subgroups(grp):
            idx = s.indices()
            sub = grp.subgroup(s)
            remap = np.full(grp.order, -1)
            remap[idx] = np.arange(len(idx))
            assert sub.table is None and sub.perms is None
            assert np.array_equal(all_products(sub), remap[grp.mul_outer(idx, idx)])
            assert np.array_equal(sub.inv, remap[grp.inv[idx]])
        for normal in grp.normal_subgroups():
            idx = normal.indices()
            q = grp.quotient(normal)
            # each element's coset, numbered by the smallest members of the cosets xN
            smallest = grp.mul_outer(np.arange(grp.order), idx).min(axis=1)
            firsts, coset_of = np.unique(smallest, return_inverse=True)
            assert q.table is None and q.perms is None
            assert np.array_equal(all_products(q), coset_of[grp.mul_outer(firsts, firsts)])


def test_abelian_subgroup_scan(backends):
    g = backends[0]
    report = abelian_subgroup_scan(g)
    assert all(abelian_subgroup_scan(grp) == report for grp in backends[1:])
    abelian = [
        s
        for s in all_subgroups(g)
        if all(g.mul(a, b) == g.mul(b, a) for a in s.indices().tolist() for b in s.indices().tolist())
    ]
    assert [s for s, _ in report.abelian_subgroups] == abelian


@pytest.mark.parametrize("threshold", [2, 3])
def test_involution_product_witness(backends, threshold):
    g = backends[0]
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
    g = backends[0]
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
    g = backends[0]
    if g.is_p_group() is None:
        for grp in backends:
            with pytest.raises(ValueError):
                layer_check(grp)
        return
    report = layer_check(g)
    assert all(layer_check(grp) == report for grp in backends[1:])
    orders = [slow_element_order(g, x) for x in range(g.order)]
    for row in report.rows:
        members = {x for x in range(g.order) if orders[x] <= row.threshold}
        closed = all(g.mul(a, b) in members for a in members for b in members)
        normal = closed and all(
            g.mul(g.mul(int(g.inv[t]), x), t) in members for t in range(g.order) for x in members
        )
        assert (row.size, row.is_subgroup, row.is_normal) == (len(members), closed, normal)


def test_classify(backends):
    report = classify(backends[0])
    assert all(classify(grp) == report for grp in backends[1:])


def test_element_set_checks_in_one_row_slices(backends, monkeypatch):
    """With CHECK_ENTRIES = 1 every block of the element-set checks is one
    row of one set; the lattice, the normal subgroups, the pair-condition
    and commutativity verdicts, the quotients and the layers stay the same
    on all three backends."""
    g = backends[0]

    def results(grp):
        subs = all_subgroups(grp)
        normals = grp.normal_subgroups()
        words, sizes = _subgroup_words(subs, grp.order)
        return (
            subs,
            normals,
            [pair_condition_verdicts(grp, words, sizes, c).tolist() for _, c in PAIR_CONDITIONS],
            hereditary_check(grp, is_cp2),
            hereditary_check(grp, is_cp3),
            abelian_subgroup_scan(grp),
            [all_products(grp.quotient(n)).tolist() for n in normals],
            layer_check(grp) if grp.is_p_group() is not None else None,
        )

    expected = results(g)
    assert all(results(grp) == expected for grp in backends[1:])
    # fresh groups from the same backends: the lattice is cached on the instance
    fresh = [cg.FiniteGroup(grp.backend, labels=g.labels, name=g.name) for grp in backends]
    monkeypatch.setattr(cg.core, "CHECK_ENTRIES", 1)
    for grp in fresh:
        assert results(grp) == expected
