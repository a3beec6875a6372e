"""Every subgroup of three host groups, realized and checked against the slow
oracles of ``tests/oracles.py``.

The hosts are S5 (156 subgroups), the Sylow 2-subgroup of S8, C2 wr C2 wr
C2 (576), and the Sylow 3-subgroup of S9, C3 wr C3 (50).  Each subgroup is
realized through the host's backend (:class:`core._ImageBackend`), and one
is kept per key (order, order multiset, class count): 50 groups of orders
1 to 128, among them many nonabelian ones the catalog lacks.  Every kept
group is compared with the oracles, its subgroup list included, with no
order bound: the largest, Syl2(S8) itself, takes about 1 s of
``slow_subgroups``.  The quotient by the derived subgroup realizes a group
through a realized one.
"""

import numpy as np
import pytest

import cpgroups as cg
from cpgroups.core import _subgroup_words
from cpgroups.metric import cp2_pair_holds, cp3_pair_holds, is_cp2, is_cp3
from cpgroups.subgroups import abelian_subgroup_scan, all_subgroups, pair_condition_verdicts

from oracles import (
    slow_conjugacy_sizes,
    slow_derived_series,
    slow_element_orders,
    slow_is_simple,
    slow_pair_witness,
    slow_quotient_order_multiset,
    slow_subgroups,
    square_commuting_verdicts,
    square_pair_verdicts,
)

_HOSTS = {
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "Syl2(S8)": (8, ["(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)"]),
    "Syl3(S9)": (9, ["(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)"]),
}


@pytest.fixture(scope="module")
def hosts():
    return {
        name: cg.generate_group([cg.parse_cycles(c, degree) for c in cycles], name=name)
        for name, (degree, cycles) in _HOSTS.items()
    }


@pytest.fixture(scope="module")
def kept(hosts):
    """Per key (order, order multiset, class count), the first subgroup found
    with it, as (host, its members in the host, the realized group)."""
    out = {}
    for host in hosts.values():
        for sub in all_subgroups(host):
            h = host.subgroup(sub)
            key = (h.order, tuple(np.bincount(h.order_table().orders).tolist()), len(h.conjugacy_classes()))
            out.setdefault(key, (host, sub.indices(), h))
    return out


def test_hosts_and_keys(hosts, kept):
    assert [len(all_subgroups(g)) for g in hosts.values()] == [156, 576, 50]
    assert len(kept) == 50
    assert sorted({key[0] for key in kept}) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 20, 24, 27, 32, 60, 64, 81, 120, 128]
    assert sum(not h.is_abelian for _, _, h in kept.values()) > 30


def test_products_and_inverses_are_the_hosts(kept):
    for key, (host, idx, h) in kept.items():
        position = np.full(host.order, -1)
        position[idx] = np.arange(len(idx))
        assert np.array_equal(h.mul_outer(np.arange(h.order)), position[host.mul_outer(idx, idx)]), key
        assert np.array_equal(idx[h.inv], host.inv[idx]), key
        assert (h.mul_pairs(np.arange(h.order), h.inv) == 0).all(), key


def test_element_orders(kept):
    for key, (_, _, h) in kept.items():
        assert h.order_table().orders.tolist() == slow_element_orders(h), key


def test_cp2_and_cp3_witnesses(kept):
    for key, (_, _, h) in kept.items():
        for predicate, holds in ((is_cp2, cp2_pair_holds), (is_cp3, cp3_pair_holds)):
            ok, witness = predicate(h)
            expected = slow_pair_witness(h, holds)
            assert ok == (expected is None), key
            if expected is not None:
                assert (witness.a_index, witness.b_index) == expected, key


def test_class_sizes(kept):
    for key, (_, _, h) in kept.items():
        assert sorted(len(c) for c in h.conjugacy_classes()) == slow_conjugacy_sizes(h), key


def test_derived_series_and_simplicity(kept):
    for key, (_, _, h) in kept.items():
        fast = [s.indices().tolist() for s in h.derived_series()]
        assert fast == [sorted(members) for members in slow_derived_series(h)], key
        assert h.is_simple() == slow_is_simple(h), key


def test_subgroup_lists(kept):
    for key, (_, _, h) in kept.items():
        assert sorted(tuple(s.indices().tolist()) for s in all_subgroups(h)) == slow_subgroups(h), key


def test_pair_verdicts_on_every_subgroup(kept):
    # CP2, CP3 and a condition that is not symmetric in a and b, and
    # commutativity, from one scan of each group's pairs against every
    # subgroup's own square of products
    conditions = [cp2_pair_holds, cp3_pair_holds, lambda oa, ob, oab: oab < 2 * oa + ob]
    for key, (_, _, h) in kept.items():
        subs = all_subgroups(h)
        words, _ = _subgroup_words(subs, h.order)
        for condition in conditions:
            verdicts = pair_condition_verdicts(h, words, condition).tolist()
            assert verdicts == square_pair_verdicts(h, subs, condition), key
        abelian = {s for s, _ in abelian_subgroup_scan(h).abelian_subgroups}
        assert [s in abelian for s in subs] == square_commuting_verdicts(h, subs), key


def test_abelianization_through_a_realized_group(kept):
    quotients = 0
    for key, (_, _, h) in kept.items():
        series = h.derived_series()
        if len(series) < 2 or series[1].size == 1:
            continue
        derived = series[1].indices()
        q = h.quotient(derived)
        assert q.is_abelian, key
        expected = slow_quotient_order_multiset(h, derived.tolist())
        assert sorted(q.order_table().orders.tolist()) == expected, key
        quotients += 1
    assert quotients > 20
