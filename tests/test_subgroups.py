import io
import tracemalloc

import numpy as np
import pytest

import cpgroups as cg
from cpgroups import CapExceededError
from cpgroups.core import _subgroup_words, _words
from cpgroups.metric import cp2_pair_holds, cp3_pair_holds, is_cp, is_cp2, is_cp3
import cpgroups.subgroups as subgroups_module
from cpgroups.subgroups import (
    abelian_subgroup_scan,
    all_subgroups,
    hereditary_check,
    pair_condition_verdicts,
    quotient_condition_verdicts,
    quotient_scan,
    write_subgroup_list,
)

from oracles import (
    brute_force_subgroup_count,
    slow_quotient_order_multiset,
    square_commuting_verdicts,
    square_pair_verdicts,
)

# CP2, CP3 and two conditions that are not symmetric in a and b
CONDITIONS = [
    cp2_pair_holds,
    cp3_pair_holds,
    lambda oa, ob, oab: oab <= oa,
    lambda oa, ob, oab: oab < 2 * oa + ob,
]


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


class TestAllSubgroups:
    def test_z6_has_one_per_divisor(self, z6):
        assert [s.size for s in all_subgroups(z6)] == [1, 2, 3, 6]

    def test_s3_six_subgroups(self, s3):
        assert [s.size for s in all_subgroups(s3)] == [1, 2, 2, 2, 3, 6]

    def test_q8_six_subgroups_all_proper_cyclic(self, q8):
        subs = all_subgroups(q8)
        assert [s.size for s in subs] == [1, 2, 4, 4, 4, 8]
        # every proper subgroup is cyclic: it contains an element of its own order
        orders = q8.order_table().orders
        for s in subs:
            if s.size in (1, 8):
                continue
            assert any(int(orders[i]) == s.size for i in s.indices())

    def test_a5_lattice_profile(self, a5):
        # hand count: 1 trivial, 15 C2, 10 C3, 5 V4, 6 C5, 10 S3, 6 D10,
        # 5 A4, and A5 itself = 59 subgroups
        from collections import Counter

        subs = all_subgroups(a5)
        assert len(subs) == 59
        assert sorted(Counter(s.size for s in subs).items()) == [
            (1, 1), (2, 15), (3, 10), (4, 5), (5, 6), (6, 10), (10, 6), (12, 5), (60, 1),
        ]

    def test_counts_match_brute_force_small(self):
        for spec in ("cyclic:8", "cyclic:12", "symmetric:3", "dicyclic:8", "elemab:2^3", "alternating:4"):
            g = cg.group_from_spec(spec)
            assert len(all_subgroups(g)) == brute_force_subgroup_count(g), spec

    def test_cyclic_count_equals_divisor_count(self):
        for n in range(1, 101):
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(all_subgroups(cg.cyclic(n))) == divisors

    def test_lattice_closed_under_intersection(self, s4, q8):
        for g in (s4, q8, cg.dihedral(6)):
            masks = {s.mask for s in all_subgroups(g)}
            for a in masks:
                for b in masks:
                    assert (a & b) in masks

    def test_every_subgroup_contains_identity_and_divides(self, s4):
        for s in all_subgroups(s4):
            assert s.contains(0)
            assert s4.order % s.size == 0

    @pytest.mark.parametrize("p,k", [(2, 6), (3, 4)])
    def test_elementary_abelian_counts_are_gaussian_binomial_sums(self, p, k):
        # the subgroups of (Z_p)^k are its subspaces: sum over d of [k choose d]_p
        expected = 0
        for d in range(k + 1):
            count = 1
            for i in range(d):
                count = count * (p ** (k - i) - 1) // (p ** (i + 1) - 1)
            expected += count
        subs = all_subgroups(cg.elementary_abelian(p, k))
        assert len(subs) == expected == {(2, 6): 2825, (3, 4): 212}[(p, k)]
        assert len({s.mask for s in subs}) == len(subs)

    @staticmethod
    def _join_closure_words(monkeypatch, g, cap=cg.core.SUBGROUP_CAP):
        made = []
        join_closure = subgroups_module._join_closure

        def record(*args):
            made.append(join_closure(*args))
            return made[-1]

        monkeypatch.setattr(subgroups_module, "_join_closure", record)
        all_subgroups(g, cap)
        ((words, sizes),) = made
        assert words.dtype == np.uint64 and words.shape == (len(sizes), -(-g.order // 64))
        return words

    def test_each_subspace_made_once(self, monkeypatch):
        # a subgroup is kept only as the child of its canonical parent, so
        # the join closure of (Z_2)^7 makes each of its 29,212 subspaces once
        words = self._join_closure_words(monkeypatch, cg.elementary_abelian(2, 7))
        assert len(words) == 29212
        assert len(np.unique(words, axis=0)) == len(words)

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_each_subgroup_made_once(self, monkeypatch, name):
        # in (Z_2)^k the coset test alone decides the parent; here the test
        # min(K \ H) == a is needed too
        words = self._join_closure_words(monkeypatch, cg.group_from_spec(name))
        assert len(np.unique(words, axis=0)) == len(words)

    @pytest.mark.parametrize(
        "name",
        [e.name for e in cg.catalog_entries(60) if not e.abelian]
        + ["symmetric:7", "alternating:7", "psl2:17"],
    )
    def test_each_normal_subgroup_made_once(self, name):
        rows = cg.group_from_spec(name)._normal_rows()
        assert len(np.unique(rows, axis=0)) == len(rows)

    @pytest.mark.parametrize(
        "spec,cap,count",
        [(f"dihedral:{2 * n}", 400, _tau(n) + _sigma(n)) for n in range(1, 101)]
        + [(f"dicyclic:{4 * n}", 400, _tau(2 * n) + _sigma(n)) for n in range(1, 51)]
        + [
            ("dihedral:400", 400, 477),
            ("dicyclic:400", 400, 229),
            ("psl2:7", 400, 179),
            ("psl2:8", 504, 386),
            ("symmetric:5", 400, 156),
            ("alternating:6", 400, 501),
        ],
    )
    def test_counts_beyond_the_oracle(self, monkeypatch, spec, cap, count):
        # D_2n has tau(n) + sigma(n) subgroups and Dic_4n tau(2n) + sigma(n),
        # each made once
        words = self._join_closure_words(monkeypatch, cg.group_from_spec(spec), cap)
        assert len(np.unique(words, axis=0)) == len(words) == count

    def test_nonabelian_joins_come_a_block_at_a_time(self, monkeypatch):
        # with CHECK_ENTRIES = 480 a join graph of S4 holds at most 120
        # edges, as many rows of 24 edges a generator as fit, some batches
        # take several graphs, and no product exceeds 480; the lattice is
        # the one made with the default blocks
        g = cg.symmetric(4)
        expected = self._join_closure_words(monkeypatch, g)
        monkeypatch.undo()
        g = cg.symmetric(4)
        monkeypatch.setattr(cg.core, "CHECK_ENTRIES", 480)
        monkeypatch.setattr(subgroups_module, "CHECK_ENTRIES", 480)
        batches, graphs, formed = [], [], []
        coset_roots, orbit_roots = subgroups_module._coset_roots, cg.core._orbit_roots
        mul_pairs = g.backend.mul_pairs

        def batch(maps, gens):
            batches.append(len(gens))
            return coset_roots(maps, gens)

        def recording(maps, starts):
            graphs.append(np.broadcast(maps, starts).size)
            return orbit_roots(maps, starts)

        def counting(a, b):
            formed.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return mul_pairs(a, b)

        monkeypatch.setattr(subgroups_module, "_coset_roots", batch)
        monkeypatch.setattr(cg.core, "_orbit_roots", recording)
        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        assert np.array_equal(self._join_closure_words(monkeypatch, g), expected)
        assert max(graphs) <= 120 and max(formed) <= 480
        assert len(graphs) > len(batches)

    @pytest.mark.parametrize(
        "spec,atoms", [("cyclic:128", 7), ("elemab:2^7", 127), ("symmetric:4", 16)]
    )
    def test_one_map_per_atom_and_no_other_product(self, monkeypatch, spec, atoms):
        # one atom per nontrivial cyclic subgroup, each forming its map
        # x -> x*a; the powers, the generators and the abelian shifts are
        # read off those maps, so nothing else is multiplied before the check
        g = cg.group_from_spec(spec)
        g.order_table(), g._generators(), g.is_abelian
        formed = []
        mul_pairs = g.backend.mul_pairs

        def counting(a, b):
            formed.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return mul_pairs(a, b)

        class Checked(Exception):
            pass

        def stop(*_):
            raise Checked

        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        monkeypatch.setattr(subgroups_module, "closure_verdicts", stop)
        with pytest.raises(Checked):
            all_subgroups(g)
        assert sum(formed) == atoms * g.order

    @pytest.mark.parametrize(
        "spec,size,limit", [("cyclic:4096", 13, 4 << 20), ("dihedral:1000", 1104, 6_000_000)]
    )
    def test_no_n_by_n_array(self, spec, size, limit):
        # the join closure alone, after a warm-up call (the first call in a
        # process pulls in numpy modules).  cyclic:4096 peaks at 1.6 MB, where
        # an n x n bool matrix takes 16.8 MB.  dihedral:1000 peaks at 4.6 MB:
        # its 511 int32 maps (2.0 MB) and the bool below rows (0.5 MB) are
        # held through the joins; int64 maps would break the bound
        subgroups_module._join_closure(cg.group_from_spec("dihedral:12"))
        g = cg.group_from_spec(spec)
        g.order_table(), g._generators(), g.is_abelian
        tracemalloc.start()
        try:
            _, sizes = subgroups_module._join_closure(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sizes) == size
        assert peak < limit

    @pytest.mark.parametrize("normal", [False, True])
    def test_a_row_that_is_not_closed_is_refused(self, monkeypatch, normal):
        # {e, x} with o(x) = 3 is not closed, and it joins the batch of the
        # three subgroups of order 2 in S3
        g = cg.symmetric(3)
        x = int(np.flatnonzero(g.order_table().orders == 3)[0])
        self._add_row(monkeypatch, g, [0, x], normal)
        with pytest.raises(RuntimeError, match="failed"):
            g.normal_subgroups() if normal else all_subgroups(g)

    def test_a_row_that_is_not_normal_is_refused(self, monkeypatch):
        g = cg.symmetric(3)
        t = int(np.flatnonzero(g.order_table().orders == 2)[0])
        self._add_row(monkeypatch, g, [0, t], normal=True)
        with pytest.raises(RuntimeError, match="normal subgroup failed validation"):
            g.normal_subgroups()

    @staticmethod
    def _add_row(monkeypatch, g, members, normal):
        # one more row from the enumeration: a member row from the class-set
        # fixed point of a nonabelian group's normal subgroups, or a row of
        # words and its size from the lattice's join closure
        extra = np.zeros((1, g.order), dtype=bool)
        extra[0, members] = True
        if normal:
            owner, name = cg.FiniteGroup, "_normal_rows"

            def with_extra_row(*args):
                return np.concatenate([enumerate_rows(*args), extra])

        else:
            owner, name = subgroups_module, "_join_closure"

            def with_extra_row(*args):
                words, sizes = enumerate_rows(*args)
                return np.concatenate([words, _words(extra)]), np.append(sizes, len(members))

        enumerate_rows = getattr(owner, name)
        monkeypatch.setattr(owner, name, with_extra_row)

    def test_cap_is_structured_error(self):
        with pytest.raises(CapExceededError):
            all_subgroups(cg.cyclic(401))

    def test_sorted_by_size_then_bitset(self, s4):
        subs = all_subgroups(s4)
        assert subs == sorted(subs, key=lambda s: (s.size, s.mask))

    def test_hex_export(self, z6):
        buf = io.StringIO()
        write_subgroup_list(all_subgroups(z6), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[0] == "1"  # trivial subgroup: bit 0 only
        assert all(int(line, 16) & 1 for line in lines)


class TestHereditaryCheck:
    def test_a4_cp3_hereditary(self, a4):
        report = hereditary_check(a4, is_cp3)
        assert report.applicable
        assert report.subgroups_checked == 10
        assert report.ok

    def test_s4_cp_hereditary(self, s4):
        report = hereditary_check(s4, is_cp)
        assert report.applicable and report.ok
        assert report.subgroups_checked == 30

    def test_a_passing_check_keeps_the_lattice_packed(self, monkeypatch):
        # the lattice of (Z_2)^7 stays cached as 29,212 read-only rows of two
        # 64-bit words, and a check with no violation makes no SubgroupSet
        def refuse(*_, **__):
            raise AssertionError("a SubgroupSet was made")

        # the imports and caches of a first check are not the lattice's
        hereditary_check(cg.elementary_abelian(2, 3), is_cp3)
        monkeypatch.setattr(cg.core, "SubgroupSet", refuse)
        tracemalloc.start()
        try:
            g = cg.elementary_abelian(2, 7)
            report = hereditary_check(g, is_cp3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.applicable and report.ok and report.subgroups_checked == 29212
        words, sizes = subgroups_module._lattice(g, cg.core.SUBGROUP_CAP)
        assert words.dtype == np.uint64 and words.shape == (29212, 2)
        assert not words.flags.writeable and not sizes.flags.writeable
        assert held < 1 << 20

    def test_z6_inapplicable(self, z6):
        report = hereditary_check(z6, is_cp3)
        assert not report.applicable
        assert report.subgroups_checked == 0
        assert report.ok

    def test_pair_order_predicates_use_the_parent_order_table(self, a4, q8, s4, monkeypatch):
        def refuse(*_):
            raise AssertionError("subgroup realized for a pair-order predicate")

        monkeypatch.setattr(cg.FiniteGroup, "subgroup", refuse)
        for g, predicate in ((a4, is_cp3), (q8, is_cp2), (s4, is_cp)):
            report = hereditary_check(g, predicate)
            assert report.applicable and report.ok
            assert report.subgroups_checked == len(all_subgroups(g))

    def test_unhashable_predicate_runs_on_realized_subgroups(self, a4):
        class AtLeastTwo:
            __hash__ = None

            def __call__(self, g):
                return g.order >= 2

        report = hereditary_check(a4, AtLeastTwo())
        assert report.applicable and [s.size for s in report.violations] == [1]

    def test_violations_reported_for_contrived_predicate(self, s4):
        report = hereditary_check(s4, lambda g: g.order > 3)
        assert report.applicable and not report.ok
        assert all(s.size <= 3 for s in report.violations)


class TestPairConditionsOnSubgroups:
    """The order-table verdicts of hereditary_check against realized subgroups."""

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_batched_verdicts_match_realized_subgroups(self, name, tableless_copy):
        g = cg.group_from_spec(name)
        subs = all_subgroups(g)
        words, _ = _subgroup_words(subs, g.order)
        realized = [g.subgroup(s) for s in subs]
        expected = {
            cp2_pair_holds: [is_cp2(h)[0] for h in realized],
            cp3_pair_holds: [is_cp3(h)[0] for h in realized],
        }
        # the word AND of hereditary_check against is_cp on each subgroup
        not_cp = tuple(s for s, h in zip(subs, realized) if not is_cp(h)[0])
        for grp in (g, tableless_copy(g)):
            for condition, verdicts in expected.items():
                assert pair_condition_verdicts(grp, words, condition).tolist() == verdicts
            report = hereditary_check(grp, is_cp)
            assert report.applicable == is_cp(g)[0]
            assert report.violations == (not_cp if report.applicable else ())

    def test_violations_are_seen_in_s4(self, s4):
        # S4 is neither CP2 nor CP3, nor are S3 and D8 CP2
        subs = all_subgroups(s4)
        words, _ = _subgroup_words(subs, s4.order)
        cp2 = [s.size for s, ok in zip(subs, pair_condition_verdicts(s4, words, cp2_pair_holds)) if not ok]
        cp3 = [s.size for s, ok in zip(subs, pair_condition_verdicts(s4, words, cp3_pair_holds)) if not ok]
        assert 24 in cp3 and 24 in cp2
        assert {6, 8} <= set(cp2)


class TestPairVerdictsFromOneScan:
    """The verdicts read from one scan of the parent's pairs against each
    subgroup's own |H|^2 products (the square-route oracles)."""

    @pytest.mark.parametrize("name", ["symmetric:4", "symmetric:5", "dihedral:30", "psl2:5"])
    @pytest.mark.parametrize("check_entries", [cg.core.CHECK_ENTRIES, 1])
    def test_failing_parents_match_the_square_route(self, name, check_entries, monkeypatch):
        # each parent fails CP2 and CP3, so its subgroups take both verdicts
        g = cg.group_from_spec(name)
        subs = all_subgroups(g)
        words, _ = _subgroup_words(subs, g.order)
        monkeypatch.setattr(subgroups_module, "CHECK_ENTRIES", check_entries)
        for condition in CONDITIONS:
            verdicts = pair_condition_verdicts(g, words, condition).tolist()
            assert verdicts == square_pair_verdicts(g, subs, condition)
        for condition in (cp2_pair_holds, cp3_pair_holds):
            assert {True, False} == set(pair_condition_verdicts(g, words, condition).tolist())
        abelian = {s for s, _ in abelian_subgroup_scan(g).abelian_subgroups}
        assert [s in abelian for s in subs] == square_commuting_verdicts(g, subs)

    def test_element_sets_that_are_not_subgroups(self):
        # the verdicts hold for any element sets: random subsets of S5, of
        # random density
        g = cg.symmetric(5)
        rng = np.random.default_rng(4)
        rows = rng.random((200, g.order)) < rng.random((200, 1))
        subs = [cg.SubgroupSet.from_indices(np.flatnonzero(r)) for r in rows]
        words, _ = _subgroup_words(subs, g.order)
        for condition in CONDITIONS:
            verdicts = pair_condition_verdicts(g, words, condition).tolist()
            assert verdicts == square_pair_verdicts(g, subs, condition)
            assert len(set(verdicts)) == 2
        # (x, y) fails when x * y != y * x
        every = np.arange(g.order)
        commuting = subgroups_module._pair_verdicts(g, words, lambda x, xy: xy != g.mul_outer(every, x).T)
        assert commuting.tolist() == square_commuting_verdicts(g, subs)

    @staticmethod
    def _counted_products(monkeypatch, g):
        formed = []
        mul_pairs = g.backend.mul_pairs

        def counting(a, b):
            formed.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return mul_pairs(a, b)

        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        return formed

    def test_lattice_of_elemab_2_7_takes_one_square_of_products(self, monkeypatch):
        # 29,212 subgroups with 7,090,285 products among their squares, and
        # 128^2 pairs in the group
        g = cg.elementary_abelian(2, 7)
        words, _ = subgroups_module._lattice(g, cg.core.SUBGROUP_CAP)
        g.order_table()
        formed = self._counted_products(monkeypatch, g)
        for condition in (cp2_pair_holds, cp3_pair_holds):
            formed.clear()
            assert pair_condition_verdicts(g, words, condition).all()
            assert sum(formed) <= 128 * 128

    def test_commutativity_of_s4_takes_two_squares_of_products(self, monkeypatch):
        # x * y and y * x for every pair of S4: 2 * 24^2 products
        g = cg.symmetric(4)
        all_subgroups(g), g.is_abelian
        formed = self._counted_products(monkeypatch, g)
        report = abelian_subgroup_scan(g)
        assert sum(formed) <= 2 * 24 * 24
        assert sorted(s.size for s, _ in report.abelian_subgroups) == [1] + [2] * 9 + [3] * 4 + [4] * 7

    def test_one_scan_of_the_parent_when_no_pair_fails(self, monkeypatch):
        # a CP3 parent has no failing pair, so no subgroup's words are read
        g = cg.elementary_abelian(2, 5)
        words, _ = subgroups_module._lattice(g, cg.core.SUBGROUP_CAP)

        def refuse(*_):
            raise AssertionError("read the members of a set")

        monkeypatch.setattr(subgroups_module, "_members", refuse)
        assert pair_condition_verdicts(g, words, cp3_pair_holds).all()
        assert hereditary_check(g, is_cp3).ok


class TestAbelianSubgroupScan:
    def test_q8_all_abelian_subgroups_are_2_groups(self, q8):
        report = abelian_subgroup_scan(q8)
        assert report.verdict
        # Q8 is nonabelian, so the full group is not among the abelian entries
        assert all(s.size < 8 for s, _ in report.abelian_subgroups)
        assert all(flag in (2, "trivial") for _, flag in report.abelian_subgroups)

    def test_s3_abelian_subgroup_orders(self, s3):
        report = abelian_subgroup_scan(s3)
        assert report.verdict
        assert sorted(s.size for s, _ in report.abelian_subgroups) == [1, 2, 2, 2, 3]

    def test_z6_fails_on_itself(self, z6):
        report = abelian_subgroup_scan(z6)
        assert not report.verdict
        bad = [s for s, flag in report.abelian_subgroups if flag is None]
        assert [s.size for s in bad] == [6]


class TestQuotientScan:
    def test_trivial_and_full_quotients(self, a4):
        report = quotient_scan(a4, is_cp3)
        assert report.parent_holds
        by_size = {row.normal.size: row for row in report.rows}
        assert by_size[1].holds == report.parent_holds
        assert by_size[a4.order].quotient_order == 1
        assert by_size[a4.order].holds

    def test_a4_mod_v4_is_z3_in_cp3(self, a4):
        report = quotient_scan(a4, is_cp3)
        v4_row = [r for r in report.rows if r.normal.size == 4][0]
        assert v4_row.quotient_order == 3
        assert v4_row.holds

    def test_not_conclusive(self, a4):
        report = quotient_scan(a4, is_cp3)
        assert not report.conclusive
        assert report.counterexamples == ()

    def test_counterexamples_empty_when_parent_fails(self, z6):
        report = quotient_scan(z6, is_cp3)
        assert not report.parent_holds
        assert report.counterexamples == ()


def _realized_rows(g, predicate):
    """The rows of quotient_scan with every quotient realized as a group."""
    rows = []
    for normal in g.normal_subgroups():
        q = g.quotient(normal)
        result = predicate(q)
        rows.append((normal, q.order, bool(result[0] if isinstance(result, tuple) else result)))
    return rows


def _scan_rows(report):
    return [(row.normal, row.quotient_order, row.holds) for row in report.rows]


class TestQuotientVerdicts:
    """The coset-order verdicts of quotient_scan against realized quotients."""

    @pytest.mark.parametrize(
        "name",
        [e.name for e in cg.catalog_entries(60)] + ["psl2:7", "alternating:5", "dicyclic:96"],
    )
    def test_rows_match_realized_quotients(self, name, tableless_copy):
        g = cg.group_from_spec(name)
        for predicate in (is_cp2, is_cp3):
            expected = _realized_rows(g, predicate)
            for grp in (g, tableless_copy(g)):
                assert _scan_rows(quotient_scan(grp, predicate)) == expected, predicate.__name__

    @pytest.mark.parametrize(
        "spec,size",
        [("symmetric:4", 4), ("alternating:4", 4), ("dicyclic:8", 2)],
    )
    def test_coset_orders_match_the_coset_oracle(self, spec, size):
        # S4/V4 ~ S3, A4/V4 ~ Z3 and Q8/Z(Q8) ~ V4; each coset's order
        # appears once per member of the coset
        g = cg.group_from_spec(spec)
        (normal,) = [s for s in g.normal_subgroups() if s.size == size]
        coset_orders = subgroups_module._coset_orders(g, [normal])[g._class_ids(), 0]
        expected = slow_quotient_order_multiset(g, normal.indices().tolist())
        assert sorted(coset_orders.tolist()) == np.repeat(expected, size).tolist()

    def test_pair_predicates_build_no_quotient(self, a4, q8, s4, monkeypatch):
        def refuse(*_):
            raise AssertionError("quotient realized for a pair-order predicate")

        monkeypatch.setattr(cg.FiniteGroup, "quotient", refuse)
        for g in (a4, q8, s4, cg.elementary_abelian(2, 4)):
            for predicate in (is_cp2, is_cp3):
                report = quotient_scan(g, predicate)
                assert [r.normal for r in report.rows] == g.normal_subgroups()

    def test_other_predicates_realize_every_quotient(self, s4, monkeypatch):
        def is_abelian(q):
            return q.is_abelian

        expected = _realized_rows(s4, is_abelian)
        assert [holds for _, _, holds in expected] == [False, False, True, True]
        quotients = []
        quotient = cg.FiniteGroup.quotient

        def counting(g, normal):
            quotients.append(normal)
            return quotient(g, normal)

        monkeypatch.setattr(cg.FiniteGroup, "quotient", counting)
        assert _scan_rows(quotient_scan(s4, is_abelian)) == expected
        assert quotients == s4.normal_subgroups()

    def test_every_normal_subgroup_is_still_certified(self, monkeypatch):
        g = cg.symmetric(3)
        t = int(np.flatnonzero(g.order_table().orders == 2)[0])
        TestAllSubgroups._add_row(monkeypatch, g, [0, t], normal=True)
        with pytest.raises(RuntimeError, match="normal subgroup failed validation"):
            quotient_scan(g, is_cp3)

    @pytest.mark.parametrize("predicate", [is_cp2, is_cp3])
    def test_quotients_above_the_table_limit(self, predicate):
        # S7/1 has order 5040, above TABLE_LIMIT: the verdicts read S7's
        # classes, and the realized quotients multiply through S7
        g = cg.symmetric(7)
        rows = _scan_rows(quotient_scan(g, predicate))
        assert [holds for *_, holds in rows] == [False, True, True]
        assert rows == _realized_rows(g, lambda q: predicate(q))

    def test_verdicts_form_at_most_k_products_per_element(self, monkeypatch):
        # S7/A7 and S7/S7 come from the products of the 14 nontrivial class
        # representatives with every element and the powers of the 15
        # representatives: at most k * |G| = 15 * 5040 products, not the
        # 5040^2 pairs of S7
        normals = cg.symmetric(7).normal_subgroups(cap=100000)[1:]
        g = cg.symmetric(7)
        g.conjugacy_classes(), g.order_table()  # cached before the count
        formed = []
        mul_pairs = g.backend.mul_pairs

        def counting(a, b):
            out = mul_pairs(a, b)
            formed.append(np.size(out))
            return out

        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        assert quotient_condition_verdicts(g, normals, cp3_pair_holds).tolist() == [True, True]
        assert sum(formed) <= len(g.conjugacy_classes()) * g.order

    def test_abelian_triples_are_read_a_block_at_a_time(self, monkeypatch):
        # Z120 has 120 classes and 120^2 class triples: with CHECK_ENTRIES =
        # 480 they come 4 classes (480 products) a block, none kept after
        g = cg.cyclic(120)
        normals = g.normal_subgroups()
        expected = [holds for *_, holds in _realized_rows(g, is_cp3)]
        assert not all(expected) and any(expected)
        monkeypatch.setattr(cg.core, "CHECK_ENTRIES", 480)
        monkeypatch.setattr(subgroups_module, "CHECK_ENTRIES", 480)
        blocks, formed = [], []
        class_products, mul_pairs = g._class_products, g.backend.mul_pairs

        def recording():
            for block in class_products():
                blocks.append(len(block[0]))
                yield block

        def counting(a, b):
            formed.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return mul_pairs(a, b)

        monkeypatch.setattr(g, "_class_products", recording)
        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        assert quotient_condition_verdicts(g, normals, cp3_pair_holds).tolist() == expected
        assert sum(blocks) == g.order**2 and len(blocks) == 1 + 119 // 4 + 1
        assert max(blocks) <= 480 and max(formed) <= 480
