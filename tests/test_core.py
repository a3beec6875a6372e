import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpgroups as cg
from cpgroups import CapExceededError, Permutation, parse_cycles
from cpgroups.subgroups import all_subgroups

from conftest import _INDEX_VARIANTS, random_pairs
from oracles import (
    _slow_closure,
    all_triples_witness,
    eager_labels,
    slow_coset_labels,
    slow_generate_perms,
    quaternion_unit_order_multiset,
    rowwise_lookup_table,
    slow_center,
    slow_conjugacy_sizes,
    slow_derived_series,
    slow_derived_series_sizes,
    slow_element_order,
    slow_element_orders,
    slow_is_simple,
    slow_normal_subgroups,
    slow_perm_order,
    slow_perm_parity,
    slow_perm_table,
    slow_quotient_order_multiset,
    slow_subgroups,
)


class TestGenerateGroup:
    def test_s3_from_transposition_and_three_cycle(self):
        g = cg.generate_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        assert g.order == 6

    def test_cyclic_from_one_generator(self):
        g = cg.generate_group([parse_cycles("(1 2 3)", 3)])
        assert g.order == 3

    def test_klein_group_closure(self):
        a = parse_cycles("(1 2)(3 4)", 4)
        b = parse_cycles("(1 3)(2 4)", 4)
        # hand closure: e, a, b and the product a*b
        expected = {Permutation.identity(4), a, b, a * b}
        assert len(expected) == 4
        g = cg.generate_group([a, b])
        assert g.order == 4
        assert {Permutation(row) for row in g.perms} == expected

    def test_identity_gets_index_zero(self):
        g = cg.generate_group([parse_cycles("(1 2)", 4)])
        assert g.labels[0] == "e"

    def test_generator_order_does_not_change_group(self):
        gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
        g1 = cg.generate_group(gens)
        g2 = cg.generate_group(list(reversed(gens)))
        assert g1.order == g2.order == 24
        assert sorted(g1.order_table().orders.tolist()) == sorted(
            g2.order_table().orders.tolist()
        )

    def test_element_cap(self):
        with pytest.raises(CapExceededError):
            cg.generate_group(
                [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)], cap=1000
            )

    @pytest.mark.parametrize(
        "case",
        ["S5", "A6", "PSL(2,7)", "dihedral on 300 points", "(1 2) on 70000", "(69999 70000)", "1000-cycle"],
    )
    def test_matches_set_based_bfs(self, case):
        if case == "S5":
            gens = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
        elif case == "A6":
            gens = [parse_cycles("(1 2 3)", 6), parse_cycles("(2 3 4 5 6)", 6)]
        elif case == "PSL(2,7)":
            psl = cg.psl2(7)
            gens = [Permutation(psl.perms[i]) for i in psl._generators()]
        elif case == "dihedral on 300 points":
            # rows wider than one byte: 16-bit points, compared big-endian
            gens = [Permutation(np.roll(np.arange(300), -1)), Permutation(np.arange(300)[::-1])]
        elif case == "(1 2) on 70000":
            gens = [parse_cycles("(1 2)", 70000)]
        elif case == "1000-cycle":
            # 1000 levels of one element each, the keys held in sorted runs
            gens = [Permutation(np.roll(np.arange(1000), -1))]
        else:
            gens = [parse_cycles("(69999 70000)", 70000)]
        g = cg.generate_group(gens)
        expected = slow_generate_perms(gens)
        assert g.perms.dtype == np.min_scalar_type(gens[0].degree - 1)
        assert np.array_equal(g.perms, expected)

    def test_mul_agrees_with_composition(self, s4):
        rng = np.random.default_rng(7)
        for _ in range(50):
            i, j = rng.integers(0, s4.order, 2)
            composed = Permutation(s4.perms[i]) * Permutation(s4.perms[j])
            assert Permutation(s4.perms[s4.mul(int(i), int(j))]) == composed


class TestFromCayley:
    def test_trivial_group(self):
        g = cg.from_cayley([[0]])
        assert g.order == 1

    def test_z2(self):
        g = cg.from_cayley([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.order_table().orders.tolist() == [1, 2]

    def test_non_associative_rejected(self):
        # Z5 table with two entries swapped: identity and inverses survive,
        # associativity does not ((1*2)*1 != 1*(2*1))
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        table[1][2], table[1][3] = table[1][3], table[1][2]
        with pytest.raises(ValueError, match="associative"):
            cg.from_cayley(table)

    def test_identity_not_first_rejected(self):
        table = [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            cg.from_cayley(table)

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            cg.from_cayley([[0, 1], [1, 2]])

    def test_assoc_cap(self, monkeypatch):
        # 4097 rows are refused on their count, before any array is built
        for name in ("asarray", "array", "zeros", "empty"):
            monkeypatch.setattr(np, name, lambda *_, **__: pytest.fail("an array was built"))
        with pytest.raises(CapExceededError, match="order 4097 exceeds the Cayley-table cap TABLE_LIMIT=4096"):
            cg.from_cayley([[0]] * 4097)

    @pytest.fixture()
    def checked(self, monkeypatch):
        """The elements whose associativity Light's test checks, in order."""
        seen = []
        associative_at = cg.core._associative_at

        def counting(T, s):
            seen.append(s)
            associative_at(T, s)

        monkeypatch.setattr(cg.core, "_associative_at", counting)
        return seen

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_light_test_agrees_with_all_triples(self, name, checked):
        g = cg.group_from_spec(name)
        table = g.mul_outer(np.arange(g.order))
        assert all_triples_witness(table) is None
        h = cg.from_cayley(table)
        assert h.order == g.order
        # each checked element at least doubles the reached subgroup
        assert len(checked) <= g.order.bit_length()
        # the checked elements are the greedy generators, in order
        assert checked == h._generators()

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60) if e.order >= 4])
    def test_every_row_swap_mutant_rejected(self, name, checked):
        # two nonzero entries of one row swapped, away from the identity's
        # row and column: the identity and the inverses survive, but a
        # column repeats an entry, so no associative table is left
        g = cg.group_from_spec(name)
        table = g.mul_outer(np.arange(g.order))
        rng = np.random.default_rng(g.order)
        for _ in range(4):
            i = int(rng.integers(1, g.order))
            j, k = rng.choice(np.flatnonzero(table[i, 1:] != 0) + 1, size=2, replace=False)
            mutant = table.copy()
            mutant[i, [j, k]] = mutant[i, [k, j]]
            assert all_triples_witness(mutant) is not None
            checked.clear()
            with pytest.raises(ValueError, match="not associative"):
                cg.from_cayley(mutant)
            assert len(checked) <= g.order.bit_length()

    def test_a_later_checked_element_fails(self, checked):
        # L x Z4, (l, a) at index 4*l + a, where L is Z5 with two entries of
        # row 1 swapped (identity and inverses kept): element 1 = (e, 1)
        # passes and reaches Z4, then element 4 = (1, e) fails
        loop = (np.arange(5)[:, None] + np.arange(5)) % 5
        loop[1, [2, 3]] = loop[1, [3, 2]]
        z4 = (np.arange(4)[:, None] + np.arange(4)) % 4
        table = (loop[:, None, :, None] * 4 + z4[None, :, None, :]).reshape(20, 20)
        assert all_triples_witness(table) is not None
        with pytest.raises(ValueError, match=r"not associative at triple \(\d+,4,\d+\)"):
            cg.from_cayley(table)
        assert checked == [1, 4]

    def test_classify_forms_no_second_greedy_pass(self, monkeypatch):
        # construction keeps the generators its associativity check used
        g = cg.symmetric(4)
        h = cg.from_cayley(g.mul_outer(np.arange(g.order)))
        monkeypatch.setattr(cg.core.Backend, "generators", lambda *_: pytest.fail("a second greedy pass"))
        assert cg.classify(h).derived_length == cg.classify(g).derived_length

    @pytest.mark.parametrize("spec", ["elemab:2^12", "cyclic:4096"])
    def test_largest_tables_check_few_elements(self, spec, checked):
        g = cg.group_from_spec(spec)
        h = cg.from_cayley(g.mul_outer(np.arange(g.order)))
        assert h.order_table().orders.tolist() == g.order_table().orders.tolist()
        assert checked == ([1 << k for k in range(12)] if spec.startswith("elemab") else [1])


def _cyclic_on_table(n):
    """Z_n on the table backend, whose order table takes the generic powering."""
    ar = np.arange(n, dtype=np.int32)
    table = (ar[:, None] + ar) % n
    return cg.FiniteGroup(cg.core.TableBackend(table), labels=cg.catalog._power_label, name=f"cyclic:{n}")


class TestOrderTable:
    def test_z6_multiset(self, z6):
        assert sorted(z6.order_table().orders.tolist()) == [1, 2, 3, 3, 6, 6]

    def test_q8_matches_hand_built_quaternions(self, q8):
        assert sorted(q8.order_table().orders.tolist()) == quaternion_unit_order_multiset()

    def test_trivial(self):
        assert cg.cyclic(1).order_table().orders.tolist() == [1]

    def test_against_slow_oracle(self, s4):
        orders = s4.order_table().orders
        for i in range(s4.order):
            assert orders[i] == slow_element_order(s4, i)

    def test_invariants(self, s4):
        ot = s4.order_table()
        assert np.array_equal(ot.orders, ot.orders[s4.inv])
        assert (s4.order % ot.orders == 0).all()
        assert ot.max_order == 4
        assert ot.primes == (2, 3)

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_matches_slow_oracle_on_both_backends(self, name, tableless_copy):
        g = cg.group_from_spec(name)
        expected = [slow_element_order(g, i) for i in range(g.order)]
        for grp in (g, tableless_copy(g)):
            assert grp.order_table().orders.tolist() == expected

    @pytest.mark.parametrize("spec", ["cyclic:4096", "dicyclic:4096", "cyclic:2310"])
    def test_large_groups_match_slow_oracle(self, spec):
        # cyclic:2310 = 2 * 3 * 5 * 7 * 11 runs one pass per prime
        g = cg.group_from_spec(spec)
        assert g.order_table().orders.tolist() == slow_element_orders(g)

    def test_cyclic_4096_takes_one_round_per_prime_power_step(self, monkeypatch):
        # one squaring per step of 2^12; a loop over the powers x^k would
        # take 4096 rounds.  The cyclic formula gives its orders in closed
        # form, so Z_4096 is built on a Cayley table, which powers.
        g = _cyclic_on_table(4096)
        rounds = []
        mul_pairs = g.backend.mul_pairs
        monkeypatch.setattr(g.backend, "mul_pairs", lambda a, b: rounds.append(len(a)) or mul_pairs(a, b))
        assert g.order_table().max_order == 4096
        assert len(rounds) == 12

    def test_order_not_dividing_the_group_order_raises(self, monkeypatch):
        # products taken mod 8 on four elements: 1 has order 8, and after
        # the two squarings that 4 = 2^2 allows, 1^4 is still not the identity
        g = _cyclic_on_table(4)
        monkeypatch.setattr(g.backend, "mul_pairs", lambda a, b: (a + b) % 8)
        with pytest.raises(RuntimeError, match="element order does not divide group order"):
            g.order_table()

    def test_powers_match_repeated_multiplication(self, s4):
        x = np.arange(s4.order)
        for k in range(0, 14):
            expected = [0] * s4.order
            for _ in range(k):
                expected = [s4.mul(e, i) for e, i in zip(expected, range(s4.order))]
            assert s4.powers(x, k).tolist() == expected
            assert [s4.power(i, k) for i in range(s4.order)] == expected

    @pytest.mark.parametrize(
        "spec,cayley,backend",
        [
            ("cyclic:12", False, "_CyclicBackend"),
            ("dihedral:10", False, "_MetacyclicBackend"),
            ("dicyclic:12", False, "_MetacyclicBackend"),
            ("elemab:3^2", False, "_ElemAbBackend"),
            ("product:cyclic:4,dihedral:6", False, "ProductBackend"),
            ("symmetric:4", False, "PermBackend"),
            ("dihedral:6", True, "TableBackend"),
        ],
    )
    def test_power_matches_powers_on_every_backend(self, spec, cayley, backend):
        g = cg.group_from_spec(spec)
        if cayley:
            g = cg.from_cayley(g.mul_outer(np.arange(g.order)).tolist())
        assert type(g.backend).__name__ == backend
        orders = g.order_table().orders
        for x in range(g.order):
            o = int(orders[x])
            for k in sorted({0, 1, 2, o - 1, o, o + 1, 10**6}):
                assert g.power(x, k) == int(g.powers(np.array([x]), k)[0]), (x, k)
            assert type(g.power(x, o + 1)) is int
            with pytest.raises(ValueError):
                g.power(x, -1)


class TestConjugacyClasses:
    def test_abelian_all_singletons(self, z6):
        assert [len(c) for c in z6.conjugacy_classes()] == [1] * 6

    def test_s3_sizes(self, s3):
        assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
        assert slow_conjugacy_sizes(s3) == [1, 2, 3]

    def test_s4_sizes_match_oracle(self, s4):
        assert sorted(len(c) for c in s4.conjugacy_classes()) == slow_conjugacy_sizes(s4)

    def test_order_constant_on_classes(self, s4):
        orders = s4.order_table().orders
        for cls in s4.conjugacy_classes():
            assert len(set(orders[cls].tolist())) == 1

    def test_classes_listed_by_smallest_member(self, s4):
        firsts = [int(c[0]) for c in s4.conjugacy_classes()]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize(
        "spec, count",
        [
            ("psl2:17", 11),
            ("alternating:7", 9),
            ("symmetric:7", 15),
            ("dihedral:2500", 628),
            ("cyclic:4096", 4096),
        ],
    )
    def test_class_counts(self, spec, count):
        g = cg.group_from_spec(spec)
        classes = g.conjugacy_classes()
        assert len(classes) == count
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(g.order))

    def test_s7_classes_form_two_products_per_generator_and_element(self, monkeypatch):
        g = cg.symmetric(7)
        gens = g._generators()
        products = _count_products(monkeypatch, g)
        assert [len(c) for c in g.conjugacy_classes()] == [
            1, 21, 720, 840, 420, 280, 504, 210, 105, 504, 70, 105, 210, 420, 630
        ]
        assert 0 < sum(products) <= 2 * len(gens) * g.order


def _count_products(monkeypatch, g) -> list[int]:
    """Wrap g's backend so that each mul_pairs call appends its product count."""
    mul_pairs = g.backend.mul_pairs
    products: list[int] = []

    def counting(a, b):
        products.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return mul_pairs(a, b)

    monkeypatch.setattr(g.backend, "mul_pairs", counting)
    return products


class TestStructureFlags:
    def test_is_p_group(self, q8, z6):
        assert q8.is_p_group() == 2
        assert z6.is_p_group() is None
        assert cg.cyclic(1).is_p_group() == "trivial"

    def test_is_abelian(self, s3, z6):
        assert not s3.is_abelian
        assert z6.is_abelian

    def test_center(self, q8, s3):
        assert q8.center().tolist() == [0, 2]  # identity and a^2
        assert s3.center().tolist() == [0]

    def test_center_comes_from_the_cached_classes(self, monkeypatch):
        g = cg.dicyclic(6)
        center = slow_center(g)
        g.conjugacy_classes()
        products = _count_products(monkeypatch, g)
        assert g.center().tolist() == center
        assert sum(products) == 0


# Every per-group result that is kept after its first call, computed from g.
MEMOIZED = {
    "order_table": lambda g: g.order_table(),
    "conjugacy_classes": lambda g: g.conjugacy_classes(),
    "_class_ids": lambda g: g._class_ids(),
    "_generators": lambda g: g._generators(),
    "derived_series": lambda g: g.derived_series(),
    "labels": lambda g: g.labels,
    "is_abelian": lambda g: g.is_abelian,
    "is_cp2": cg.is_cp2,
    "is_cp3": cg.is_cp3,
    "_lattice": lambda g: cg.subgroups._lattice(g, cg.core.SUBGROUP_CAP),
}


class TestMemo:
    @pytest.mark.parametrize("spec", ["dihedral:12", "symmetric:4"])
    @pytest.mark.parametrize("result", list(MEMOIZED))
    def test_second_call_returns_the_first_result(self, monkeypatch, spec, result):
        # a formula group and a permutation group: once computed, a result
        # is returned as it stands, with no product formed
        g = cg.group_from_spec(spec)
        first = MEMOIZED[result](g)

        def refuse(*_):
            raise AssertionError("a product was formed for a memoized result")

        monkeypatch.setattr(g.backend, "mul_pairs", refuse)
        assert MEMOIZED[result](g) is first


class TestDerivedSeries:
    def test_s4_series(self, s4):
        sizes = [s.size for s in s4.derived_series()]
        assert sizes == [24, 12, 4, 1]
        assert s4.is_solvable()
        assert sizes == slow_derived_series_sizes(s4)

    def test_a5_not_solvable(self, a5):
        series = a5.derived_series()
        assert [s.size for s in series] == [60]
        assert not a5.is_solvable()

    def test_abelian_one_step(self, z6):
        assert [s.size for s in z6.derived_series()] == [6, 1]
        assert z6.is_solvable()

    def test_a4_matches_oracle(self, a4):
        assert [s.size for s in a4.derived_series()] == slow_derived_series_sizes(a4)


class TestNormalSubgroups:
    def test_z6_has_four(self, z6):
        assert [s.size for s in z6.normal_subgroups()] == [1, 2, 3, 6]

    def test_s3_not_simple(self, s3):
        sizes = [s.size for s in s3.normal_subgroups()]
        assert sizes == [1, 3, 6]
        assert not s3.is_simple()

    def test_a5_simple(self, a5):
        assert [s.size for s in a5.normal_subgroups()] == [1, 60]
        assert a5.is_simple()

    def test_trivial_group_not_simple(self):
        assert not cg.cyclic(1).is_simple()

    def test_prime_cyclic_simple(self):
        assert cg.cyclic(7).is_simple()
        assert not cg.cyclic(8).is_simple()

    def test_cyclic_21_has_one_per_divisor(self):
        assert [s.size for s in cg.cyclic(21).normal_subgroups()] == [1, 3, 7, 21]

    def test_abelian_group_over_cap_raises_before_enumerating(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("enumeration started above the cap")

        monkeypatch.setattr(cg.subgroups, "_join_closure", refuse)
        with pytest.raises(CapExceededError, match="order 32 exceeds the subgroup-enumeration cap 10"):
            cg.elementary_abelian(2, 5).normal_subgroups(cap=10)

    def test_nonabelian_group_with_many_classes_over_cap_raises(self, monkeypatch):
        # Z2^5 x S3 has 95 nontrivial classes, and every subgroup of its
        # Z2^5 factor is normal: the lattice the cap guards against
        def refuse(*_):
            raise AssertionError("enumeration started above the cap")

        g = cg.direct_product(cg.elementary_abelian(2, 5), cg.symmetric(3))
        monkeypatch.setattr(cg.FiniteGroup, "_class_products", refuse)
        monkeypatch.setattr(cg.FiniteGroup, "_normal_rows", refuse)
        with pytest.raises(CapExceededError):
            g.normal_subgroups(cap=100)
        with pytest.raises(CapExceededError):
            cg.quotient_scan(g, cg.is_cp3, cap=100)

    def test_abelian_group_reuses_the_lattice(self, monkeypatch):
        # every subgroup of an abelian group is normal: the cached lattice
        g = cg.elementary_abelian(2, 4)
        subs = cg.all_subgroups(g)

        def refuse(*_):
            raise AssertionError("the lattice was enumerated again")

        monkeypatch.setattr(cg.subgroups, "_join_closure", refuse)
        assert g.normal_subgroups() == subs

    def test_check_blocks_stay_bounded(self, monkeypatch):
        # the normal subgroups of PSL(2,13), order 1092, come from its
        # conjugacy classes, normal closures and generator certificates,
        # none of which forms the 1092 x 1092 square in one call; sizes
        # counts the products of each call
        g = cg.psl2(13)
        mul_pairs = g.mul_pairs
        sizes = []

        def recording(a, b):
            sizes.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return mul_pairs(a, b)

        monkeypatch.setattr(g, "mul_pairs", recording)
        assert [s.size for s in g.normal_subgroups()] == [1, 1092]
        assert max(sizes) <= cg.core.CHECK_ENTRIES

    def test_group_with_few_classes_has_no_order_cap(self):
        # A5 has 4 nontrivial classes, so at most 2^4 normal subgroups
        assert [s.size for s in cg.alternating(5).normal_subgroups(cap=10)] == [1, 60]


class TestQuotient:
    def test_by_trivial_keeps_order(self, s4):
        trivial = cg.SubgroupSet.from_indices([0])
        assert s4.quotient(trivial).order == 24

    def test_by_whole_group_is_trivial(self, s4):
        whole = cg.SubgroupSet.from_indices(range(24))
        q = s4.quotient(whole)
        assert q.order == 1

    def test_s4_mod_v4_is_s3_shaped(self, s4):
        v4 = [s for s in s4.normal_subgroups() if s.size == 4][0]
        q = s4.quotient(v4)
        assert q.order == 6
        got = sorted(q.order_table().orders.tolist())
        assert got == [1, 2, 2, 2, 3, 3]
        assert got == slow_quotient_order_multiset(s4, v4.indices().tolist())

    def test_order_product_invariant(self, s4):
        for n in s4.normal_subgroups():
            assert s4.quotient(n).order * n.size == s4.order

    def test_s7_by_a7_forms_few_products(self, monkeypatch):
        # A7 is certified from its generators and the cosets come from their
        # orbits, not from 2520 x 5040 products and a 5040-row re-check
        g = cg.symmetric(7)
        a7 = g.derived_series()[1]
        g._generators(), g.conjugacy_classes()  # cached before the count
        formed = []
        mul_pairs = g.backend.mul_pairs

        def counting(a, b):
            out = mul_pairs(a, b)
            formed.append(np.size(out))
            return out

        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        q = g.quotient(a7)
        assert (q.order, a7.size) == (2, 2520)
        assert 0 < sum(formed) < 100_000

    def test_non_normal_rejected(self, s3):
        # the two-element subgroup generated by a transposition is not normal in S3
        transposition = int(np.flatnonzero(s3.order_table().orders == 2)[0])
        sub = cg.SubgroupSet.from_indices([0, transposition])
        with pytest.raises(ValueError, match="subgroup is not normal"):
            s3.quotient(sub)

    def test_non_subgroup_rejected(self, s3):
        # {e, x} with o(x) = 3 is not closed: x^2 is missing
        x = int(np.flatnonzero(s3.order_table().orders == 3)[0])
        with pytest.raises(ValueError, match="index set is not a subgroup"):
            s3.quotient(cg.SubgroupSet.from_indices([0, x]))

    def test_closure_is_checked_before_normality(self, s3):
        # {e, t, x} with o(t) = 2 and o(x) = 3 is neither closed nor normal
        orders = s3.order_table().orders
        t, x = int(np.flatnonzero(orders == 2)[0]), int(np.flatnonzero(orders == 3)[0])
        with pytest.raises(ValueError, match="index set is not a subgroup"):
            s3.quotient(cg.SubgroupSet.from_indices([0, t, x]))

    def test_index_array_as_for_subgroup(self, s3):
        a3 = np.flatnonzero(s3.order_table().orders != 2)
        by_set = s3.quotient(cg.SubgroupSet.from_indices(a3))
        for members in (a3, a3.tolist()):
            q = s3.quotient(members)
            assert (q.order, q.name, q.labels) == (2, by_set.name, by_set.labels)
            assert s3.subgroup(members).order == 3

    def test_coset_size_is_the_member_count_not_the_size_field(self, s3):
        a3 = cg.SubgroupSet.from_indices(np.flatnonzero(s3.order_table().orders != 2))
        q = s3.quotient(dataclasses.replace(a3, size=2))
        assert (q.order, q.name) == (2, s3.quotient(a3).name)
        assert q.labels == s3.quotient(a3).labels


class TestDerivedGroupsAboveTheTableLimit:
    """subgroup() and quotient() hold no table, so they realize groups of
    any order up to the parent's, TABLE_LIMIT or above."""

    def test_subgroup_of_the_whole_group(self):
        g = cg.symmetric(7)  # order 5040, above TABLE_LIMIT
        h = g.subgroup(np.arange(g.order))
        assert (h.order, h.table) == (5040, None)
        some = np.arange(0, g.order, 97)
        assert np.array_equal(h.mul_outer(some), g.mul_outer(some))
        assert h.label(1) == g.label(1)

    def test_quotient_by_the_trivial_subgroup(self):
        g = cg.symmetric(7)
        q = g.quotient(cg.SubgroupSet.from_indices([0]))
        assert (q.order, q.table) == (5040, None)
        # the coset {x} is numbered x
        some = np.arange(0, g.order, 97)
        assert np.array_equal(q.mul_outer(some), g.mul_outer(some))
        assert q.label(1) == "{" + g.label(1) + "}"


class TestDirectProduct:
    def test_orders_multiply(self):
        g = cg.direct_product(cg.cyclic(2), cg.cyclic(3))
        assert g.order == 6

    def test_componentwise_inverse(self):
        g = cg.direct_product(cg.cyclic(4), cg.cyclic(2))
        for i in range(g.order):
            assert g.mul(i, int(g.inv[i])) == 0

    def test_element_cap(self):
        with pytest.raises(CapExceededError, match="ELEMENT_CAP=10000"):
            cg.direct_product(cg.cyclic(101), cg.cyclic(100))


class TestSubgroupRealization:
    def test_realized_subgroup_is_valid_group(self, s4):
        sub = [s for s in s4.normal_subgroups() if s.size == 12][0]
        h = s4.subgroup(sub)
        assert h.order == 12
        assert sorted(h.order_table().orders.tolist()) == sorted(
            cg.alternating(4).order_table().orders.tolist()
        )

    def test_labels_inherited(self, s3):
        sub = cg.SubgroupSet.from_indices(s3.span([2]))
        h = s3.subgroup(sub)
        assert h.labels[0] == "e"
        assert all(lbl in s3.labels for lbl in h.labels)

    def test_must_contain_identity(self, s3):
        with pytest.raises(ValueError):
            s3.subgroup(np.array([1, 2]))

    @pytest.mark.parametrize(
        "method,sub,message",
        [
            ("subgroup", np.array([]), "must contain the identity"),
            ("subgroup", [0, 7], "element index 7 out of range for order 6"),
            ("subgroup", [0, -1], "must contain the identity"),
            ("quotient", cg.SubgroupSet.from_indices([]), "must contain the identity"),
            ("quotient", cg.SubgroupSet.from_indices([0, 9]), "element index 9 out of range for order 6"),
        ],
    )
    def test_bad_index_sets_refused_before_any_array(self, s3, monkeypatch, method, sub, message):
        for name in ("zeros", "full"):
            monkeypatch.setattr(np, name, lambda *_, **__: pytest.fail("an array was built"))
        with pytest.raises(ValueError, match=message):
            getattr(s3, method)(sub)

    def test_not_closed_refused(self, s3):
        # {e, x} with o(x) = 3: x^2 is missing
        x = int(np.flatnonzero(s3.order_table().orders == 3)[0])
        with pytest.raises(ValueError, match="not closed under multiplication"):
            s3.subgroup([0, x])

    def test_a7_in_s7_forms_few_products(self, monkeypatch):
        # A7 is certified from its generators, not from its 2520^2 products,
        # and the realized group multiplies through S7's backend
        g = cg.symmetric(7)
        a7 = g.derived_series()[1]
        g._generators()  # cached before the count
        formed = []
        mul_pairs = g.backend.mul_pairs

        def counting(a, b):
            out = mul_pairs(a, b)
            formed.append(np.size(out))
            return out

        monkeypatch.setattr(g.backend, "mul_pairs", counting)
        h = g.subgroup(a7)
        assert 0 < sum(formed) < 100_000
        assert (h.order, h.table, h.perms) == (2520, None, None)
        assert h.is_simple()


class TestSubgroupSet:
    def test_round_trip(self):
        s = cg.SubgroupSet.from_indices([0, 3, 5])
        assert s.size == 3
        assert s.indices().tolist() == [0, 3, 5]
        assert s.contains(3) and not s.contains(1)

    def test_hex(self):
        assert cg.SubgroupSet.from_indices([0, 1]).hex() == "3"

    def test_repeats_count_once(self):
        s = cg.SubgroupSet.from_indices(np.array([5, 0, 5, 70, 0]))
        assert (s.mask, s.size) == ((1 << 70) | (1 << 5) | 1, 3)

    def test_empty_and_negative(self):
        assert cg.SubgroupSet.from_indices([]) == cg.SubgroupSet(mask=0, size=0)
        with pytest.raises(ValueError):
            cg.SubgroupSet.from_indices([0, -1])


class TestClosureVerdicts:
    """core.closure_verdicts against brute force, with the default blocks
    and with one row of one set per block (CHECK_ENTRIES = 1), and the
    certificate FiniteGroup._certify on the same sets, in no particular
    order of size."""

    @staticmethod
    def _expected(g, row):
        members = set(np.flatnonzero(row).tolist())
        closed = all(g.mul(a, b) in members for a in members for b in members)
        normal = closed and all(
            g.mul(g.mul(int(g.inv[t]), h), t) in members for t in range(g.order) for h in members
        )
        return closed, normal

    @staticmethod
    def _rows(g, sets):
        if sets == "every subgroup":
            rows = np.array([np.isin(np.arange(g.order), s.indices()) for s in all_subgroups(g)])
        else:
            masks = np.arange(1, 1 << g.order, 2)
            rows = (masks[:, None] >> np.arange(g.order)) & 1 == 1
        return rows[np.random.default_rng(0).permutation(len(rows))]

    _SETS = pytest.mark.parametrize(
        "spec, sets",
        [
            ("dihedral:8", "every subset with the identity"),
            ("symmetric:4", "every subgroup"),
        ],
    )

    @pytest.mark.parametrize("check_entries", [cg.core.CHECK_ENTRIES, 1])
    @_SETS
    def test_against_brute_force(self, monkeypatch, spec, sets, check_entries):
        g = cg.group_from_spec(spec)
        rows = self._rows(g, sets)
        monkeypatch.setattr(cg.core, "CHECK_ENTRIES", check_entries)
        closed = cg.core.closure_verdicts(g, cg.core._words(rows), rows.sum(axis=1))
        assert closed.tolist() == [self._expected(g, r)[0] for r in rows]

    @_SETS
    def test_certificate_against_brute_force(self, spec, sets):
        g = cg.group_from_spec(spec)
        rows = self._rows(g, sets)
        got = [g._certify(r) for r in rows]
        assert [(closed, normal) for closed, normal, _ in got] == [self._expected(g, r) for r in rows]
        # the generators of every set lie in it and span it when it is closed
        for row, (closed, _, gens) in zip(rows, got):
            assert row[gens].all()
            assert np.array_equal(np.isin(np.arange(g.order), g.span(gens)), row) == closed

    @pytest.mark.parametrize("spec", ["symmetric:4", "symmetric:7"])
    def test_whole_group_forms_no_products(self, monkeypatch, spec):
        g = cg.group_from_spec(spec)
        subs = [cg.SubgroupSet.from_indices(np.arange(g.order))]
        if g.order <= 24:
            subs = all_subgroups(g)
        rows = np.array([np.isin(np.arange(g.order), s.indices()) for s in subs])
        g._generators()  # cached before the count
        formed = []
        mul_pairs = cg.FiniteGroup.mul_pairs

        def counting(grp, a, b):
            out = mul_pairs(grp, a, b)
            formed.append(out.size)
            return out

        monkeypatch.setattr(cg.FiniteGroup, "mul_pairs", counting)
        closed, normal, gens = g._certify(rows[-1])
        assert (closed, normal, gens.tolist(), formed) == (True, True, g._generators(), [])
        closed = cg.core.closure_verdicts(g, cg.core._words(rows), rows.sum(axis=1))
        assert closed.all()
        assert sum(formed) == sum(s.size**2 for s in subs if s.size < g.order)


class TestOrderCommutativityInvariant:
    def test_o_ab_equals_o_ba(self, s4):
        orders = s4.order_table().orders
        ab = s4.mul_outer(np.arange(s4.order))
        assert np.array_equal(orders[ab], orders[ab.T])


class TestTablelessBackend:
    """Permutation groups compose image arrays on demand, at every order;
    they agree with a table group of the same products."""

    @pytest.fixture()
    def tableless_s4(self):
        g = cg.generate_group([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
        assert g.table is None
        return g

    @pytest.fixture()
    def table_s4(self, s4):
        g = cg.FiniteGroup(cg.core.TableBackend(slow_perm_table(s4)), labels=s4.labels, name=s4.name)
        assert g.perms is None
        return g

    def test_mul_matches_table_group(self, tableless_s4, table_s4):
        ar = np.arange(24)
        for i in range(24):
            # the row i*y and the column x*i
            assert np.array_equal(tableless_s4.mul_outer([i]), table_s4.mul_outer([i]))
            assert np.array_equal(tableless_s4.mul_outer(ar, [i]), table_s4.mul_outer(ar, [i]))
        assert tableless_s4.mul(3, 17) == table_s4.mul(3, 17)
        a, b = np.array([0, 5, 23]), np.array([7, 0, 11, 2])
        outer = tableless_s4.mul_outer(a, b)
        assert outer.shape == (3, 4)
        assert np.array_equal(outer, table_s4.mul_outer(a, b))
        assert outer.tolist() == [[table_s4.mul(x, y) for y in b] for x in a]

    def test_structure_ops_agree(self, tableless_s4, table_s4):
        assert np.array_equal(tableless_s4.inv, table_s4.inv)
        assert np.array_equal(tableless_s4.order_table().orders, table_s4.order_table().orders)
        assert [len(c) for c in tableless_s4.conjugacy_classes()] == [
            len(c) for c in table_s4.conjugacy_classes()
        ]
        assert [s.size for s in tableless_s4.derived_series()] == [24, 12, 4, 1]
        assert not tableless_s4.is_simple()

    def test_scans_agree(self, tableless_s4, table_s4):
        from cpgroups.metric import is_cp2, is_cp3

        ok1, w1 = is_cp3(tableless_s4)
        ok2, w2 = is_cp3(table_s4)
        assert ok1 == ok2
        assert (w1.a_index, w1.b_index) == (w2.a_index, w2.b_index)
        assert is_cp2(tableless_s4)[0] == is_cp2(table_s4)[0]


_PERM_FAMILIES = ("symmetric", "alternating", "psl2")


def _perm_catalog(max_order):
    return [e.name for e in cg.catalog_entries(max_order) if e.family in _PERM_FAMILIES]


class TestPermutationTables:
    """Products of permutation groups, composed on demand (no permutation
    group has a table), checked against the slow constructions."""

    @pytest.mark.parametrize("name", _perm_catalog(cg.core.TABLE_LIMIT))
    def test_table_matches_rowwise_lookup(self, name):
        g = cg.group_from_spec(name)
        assert g.table is None
        table, ar = rowwise_lookup_table(g), np.arange(g.order)
        for lo in range(0, g.order, 256):  # a block of rows keeps the products small
            assert np.array_equal(g.mul_outer(ar[lo : lo + 256]), table[lo : lo + 256])
        if g.order <= 360:
            assert g.mul_outer(ar).tolist() == slow_perm_table(g)

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_right_regular_representation_rebuilds_the_table(self, name):
        g = cg.group_from_spec(name)
        table = g.mul_outer(np.arange(g.order))
        h = cg.FiniteGroup(cg.core.PermBackend(table.T), labels=g.labels, name=g.name)
        assert h.table is None
        assert np.array_equal(h.mul_outer(np.arange(h.order)), table)

    @pytest.mark.parametrize(
        "name,limit_mb", [("alternating:7", 8), ("psl2:17", 16), ("symmetric:7", 8)]
    )
    def test_building_keeps_no_square_array(self, name, limit_mb):
        # a 2520 x 2520 int32 table alone is 25.4 MB
        tracemalloc.start()
        try:
            g = cg.group_from_spec(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.table is None
        assert peak < limit_mb * 2**20

    @pytest.mark.parametrize("name", _perm_catalog(5040))
    def test_orders_match_permutation_orders(self, name):
        g = cg.group_from_spec(name)
        assert g.table is None
        expected = [slow_perm_order(Permutation(row)) for row in g.perms]
        assert g.order_table().orders.tolist() == expected

    def test_set_missing_a_square_is_rejected(self):
        perms = np.array([[0, 1, 2], [1, 2, 0]])
        with pytest.raises(RuntimeError, match="product fell outside the element set"):
            cg.from_permutation_set(perms, name="not-closed")

    def test_missing_product_with_a_known_key_prefix_is_rejected(self):
        # (1 2 3)(4 5) * (1 3 2) = (4 5) is missing and fixes points 1, 2, 3
        # like the identity, so it finds the identity's key but not its row
        perms = np.array([[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 0, 1, 3, 4]])
        with pytest.raises(RuntimeError, match="element index lookup mismatch"):
            cg.from_permutation_set(perms, name="not-closed")

    def test_repeated_permutation_is_rejected(self):
        # an index would find only one of the two copies of (1 2); the other
        # is never reached by a product and would stall the generator pass
        perms = np.array([[0, 1, 2], [1, 0, 2], [1, 0, 2]])
        with pytest.raises(ValueError, match="the permutations are not distinct"):
            cg.FiniteGroup(cg.core.PermBackend(perms), labels=["e", "a", "b"], name="repeated")

    @pytest.mark.parametrize("variant", sorted(_INDEX_VARIANTS))
    def test_every_index_refuses_repeated_rows(self, monkeypatch, s4, variant):
        for attr, value in _INDEX_VARIANTS[variant].items():
            monkeypatch.setattr(cg.core, attr, value)
        perms = np.concatenate([s4.perms, s4.perms[5:6]])
        with pytest.raises(ValueError, match="the permutations are not distinct"):
            cg.core._PermIndex(perms)

    def test_transpositions_that_do_not_close_are_rejected(self):
        # {e, (1 2), (2 3)}: the product (1 2)(2 3) is missing
        perms = np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1]])
        with pytest.raises(RuntimeError, match="product fell outside the element set"):
            cg.from_permutation_set(perms, name="not-closed")

    def test_set_missing_an_involution_is_rejected_above_the_table_limit(self):
        g = cg.symmetric(7)
        involution = int(np.flatnonzero(g.order_table().orders == 2)[0])
        perms = np.delete(g.perms, involution, axis=0)
        with pytest.raises(RuntimeError, match="product fell outside the element set"):
            cg.from_permutation_set(perms, name="not-closed")


def _sl2_5():
    """SL(2,5), order 120, acting on the 24 nonzero vectors of GF(5)^2."""
    vectors = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]

    def matrix(a, b, c, d):
        images = [vectors.index(((x * a + y * c) % 5, (x * b + y * d) % 5)) for x, y in vectors]
        return Permutation(images)

    return cg.generate_group([matrix(1, 1, 0, 1), matrix(0, 4, 1, 0)])


class TestClosureKernel:
    """span, derived_series and is_simple against the slow oracles, on both backends."""

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_agrees_with_oracles_on_both_backends(self, name, tableless_copy):
        g = cg.group_from_spec(name)
        rng = np.random.default_rng(g.order)
        gen_sets = [rng.choice(g.order, size=min(k, g.order), replace=False) for k in (1, 1, 2, 3)]
        slow_spans = [sorted(_slow_closure(g, set(gens.tolist()))) for gens in gen_sets]
        slow_series = [sorted(m) for m in slow_derived_series(g)]
        simple = slow_is_simple(g)
        for grp in (g, tableless_copy(g)):
            assert [grp.span(gens).tolist() for gens in gen_sets] == slow_spans
            assert [s.indices().tolist() for s in grp.derived_series()] == slow_series
            assert [s.size for s in grp.derived_series()] == [len(m) for m in slow_series]
            assert grp.is_simple() == simple

    def test_perfect_product_is_not_simple(self):
        # A5 x A5 is perfect, and each factor is a proper normal subgroup
        g = cg.direct_product(cg.alternating(5), cg.alternating(5))
        assert isinstance(g.backend, cg.core.ProductBackend)
        assert [s.size for s in g.derived_series()] == [3600]
        assert not g.is_simple()

    @pytest.mark.parametrize(
        "spec",
        [
            "alternating:5", "psl2:4", "psl2:5", "psl2:7", "alternating:6",
            "psl2:9", "psl2:8", "psl2:11", "psl2:13", "psl2:17", "alternating:7",
        ],
    )
    def test_theorem4_groups_are_simple(self, spec):
        assert cg.group_from_spec(spec).is_simple()

    def test_simplicity_forms_one_product_per_class_and_element(self, monkeypatch):
        # with the classes and the derived series cached, one block of
        # products: a representative per nontrivial class times every element
        g = cg.psl2(17)
        k = len(g.conjugacy_classes())
        assert [s.size for s in g.derived_series()] == [g.order]
        products = _count_products(monkeypatch, g)
        assert g.is_simple()
        assert 0 < sum(products) <= k * g.order

    def test_perfect_but_not_simple(self, tableless_copy):
        # perfect, so only the class {-I} of its centre shows it is not simple
        g = _sl2_5()
        assert g.order == 120
        assert [s.size for s in g.derived_series()] == slow_derived_series_sizes(g) == [120]
        assert not slow_is_simple(g)
        assert not g.is_simple()
        assert not tableless_copy(g).is_simple()


class TestJoinClosure:
    """all_subgroups and normal_subgroups against the slow oracles, on both backends."""

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_agrees_with_oracles_on_both_backends(self, name, tableless_copy):
        g = cg.group_from_spec(name)
        subgroups = slow_subgroups(g)
        normal = slow_normal_subgroups(g)
        for grp in (g, tableless_copy(g)):
            assert sorted(tuple(s.indices().tolist()) for s in all_subgroups(grp)) == subgroups
            assert sorted(tuple(s.indices().tolist()) for s in grp.normal_subgroups()) == normal

    def test_normal_subgroups_that_join_three_class_closures(self, tableless_copy):
        # the central (Z_2)^3 of (Z_2)^2 x D8 is the join of the normal
        # closures of three central classes and of no fewer, so the class-set
        # fixed point must go on past the joins of two closures
        g = cg.direct_product(cg.elementary_abelian(2, 2), cg.dihedral(4))
        normal = slow_normal_subgroups(g)
        assert len(normal) == 78
        for grp in (g, tableless_copy(g)):
            assert sorted(tuple(s.indices().tolist()) for s in grp.normal_subgroups()) == normal


_SPAN_GROUPS = {spec: cg.group_from_spec(spec) for spec in ("symmetric:4", "alternating:5", "dihedral:24")}


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(sorted(_SPAN_GROUPS)),
    picks=st.lists(st.integers(min_value=0, max_value=59), max_size=4),
)
def test_span_matches_slow_closure(spec, picks):
    g = _SPAN_GROUPS[spec]
    gens = [p % g.order for p in picks]
    assert g.span(gens).tolist() == sorted(_slow_closure(g, set(gens)))


class TestLargeClosures:
    def test_s7_derived_series_on_permutation_backend(self):
        g = cg.symmetric(7)
        assert g.table is None
        assert [s.size for s in g.derived_series()] == [5040, 2520]
        assert not g.is_simple()

    def test_rotation_span_needs_doubling_in_dihedral_2500(self):
        # the rotation a has order 1250: a closure without power doubling
        # would take 1250 rounds here
        g = cg.group_from_spec("dihedral:2500")
        assert g.label(1) == "a"
        assert len(g.span([1])) == 1250

    def test_two_reflections_span_dihedral_2500(self):
        # b and a*b have order 2 and walk a cycle of length 2500 together;
        # their product a^-1 has order 1250
        g = cg.group_from_spec("dihedral:2500")
        b, ab = g.labels.index("b"), g.labels.index("a*b")
        assert len(g.span([b, ab])) == 2500
        assert len(g.span([b, g.labels.index("a^2*b")])) == 1250


# builders of the permutation groups the tests build, by name
_PERM_GROUPS = {
    **{name: lambda name=name: cg.group_from_spec(name) for name in _perm_catalog(5040)},
    "SL(2,5)": _sl2_5,
    "klein": lambda: cg.generate_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]),
    "dihedral on 300 points": lambda: cg.generate_group(
        [Permutation(np.roll(np.arange(300), -1)), Permutation(np.arange(300)[::-1])]
    ),
    "(1 2) on 70000": lambda: cg.generate_group([parse_cycles("(1 2)", 70000)]),
    "(69999 70000) on 70000": lambda: cg.generate_group([parse_cycles("(69999 70000)", 70000)]),
}


class TestPermIndex:
    """The three index variants agree on every permutation group of the tests."""

    @pytest.mark.parametrize("name", list(_PERM_GROUPS))
    def test_variants_agree(self, index_variants, name):
        g = _PERM_GROUPS[name]()
        a, b = random_pairs(g)
        results = index_variants(g, a, b)
        expected = results["_direct"][0]
        products = np.take_along_axis(g.perms[b], g.perms[a].astype(np.intp), axis=1)
        assert np.array_equal(g.perms[expected], products)
        for lookup, inv in results.values():
            assert np.array_equal(lookup, expected)
            assert np.array_equal(inv, g.inv)

    @pytest.mark.parametrize("name", ["symmetric:7", "alternating:7", "psl2:17"])
    def test_large_groups_use_the_direct_table(self, name):
        index = _PERM_GROUPS[name]().backend._index
        assert index._direct is not None and index._sorted is None and index._bybytes is None
        assert index._direct.size <= cg.core.DIRECT_INDEX_ENTRIES

    def test_wide_keys_fall_back(self):
        # 70000^3 keys are too many for a direct table; with points
        # 0, 1, 2 fixed no prefix separates the two elements
        assert _PERM_GROUPS["(1 2) on 70000"]().backend._index._sorted is not None
        assert _PERM_GROUPS["(69999 70000) on 70000"]().backend._index._bybytes is not None


_LABEL_NAMES = [e.name for e in cg.catalog_entries(60)]


class TestLazyLabels:
    """Labels rendered one at a time equal the whole list, and both equal
    the eager formulas each family used to apply to every element."""

    @pytest.mark.parametrize("name", _LABEL_NAMES + ["psl2:17", "alternating:7", "symmetric:7"])
    def test_label_function_matches_eager_formulas(self, name):
        g = cg.group_from_spec(name)
        expected = eager_labels(name, g)
        assert [g.label(i) for i in range(g.order)] == expected
        assert g.labels == expected

    @pytest.mark.parametrize("name", _LABEL_NAMES)
    def test_subgroups_quotients_and_products(self, name):
        g = cg.group_from_spec(name)
        labels = eager_labels(name, g)
        for normal in g.normal_subgroups():
            members = normal.indices().tolist()
            sub, q = g.subgroup(normal), g.quotient(normal)
            assert [sub.label(i) for i in range(sub.order)] == sub.labels == [labels[i] for i in members]
            expected = slow_coset_labels(g, members, labels)
            assert [q.label(i) for i in range(q.order)] == q.labels == expected
            if sub.order * q.order <= 120:
                prod = cg.direct_product(q, sub)
                pairs = [f"({x},{y})" for x in expected for y in sub.labels]
                assert [prod.label(i) for i in range(prod.order)] == prod.labels == pairs

    @pytest.mark.parametrize("name", ["psl2:17", "alternating:7", "symmetric:7"])
    def test_large_subgroups_quotients_and_products(self, name):
        g = cg.group_from_spec(name)
        labels = eager_labels(name, g)
        # the stabilizer of the last point: a Borel subgroup of order 136, A6 or S6
        members = np.flatnonzero(g.perms[:, -1] == g.perms.shape[1] - 1).tolist()
        sub = g.subgroup(members)
        sub_labels = [labels[i] for i in members]
        assert [sub.label(i) for i in range(sub.order)] == sub.labels == sub_labels
        if g.order <= cg.core.TABLE_LIMIT:
            # by the trivial subgroup: one element per coset
            q = g.quotient(cg.SubgroupSet.from_indices([0]))
            assert [q.label(i) for i in range(q.order)] == q.labels == ["{" + x + "}" for x in labels]
        # the stabilizer by its derived subgroup (A6 is perfect): orders 8, 1 and 2
        normal = sub.derived_series()[:2][-1]
        q = sub.quotient(normal)
        expected = slow_coset_labels(sub, normal.indices().tolist(), sub_labels)
        assert [q.label(i) for i in range(q.order)] == q.labels == expected
        prod = cg.direct_product(q, sub)
        pairs = [f"({x},{y})" for x in expected for y in sub_labels]
        assert [prod.label(i) for i in range(prod.order)] == prod.labels == pairs
        # G by G' (A7 in S7), or by G itself for a perfect group: the cosets
        # are the even and the odd permutations that occur
        q = g.quotient(g.derived_series()[:2][-1])
        parity = np.array([slow_perm_parity(p) for p in g.perms])
        cosets = [np.flatnonzero(parity == odd) for odd in (0, 1)]
        expected = ["{" + ",".join(labels[i] for i in c) + "}" for c in cosets if c.size]
        assert q.order == {"symmetric:7": 2}.get(name, 1)
        assert [q.label(i) for i in range(q.order)] == q.labels == expected

    def test_building_psl2_17_renders_no_label(self, monkeypatch):
        render = Permutation.cycle_string
        calls = []

        def counting(p):
            calls.append(p)
            return render(p)

        monkeypatch.setattr(Permutation, "cycle_string", counting)
        g = cg.psl2(17)
        assert calls == []
        assert g.label(5) == render(Permutation(g.perms[5]))
        assert len(calls) == 1

    def test_derived_groups_keep_no_parent_alive(self):
        g = cg.symmetric(4)
        parent = weakref.ref(g)
        normal = [s for s in g.normal_subgroups() if s.size == 4][0]
        sub, q = g.subgroup(normal), g.quotient(normal)
        prod = cg.direct_product(q, sub)
        del g
        gc.collect()
        assert parent() is None
        assert prod.label(7) == f"({q.label(1)},{sub.label(3)})"

    def test_label_list_must_match_the_order(self):
        with pytest.raises(ValueError, match="labels do not match order"):
            cg.from_cayley([[0, 1], [1, 0]], labels=["e"])
