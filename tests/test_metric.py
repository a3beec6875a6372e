import csv
import io
import math

import numpy as np
import pytest

import cpgroups as cg
from cpgroups import CapExceededError
from cpgroups.metric import (
    check_metric_axioms,
    classify,
    distance,
    distance_matrix,
    involution_product_witness,
    is_cp,
    is_cp2,
    is_cp3,
    layer_check,
    non_prime_power_elements,
    render_witness,
    scan_pair_order_condition,
    triangle_audit,
    write_distance_csv,
)

from oracles import (
    slow_element_order,
    slow_element_orders,
    slow_pair_witness,
    slow_triangle_holds,
    slow_ultrametric_holds,
)


class TestDistance:
    def test_zero_iff_equal(self, s3):
        for x in range(s3.order):
            assert distance(s3, x, x) == 0
        assert distance(s3, 1, 2) > 0

    def test_transposition_to_identity(self, s3):
        transposition = int(np.flatnonzero(s3.order_table().orders == 2)[0])
        assert distance(s3, transposition, 0) == 1

    def test_z6_generator_to_identity(self, z6):
        assert distance(z6, 1, 0) == 5


class TestDistanceMatrix:
    def test_trivial(self):
        assert distance_matrix(cg.cyclic(1)).tolist() == [[0]]

    def test_z2(self):
        assert distance_matrix(cg.cyclic(2)).tolist() == [[0, 1], [1, 0]]

    def test_s3_rows_are_order_multiset(self, s3):
        d = distance_matrix(s3)
        for row in d:
            assert sorted(row.tolist()) == [0, 1, 1, 1, 2, 2]

    def test_symmetric_zero_diagonal(self, s4):
        d = distance_matrix(s4)
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()

    def test_held_as_int32(self):
        # no distance exceeds the order, and the order is at most TABLE_LIMIT
        n = 60
        d = distance_matrix(cg.dihedral(n // 2))
        assert d.dtype == np.int32
        assert d.nbytes == 4 * n * n

    def test_cap(self):
        big = cg.symmetric(7)  # order 5040, above TABLE_LIMIT
        with pytest.raises(CapExceededError, match="TABLE_LIMIT"):
            distance_matrix(big)


class TestCpPredicates:
    def test_z6_fails_cp(self, z6):
        ok, wit = is_cp(z6)
        assert not ok
        assert wit.a_order == 6
        (p, ai), (q, bi) = wit.parts
        assert {p, q} == {2, 3}
        orders = z6.order_table().orders
        assert int(orders[ai]) == p and int(orders[bi]) == q
        assert int(orders[z6.mul(ai, bi)]) == p * q

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(200)])
    def test_cp_witness_is_the_first_element_of_composite_order(self, name):
        # one definition of "not a prime power": the witness of is_cp, and
        # the mask hereditary_check reads, agree with the slow orders
        g = cg.group_from_spec(name)
        slow = slow_element_orders(g)
        bad = [len([p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]) >= 2 for m in slow]
        assert non_prime_power_elements(g).tolist() == bad
        ok, wit = is_cp(g)
        assert ok == (not any(bad))
        if not ok:
            assert wit.a_index == bad.index(True)
            assert wit.a_order == slow[wit.a_index]

    def test_s4_is_cp(self, s4):
        assert is_cp(s4) == (True, None)

    def test_p_groups_are_cp(self, q8):
        assert is_cp(q8)[0]

    def test_s3_fails_cp2_with_transposition_pair(self, s3):
        ok, wit = is_cp2(s3)
        assert not ok
        assert (wit.a_order, wit.b_order, wit.ab_order) == (2, 2, 3)

    def test_q8_in_cp2(self, q8):
        assert is_cp2(q8)[0]

    def test_z4_in_cp2(self):
        assert is_cp2(cg.cyclic(4))[0]

    def test_s4_fails_cp3_with_involution_pair(self, s4):
        ok, wit = is_cp3(s4)
        assert not ok
        assert wit.a_order == 2 and wit.b_order == 2 and wit.ab_order == 4

    def test_a4_in_cp3(self, a4):
        assert is_cp3(a4)[0]

    def test_d8_fails_cp3(self, d8):
        assert not is_cp3(d8)[0]

    def test_trivial_group_in_all_classes(self):
        t = cg.cyclic(1)
        assert is_cp(t)[0] and is_cp2(t)[0] and is_cp3(t)[0]

    def test_witness_is_lexicographically_smallest(self, z6):
        _, wit = is_cp3(z6)
        orders = z6.order_table().orders
        found = None
        for a in range(6):
            for b in range(6):
                if orders[z6.mul(a, b)] >= orders[a] + orders[b]:
                    found = (a, b)
                    break
            if found:
                break
        assert (wit.a_index, wit.b_index) == found

    def test_witness_deterministic_across_runs(self):
        # two builds of S4: is_cp3 caches its scan on each group
        first = is_cp3(cg.symmetric(4))[1]
        second = is_cp3(cg.symmetric(4))[1]
        assert (first.a_index, first.b_index) == (second.a_index, second.b_index)

    @pytest.mark.parametrize("predicate", [is_cp2, is_cp3])
    def test_second_scan_forms_no_product(self, predicate, monkeypatch):
        g = cg.symmetric(4)
        first = predicate(g)
        products = []
        mul_pairs = g.backend.mul_pairs
        monkeypatch.setattr(g.backend, "mul_pairs", lambda a, b: products.append(1) or mul_pairs(a, b))
        assert predicate(g) == first
        assert products == []

    @pytest.mark.parametrize("first,second", [(is_cp2, is_cp3), (is_cp3, is_cp2)])
    def test_one_scan_decides_cp2_and_cp3(self, first, second, monkeypatch):
        g = cg.symmetric(4)
        first(g)
        products = []
        mul_pairs = g.backend.mul_pairs
        monkeypatch.setattr(g.backend, "mul_pairs", lambda a, b: products.append(1) or mul_pairs(a, b))
        assert second(g) == second(cg.symmetric(4))
        assert products == []

    def test_custom_scans_stay_uncached(self, monkeypatch):
        g = cg.symmetric(4)
        assert not is_cp3(g)[0]
        products = []
        mul_pairs = g.backend.mul_pairs
        monkeypatch.setattr(g.backend, "mul_pairs", lambda a, b: products.append(1) or mul_pairs(a, b))
        for _ in range(2):
            count = len(products)
            assert scan_pair_order_condition(g, lambda oa, ob, oab: oab < oa + ob)[0] is False
            assert len(products) > count

    def test_parent_scanned_once_by_the_lattice_checks(self, monkeypatch):
        from cpgroups import metric
        from cpgroups.subgroups import hereditary_check, quotient_scan

        g = cg.alternating(4)
        scans = []
        scan = metric._first_failing_pairs
        monkeypatch.setattr(metric, "_first_failing_pairs", lambda *a, **k: scans.append(1) or scan(*a, **k))
        assert is_cp3(g)[0]
        assert hereditary_check(g, is_cp3).ok
        assert quotient_scan(g, is_cp3).parent_holds
        assert scans == [1]


class TestWitnessInvariants:
    @pytest.mark.parametrize(
        "spec", ["cyclic:6", "dihedral:8", "symmetric:4", "dicyclic:16", "product:cyclic:2,cyclic:5"]
    )
    def test_cp3_witness_inequality(self, spec):
        g = cg.group_from_spec(spec)
        ok, wit = is_cp3(g)
        if not ok:
            assert wit.ab_order >= wit.a_order + wit.b_order

    @pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:12", "alternating:4"])
    def test_cp2_witness_inequality(self, spec):
        g = cg.group_from_spec(spec)
        ok, wit = is_cp2(g)
        if not ok:
            assert wit.ab_order > max(wit.a_order, wit.b_order)

    def test_cp_witness_has_two_prime_factors(self, z6):
        _, wit = is_cp(z6)
        assert wit.a_index == wit.b_index
        from cpgroups.core import distinct_primes

        assert len(distinct_primes(wit.a_order)) >= 2


class TestCustomScanHook:
    def test_reimplements_cp2(self, s3):
        ok, wit = scan_pair_order_condition(
            s3, lambda oa, ob, oab: oab <= np.maximum(oa, ob), tag="mine"
        )
        builtin_ok, builtin_wit = is_cp2(s3)
        assert ok == builtin_ok
        assert (wit.a_index, wit.b_index) == (builtin_wit.a_index, builtin_wit.b_index)
        assert wit.violated == "mine"

    def test_always_true_condition(self, z6):
        ok, wit = scan_pair_order_condition(z6, lambda oa, ob, oab: oab <= oab)
        assert ok and wit is None


# (numpy condition as the scan calls it, the same condition on Python ints)
_SCAN_CONDITIONS = {
    "CP2": (lambda oa, ob, oab: oab <= np.maximum(oa, ob), lambda oa, ob, oab: oab <= max(oa, ob)),
    "CP3": (lambda oa, ob, oab: oab < oa + ob, lambda oa, ob, oab: oab < oa + ob),
    "lcm": (
        lambda oa, ob, oab: np.lcm(oa, ob) % oab == 0,
        lambda oa, ob, oab: math.lcm(oa, ob) % oab == 0,
    ),
}


def _assert_scans_match_slow_witness(g):
    predicates = {"CP2": is_cp2, "CP3": is_cp3}
    for tag, (fast, slow) in _SCAN_CONDITIONS.items():
        if tag in predicates:
            ok, wit = predicates[tag](g)
        else:
            ok, wit = scan_pair_order_condition(g, fast, tag=tag)
        expected = slow_pair_witness(g, slow)
        assert ok == (expected is None), tag
        if expected is not None:
            a, b = expected
            assert (wit.a_index, wit.b_index, wit.violated) == (a, b, tag)
            assert (wit.a_order, wit.b_order, wit.ab_order) == (
                slow_element_order(g, a),
                slow_element_order(g, b),
                slow_element_order(g, g.mul(a, b)),
            )


class TestBlockPairScan:
    """Witnesses of the block scan against a pure-Python pair-by-pair scan."""

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(200)])
    def test_table_backend_matches_slow_witness(self, name):
        _assert_scans_match_slow_witness(cg.group_from_spec(name))

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(60)])
    def test_permutation_backend_matches_slow_witness(self, name, tableless_copy):
        _assert_scans_match_slow_witness(tableless_copy(cg.group_from_spec(name)))

    def test_blocks_double_up_to_the_entry_bound(self, monkeypatch):
        # 512 x 512 pairs: FIRST_BLOCK_ENTRIES products (2 rows) first, then
        # doubling up to the 64 rows BLOCK_ENTRIES allows
        assert cg.metric.FIRST_BLOCK_ENTRIES == 2 * 512
        monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", 64 * 512)
        shapes = []

        def record(oa, ob, oab):
            shapes.append(oab.shape)
            assert oa.shape == (oab.shape[0], 1) and ob.shape == (1, 512)
            return oab >= 1

        assert scan_pair_order_condition(cg.elementary_abelian(2, 9), record) == (True, None)
        assert [rows for rows, _ in shapes] == [2, 4, 8, 16, 32] + [64] * 7 + [2]
        assert {cols for _, cols in shapes} == {512}

    @pytest.mark.parametrize("n,first", [(1, 1024), (100, 10), (1024, 1), (4096, 1), (5040, 1)])
    def test_first_block_holds_about_first_block_entries_products(self, n, first):
        blocks = [len(rows) for rows in cg.metric._doubling_blocks(n)]
        assert blocks[0] == min(n, first)
        assert sum(blocks) == n

    @pytest.mark.parametrize(
        "name", ["psl2:9", "dihedral:6", "symmetric:3", "psl2:2", "dihedral:512"]
    )
    @pytest.mark.parametrize("one_row_blocks", [False, True])
    def test_fused_scan_matches_slow_witness(self, name, one_row_blocks, monkeypatch):
        # psl2:9 fails CP2 in row 1 and CP3 in row 3, in one block or, with
        # one-row blocks, in two; S3 (as dihedral:6, symmetric:3 and psl2:2)
        # fails CP2 and holds CP3, so its scan runs to the end; dihedral:512
        # fails both in row 256, six blocks in
        g = cg.group_from_spec(name)
        if one_row_blocks:
            monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", g.order)
        _assert_scans_match_slow_witness(g)

    @pytest.mark.parametrize(
        "name", ["cyclic:60", "dihedral:120", "dicyclic:96", "symmetric:4", "psl2:5", "elemab:2^7"]
    )
    def test_witnesses_unchanged_when_the_bound_binds(self, name, monkeypatch):
        # 3 rows a block at most, so the witness rows sit many blocks in
        g = cg.group_from_spec(name)
        monkeypatch.setattr(cg.core, "BLOCK_ENTRIES", 3 * g.order + 1)
        _assert_scans_match_slow_witness(g)

    def test_condition_may_return_a_broadcastable_array(self, z6):
        # a condition on the a-orders alone is a column; it fails first at a = 1
        ok, wit = scan_pair_order_condition(z6, lambda oa, ob, oab: oa < 2, tag="col")
        assert not ok and (wit.a_index, wit.b_index) == (1, 0)

    def test_symmetric_7_needs_no_distance_matrix(self, monkeypatch):
        def refuse(g):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(cg.metric, "distance_matrix", refuse)
        g = cg.symmetric(7)
        assert g.table is None
        r = classify(g)
        assert r.metric.identity and r.metric.symmetry
        assert not r.in_cp and not r.in_cp2 and not r.in_cp3
        assert (r.cp3_witness.a_order, r.cp3_witness.b_order, r.cp3_witness.ab_order) == (2, 7, 12)


class TestMetricAxioms:
    def test_s3_all_axioms_hold(self, s3):
        ax = check_metric_axioms(s3)
        assert ax.identity and ax.symmetry and ax.triangle
        assert not ax.ultrametric

    def test_z6_triangle_fails(self, z6):
        ax = check_metric_axioms(z6)
        assert ax.identity and ax.symmetry
        assert not ax.triangle
        x, y, z = ax.violating_triple
        d = distance_matrix(z6)
        assert d[x, z] > d[x, y] + d[y, z]

    def test_q8_all_axioms_hold(self, q8):
        ax = check_metric_axioms(q8)
        assert ax.identity and ax.symmetry and ax.triangle and ax.ultrametric

    @pytest.mark.parametrize(
        "orders,identity,symmetry",
        [
            ([1, 6, 3, 2, 3, 6], True, True),
            ([1, 6, 1, 2, 1, 6], False, True),  # a^2 and a^4 at distance 0 from e
            ([1, 6, 3, 2, 2, 6], True, False),  # o(a^2) != o(a^4) = o((a^2)^-1)
        ],
    )
    def test_identity_and_symmetry_are_read_off_the_orders(
        self, orders, identity, symmetry, monkeypatch
    ):
        # cyclic:6 with a substituted order table: inverses are i -> 6 - i
        g = cg.cyclic(6)
        table = cg.core.OrderTable(orders=np.array(orders), max_order=6, primes=(2, 3))
        monkeypatch.setattr(g, "order_table", lambda: table)
        ax = check_metric_axioms(g)
        assert (ax.identity, ax.symmetry) == (identity, symmetry)

    def test_audit_agrees_with_reduction(self, s3, z6, q8, d8):
        for g in (s3, z6, q8, d8):
            ax = check_metric_axioms(g, audit=True)
            assert ax.audited
            assert triangle_audit(g) == ax.triangle

    def test_audit_matches_pure_python_oracle(self):
        for g in (cg.symmetric(3), cg.cyclic(6), cg.dicyclic(2), cg.dihedral(4), cg.cyclic(8)):
            assert triangle_audit(g) == slow_triangle_holds(g)
            assert is_cp2(g)[0] == slow_ultrametric_holds(g)

    @pytest.mark.parametrize("name", [e.name for e in cg.catalog_entries(24)])
    def test_identity_and_symmetry_match_the_distance_matrix(self, name):
        g = cg.group_from_spec(name)
        d = distance_matrix(g)
        ax = check_metric_axioms(g)
        assert ax.identity == bool(((d == 0) == np.eye(g.order, dtype=bool)).all())
        assert ax.symmetry == bool(np.array_equal(d, d.T))

    def test_audit_cap(self):
        with pytest.raises(CapExceededError):
            triangle_audit(cg.cyclic(100))


class TestLayerCheck:
    def test_q8_layers(self, q8):
        report = layer_check(q8)
        assert report.p == 2
        assert [(r.size, r.is_normal) for r in report.rows] == [
            (1, True),
            (2, True),
            (8, True),
            (8, True),
        ]
        assert report.all_normal

    def test_z4_layers(self):
        report = layer_check(cg.cyclic(4))
        assert [r.size for r in report.rows] == [1, 2, 4]
        assert report.all_normal

    def test_d8_layer_fails_to_be_subgroup(self, d8):
        report = layer_check(d8)
        bad = [r for r in report.rows if not r.is_subgroup]
        assert bad and bad[0].size == 6
        assert not report.all_normal

    def test_rejects_non_p_group(self, z6):
        with pytest.raises(ValueError):
            layer_check(z6)

    def test_trivial_group(self):
        report = layer_check(cg.cyclic(1))
        assert report.p == "trivial"
        assert report.all_normal


class TestInvolutionWitness:
    def test_s4_has_involution_pair_of_product_order_four(self, s4):
        wit = involution_product_witness(s4)
        assert wit is not None
        assert wit.a_order == wit.b_order == 2
        assert wit.ab_order == 4

    def test_a4_has_none(self, a4):
        assert involution_product_witness(a4) is None

    @pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:15", "elemab:3^3", "product:cyclic:5,cyclic:9"])
    def test_odd_order_has_no_involutions(self, spec):
        g = cg.group_from_spec(spec)
        assert not (g.order_table().orders == 2).any()
        assert involution_product_witness(g) is None


class TestClassify:
    def test_s3(self, s3):
        r = classify(s3)
        assert r.in_cp3 and not r.in_cp2 and r.in_cp
        assert r.metric.triangle == r.in_cp3
        assert r.metric.ultrametric == r.in_cp2

    def test_z6(self, z6):
        r = classify(z6)
        assert not r.in_cp3 and not r.in_cp
        assert r.solvable

    def test_a4(self, a4):
        r = classify(a4)
        assert r.in_cp3

    def test_hierarchy_on_sample(self):
        for spec in ("cyclic:12", "dihedral:10", "dicyclic:12", "elemab:3^2", "symmetric:4"):
            r = classify(cg.group_from_spec(spec))
            assert (not r.in_cp2) or r.in_cp3
            assert (not r.in_cp3) or r.in_cp

    def test_relabeling_by_conjugation_preserves_flags(self, s4):
        # relabel elements through conjugation by a fixed t: phi(x) = t^-1 x t
        t = 5
        n = s4.order
        phi = np.array([s4.mul(s4.mul(int(s4.inv[t]), x), t) for x in range(n)])
        inv_phi = np.empty(n, dtype=int)
        inv_phi[phi] = np.arange(n)
        table = np.array(
            [[phi[s4.mul(int(inv_phi[i]), int(inv_phi[j]))] for j in range(n)] for i in range(n)]
        )
        relabeled = cg.from_cayley(table, name="s4-relabeled")
        a, b = classify(s4), classify(relabeled)
        assert (a.in_cp, a.in_cp2, a.in_cp3) == (b.in_cp, b.in_cp2, b.in_cp3)
        assert a.order_multiset == b.order_multiset


class TestSerialization:
    def test_text_report_mentions_flags(self, s3):
        text = cg.metric.report_text(s3, classify(s3))
        assert "cp3: true" in text
        assert "cp2: false" in text
        assert "ultrametric: false" in text

    def test_records_are_key_value_lines(self, z6):
        records = cg.metric.report_records(z6, classify(z6))
        for line in records.splitlines():
            assert "=" in line
        assert "cp3=false" in records
        assert "cp3_witness_orders=3,2,6" in records

    def test_witness_rendering_uses_labels(self, s3):
        _, wit = is_cp2(s3)
        rendered = render_witness(s3, wit)
        assert "(" in rendered and "order 2" in rendered

    @staticmethod
    def _csv_text(g):
        buf = io.StringIO()
        write_distance_csv(g, distance_matrix(g), buf)
        return buf.getvalue()

    def test_csv_matrix(self):
        text = self._csv_text(cg.cyclic(2))
        assert text.splitlines() == [",e,a", "e,0,1", "a,1,0"]

    @pytest.mark.parametrize(
        "g",
        [
            cg.group_from_spec("elemab:2^3"),
            cg.group_from_spec("product:cyclic:2,cyclic:3"),
            cg.from_cayley(
                cg.cyclic(6).mul_outer(np.arange(6)).tolist(),
                labels=["", "a,b", 'q"x', "line\nbreak", "cr\rx", " lead"],
                name="awkward-labels",
            ),
        ],
        ids=["elemab", "product", "awkward-labels"],
    )
    def test_csv_quotes_labels_as_the_csv_module_does(self, g):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow([""] + g.labels)
        for label, row in zip(g.labels, distance_matrix(g).tolist()):
            writer.writerow([label] + row)
        assert self._csv_text(g) == expected.getvalue()

    def test_csv_symmetric_entries_bounded(self, s3):
        text = self._csv_text(s3)
        rows = text.splitlines()
        assert len(rows) == 7
        for row in rows[1:]:
            for tok in row.split(",")[1:]:
                assert tok in {"0", "1", "2"}
