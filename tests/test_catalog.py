import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cpgroups as cg
from cpgroups import CapExceededError
from cpgroups.catalog import SUPPORTED_PSL_Q, _REDUCTION_POLYS
from cpgroups.metric import involution_product_witness

from oracles import _slow_closure, reference_table


class TestMakeField:
    def test_gf2_is_xor_and_and(self):
        f = cg.make_field(2, 1)
        assert f.add.tolist() == [[0, 1], [1, 0]]
        assert f.mul.tolist() == [[0, 0], [0, 1]]

    def test_gf4_x_squared(self):
        # under x^2 + x + 1: x * x = x + 1; x has index 2, x+1 index 3
        f = cg.make_field(2, 2)
        assert f.mul[2, 2] == 3

    def test_gf9_x_squared(self):
        # under x^2 + 1: x * x = -1 = 2; x has index 3 (digits 0,1)
        f = cg.make_field(3, 2)
        assert f.mul[3, 3] == 2

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (17, 1), (2, 3), (2, 5), (3, 3), (5, 2)])
    def test_supported_fields_build(self, p, k):
        f = cg.make_field(p, k)
        assert f.q == p**k

    def test_unsupported_field(self):
        with pytest.raises(ValueError):
            cg.make_field(37, 1)
        with pytest.raises(ValueError):
            cg.make_field(2, 6)

    def test_reducible_polynomial_caught(self, monkeypatch):
        # x^2 + 1 factors over GF(2), so 1 + x is a zero divisor
        monkeypatch.setitem(_REDUCTION_POLYS, (2, 2), (1, 0, 1))
        with pytest.raises(ValueError):
            cg.make_field(2, 2)

    def test_characteristic(self):
        f = cg.make_field(5, 1)
        acc = 0
        for _ in range(5):
            acc = int(f.add[acc, 1])
        assert acc == 0


class TestConstructors:
    def test_order_formulas(self):
        assert cg.cyclic(7).order == 7
        assert cg.dihedral(6).order == 12
        assert cg.dicyclic(3).order == 12
        assert cg.symmetric(4).order == 24
        assert cg.alternating(5).order == 60
        assert cg.elementary_abelian(3, 2).order == 9
        assert cg.direct_product(cg.cyclic(3), cg.cyclic(5)).order == 15

    def test_q8_single_involution(self):
        orders = cg.dicyclic(2).order_table().orders
        assert int((orders == 2).sum()) == 1

    def test_d8_five_involutions(self):
        orders = cg.dihedral(4).order_table().orders
        assert int((orders == 2).sum()) == 5

    def test_z2_x_z3_has_order_six_element(self):
        g = cg.direct_product(cg.cyclic(2), cg.cyclic(3))
        assert int(g.order_table().max_order) == 6

    def test_dicyclic_relations(self):
        g = cg.dicyclic(4)  # Q16: a of order 8, b^2 = a^4
        b = 8
        assert g.mul(b, b) == 4
        a = 1
        conj = g.mul(g.mul(int(g.inv[b]), a), b)
        assert conj == int(g.inv[a])

    def test_element_cap(self):
        for build in (
            lambda: cg.cyclic(10001),
            lambda: cg.dihedral(5001),
            lambda: cg.dicyclic(2501),
            lambda: cg.elementary_abelian(2, 14),
            lambda: cg.direct_product(cg.cyclic(101), cg.cyclic(100)),
            lambda: cg.symmetric(8),
            lambda: cg.alternating(8),
        ):
            with pytest.raises(CapExceededError, match="ELEMENT_CAP=10000"):
                build()
        assert [g.order for g in (cg.cyclic(10000), cg.dihedral(5000), cg.dicyclic(2500))] == [10000] * 3


class TestElementCap:
    """The formula families and direct products stop at ELEMENT_CAP before
    allocating anything, and below it hold no n x n array."""

    @pytest.mark.parametrize(
        "spec",
        [
            "cyclic:10001",
            "cyclic:1000000000000",
            "dihedral:10002",
            "dicyclic:10004",
            "elemab:2^14",
            "elemab:17^4",
            "product:cyclic:9999,cyclic:9999",
        ],
    )
    def test_over_the_cap_raises_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="ELEMENT_CAP=10000"):
                cg.group_from_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "spec", ["cyclic:10000", "dihedral:10000", "dicyclic:4096", "elemab:2^12", "elemab:17^3"]
    )
    def test_building_keeps_no_square_array(self, spec):
        tracemalloc.start()
        try:
            g = cg.group_from_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.table is None and g.perms is None
        # one int32 table of order 4096 is 64 MB, of order 10000 400 MB
        assert peak < 64 * g.order

    def test_catalog_iter_over_the_cap_raises_before_building(self):
        with pytest.raises(CapExceededError, match="ELEMENT_CAP=10000"):
            next(cg.catalog_iter(10001))


_FORMULA_FAMILIES = ("cyclic", "dihedral", "dicyclic", "elemab", "product")
_FORMULA_SPECS = [e.name for e in cg.catalog_entries(200) if e.family in _FORMULA_FAMILIES] + [
    "product:symmetric:3,cyclic:4",
    "product:dicyclic:8,elemab:3^2",
    "product:cyclic:5,dihedral:10",
]
_LARGE_FORMULA_SPECS = [
    *(f"{family}:{n}" for family in ("cyclic", "dihedral", "dicyclic") for n in (1024, 2500, 4096)),
    "elemab:2^10",
    "elemab:7^4",
    "elemab:2^12",
    "product:cyclic:32,cyclic:32",
    "product:cyclic:50,cyclic:50",
    "product:cyclic:64,cyclic:64",
]


class TestFormulaProducts:
    """The formula families multiply and invert as the tables filled from
    their defining relations (:func:`oracles.reference_table`) say."""

    @staticmethod
    def _check(spec):
        g, table = cg.group_from_spec(spec), reference_table(spec)
        assert g.table is None and g.order == len(table)
        ar = np.arange(g.order)
        for lo in range(0, g.order, 512):  # a block of rows keeps the products small
            assert np.array_equal(g.mul_outer(ar[lo : lo + 512]), table[lo : lo + 512])
        assert np.array_equal(g.inv, np.argmax(table == 0, axis=1))

    @pytest.mark.parametrize("spec", _FORMULA_SPECS)
    def test_up_to_order_200(self, spec):
        self._check(spec)

    @pytest.mark.parametrize("spec", _LARGE_FORMULA_SPECS)
    def test_large_orders(self, spec):
        self._check(spec)


_ORDER_SPECS = [
    *_FORMULA_SPECS,
    *(f"{family}:{n}" for family in ("cyclic", "dihedral", "dicyclic") for n in (1024, 2500, 4096)),
    "dihedral:2",  # cyclic:1 is in the catalog
    "dicyclic:4",
    "dihedral:10000",
    "elemab:7^4",
    "product:dihedral:64,cyclic:27",
    "product:symmetric:4,cyclic:6",
]


class TestFormulaOrders:
    """The closed-form element orders of the formula families and their
    products equal what the generic prime-by-prime powering
    (:meth:`core.Backend.orders`) finds."""

    @pytest.mark.parametrize("spec", _ORDER_SPECS)
    def test_match_generic_powering(self, spec):
        g = cg.group_from_spec(spec)
        if g.order <= cg.core.TABLE_LIMIT:
            # powering on a table of the products filled from the family's relations
            generic = cg.core.TableBackend(reference_table(spec)).orders()
        else:
            # no table at this order: powering through the formula's own products
            generic = cg.core.Backend.orders(g.backend)
        assert g.order_table().orders.tolist() == generic.tolist()

    @pytest.mark.parametrize(
        "spec",
        ["cyclic:4096", "dihedral:10000", "dicyclic:4096", "elemab:7^4", "product:dihedral:64,cyclic:27"],
    )
    def test_form_no_product(self, spec, monkeypatch):
        g = cg.group_from_spec(spec)

        def refuse(*_):
            raise AssertionError("a product was formed for the order table")

        formulas = (cg.catalog._CyclicBackend, cg.catalog._MetacyclicBackend, cg.catalog._ElemAbBackend)
        for cls in (*formulas, cg.core.ProductBackend, cg.FiniteGroup):
            monkeypatch.setattr(cls, "mul_pairs", refuse)
        g.order_table()


_GENERATOR_SPECS = [
    *_FORMULA_SPECS,
    *(f"{family}:{n}" for family in ("cyclic", "dihedral", "dicyclic") for n in (1024, 4096)),
    "dihedral:2",  # cyclic:1 is in the catalog
    "dicyclic:4",
    "elemab:7^4",
    "elemab:2^12",
    "product:dihedral:64,cyclic:27",
    "product:symmetric:4,cyclic:6",
]


class TestFormulaGenerators:
    """The closed-form generators of the formula families and their
    products (:meth:`core.Backend.generators`) generate the group, and what
    is read from them equals what the greedy pass of a table finds."""

    @pytest.mark.parametrize("spec", _GENERATOR_SPECS)
    def test_span_the_group(self, spec):
        g = cg.group_from_spec(spec)
        gens = g._generators()
        assert len(set(gens)) == len(gens) and all(0 < x < g.order for x in gens)
        assert g.span(gens).tolist() == list(range(g.order))

    @pytest.mark.parametrize("spec", _GENERATOR_SPECS)
    def test_form_no_product(self, spec, monkeypatch):
        g = cg.group_from_spec(spec)

        def refuse(*_):
            raise AssertionError("a product was formed for the generators")

        monkeypatch.setattr(g.backend, "mul_pairs", refuse)
        g._generators()

    @pytest.mark.parametrize("spec", [*_FORMULA_SPECS, "dihedral:2", "dicyclic:4"])
    def test_match_greedy_table(self, spec):
        g, table = cg.group_from_spec(spec), reference_table(spec)
        # the slow closure multiplies through the rows of the table as lists
        rows = table.tolist()
        span = _slow_closure(SimpleNamespace(mul=lambda a, b: rows[a][b]), set(g._generators()))
        assert span == set(range(g.order))
        # the table copy runs the greedy pass over its elements
        h = cg.FiniteGroup(cg.core.TableBackend(table), labels=g.labels, name=spec)
        assert g.derived_series() == h.derived_series()
        assert g.is_abelian == h.is_abelian


class TestPsl2:
    def test_small_orders(self):
        assert cg.psl2(2).order == 6
        assert cg.psl2(3).order == 12
        assert cg.psl2(4).order == 60
        assert cg.psl2(7).order == 168

    def test_order_formula_all_supported(self):
        for q in SUPPORTED_PSL_Q:
            assert cg.psl2(q).order == q * (q * q - 1) // math.gcd(2, q - 1)

    def test_psl2_2_looks_like_s3(self, s3):
        g = cg.psl2(2)
        assert sorted(g.order_table().orders.tolist()) == sorted(
            s3.order_table().orders.tolist()
        )

    def test_psl2_4_matches_a5_order_multiset(self, a5):
        g = cg.psl2(4)
        assert sorted(g.order_table().orders.tolist()) == sorted(
            a5.order_table().orders.tolist()
        )

    def test_unsupported_q(self):
        with pytest.raises(ValueError):
            cg.psl2(6)
        with pytest.raises(ValueError):
            cg.psl2(19)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_involution_pair_with_large_product(self, q):
        wit = involution_product_witness(cg.psl2(q))
        assert wit is not None
        assert wit.ab_order > 3

    def test_acts_on_projective_line(self):
        g = cg.psl2(5)
        assert g.perms.shape[1] == 6


class TestCatalog:
    def test_max_order_8_contains_named_groups(self):
        names = [name for name, _ in cg.catalog_iter(8)]
        for expected in ("cyclic:6", "dicyclic:8", "dihedral:8", "symmetric:3"):
            assert expected in names

    def test_max_order_1_only_trivial(self):
        names = [name for name, _ in cg.catalog_iter(1)]
        assert names == ["cyclic:1"]

    def test_max_order_60_contains_a5_and_psl2_4(self):
        names = [name for name, _ in cg.catalog_iter(60)]
        assert "alternating:5" in names
        assert "psl2:4" in names

    def test_orders_respect_bound_and_sorted(self):
        entries = cg.catalog_entries(48)
        assert all(e.order <= 48 for e in entries)
        keys = [(e.order, e.name) for e in entries]
        assert keys == sorted(keys)

    def test_names_stable_and_resolvable(self):
        first = [e.name for e in cg.catalog_entries(30)]
        second = [e.name for e in cg.catalog_entries(30)]
        assert first == second
        for name in first:
            assert cg.group_from_spec(name).order <= 30
        # every name up to the cap on orders round-trips through the parser
        for entry in cg.catalog_entries(4096):
            g = cg.group_from_spec(entry.name)
            assert (g.name, g.order) == (entry.name, entry.order)

    def test_abelian_flag_is_accurate(self):
        for entry in cg.catalog_entries(200):
            assert entry.build().is_abelian == entry.abelian, entry.name

    def test_names_and_orders_match_the_classify_golden(self):
        # the order of tests/golden/classify-512.records, which CI compares
        # with the full classify output, without building a group
        golden = Path(__file__).parent / "golden" / "classify-512.records"
        expected = [tuple(line.split()[:2]) for line in golden.read_text().splitlines()]
        assert [(f"name={e.name}", f"order={e.order}") for e in cg.catalog_entries(512)] == expected

    def test_entry_orders_match_built_groups(self):
        for entry in cg.catalog_entries(26):
            assert entry.build().order == entry.order, entry.name


class TestSimpleCpGroups:
    def test_psl2_family_splits_on_cp(self):
        # among the simple members, exactly q in {4,5,7,8,9,17} have all
        # element orders prime powers; q = 11 and 13 pick up an order-6 element
        from cpgroups.metric import is_cp

        expected_cp = {4: True, 5: True, 7: True, 8: True, 9: True, 11: False, 13: False, 17: True}
        for q, want in expected_cp.items():
            assert is_cp(cg.psl2(q))[0] == want, q


class TestGroupFromSpec:
    def test_identifiers(self):
        assert cg.group_from_spec("cyclic:6").order == 6
        assert cg.group_from_spec("dihedral:8").order == 8
        assert cg.group_from_spec("dicyclic:8").order == 8
        assert cg.group_from_spec("symmetric:4").order == 24
        assert cg.group_from_spec("alternating:5").order == 60
        assert cg.group_from_spec("elemab:2^3").order == 8
        assert cg.group_from_spec("product:cyclic:2,cyclic:3").order == 6
        assert cg.group_from_spec("psl2:7").order == 168

    def test_dicyclic_8_is_quaternion(self):
        g = cg.group_from_spec("dicyclic:8")
        assert int((g.order_table().orders == 2).sum()) == 1

    def test_bad_specs(self):
        for bad in (
            "dihedral:7", "dicyclic:10", "elemab:4^2", "elemab:8", "nosuch:3", "cyclic:0", "cyclic:x", "product:cyclic:2",
            "cyclic:1_0", "cyclic:+4", "cyclic:\u0663",
        ):
            with pytest.raises(ValueError):
                cg.group_from_spec(bad)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("dihedral:7", "dihedral order must be even and >= 2: 'dihedral:7'"),
            ("dihedral:1", "dihedral order must be even and >= 2: 'dihedral:1'"),
            ("dihedral:0", "value must be positive in group spec 'dihedral:0'"),
            ("dicyclic:10", "dicyclic order must be a positive multiple of 4: 'dicyclic:10'"),
            ("dicyclic:2", "dicyclic order must be a positive multiple of 4: 'dicyclic:2'"),
            ("elemab:4^2", "4 is not prime"),
            ("elemab:1^2", "1 is not prime"),
            ("elemab:8", "elemab spec must look like elemab:p^k: 'elemab:8'"),
            ("elemab:2^0", "value must be positive in group spec 'elemab:2^0'"),
            ("elemab:x^2", "bad integer in group spec 'elemab:x^2'"),
            ("elemab:2^3^4", "bad integer in group spec 'elemab:2^3^4'"),
            ("elemab:2^", "bad integer in group spec 'elemab:2^'"),
            ("nosuch:3", "unknown group family 'nosuch'"),
            ("Cyclic:3", "unknown group family 'Cyclic'"),
            (":3", "unknown group family ''"),
            ("nosuch", "unrecognized group spec 'nosuch'"),
            ("cyclic 3", "unrecognized group spec 'cyclic 3'"),
            ("  ", "unrecognized group spec ''"),
            ("cyclic:0", "value must be positive in group spec 'cyclic:0'"),
            ("cyclic:00", "value must be positive in group spec 'cyclic:00'"),
            ("cyclic:-3", "value must be positive in group spec 'cyclic:-3'"),
            ("cyclic:x", "bad integer in group spec 'cyclic:x'"),
            (" cyclic:x ", "bad integer in group spec 'cyclic:x'"),
            ("cyclic:", "bad integer in group spec 'cyclic:'"),
            ("cyclic:2.5", "bad integer in group spec 'cyclic:2.5'"),
            ("cyclic:2^3", "bad integer in group spec 'cyclic:2^3'"),
            pytest.param(
                "cyclic:" + "9" * 5000, "bad integer in group spec 'cyclic:" + "9" * 5000 + "'", id="above-int-digit-limit"
            ),
            ("cyclic:1_0", "bad integer in group spec 'cyclic:1_0'"),
            ("cyclic:+4", "bad integer in group spec 'cyclic:+4'"),
            ("cyclic:\u0663", "bad integer in group spec 'cyclic:\u0663'"),
            ("symmetric:0", "value must be positive in group spec 'symmetric:0'"),
            ("alternating:0", "value must be positive in group spec 'alternating:0'"),
            ("psl2:0", "value must be positive in group spec 'psl2:0'"),
            ("psl2:6", "unsupported q=6; supported: (2, 3, 4, 5, 7, 8, 9, 11, 13, 17)"),
            ("product:cyclic:2", "product spec needs exactly two components: 'product:cyclic:2'"),
            ("product:", "product spec needs exactly two components: 'product:'"),
            ("product:a,b,c", "product spec needs exactly two components: 'product:a,b,c'"),
            ("product:cyclic:2,nosuch:3", "unknown group family 'nosuch'"),
            ("product:cyclic:2,dihedral:3", "dihedral order must be even and >= 2: 'dihedral:3'"),
        ],
    )
    def test_error_messages(self, spec, message):
        with pytest.raises(ValueError) as caught:
            cg.group_from_spec(spec)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "spec,name,order",
        [
            ("dihedral:2", "dihedral:2", 2),
            ("dicyclic:4", "dicyclic:4", 4),
            ("symmetric:1", "symmetric:1", 1),
            ("alternating:2", "alternating:2", 1),
            ("cyclic: 5", "cyclic:5", 5),
            ("elemab: 2 ^ 3 ", "elemab:2^3", 8),
            ("product: cyclic:2 , cyclic:3", "product:cyclic:2,cyclic:3", 6),
        ],
    )
    def test_degenerate_and_spaced_specs_resolve(self, spec, name, order):
        g = cg.group_from_spec(spec)
        assert (g.name, g.order) == (name, order)
