"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-v``)
and enforces the stated runtime bound where one exists.
"""

import math
import time

import numpy as np

import cpgroups as cg
from cpgroups import parse_cycles
from cpgroups.catalog import SUPPORTED_PSL_Q
from cpgroups.metric import (
    check_metric_axioms,
    involution_product_witness,
    is_cp,
    is_cp2,
    is_cp3,
    triangle_audit,
)
from cpgroups.verify import run_verify

from oracles import brute_force_subgroup_count, cyclic_union_subgroup_count, slow_element_order


def _report(number: int, elapsed: float, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) {text}")


def test_criterion_1_paper_fact_regression():
    start = time.monotonic()

    s3 = cg.symmetric(3)
    assert is_cp3(s3)[0] and not is_cp2(s3)[0]

    z6 = cg.cyclic(6)
    ok, wit = is_cp3(z6)
    assert not ok
    assert {wit.a_order, wit.b_order} == {2, 3} and wit.ab_order == 6

    assert is_cp3(cg.dicyclic(2))[0]          # Q8
    assert not is_cp3(cg.dihedral(4))[0]      # D8
    for n in (4, 8):                          # Q16, Q32
        assert not is_cp3(cg.dicyclic(n))[0]
    for n in range(4, 13):                    # D8 .. D24
        assert not is_cp3(cg.dihedral(n))[0]

    s4 = cg.symmetric(4)
    ok, wit = is_cp3(s4)
    assert not ok
    assert wit.a_order == 2 and wit.b_order == 2 and wit.ab_order == 4
    # the literal witness pair, under the fixed composition convention
    orders = s4.order_table().orders
    a = int(np.flatnonzero((s4.perms == parse_cycles("(1 2)(3 4)", 4).images).all(axis=1))[0])
    b = int(np.flatnonzero((s4.perms == parse_cycles("(1 3)", 4).images).all(axis=1))[0])
    assert 4 in {int(orders[s4.mul(a, b)]), int(orders[s4.mul(b, a)])}
    assert int(orders[s4.mul(a, b)]) == 4

    for n in (4, 5, 6):
        assert not is_cp3(cg.symmetric(n))[0]
    for n in (5, 6):
        assert not is_cp3(cg.alternating(n))[0]
    assert is_cp3(cg.alternating(4))[0]

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, elapsed, "named-group class memberships and witnesses")


def test_criterion_2_theorem1_catalog():
    start = time.monotonic()
    result = run_verify("theorem1", max_order=200)
    elapsed = time.monotonic() - start
    assert result.passed, result.lines
    assert elapsed < 30.0
    _report(2, elapsed, "cp3 implies cp over the catalog, S4 separates")


def test_criterion_3_theorem2_abelian_subgroups():
    start = time.monotonic()
    result = run_verify("theorem2", max_order=200)
    elapsed = time.monotonic() - start
    assert result.passed, result.lines
    assert elapsed < 120.0
    _report(3, elapsed, "abelian subgroups of cp3 groups are p-groups")


def test_criterion_4_theorem3_p_groups():
    start = time.monotonic()
    result = run_verify("theorem3", max_order=256)
    elapsed = time.monotonic() - start
    assert result.passed, result.lines
    assert "0 failures" in result.lines[-2]
    _report(4, elapsed, "p-groups: cp3 iff cp2, with normal order layers")


def test_criterion_5_theorem4_psl2_and_simplicity():
    start = time.monotonic()
    for q in SUPPORTED_PSL_Q:
        g = cg.psl2(q)
        assert g.order == q * (q * q - 1) // math.gcd(2, q - 1)
        if q in (2, 3):
            assert is_cp3(g)[0]
        else:
            assert not is_cp3(g)[0]
            wit = involution_product_witness(g)
            assert wit is not None and wit.ab_order > 3
            assert [s.size for s in g.normal_subgroups()] == [1, g.order]
    a5 = cg.alternating(5)
    assert [s.size for s in a5.normal_subgroups()] == [1, 60]
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(5, elapsed, "PSL(2,q) orders, memberships, witnesses, simplicity")


def test_criterion_6_conjecture5_solvability():
    start = time.monotonic()
    result = run_verify("conjecture5", max_order=200)
    elapsed = time.monotonic() - start
    assert result.passed, result.lines[-2:]
    assert "counterexamples: 0" in result.lines[-2]
    assert any("derived series length" in line for line in result.lines)
    _report(6, elapsed, "every cp3 catalog group is solvable")


def test_criterion_7_metric_equivalence():
    start = time.monotonic()
    audited = 0
    for name, g in cg.catalog_iter(200):
        ax = check_metric_axioms(g)
        assert ax.triangle == is_cp3(g)[0], name
        assert ax.ultrametric == is_cp2(g)[0], name
        if g.order <= 60:
            assert triangle_audit(g) == ax.triangle, name
            audited += 1
    assert audited > 100
    elapsed = time.monotonic() - start
    _report(7, elapsed, f"axiom checks mirror the pair scans ({audited} raw audits)")


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    # the unions of cyclic subgroups count every group of order <= 24; the
    # subset brute force, which spends nearly all its time on the seven of
    # order 24, checks that count on the others
    for name, g in cg.catalog_iter(24):
        count = cyclic_union_subgroup_count(g)
        assert len(cg.all_subgroups(g)) == count, name
        if g.order < 24:
            assert brute_force_subgroup_count(g) == count, name

    groups = [g for _, g in cg.catalog_iter(60)]
    rng = np.random.default_rng(20260810)
    checked = 0
    for _ in range(1000):
        g = groups[int(rng.integers(0, len(groups)))]
        i = int(rng.integers(0, g.order))
        assert int(g.order_table().orders[i]) == slow_element_order(g, i)
        checked += 1
    elapsed = time.monotonic() - start
    _report(8, elapsed, f"subgroup counts and {checked} element orders match oracles")


def test_criterion_9_classify_determinism(tmp_path):
    from cpgroups.cli import main

    start = time.monotonic()
    a, b = tmp_path / "run1.txt", tmp_path / "run2.txt"
    assert main(["classify", "--max-order", "100", "--output", str(a)]) == 0
    assert main(["classify", "--max-order", "100", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0
    elapsed = time.monotonic() - start
    _report(9, elapsed, "two classify runs are byte-identical")
