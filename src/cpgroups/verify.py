"""Bundled verification targets, one per claim the toolkit can reproduce.

Each target sweeps the catalog up to its own default bound (overridable),
prints one line per relevant check, and fails loudly with the offending
witness if any instance contradicts the claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import catalog_entries, symmetric
from .core import SUBGROUP_CAP, distinct_primes
from .metric import (
    involution_product_witness,
    is_cp,
    is_cp2,
    is_cp3,
    layer_check,
    render_witness,
)
from .subgroups import abelian_subgroup_scan, hereditary_check, quotient_scan

@dataclass(frozen=True)
class VerifyResult:
    target: str
    passed: bool
    lines: tuple[str, ...]


def run_verify(target: str, max_order: int | None = None, subgroup_cap: int | None = None) -> VerifyResult:
    """Run one target of :data:`TARGETS` up to ``max_order`` (its default
    bound without one), enumerating subgroups up to ``subgroup_cap``
    (SUBGROUP_CAP without one) where it enumerates them."""
    if target not in TARGETS:
        raise ValueError(f"unknown verify target {target!r}; choose from {tuple(TARGETS)}")
    default_bound, runner = TARGETS[target]
    bound = default_bound if max_order is None else max_order
    passed, lines = runner(bound, SUBGROUP_CAP if subgroup_cap is None else subgroup_cap)
    tagline = f"{'PASS' if passed else 'FAIL'} {target} (max_order={bound})"
    return VerifyResult(target=target, passed=passed, lines=tuple(lines + [tagline]))


def _theorem1(bound: int, cap: int) -> tuple[bool, list[str]]:
    """CP3 implies CP across the catalog; S4 shows the inclusion is proper."""
    lines = []
    failures = 0
    checked = 0
    for name, g in _cp3_groups(bound):
        checked += 1
        cp_ok, wit = is_cp(g)
        if not cp_ok:
            failures += 1
            lines.append(f"FAIL {name}: in cp3 but not cp ({render_witness(g, wit)})")
    lines.append(f"checked {checked} cp3 groups for cp membership: {failures} failures")
    s4 = symmetric(4)
    s4_cp, _ = is_cp(s4)
    s4_cp3, s4_wit = is_cp3(s4)
    separation = s4_cp and not s4_cp3
    witness = f" ({render_witness(s4, s4_wit)})" if s4_wit else ""
    lines.append(f"symmetric:4 separates cp from cp3: cp={str(s4_cp).lower()} cp3={str(s4_cp3).lower()}{witness}")
    return failures == 0 and separation, lines


def _cp3_groups(bound: int):
    for entry in catalog_entries(bound):
        g = entry.build()
        if is_cp3(g)[0]:
            yield entry.name, g


def _theorem2(bound: int, cap: int) -> tuple[bool, list[str]]:
    """Abelian subgroups of cp3 catalog groups are p-groups."""
    lines = []
    failures = 0
    checked = 0
    for name, g in _cp3_groups(bound):
        report = abelian_subgroup_scan(g, cap=cap)
        checked += 1
        if not report.verdict:
            failures += 1
            bad = [s for s, flag in report.abelian_subgroups if flag is None]
            lines.append(f"FAIL {name}: abelian subgroup of size {bad[0].size} is not a p-group")
    lines.append(f"checked {checked} cp3 groups: {failures} non-p-group abelian subgroups")
    return failures == 0, lines


def _theorem3(bound: int, cap: int) -> tuple[bool, list[str]]:
    """For catalog p-groups: cp3 iff cp2, and every order layer of a cp3 one is normal."""
    lines = []
    failures = 0
    checked = 0
    layered = 0
    for entry in catalog_entries(bound):
        if len(distinct_primes(entry.order)) != 1:
            continue
        g = entry.build()
        cp2_ok, _ = is_cp2(g)
        cp3_ok, _ = is_cp3(g)
        checked += 1
        if cp2_ok != cp3_ok:
            failures += 1
            lines.append(f"FAIL {entry.name}: cp2={str(cp2_ok).lower()} cp3={str(cp3_ok).lower()}")
        if cp3_ok:
            layered += 1
            report = layer_check(g)
            if not report.all_normal:
                failures += 1
                bad = [r for r in report.rows if not r.is_normal][0]
                lines.append(
                    f"FAIL {entry.name}: layer of threshold {bad.threshold}"
                    f" (size {bad.size}) is not a normal subgroup"
                )
    lines.append(f"checked {checked} p-groups (cp2 iff cp3), {layered} layer reports: {failures} failures")
    return failures == 0, lines


def _theorem4(bound: int, cap: int) -> tuple[bool, list[str]]:
    """No nonabelian simple catalog group is in cp3; PSL(2,q) behaves as claimed."""
    lines = []
    ok = True
    simple_names = []
    for entry in catalog_entries(bound):
        if entry.abelian:
            continue
        g = entry.build()
        if entry.family == "psl2":
            q = int(entry.name.split(":")[1])
            cp3_ok, _ = is_cp3(g)
            if q in (2, 3):
                if not cp3_ok:
                    ok = False
                    lines.append(f"FAIL psl2:{q}: expected cp3 membership")
                else:
                    lines.append(f"psl2:{q}: in cp3 (order {g.order})")
            else:
                wit = involution_product_witness(g)
                if cp3_ok or wit is None:
                    ok = False
                    lines.append(f"FAIL psl2:{q}: expected an involution-pair witness")
                else:
                    lines.append(f"psl2:{q}: not in cp3; {render_witness(g, wit)}")
        if g.is_simple():
            simple_names.append(entry.name)
            if is_cp3(g)[0]:
                ok = False
                lines.append(f"FAIL {entry.name}: nonabelian simple group in cp3")
    lines.append("nonabelian simple groups found: " + (", ".join(simple_names) or "none"))
    return ok, lines


def _conjecture5(bound: int, cap: int) -> tuple[bool, list[str]]:
    """Every cp3 catalog group is solvable (consistency scan, not a proof)."""
    lines = []
    failures = 0
    for name, g in _cp3_groups(bound):
        series = g.derived_series()
        solvable = series[-1].size == 1
        lines.append(f"{name}: order {g.order}, derived series length {len(series)}")
        if not solvable:
            failures += 1
            lines.append(f"FAIL {name}: cp3 but not solvable (counterexample!)")
    lines.append(f"counterexamples: {failures}")
    return failures == 0, lines


def _subgroup_closure(bound: int, cap: int) -> tuple[bool, list[str]]:
    """cp3 is closed under subgroups on the catalog."""
    lines = []
    failures = 0
    checked = 0
    for name, g in _cp3_groups(bound):
        report = hereditary_check(g, is_cp3, cap=cap)
        checked += 1
        if not report.ok:
            failures += 1
            lines.append(
                f"FAIL {name}: {len(report.violations)} subgroup(s) leave cp3,"
                f" first of size {report.violations[0].size}"
            )
    lines.append(f"checked {checked} cp3 groups hereditarily: {failures} violations")
    return failures == 0, lines


def _problem1(bound: int, cap: int) -> tuple[bool, list[str]]:
    """Quotient observations: whether cp3 survives homomorphic images here."""
    lines = []
    observations = 0
    counterexamples = 0
    for name, g in _cp3_groups(bound):
        report = quotient_scan(g, is_cp3, cap=cap)
        observations += len(report.rows)
        for row in report.counterexamples:
            counterexamples += 1
            lines.append(
                f"OBSERVED {name}: quotient by N of size {row.normal.size}"
                f" (order {row.quotient_order}) falls outside cp3"
            )
    lines.append(
        f"NON-CONCLUSIVE: {observations} quotients of cp3 groups examined, "
        f"{counterexamples} fell outside cp3; closure under homomorphic images stays open"
    )
    return True, lines


# Every target: its default bound and its runner, which takes the bound and
# the subgroup-enumeration cap (used by the targets that enumerate subgroups).
TARGETS = {
    "theorem1": (200, _theorem1),
    "theorem2": (200, _theorem2),
    "theorem3": (256, _theorem3),
    "theorem4": (2500, _theorem4),
    "conjecture5": (200, _conjecture5),
    "subgroup-closure": (200, _subgroup_closure),
    "problem1": (60, _problem1),
}
