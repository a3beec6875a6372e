"""The benchmark's workloads: the ops of one pass and the goldens they are checked against.

A workload is a fixed list of ops.  One pass runs every op once, in an
order the workload seed permutes; an op fails if it raises or if its
output differs from the golden taken from the seed CLI (see
make_golden.py).  Every op builds its groups from catalog entries, so no
group-level cache carries over from one op or pass to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import cpgroups as cg
from cpgroups.catalog import CatalogEntry
from cpgroups.metric import report_records

GOLDEN = Path(__file__).resolve().parent / "golden"

Entries = Mapping[str, CatalogEntry]


@dataclass(frozen=True)
class Op:
    """One unit of work: ``run(entries)`` must return ``expected``."""

    name: str
    run: Callable[[Entries], Any]
    expected: Any


@dataclass(frozen=True)
class Loaded:
    """What set-up yields: the listed catalog and the ops of one pass."""

    entries: dict[str, CatalogEntry]
    ops: list[Op]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def classify_record(name: str, report: cg.ClassReport) -> str:
    """One line of ``cpgroups classify --format records``."""
    p_group = str(report.p_group) if report.p_group is not None else "-"
    return (
        f"name={name} order={report.order} cp={_flag(report.in_cp)}"
        f" cp2={_flag(report.in_cp2)} cp3={_flag(report.in_cp3)}"
        f" solvable={_flag(report.solvable)} p_group={p_group}"
    )


def symmetric7_facts(g: cg.FiniteGroup) -> dict:
    """The S7 checks of large-groups, as JSON-ready values.

    S7 has order 5040 and runs on the on-demand permutation backend; the
    seed's ``classify`` stops at the distance-matrix cap on it, so the op
    calls the layers it can reach directly.
    """
    facts: dict[str, Any] = {"order": g.order, "max_order": g.order_table().max_order}
    for tag, predicate in (("cp", cg.is_cp), ("cp2", cg.is_cp2), ("cp3", cg.is_cp3)):
        member, witness = predicate(g)
        facts[tag] = [member, cg.render_witness(g, witness) if witness else None]
    pair = cg.involution_product_witness(g)
    facts["involution_witness"] = cg.render_witness(g, pair) if pair else None
    facts["class_sizes"] = [len(c) for c in g.conjugacy_classes()]
    facts["is_simple"] = g.is_simple()
    return facts


# -- classify-200 ----------------------------------------------------------


def _classify_ops(entries: Entries) -> list[Op]:
    golden = {}
    for line in (GOLDEN / "classify-200.records").read_text().splitlines():
        golden[line.split(" ", 1)[0][len("name="):]] = line

    def op(name: str) -> Callable[[Entries], str]:
        return lambda es: classify_record(name, cg.classify(es[name].build(), name=name))

    if sorted(golden) != sorted(entries):
        raise RuntimeError("classify-200 golden does not list the catalog up to order 200")
    return [Op(name, op(name), golden[name]) for name in entries]


# -- lattice-200 -------------------------------------------------------------


def _lattice_ops(entries: Entries) -> list[Op]:
    manifest = json.loads((GOLDEN / "manifest.json").read_text())

    def op(target: str) -> Callable[[Entries], tuple[str, bool]]:
        def run(_: Entries) -> tuple[str, bool]:
            result = cg.run_verify(target)
            return "\n".join(result.lines) + "\n", result.passed

        return run

    ops = []
    for target in ("subgroup-closure", "problem1"):
        filename = f"verify-{target}.txt"
        expected = ((GOLDEN / filename).read_text(), manifest[filename]["exit"] == 0)
        ops.append(Op(f"verify {target}", op(target), expected))
    return ops


# -- large-groups --------------------------------------------------------------


def _large_ops(entries: Entries) -> list[Op]:
    facts = json.loads((GOLDEN / "large-groups.json").read_text())

    def analyze(spec: str) -> Callable[[Entries], tuple[str, bool]]:
        def run(es: Entries) -> tuple[str, bool]:
            g = es[spec].build()
            text = report_records(g, cg.classify(g)) + "\n"
            return text, g.is_simple()

        return run

    def s7(es: Entries) -> dict:
        return symmetric7_facts(es["symmetric:7"].build())

    ops = []
    for spec in ("psl2:17", "alternating:7"):
        text = (GOLDEN / f"analyze-{spec.replace(':', '-')}.records").read_text()
        ops.append(Op(f"analyze {spec}", analyze(spec), (text, facts["is_simple"][spec])))
    ops.append(Op("symmetric:7", s7, facts["symmetric:7"]))
    return ops


# name -> (catalog bound listed at set-up, op builder)
WORKLOADS: dict[str, tuple[int, Callable[[Entries], list[Op]]]] = {
    "classify-200": (200, _classify_ops),
    "lattice-200": (200, _lattice_ops),
    "large-groups": (5040, _large_ops),
}


def load(workload: str) -> Loaded:
    """Set-up: list the catalog up to the workload's bound and load its goldens."""
    bound, make_ops = WORKLOADS[workload]
    entries = {e.name: e for e in cg.catalog_entries(bound)}
    return Loaded(entries=entries, ops=make_ops(entries))
