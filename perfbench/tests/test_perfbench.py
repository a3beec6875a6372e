"""Tests of the benchmark harness itself (not collected by the repo's tier-1 run).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cpgroups as cg  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded cpgroups module and of FiniteGroup, by identity."""
    out = {("FiniteGroup", k): id(v) for k, v in vars(cg.FiniteGroup).items()}
    for mod in tracing._package_modules():
        out.update({(mod.__name__, k): id(v) for k, v in vars(mod).items()})
    return out


def _small_outputs(entries) -> list:
    """Outputs of ops that reach every span, on groups small enough for a unit test."""
    out = []
    for name in ("cyclic:6", "dihedral:8", "dicyclic:8", "symmetric:4", "psl2:5"):
        out.append(workloads.classify_record(name, cg.classify(entries[name].build(), name=name)))
    for target in ("subgroup-closure", "problem1"):
        out.append(cg.run_verify(target, max_order=24).lines)
    out.append(workloads.symmetric7_facts(entries["symmetric:4"].build()))
    return out


def _digest(outputs: list) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in cg.catalog_entries(60)}


def test_traced_and_untraced_outputs_match(entries):
    plain = _digest(_small_outputs(entries))
    tracer = Tracer()
    traced_entries = {e.name: e for e in tracer.entries(entries.values())}
    with tracer:
        traced = _digest(_small_outputs(traced_entries))
    assert traced == plain
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert [name for name in tracing.SPANS if calls[name] == 0] == []


def test_every_binding_is_restored():
    from cpgroups import subgroups, verify

    before = _bindings()
    original = subgroups.hereditary_check
    original_span = cg.FiniteGroup.__dict__["span"]
    with Tracer():
        # the binding inside verify is wrapped as well as the defining module's
        assert verify.hereditary_check is subgroups.hereditary_check
        assert verify.hereditary_check is not original
        assert cg.FiniteGroup.__dict__["span"] is not original_span
    assert _bindings() == before
    assert verify.hereditary_check is original


def test_restored_after_an_op_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            cg.cyclic(4).subgroup([1])
    assert _bindings() == before


def test_counters_on_cyclic6():
    # Z6 orders: e=1, a=6, a^2=3, a^3=2, a^4=3, a^5=6.  The first failing row
    # of both the CP3 scan (a^2 * a^3: 6 >= 3 + 2) and the CP2 scan
    # (6 > max(3, 2)) is a = a^2, so each scan reads 3 rows of 6 pairs.
    tracer = Tracer()
    with tracer:
        report = cg.classify(cg.cyclic(6))
    assert not report.in_cp3 and not report.in_cp2
    assert tracer.counters["metric.pairs_scanned"] == 2 * 3 * 6
    assert tracer.counters["core.table_bytes"] == 6 * 6 * 4  # one int32 Cayley table
    assert tracer.counters["metric.distance_matrix_bytes"] == 6 * 6 * 8  # int64
    # classify, is_cp, distance_matrix, is_cp3 and is_cp2 each ask for orders
    assert tracer.summary()["core.order_table"]["calls"] == 5
    assert tracer.counters["core.order_table.hits"] == 4


def test_self_times_add_up_to_top_level_time(entries):
    tracer = Tracer()
    traced_entries = {e.name: e for e in tracer.entries(entries.values())}
    with tracer:
        cg.classify(traced_entries["dihedral:12"].build())
        cg.run_verify("problem1", max_order=12)
    self_total = sum(row["self_s"] for row in tracer.summary().values())
    assert self_total == pytest.approx(tracer.top_level_seconds(), rel=1e-9, abs=1e-12)
    parents = {span[3] for span in tracer.spans}
    assert -1 in parents and all(p < len(tracer.spans) for p in parents)


def test_sampler_ticks_during_a_section_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        mark = sampler.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        program_s, slice_s = sampler.since(mark)
    assert sampler.slices >= 5
    assert 0 < program_s < 0.2 and slice_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert hostspeed.corrected(2.0, 2 * hostspeed.NOMINAL_SLICE_S) == pytest.approx(1.0)


def test_goldens_cover_every_workload():
    for name in workloads.WORKLOADS:
        loaded = workloads.load(name)
        assert loaded.ops and len({op.name for op in loaded.ops}) == len(loaded.ops)
    assert len(workloads.load("classify-200").ops) == 728


def test_runs_refuse_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
