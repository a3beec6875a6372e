"""cpgroups benchmark: one workload per process, closed loop, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-200 --seed 1 --seconds 20 --trace 0

The program under test is ``src/cpgroups`` of the same checkout; it is
imported from there and never from an installed copy.  A run lists the
catalog and loads the goldens, then repeats full passes of the workload
until the next pass would end past ``--seconds``; a run makes at least one
pass, and a second one if the first ended within ``--seconds``.  The
seed permutes the op order of each pass; outputs are checked op by op.
``pass_s`` and ``setup_s`` are host-speed corrected (see hostspeed.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the spans go to .perfbench_out/trace-<workload>.jsonl.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import Sampler, corrected, reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 21
MIN_PASSES = 2
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter

# Child interpreter for one set-up sample: import cpgroups, list the catalog
# and load the goldens, then print the system-wide monotonic clock and exit
# before the first op.  The parent reads the clock before it spawns the child.
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = {paths!r}; import workloads; workloads.load({name!r}); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def _fix_mmap_threshold() -> None:
    """Serve every allocation over 1 MiB by mmap, and so return it on free.

    glibc raises its mmap threshold after each large free, after which big
    arrays come from the heap and may stay resident; peak RSS then depends
    on the op order of earlier passes.  A fixed threshold makes
    peak_rss_mb the peak of live arrays, whatever the order.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    if libc is not None and hasattr(libc, "mallopt"):
        libc.mallopt(M_MMAP_THRESHOLD, 1 << 20)


def _load_program():
    """Import cpgroups and the workloads from this checkout, or exit 2."""
    if not (SRC / "cpgroups" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cpgroups sources under {SRC}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import cpgroups

    if Path(cpgroups.__file__).resolve().parent != SRC / "cpgroups":
        sys.stderr.write(f"error: imported cpgroups from {cpgroups.__file__}, not {SRC}\n")
        raise SystemExit(2)
    import workloads

    return workloads


def run_pass(ops, entries, rng, tracer=None, op_log=None) -> tuple[float, int]:
    """One pass over every op in a seeded order; returns (seconds, failed ops)."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    failed = 0
    start = time.perf_counter()
    for i in order:
        op = ops[i]
        if tracer is not None:
            tracer.op = len(op_log)
            op_log.append(op.name)
        try:
            ok = op.run(entries) == op.expected
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            sys.stderr.write(f"op failed: {op.name}\n")
            failed += 1
    return time.perf_counter() - start, failed


def _mean_slice_s(count: int = 40) -> float:
    reference_slice()  # warm-up, as in Sampler
    start = time.perf_counter()
    for _ in range(count):
        reference_slice()
    return (time.perf_counter() - start) / count


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters that each run the set-up and exit.

    Each sample is host-speed corrected by reference slices run just
    before and just after its interpreter (see hostspeed.py).
    """
    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], name=workload)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = _mean_slice_s()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
            capture_output=True, text=True,
        )
        wall = float(proc.stdout) - start
        samples.append(corrected(wall, (before + _mean_slice_s()) / 2))
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    loaded = workloads.load(name)
    setup = setup_seconds(name)
    rng = random.Random(seed)
    walls, times, failed = [], [], 0
    begin = time.perf_counter()
    with Sampler() as sampler:
        while not walls or (
            len(walls) < MIN_PASSES and time.perf_counter() - begin < seconds
        ) or time.perf_counter() - begin + walls[-1] <= seconds:
            mark = sampler.mark()
            elapsed, bad = run_pass(loaded.ops, loaded.entries, rng)
            program_s, slice_s = sampler.since(mark)
            walls.append(elapsed)
            times.append(corrected(program_s, slice_s))
            failed += bad
    attempted = len(times) * len(loaded.ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q1, med, q3 = _quartiles(times)
    s1, smed, s3 = _quartiles(setup)
    print(f"workload {name}  seed {seed}  closed loop, 1 client  {len(loaded.ops)} ops/pass")
    print(f"  pass_s       {med:.4f} s   q1 {q1:.4f}  q3 {q3:.4f}  n={len(times)} passes"
          f"  (host-speed corrected; wall median {statistics.median(walls):.4f} s)")
    print(f"  peak_rss_mb  {peak_mb:.2f} MB")
    print(f"  setup_s      {smed:.4f} s   q1 {s1:.4f}  q3 {s3:.4f}  n={len(setup)} interpreters")
    print(f"  error_rate   {failed / attempted:.6f} ratio   ({failed} of {attempted} ops failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pass_s": _metric(med, "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "setup_s": _metric(smed, "s"),
        },
    }


def measure_traced(workloads, name: str, seed: int, seconds: float) -> dict:
    from tracing import COUNTERS, SPANS, Tracer

    loaded = workloads.load(name)
    tracer = Tracer()
    traced_entries = {e.name: e for e in tracer.entries(loaded.entries.values())}
    rng = random.Random(seed)
    plain, traced, op_log, failed = [], [], [], 0
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin + plain[-1] + traced[-1] <= seconds:
        elapsed, bad = run_pass(loaded.ops, loaded.entries, rng)
        plain.append(elapsed)
        failed += bad
        with tracer:
            elapsed, bad = run_pass(loaded.ops, traced_entries, rng, tracer, op_log)
        traced.append(elapsed)
        failed += bad
    passes = len(traced)
    ops_per_pass = len(loaded.ops)
    tracer.write(
        OUT / f"trace-{name}.jsonl",
        [(i, i // ops_per_pass, op) for i, op in enumerate(op_log)],
    )
    traced_mean = statistics.fmean(traced)
    plain_mean = statistics.fmean(plain)
    metrics = {}
    for span, row in tracer.summary().items():
        metrics[f"{span}.calls"] = _metric(row["calls"] / passes, "count")
        metrics[f"{span}.total_s"] = _metric(row["total_s"] / passes, "s")
        metrics[f"{span}.self_s"] = _metric(row["self_s"] / passes, "s")
    for counter in COUNTERS:
        unit = "bytes" if counter.endswith("bytes") else "count"
        metrics[counter] = _metric(tracer.counters[counter] / passes, unit)
    metrics["trace.pass_s"] = _metric(traced_mean, "s")
    metrics["trace.untraced_pass_s"] = _metric(plain_mean, "s")
    metrics["trace.overhead_s"] = _metric(traced_mean - plain_mean, "s")
    metrics["trace.outside_s"] = _metric(traced_mean - tracer.top_level_seconds() / passes, "s")
    print(f"workload {name}  seed {seed}  traced  {passes} traced + {len(plain)} untraced passes")
    print(f"  {'span':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}   (per pass)")
    for span in SPANS:
        calls, total, self_s = (metrics[f"{span}.{k}"]["value"] for k in ("calls", "total_s", "self_s"))
        print(f"  {span:32s} {calls:10.0f} {total:10.4f} {self_s:10.4f}")
    print(f"  {'(outside any span)':32s} {'':10s} {'':10s} {metrics['trace.outside_s']['value']:10.4f}")
    for counter in COUNTERS:
        print(f"  {counter:32s} {metrics[counter]['value']:.0f}")
    print(f"  traced pass_s {traced_mean:.4f} s, untraced {plain_mean:.4f} s,"
          f" overhead {traced_mean - plain_mean:+.4f} s")
    attempted = 2 * passes * ops_per_pass
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify-200", "lattice-200", "large-groups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fix_mmap_threshold()
    workloads = _load_program()
    if args.trace:
        result = measure_traced(workloads, args.workload, args.seed, args.seconds)
    else:
        result = measure(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
