"""Span and counter tracing around the public functions of cpgroups.

The tracer wraps, from outside the package, the module functions and
``FiniteGroup`` methods that mark a layer boundary.  A module function is
replaced under every name that binds that same object in any loaded
``cpgroups.*`` module (``verify.hereditary_check`` as well as
``subgroups.hereditary_check``), so calls made inside the package are
timed too; ``uninstall`` puts every original back.

Spans stay in memory as (name, start, end, parent, op) until ``write``.
A span's self time is its duration minus the durations of its direct
children; calls are nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

# span name -> (module, attribute); attributes of FiniteGroup are methods
FUNCTION_SPANS = {
    "core.generate_group": ("cpgroups.core", "generate_group"),
    "core.from_permutation_set": ("cpgroups.core", "from_permutation_set"),
    "metric.classify": ("cpgroups.metric", "classify"),
    "metric.pair_scan": ("cpgroups.metric", "scan_pair_order_condition"),
    "metric.distance_matrix": ("cpgroups.metric", "distance_matrix"),
    "subgroups.all_subgroups": ("cpgroups.subgroups", "all_subgroups"),
    "subgroups.hereditary_check": ("cpgroups.subgroups", "hereditary_check"),
    "verify.run_verify": ("cpgroups.verify", "run_verify"),
}
METHOD_SPANS = {
    "core.FiniteGroup.init": "__init__",
    "core.order_table": "order_table",
    "core.conjugacy_classes": "conjugacy_classes",
    "core.span": "span",
    "core.derived_series": "derived_series",
    "core.is_simple": "is_simple",
    "core.normal_subgroups": "normal_subgroups",
    "core.quotient": "quotient",
    "core.subgroup": "subgroup",
}
# catalog.build has no single function object: each CatalogEntry carries its
# own builder, so the tracer wraps the builders of every entry it hands out.
SPANS = ("catalog.build", *METHOD_SPANS, *FUNCTION_SPANS)
COUNTERS = (
    "core.table_bytes",
    "core.order_table.hits",
    "metric.pairs_scanned",
    "metric.distance_matrix_bytes",
    "subgroups.enumerated",
    "core.normal_subgroups.found",
)


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cpgroups" or name.startswith("cpgroups."))
    ]


class Tracer:
    """Records spans and counters while installed; not thread-safe by design."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int, int]]] = []
        self.counters: dict[str, int] = {c: 0 for c in COUNTERS}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._seen_orders: weakref.WeakSet = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, counter: str, amount: int) -> None:
        self.counters[counter] += int(amount)

    # boundary hooks: each counter is computed from arguments or results only

    def _after_init(self, args, _result) -> None:
        table = args[0].table
        self._count("core.table_bytes", table.nbytes if table is not None else 0)

    def _before_order_table(self, args) -> None:
        group = args[0]
        if group in self._seen_orders:
            self._count("core.order_table.hits", 1)
        else:
            self._seen_orders.add(group)

    def _after_pair_scan(self, args, result) -> None:
        n = args[0].order
        passed, witness = result
        rows = n if passed else witness.a_index + 1
        self._count("metric.pairs_scanned", rows * n)

    def _after_distance_matrix(self, _args, result) -> None:
        self._count("metric.distance_matrix_bytes", np.asarray(result).nbytes)

    def _after_all_subgroups(self, _args, result) -> None:
        self._count("subgroups.enumerated", len(result))

    def _after_normal_subgroups(self, _args, result) -> None:
        self._count("core.normal_subgroups.found", len(result))

    def entries(self, entries):
        """Copies of catalog entries whose builders record ``catalog.build`` spans."""
        return [dataclasses.replace(e, build=self._wrap("catalog.build", e.build)) for e in entries]

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every span boundary; call ``uninstall`` to undo."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        import cpgroups  # noqa: F401  (loads every cpgroups.* module)
        from cpgroups.core import FiniteGroup

        hooks = {
            "core.FiniteGroup.init": (None, self._after_init),
            "core.order_table": (self._before_order_table, None),
            "metric.pair_scan": (None, self._after_pair_scan),
            "metric.distance_matrix": (None, self._after_distance_matrix),
            "subgroups.all_subgroups": (None, self._after_all_subgroups),
            "core.normal_subgroups": (None, self._after_normal_subgroups),
        }
        for span, attr in METHOD_SPANS.items():
            original = FiniteGroup.__dict__[attr]
            self._saved.append((FiniteGroup, attr, original))
            setattr(FiniteGroup, attr, self._wrap(span, original, *hooks.get(span, (None, None))))
        targets = {
            id(getattr(sys.modules[mod], attr)): self._wrap(
                span, getattr(sys.modules[mod], attr), *hooks.get(span, (None, None))
            )
            for span, (mod, attr) in FUNCTION_SPANS.items()
        }
        entries_fn = sys.modules["cpgroups.catalog"].catalog_entries
        targets[id(entries_fn)] = functools.wraps(entries_fn)(
            lambda *a, **k: self.entries(entries_fn(*a, **k))
        )
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s over every recorded span."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {s: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for s in SPANS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans with no parent; the self times sum to it."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: Path, ops: list[tuple[int, int, str]]) -> None:
        """Write the op table and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for op_id, pass_no, op_name in ops:
                out.write(json.dumps({"op": op_id, "pass": pass_no, "name": op_name}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
