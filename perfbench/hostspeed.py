"""Host-speed correction for pass times on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
Python code drifts by 20-30% over tens of seconds, and the process's CPU
time drifts with its wall time, so neither is a steady measure of the
program.  ``Sampler`` interleaves a fixed reference slice (pure-Python dict
and list work plus small numpy indexing, no cpgroups code) with the
program: a SIGALRM interval timer fires every ``INTERVAL_S`` seconds of
wall time, and between bytecodes of whatever the main thread is running
the handler runs one untimed slice, to bring the slice's code and data back
into the caches, then ``TIMED_SLICES`` timed ones.  The timed slices see the
host speed of the moment.  Timing only warm slices keeps their cost
independent of the program's memory footprint: a slice run straight after
``large-groups`` work, whose arrays push everything out of the caches,
takes about 40% longer than one run after ``classify-200`` work, while warm
slices differ by a few per cent.

For a section, ``Sampler.since(mark)`` gives the section's wall time minus
the time spent in the handler (the program's own time) and the mean timed
slice.  ``corrected(program_s, mean_slice_s)`` scales the program's time to
a host on which one slice takes ``NOMINAL_SLICE_S``:

    corrected = program_s * NOMINAL_SLICE_S / mean_slice_s

A change that makes the program faster lowers ``program_s`` and leaves the
slices alone, so it shows in full.  The slices run with the garbage
collector off, so the program's heap does not change their cost.
"""

from __future__ import annotations

import gc
import random
import signal
import time

import numpy as np

INTERVAL_S = 0.02
TIMED_SLICES = 3
# A warm slice takes 200-300 us on a 2.1 GHz Xeon vCPU shared with other tenants;
# pass_s and setup_s are in seconds of a moment when it takes 200 us.
NOMINAL_SLICE_S = 200e-6

_rng = random.Random(7)
_PERM = list(range(48))
_rng.shuffle(_PERM)
_INDEX = np.array(_PERM)
_TABLE = np.array([[(i * j + i) % 48 for j in range(48)] for i in range(48)])


def reference_slice() -> int:
    """A fixed amount of work; the return value keeps it from being skipped."""
    acc = 0
    for _ in range(12):
        seen: dict[int, int] = {}
        x = 0
        for i in range(48):
            x = _PERM[x]
            seen[x] = seen.get(x, 0) + i
        acc += len(seen)
        acc += int((_TABLE[_INDEX][:, _INDEX] == _TABLE).sum())
    return acc


def corrected(program_s: float, mean_slice_s: float) -> float:
    return program_s * NOMINAL_SLICE_S / mean_slice_s


class Sampler:
    """Runs the reference slices every ``INTERVAL_S`` while active.

    Use as a context manager; the timer and the previous SIGALRM handler
    are restored on exit, whatever the way out.
    """

    def __init__(self) -> None:
        self.handler_s = 0.0  # all time in the handler, warm-up slices too
        self.slice_s = 0.0  # time in timed slices only
        self.slices = 0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_slice()
        timed = time.perf_counter()
        for _ in range(TIMED_SLICES):
            reference_slice()
        end = time.perf_counter()
        self.handler_s += end - start
        self.slice_s += end - timed
        self.slices += TIMED_SLICES
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, float, int]:
        """A point to measure a section from with ``since``.

        A tick between the reads here or in ``since`` misplaces at most one
        tick, about 0.05% of a pass.
        """
        return time.perf_counter(), self.handler_s, self.slice_s, self.slices

    def since(self, mark: tuple[float, float, float, int]) -> tuple[float, float]:
        """(program seconds, mean timed slice seconds) since ``mark``.

        Program seconds are wall seconds minus the handler time in between.
        The section must span at least one tick (``INTERVAL_S``).
        """
        now = self.mark()
        wall, handler_s, slice_s, count = (b - a for a, b in zip(mark, now))
        return wall - handler_s, slice_s / count
