"""How fast the host runs right now, sampled while the work runs.

The benchmark shares a few cores of a host with other tenants. On the 2-vCPU
VM it was written on, the same pure-Python loop ran from 20 to 39 ms in
different 10 s windows of one quiet process, in steps and bursts that last
from under a second to minutes, while its CPU time stayed equal to its wall
time. Medians over a whole run still spread by 10-30% between runs, more than
a regression the benchmark must catch.

`HostSpeed` times a fixed reference kernel, which does not depend on the
program, from a SIGALRM handler every INTERVAL_S seconds. A stretch of work is
then reported in reference seconds: its wall time, minus the time the
handler took, times REFERENCE_S over the kernel's mean time in samples around
the stretch. A stretch that runs while the host is 20% slow reads about the
same as on a quiet host; a change to the program moves it in full. The
kernel mixes interpreter work with small matrix products, like the program.
Of the kernels tried, this mix tracked the program best: over 200 s of
serving cascades and training SGNS in one process on that VM, 13 s stretches
of wall time spread 0.24-0.36 (quartile distance over median) and their
reference seconds 0.03-0.08. Across separate runs the correction does less,
because under some kinds of host load the program slows more than the kernel
(see bench/README.md).

Samples are kept in memory and turned into seconds once the run ends, so
that a stretch gets the samples on both sides of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import NamedTuple

import numpy as np

# About the reference kernel's time in the sampler on that VM when the host is
# quiet (Xeon, 2.0 GHz nominal, Python 3.11, numpy 2.4). Any constant would
# do: it only sets the scale, and keeps reported times close to wall times.
REFERENCE_S = 0.5e-3
INTERVAL_S = 0.1
MIN_SAMPLES = 5
PAD_S = 0.25

_M = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_OUT = np.empty_like(_M)


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFF


def reference_kernel() -> int:
    """Fixed work: an arithmetic loop, calls, dict stores and small sorts, small products.

    The GC is off while it runs, so its few short-lived objects never start a
    collection of the program's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        table: dict[int, int] = {}
        for i in range(300):
            table[i % 97] = _mix(i, len(table))
            sorted(((i * 7) % 13, i % 5, i % 11))
        for _ in range(20):
            np.dot(_M, _M, out=_OUT)
        return acc + sum(table.values())
    finally:
        if was_enabled:
            gc.enable()


class Mark(NamedTuple):
    wall: float  # perf_counter at the mark
    spent: float  # seconds the sampler had taken so far


class HostSpeed:
    """Samples the reference kernel's time from SIGALRM while started."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, ascending
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def __enter__(self) -> HostSpeed:
        reference_kernel()  # first call pays for imports and page faults
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.spent)

    def wall(self, start: Mark, end: Mark) -> float:
        """Wall seconds between two marks, less the sampler's own time."""
        return end.wall - start.wall - (end.spent - start.spent)

    def slowdown(self, start: Mark, end: Mark) -> float:
        """Mean kernel time around [start, end] over REFERENCE_S; 1.0 without samples.

        The window reaches PAD_S past each end, doubled until it holds
        MIN_SAMPLES.
        """
        if not self.durations:
            return 1.0
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.times, start.wall - pad)
            hi = bisect.bisect_right(self.times, end.wall + pad)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(self.times)):
                break
            pad *= 2
        window = self.durations[lo:hi]
        return sum(window) / len(window) / REFERENCE_S

    def seconds(self, start: Mark, end: Mark) -> float:
        """Reference seconds between two marks: wall time at the reference speed."""
        return self.wall(start, end) / self.slowdown(start, end)

    def mean_slowdown(self) -> float:
        return sum(self.durations) / len(self.durations) / REFERENCE_S if self.durations else 1.0
