"""Host-speed calibration of the timed rounds.

On a virtual machine whose cores are shared with other tenants, the same
code runs at 1.0x to 1.9x of its best time: the speed switches between a
fast and a slow level within seconds, and the share of slow time drifts
over minutes, so raw times of the same code differ between runs by more
than a change worth measuring.  While the worker runs its jobs, a timer
interrupts them every ``INTERVAL_S`` seconds and times a fixed
pure-Python kernel of a few milliseconds on the same thread.  Its mean
time over a run measures how slow the host was during that run, sampled
evenly through every job, long or short.  ``run.py`` scales the run's
times by ``KERNEL_REF_S / mean kernel time``: calibrated seconds are the
seconds the jobs would have taken on the reference host at its quiet
speed.  The kernel is the benchmark's own code (``oracle.py``) and never
calls into cfnmc, so a change to the program moves the job times and not
the yardstick; the kernel's own time is subtracted from the job it
interrupted.
"""

from __future__ import annotations

import signal
import time

import oracle

# Mean kernel time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11.7) in its quiet spells, so calibrated seconds read close to wall
# seconds there.  Fixed; changing it rescales every calibrated time.
KERNEL_REF_S = 0.002
INTERVAL_S = 0.1

_TREE = oracle.parse_newick("(((1,2),(3,4)),((5,6),(7,(8,9))));")


def kernel() -> int:
    """Zig-zag counts and parity-rule top-vectors: integer, tuple and
    string work like cfnmc's."""
    acc = 0
    for _ in range(4):
        acc += oracle.zigzag_count(7, 3) + len(oracle.top_vectors(_TREE))
    return acc


def kernel_samples(n: int) -> list:
    """Seconds of n back-to-back kernel runs: the host's speed right now."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


class Calibrator:
    """While active, times ``kernel`` every INTERVAL_S seconds from SIGALRM."""

    def __init__(self):
        self.samples = []  # seconds of each kernel run
        self.stolen = 0.0  # total kernel seconds, to subtract from job times
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a slow kernel outlasted the interval; skip this tick
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            dt = time.perf_counter() - start
            self.samples.append(dt)
            self.stolen += dt
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
