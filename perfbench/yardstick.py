"""A fixed numpy + Python workload that measures how fast the host runs right now.

The host's speed drifts by tens of percent within a minute, and within a
second too (other tenants share the machine), and a single-threaded call
slows with it. The benchmark therefore measures a yardstick around and
*during* every call, and reports the call in nominal seconds:
raw seconds x (NOMINAL_BLOCK_S / yardstick block time during and around the call).

During a call an interval timer interrupts the program every
SAMPLE_INTERVAL_S and runs one block; the time spent in blocks is taken out
of the call's time (`Timeline.clock`). Each block starts with a few untimed
iterations, so a block that follows the program's work is not timed with a
cold cache. A block runs with the garbage collector off and frees all it
makes, so the program's heap does not move the block time. What a block
does leave behind in the call is a cache with about 170 KB evicted (the
m = 12 tensor); refilling that at memory bandwidth takes tens of
microseconds per 30 ms interval, an estimated 0.1-0.2% of the call.

The yardstick never imports or calls phinull. It does the kind of work the
engine does: small dense solves, symmetric eigenvalue problems and
curvature-sized einsum contractions at m = 12, and the Python objects built
around them. (Numpy work alone tracked dim-12 `verify-theorem` calls to a
per-call spread of 2-3%; with the Python part, 1-2%.)
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

DIM = 12
WARMUP = 2
ITERATIONS = 10
# Typical block time on the reference host (2 vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31), rounded. Recorded
# once; never change it, or earlier results stop being comparable.
NOMINAL_BLOCK_S = 0.001
SAMPLE_INTERVAL_S = 0.03
GAP_BLOCKS = 4  # blocks between two calls
MIN_WINDOW = 16  # blocks in one call's speed estimate, at least

# Set-up work (starting an interpreter, importing, loading shared libraries)
# does not slow with the block above, so child processes have their own
# yardstick: a fresh interpreter importing numpy and scipy.linalg, timed from
# just before it starts. Run before, between and after the timed children.
IMPORT_YARDSTICK_CODE = """\
import sys, time
import numpy, scipy.linalg
print(time.monotonic() - float(sys.argv[1]))
"""
NOMINAL_IMPORT_S = 0.35  # its typical time on the reference host, rounded; never change it


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


class Yardstick:
    """One block is ITERATIONS timed rounds of solve + eigvalsh + einsum at m = DIM."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20120725)
        a = rng.standard_normal((8, DIM, DIM))
        self._matrices = a + a.transpose(0, 2, 1) + 2 * DIM * np.eye(DIM)
        self._vectors = rng.standard_normal((8, DIM))
        self._tensor = rng.standard_normal((DIM,) * 4)
        self.checksum = 0.0

    def _rounds(self, count: int) -> float:
        acc = 0.0
        for k in range(count):
            a, v = self._matrices[k % 8], self._vectors[k % 8]
            x = np.linalg.solve(a, v)
            w = np.linalg.eigvalsh(a)
            j = np.einsum("ijkl,j,l->ik", self._tensor, x, x)
            pairs = [_Pair(i, float(x[i])) for i in range(DIM)]
            index = {p.key: p for p in pairs}
            acc += float(w[0]) + float(j[0, 0]) + sum(p.key * p.value for p in pairs) + len(index)
        return acc

    def block(self) -> float:
        """Run one block and return the wall time of its timed part, in seconds.

        The garbage collector is off while the block runs. Every object the
        block makes is freed before it returns (none is in a cycle), so the
        collector's counts are back where they were, and the block neither
        triggers a collection of the program's objects nor times one.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._rounds(WARMUP)
            t0 = time.perf_counter()
            self.checksum = self._rounds(ITERATIONS)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class Timeline:
    """Timed calls with the yardstick blocks measured during and around them.

    Call i has the blocks run during it and the gaps of blocks before and
    after it. Its speed estimate is the harmonic mean of those
    block times, widened to neighbouring calls until it holds at least
    MIN_WINDOW blocks. Blocks are sampled evenly in time, so the harmonic
    mean is the work rate averaged over the call, and a block that was
    interrupted weighs little.
    """

    def __init__(self, yardstick: Yardstick) -> None:
        self.yardstick = yardstick
        self.raw: list[float] = []
        self.during: list[list[float]] = []
        self.gaps: list[list[float]] = []
        self.spent = 0.0  # seconds spent in yardstick blocks
        self._gap()

    def clock(self) -> float:
        """perf_counter without the time spent in yardstick blocks."""
        return time.perf_counter() - self.spent

    def _gap(self) -> None:
        t0 = time.perf_counter()
        self.gaps.append([self.yardstick.block() for _ in range(GAP_BLOCKS)])
        self.spent += time.perf_counter() - t0

    def time(self, fn):
        """Time fn() as the next call, sampling the yardstick while it runs; return its result."""
        blocks: list[float] = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            blocks.append(self.yardstick.block())
            self.spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        t0 = self.clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.raw.append(self.clock() - t0)
        self.during.append(blocks)
        self._gap()
        return result

    def factor(self, i: int) -> float:
        """NOMINAL_BLOCK_S / yardstick block time during and around call i."""
        blocks = self.gaps[i] + self.during[i] + self.gaps[i + 1]
        lo = hi = i
        last = len(self.raw) - 1
        while len(blocks) < MIN_WINDOW and (lo > 0 or hi < last):
            if lo > 0:
                lo -= 1
                blocks += self.gaps[lo] + self.during[lo]
            if hi < last:
                hi += 1
                blocks += self.during[hi] + self.gaps[hi + 1]
        return NOMINAL_BLOCK_S / statistics.harmonic_mean(blocks)

    def normalised(self) -> list[float]:
        return [raw * self.factor(i) for i, raw in enumerate(self.raw)]

    def block_time(self) -> float:
        """Harmonic mean of every block time on the timeline."""
        return statistics.harmonic_mean(
            [b for gap in self.gaps for b in gap] + [b for d in self.during for b in d])
