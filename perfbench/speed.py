"""How fast the machine runs right now, from a fixed kernel timed between configs.

A shared machine changes speed by tens of percent, in phases that last
seconds to minutes, as other tenants come and go: on the reference
machine below, a fixed pure-Python loop took anywhere from 0.100 s to
0.160 s within one minute.  A 35 s run sees a few such phases, so its
pass times move with the machine, not with the program.

``Speed`` times a small fixed kernel (float formatting, an interpreter
loop and complex matrix products: the kinds of work the workloads do)
between configs, never inside a timed region: once for every
``INTERVAL`` seconds since the last timing, so a stretch of the run
weighs the same whether it held one long config or many short ones.
``factor()`` is ``REFERENCE_KERNEL_S`` over the mean kernel time of the
run.  Seconds metrics are multiplied by it, so they read as seconds on a
machine that runs the kernel in ``REFERENCE_KERNEL_S``.  Means, not
medians, on both sides: both then average over the same phases, where a
median of a few samples snaps to whichever phase held most of them.  The
kernel does not touch the program, so a change to the program moves
scaled and unscaled seconds by the same ratio.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean kernel time on a quiet 2-core KVM guest (Xeon, 2.1 GHz), numpy 2.4, one BLAS thread
REFERENCE_KERNEL_S = 0.002
INTERVAL = 0.1
MAX_BURST = 50  # timings owed after one long stretch; 0.1 s of kernel at most


class Speed:
    """Kernel timings of one run, and the scale factor they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((40, 40)) + 1j * rng.random((40, 40))
        self._floats = rng.random(1000).tolist()
        self.samples = []
        self._last = time.perf_counter()

    def _kernel(self) -> None:
        ",".join(map(repr, self._floats))
        total = 0
        for i in range(15000):
            total += i * i % 7
        for _ in range(15):
            self._matrix @ self._matrix

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def catch_up(self) -> None:
        """Time the kernel once for every INTERVAL seconds since the last timing."""
        owed = int((time.perf_counter() - self._last) / INTERVAL)
        for _ in range(min(owed, MAX_BURST)):
            self.sample()

    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
