"""Host speed: a fixed numpy kernel, independent of msrom, timed between instances.

Other tenants of a shared host slow a single-threaded msrom instance by up to
1.8x, for a fraction of a second up to several minutes at a time.  Its CPU
time rises with its wall time, so this is contention for the core, not
preemption, and no choice of clock removes it.  The reference kernel has
msrom's own mix of work (a Python loop of vector updates as in Gram-Schmidt,
metric matrix-vector products, and small SVD and least-squares calls), so
contention slows it by about the same factor.  An instance's time scaled by
``NOMINAL_S`` over the reference times around it is its time on the host at
nominal speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one ``Reference.time()`` at quiet moments on a 2-vCPU Intel Xeon
# (family 6, model 143) VM, numpy 2.4 with OpenBLAS on one thread.  Only
# ratios of scaled times mean anything; this constant keeps them near the
# wall times of a quiet host.
NOMINAL_S = 0.021


class Reference:
    """msrom's mix of work on fixed data, about 20 ms on a quiet host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260101)
        self.vectors = list(np.linalg.qr(rng.standard_normal((500, 40)))[0].T)
        self.small = list(np.linalg.qr(rng.standard_normal((200, 40)))[0].T)
        B = rng.standard_normal((200, 200))
        self.metric = B @ B.T / 200 + np.eye(200)
        self.squares = [rng.standard_normal((8, 8)) for _ in range(20)]

    def gram_schmidt(self) -> None:
        v = np.ones(500)
        for _ in range(50):
            for q in self.vectors:
                v -= (q @ v) * q

    def metric_gram_schmidt(self) -> None:
        w = np.ones(200)
        for _ in range(20):
            for q in self.small:
                w -= (q @ (self.metric @ w)) * q

    def small_lapack(self) -> None:
        for _ in range(6):
            for a in self.squares:
                np.linalg.svd(a)
                np.linalg.lstsq(a, a[:, 0], rcond=None)

    def run(self) -> None:
        self.gram_schmidt()
        self.metric_gram_schmidt()
        self.small_lapack()

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


class HostSpeed:
    """Reference times taken at least every ``period`` seconds between
    instances; instance ``i`` of a run is bracketed by the samples at its
    index and the next one."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.reference = Reference()
        self.reference.run()  # first calls into LAPACK are slower
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(self.reference.time())
        self._last = time.perf_counter()

    def tick(self) -> int:
        """Called before each instance; returns the index of its bracket."""
        if time.perf_counter() - self._last >= self.period:
            self.sample()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """``NOMINAL_S`` over the mean reference time around bracket ``index``;
        call ``sample()`` once after the last instance to close the last one."""
        return NOMINAL_S / statistics.fmean(self.samples[index : index + 2])


def scaled(seconds: float) -> float:
    """``seconds`` measured just before a fresh reference run, scaled; used
    by set-up, which times a whole process."""
    reference = Reference()
    reference.run()
    return seconds * NOMINAL_S / statistics.median(reference.time() for _ in range(3))
