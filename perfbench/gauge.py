"""Host-speed gauge for the benchmark's timings.

The host this benchmark runs on is shared: the same work takes up to twice as
long in one stretch of seconds as in the next, and a whole run can sit in a
slow stretch.  So every call is bracketed by two fixed calibration kernels, and
its time is rescaled to the reference host speed, at which each kernel takes
its ``*_REFERENCE_S``.  The kernels are the benchmark's own code: no change to
the program can change their time.

* The compute kernel (batched 3x3 ``eigvalsh`` and a pure-Python loop) is the
  work a solve does: enumeration batches and per-call Python.
* The memory kernel (fill and sum a fresh 16 MB array) is the work of the
  Monte Carlo part of a simulate, which makes and streams arrays of a few
  million samples.  The array is freed at once, below the program's own peak,
  so the kernel leaves ``peak_rss_mb`` as the program makes it.
"""

import time

COMPUTE_REFERENCE_S = 0.004
MEMORY_REFERENCE_S = 0.0035


class Gauge:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        g = rng.normal(size=(1500, 3, 3)) + 1j * rng.normal(size=(1500, 3, 3))
        self._np = np
        self._mats = g @ g.conj().transpose(0, 2, 1)
        self.last = self.measure()

    def compute(self) -> float:
        """Slow-down of the compute kernel against the reference speed."""
        start = time.perf_counter()
        self._np.linalg.eigvalsh(self._mats)
        total = 0
        for i in range(20_000):
            total += i * i
        return (time.perf_counter() - start) / COMPUTE_REFERENCE_S

    def memory(self) -> float:
        """Slow-down of the memory kernel against the reference speed."""
        start = time.perf_counter()
        self._np.full(2_000_000, 1.0).sum()
        return (time.perf_counter() - start) / MEMORY_REFERENCE_S

    def measure(self) -> tuple[float, float]:
        return self.compute(), self.memory()

    def around(self) -> tuple[float, float]:
        """Compute and memory slow-downs for the call just made: the mean of
        each kernel just before and just after it."""
        before, self.last = self.last, self.measure()
        return (before[0] + self.last[0]) / 2, (before[1] + self.last[1]) / 2
