"""How fast the machine is right now, from a fixed workload that does not
touch the program under test.

On a shared host the same code runs 1.3-2x slower for spells of tens of
seconds to minutes, evenly across everything the process does.  The probe
runs about once a second between the measured units, and the run's times
are scaled by ``nominal_s / median probe time``: seconds on a reference
machine whose probe takes ``nominal_s``.  A change to the program moves the
scaled times as it moves the raw ones; a slow spell of the host moves both
the units and the probe, and cancels.  One scale per run, from the median
of all its probes, because a single probe is itself noisy (±10-20%) while
the spells mostly outlast a run.

The kernel mixes elementwise float64 work over a 2 MB array with a
float32 matrix product, the two kinds of work the program spends its time
on.  Each probe is the median of three repetitions, so that one interrupt
does not count.  The matrix product runs on the workload's own BLAS thread
count, so the probe's time depends on it: each workload has a nominal
time of its own (``probe_nominal_s`` in workloads.py).
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3


class SpeedProbe:
    def __init__(self, np, nominal_s: float, clock=time.perf_counter):
        self.np, self.nominal_s, self.clock = np, nominal_s, clock
        self.flat = np.linspace(0.0, 1.0, 256 * 1024)
        self.left = np.linspace(0.0, 1.0, 1024 * 64, dtype=np.float32).reshape(1024, 64)
        self.right = self.left.T.copy()
        # results go to buffers allocated once: with fresh 2 MB temporaries
        # the first probes of a process ran up to 8x slower than later ones
        self.buf = np.empty_like(self.flat)
        self.prod = np.empty((1024, 1024), dtype=np.float32)
        self.probes: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self._kernel()  # first touch of the buffers, BLAS thread start

    def _kernel(self) -> None:
        np, buf = self.np, self.buf
        for _ in range(10):
            np.multiply(self.flat, 1.0001, out=buf)
            np.add(buf, 0.5, out=buf)
            np.sqrt(buf, out=buf)
            np.clip(buf, 0.1, 0.9, out=buf)
            np.matmul(self.left, self.right, out=self.prod)

    def measure(self) -> float:
        start = self.clock()
        times = []
        for _ in range(REPEATS):
            t0 = self.clock()
            self._kernel()
            times.append(self.clock() - t0)
        seconds = statistics.median(times)
        self.probes.append((start, self.clock(), seconds))
        return seconds

    def since_last(self) -> float:
        return self.clock() - self.probes[-1][1] if self.probes else float("inf")

    def scale(self, first: int = 0) -> float:
        """Reference-machine seconds per wall-clock second, from the probes
        numbered ``first`` and later."""
        return self.nominal_s / statistics.median(p[2] for p in self.probes[first:])
