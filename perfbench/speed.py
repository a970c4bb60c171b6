"""Machine-speed probe that mc_paper's times are scaled by.

On the 2-vCPU VM this benchmark was tuned on, mc_paper's replicates ran up to
1.9x slower for stretches of seconds to minutes, with CPU time equal to wall
time and CPU steal near 1%, so neither CPU time nor a longer window removes
it. A fixed kernel doing the same kind of work, the lambda grid on 48 x 48
matrices, slows with it. The measuring child times the kernel before the
first run_scenario call and after every call, and scales each call's wall
time by

    REFERENCE_S / mean(kernel time before the call, kernel time after it)

so a time reads as it would with the machine at the speed where the kernel
takes ``REFERENCE_S``. The kernel is the benchmark's own code and calls no
finprint function, so a change to finprint cannot move it. Over a 4-minute
recording of mc_paper batches, medians of 6 consecutive 100-replicate calls
spread 19% of their median unscaled and 6% scaled.

The fit workloads are not scaled: their unscaled spread is within their
bound, their fits did not track this kernel, and a dense kernel gave mixed
results in short trials.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from checks import dense_tls_beta

# Kernel seconds at the reference speed: about the median on the VM above
# when this was written. It fixes the scale only.
REFERENCE_S = 0.080
# A kernel pass is this many rounds of the grid; its time is the median round
# times the count, so a preemption inside one round does not count.
ROUNDS = 10


class SpeedProbe:
    """For 20 lambdas: a Cholesky whitening, a TLS SVD and an eigh, on 48 x 48
    inputs drawn once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((48, 100))
        self.s = z @ z.T / 100
        self.x = rng.standard_normal((48, 2))
        self.y = self.x.sum(axis=1) + rng.standard_normal(48)
        self.lambdas = np.geomspace(1e-3, 10.0, 20)
        self.times: list[float] = []
        self.run()  # first calls into LAPACK and scipy load and allocate
        self.times.clear()

    def _round(self) -> float:
        t0 = time.perf_counter()
        for lam in self.lambdas:
            dense_tls_beta(self.s, self.x, self.y, (35, 46), lam)
            np.linalg.eigh(self.s)
        return time.perf_counter() - t0

    def run(self) -> float:
        """Time one kernel pass and keep the time."""
        self.times.append(ROUNDS * statistics.median(self._round() for _ in range(ROUNDS)))
        return self.times[-1]

    def scale(self, elapsed: float) -> float:
        """``elapsed`` at the reference speed, from the last two kernel times."""
        return elapsed * REFERENCE_S / (0.5 * (self.times[-2] + self.times[-1]))
