"""Machine speed during a run, measured with a fixed kernel.

The benchmark host is shared: over minutes the same restart takes anywhere
from 0.75 to 1.2 s, and a 30-second run cannot average that out.  The kernel
below uses numpy and Python the way the workloads do (small Hermitian
eigensolves, a batched 16x16 eigensolve, dictionary work) but no procmat
code, so a change to procmat cannot move it.  Run between operations, its
median time over ``REFERENCE_S`` is the run's kernel ratio.

The kernel reacts more strongly than the workloads to the host's load: over
120 runs of 30 s (40 per workload, in four sets of ten seeds) the kernel ratio
ranged from 0.70 to 1.28 while the workloads' own times moved about half as
much.  Dividing by the full ratio over-corrects, so times are divided by the
ratio raised to ``ELASTICITY``, fitted on those runs: the worst spread of
wall_s, ops_per_s, op_p50_s and op_tail_s across seeds (IQR over median) was
0.29 raw, 0.19 divided by the full ratio and 0.11 at 0.65 (0.6 and 0.7 gave
nearly the same), and the medians of the sets agreed within 0.07 instead of
0.42 raw; those of set-up time within 0.11 instead of 0.53 raw.  Times
divided this way are seconds on a machine where the kernel takes
``REFERENCE_S``; the end-to-end metrics carry them with the unit ``ref_s``
(``setup_s`` with ``s``, which the benchmark's contract fixes) so that they
are not read as measured seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time that defines the reference machine (median on a quiet
#: 2-core x86-64 host); fixed, so results of all commits share one scale
REFERENCE_S = 0.005
#: exponent of the kernel ratio in the speed factor (see above)
ELASTICITY = 0.65


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        g8 = rng.normal(size=(200, 8, 8)) + 1j * rng.normal(size=(200, 8, 8))
        self._m8 = list((g8 + np.conj(np.swapaxes(g8, -1, -2))) / 2)
        g16 = rng.normal(size=(64, 16, 16)) + 1j * rng.normal(size=(64, 16, 16))
        self._m16 = (g16 + np.conj(np.swapaxes(g16, -1, -2))) / 2
        self.samples: list[float] = []
        self._kernel()  # first calls load the LAPACK paths; not a sample

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for m in self._m8:
            acc += float(np.linalg.eigvalsh(m)[0])
        acc += float(np.linalg.eigvalsh(self._m16)[:, 0].sum())
        table: dict[int, float] = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Time one kernel run, record it and return its duration."""
        elapsed = self._kernel()
        self.samples.append(elapsed)
        return elapsed

    def ratio(self) -> float:
        """Median kernel time over the reference time: above 1 on a slower host."""
        return statistics.median(self.samples) / REFERENCE_S

    def factor(self) -> float:
        """The speed factor that the run's times are divided by."""
        return self.ratio() ** ELASTICITY
