"""A fixed reference computation that measures how fast the machine is now.

On a shared host the same code runs up to 1.7x slower while other guests
load the physical cores, in phases from seconds to minutes.  The probe
runs the same kinds of work as randpoly (qhull hulls in 2 to 4
dimensions, sorting and ``scipy.stats.norm.ppf`` on small arrays, small
numpy reductions), on inputs fixed here and independent of the workload
seed, so its time follows the machine's speed and never the program's.
Timing a job's steps next to probe passes and scaling them by
``REFERENCE_S / probe time`` gives their time at the reference speed.

    python3 perfbench/probe.py      # prints 20 probe times

``REFERENCE_S`` is about the probe's time in the fastest phases of the
2-vCPU x86-64 virtual machine the benchmark was written on (Python 3.11,
numpy 2.4, scipy 1.17), where it took 0.023 to 0.043 s depending on the
load from other guests.  It is part of the benchmark's definition and
must stay fixed, or every timing scales with it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import stats
from scipy.spatial import ConvexHull

REFERENCE_S = 0.025


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20190401)
        self._clouds = [rng.standard_normal((n, d))
                        for d, n in ((2, 60), (3, 150), (4, 40))
                        for _ in range(12)]
        self._samples = rng.standard_normal((300, 24))
        self._grid = (np.arange(1, 25) - 0.5) / 24

    def once(self) -> float:
        """Seconds for one pass of the reference computation."""
        t0 = time.perf_counter()
        volume = 0.0
        for cloud in self._clouds:
            volume += ConvexHull(cloud).volume
        gap = 0.0
        for row in self._samples:
            x = np.sort(row)
            gap += float(np.abs(x - stats.norm.ppf(self._grid)).mean())
        elapsed = time.perf_counter() - t0
        if not (volume > 0.0 and gap > 0.0):
            raise RuntimeError("probe computed nothing")
        return elapsed

    def median(self, passes: int = 3) -> float:
        return statistics.median(self.once() for _ in range(passes))


if __name__ == "__main__":
    probe = Probe()
    probe.once()
    print(" ".join(f"{probe.once():.4f}" for _ in range(20)))
