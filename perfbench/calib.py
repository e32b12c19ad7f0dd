"""Machine-speed calibration for timings taken on a shared machine.

The hosts this benchmark runs on are shared: the same loop of ``classify3``
calls ran anywhere from 1,350 to 2,500 calls/s in different processes, in
phases lasting longer than a run. The slowdown hits all CPU work alike, so
the benchmark runs a fixed reference loop (small complex SVDs, matrix
products and norms in numpy, no slocc code) between blocks of the workload
and scales each block's timings by the reference speed measured around it:

    calibrated time = measured time * measured reference rate / REF_NOMINAL_PER_S

A calibrated second is thus the time in which the reference loop completes
REF_NOMINAL_PER_S reference ops, about one second of an unloaded core of a
2-vCPU x86 VM. Raw times are printed beside the calibrated ones.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REF_NOMINAL_PER_S = 50_000.0
REF_OPS = 512
_MATRICES = 64


class Calibrator:
    def __init__(self):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence([0])))
        self._mats = [
            g.standard_normal((2, 4)) + 1j * g.standard_normal((2, 4)) for _ in range(_MATRICES)
        ]
        self.speeds: list[float] = []

    def speed(self) -> float:
        """Run REF_OPS reference ops; return their rate over REF_NOMINAL_PER_S."""
        t = perf_counter_ns()
        for _ in range(REF_OPS // _MATRICES):
            for m in self._mats:
                u, s, vh = np.linalg.svd(m)
                float(np.linalg.norm(m - (u[:, :2] * s) @ vh[:2]))
        rate = REF_OPS * 1e9 / (perf_counter_ns() - t)
        factor = rate / REF_NOMINAL_PER_S
        self.speeds.append(factor)
        return factor
