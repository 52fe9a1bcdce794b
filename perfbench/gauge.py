"""A gauge of the host's speed, taken between the jobs of a pass.

On a shared virtual machine the speed of the whole host drifts by tens of
percent over minutes, in step on every CPU, so wall times of the same jobs
move with it.  The gauge times two fixed tasks that use no code of the
package: an interpreter-bound loop over small ints, tuples and a dict of
fixed size, and a numpy gather and sort of a fixed array.  Their times
change only with the host, so a change to the program cannot move them.

``run.py`` reports every time metric at the reference speed: a time
measured while the gauge (the sum of both tasks) read ``g`` seconds on
average is multiplied by ``REFERENCE_GAUGE_S / g``.  On a host that keeps
its speed the factor is constant, so it scales every time alike and leaves
their ratios, and a change's gain, as measured.
"""

from __future__ import annotations

import gc
import time

import numpy as np

INTERPRETER_STEPS = 15_000
GATHER_SIZE = 200_000
#: What the gauge reads on the reference host; both tasks together take
#: 8 to 11 ms on the 2-vCPU Xeon virtual machine of the baseline.
REFERENCE_GAUGE_S = 0.010


def to_reference(seconds: float, samples) -> float:
    """A time measured while the gauge gave ``samples``, at the reference speed."""
    return seconds * REFERENCE_GAUGE_S * len(samples) / sum(a + b for a, b in samples)


class Gauge:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 20, size=1 << 20)
        self._index = rng.integers(0, 1 << 20, size=GATHER_SIZE)
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time both tasks once and keep the pair (interpreter, numpy) in seconds.

        The garbage collector is off meanwhile, so that the objects a job
        left behind cannot slow the gauge.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(INTERPRETER_STEPS):
                key = i & 255
                counts[key] = counts.get(key, 0) + (i * i) % 7 + len((i, key))
            t1 = time.perf_counter()
            np.sort(self._table[self._index])
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((t1 - t0, t2 - t1))
