"""Host speed calibration of the swarmform benchmark.

The benchmark's host is shared: the same code runs up to 1.7x slower for
seconds to minutes at a time, and a run can sit at the slow speed from start
to end.  So the worker also times a fixed kernel, which is not part of the
program, every INTERVAL_S seconds while it measures, from a SIGALRM handler
that runs between the program's own bytecodes.  Every timing is reported at
the host speed at which the kernel takes REF_S:

    reported = (measured - kernel time inside it) * REF_S / (median kernel time near it)

The kernel mixes what the program spends its time on (interpreted Python,
small frozen dataclasses, numpy calls on 2-vectors, number formatting as in
the CSV export, writing an array of a trajectory log's size, and reading a
few MB, as a pass over many planner inputs does), so that it slows with the
host as the program does.  Its code, REF_S and INTERVAL_S are part of
the benchmark's definition: changing them changes every reported timing.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# Kernel time at the reference speed: about its median on a 2-CPU Xeon
# host at 2.1 GHz with Python 3.11 and numpy 2.4, under the benchmark.
REF_S = 0.0025
# Wall seconds between two kernels while a Sampler is active.
INTERVAL_S = 0.1

_ROUNDS = 200
_ROWS = 300
_LOG_SHAPE = (9000, 9, 2)
_MEMORY = np.arange(1 << 19, dtype=float)  # 4 MB, past the per-core caches
_ROTATE = np.array([[0.96, -0.28], [0.28, 0.96]])


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not math.isfinite(self.x + self.y):
            raise ValueError("non-finite point")


def kernel() -> float:
    v = np.array([1.0, 0.0])
    points = []
    acc = 0.0
    for i in range(_ROUNDS):
        v = _ROTATE @ v * 0.999 + 1e-3
        p = _Point(float(v[0]), float(v[1]))
        points.append(p)
        acc += math.hypot(p.x - points[i // 2].x, p.y - points[i // 2].y)
    text = "\n".join(f"{i * 1e-3:.6f},{i % 9},{acc * i:.9g},{-0.25 * i:.9g}"
                     for i in range(_ROWS))
    log = np.empty(_LOG_SHAPE)
    log[:] = acc
    return len(text) + float(log[-1, -1, -1]) + float(_MEMORY[::8].sum())


def timed_kernel(kernels: list) -> None:
    """Run the kernel once; append its (end, duration) to `kernels`, in
    seconds of time.perf_counter."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    kernels.append((t1, t1 - t0))


def scale(durations) -> float:
    """Factor that takes a time measured among kernels of these durations
    to the reference speed."""
    return REF_S / float(np.median(durations))


class Sampler:
    """While active, times the kernel at once and then every INTERVAL_S
    seconds of wall time.

    A kernel runs between two bytecodes of the main thread, so it lies wholly
    inside or wholly outside any interval between two clock reads there.
    """

    def __init__(self):
        self.kernels: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        timed_kernel(self.kernels)

    def __enter__(self) -> Sampler:
        timed_kernel(self.kernels)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _within(self, start: float, end: float) -> np.ndarray:
        """(end, duration) rows of the kernels that ended in [start, end]."""
        k = np.array(self.kernels, dtype=float).reshape(-1, 2)
        return k[(k[:, 0] >= start) & (k[:, 0] <= end)]

    def factor(self, start: float, end: float) -> float:
        """Factor that takes a time measured in [start, end] to the reference
        speed, from the kernels that ended in it."""
        k = self._within(start, end)
        if not len(k):
            raise ValueError(f"no calibration kernel in [{start:.3f}, {end:.3f}]")
        return scale(k[:, 1])

    def scaled(self, start: float, end: float, pad: float = 0.0) -> float:
        """The time from `start` to `end` less the kernels inside it, at the
        reference speed, from the kernels up to `pad` seconds around it."""
        inside = self._within(start, end)[:, 1].sum()
        return (end - start - inside) * self.factor(start - pad, end + pad)
