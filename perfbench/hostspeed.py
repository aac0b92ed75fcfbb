"""Host-speed calibration of the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a quarter within minutes, for every process alike. To keep that drift
out of the end-to-end times, a fixed benchmark-owned kernel is timed
throughout an untraced run: every :data:`INTERVAL_S` by a ``SIGALRM``
handler while passes run, and between set-up processes. Its time is taken
out of the pass it interrupted, and every end-to-end time is rescaled by
``REFERENCE_S / median(kernel time)``, i.e. reported as it would read on a
host where the kernel takes :data:`REFERENCE_S`. The kernel's work never
changes with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import functools
import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Seconds between two samples while passes run.
INTERVAL_S = 0.5

#: Kernel time, in seconds, of the host the end-to-end times are scaled to.
REFERENCE_S = 0.015

_clock = time.perf_counter


@functools.cache
def _inputs() -> tuple[str, np.ndarray]:
    """The kernel's inputs, built on first use: set-up children import this
    module and should not pay for them."""
    blob = json.dumps(
        [{f"k{i}": [i, i * 2.5, "x" * (i % 7)] for i in range(40)} for _ in range(120)]
    )
    return blob, np.sin(np.arange(1 << 16, dtype=np.float64))


def kernel() -> float:
    """A fixed mix of interpreter, dict, JSON and small NumPy work."""
    blob, array = _inputs()
    total = 0.0
    for row in json.loads(blob):
        for key, value in row.items():
            total += len(key) + value[0]
    table: dict[int, int] = {}
    for i in range(50000):
        table[i & 511] = table.get(i & 511, 0) + i
    for start in range(0, array.size, 512):
        total += float(np.cumsum(array[start:start + 512])[-1])
    return total + len(table)


class HostSpeed:
    """Kernel samples of one run and the time they took."""

    def __init__(self) -> None:
        _inputs()
        self.samples: list[float] = []
        #: Total seconds spent sampling, to be taken out of pass walls.
        self.spent = 0.0

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = _clock()
            kernel()
            dt = _clock() - t0
            self.samples.append(dt)
            self.spent += dt

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample every :data:`INTERVAL_S` while the body runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Multiplier that scales a time measured here to the reference host."""
        return REFERENCE_S / statistics.median(self.samples)
