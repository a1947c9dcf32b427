"""Host-speed normalization of measured times.

The machines this benchmark runs on are shared: another tenant's load can
make the same CPU-bound operation take anywhere from 1x to 2x its quiet
time, changing from one second to the next. Raw wall times then spread far
wider than any useful regression bound.

``SpeedProbe`` samples the host's current speed while an operation runs: a
SIGALRM handler fires every ``INTERVAL_S`` and times ``kernel()``, a fixed
mix of interpreter work and tiny NumPy calls like the package's own hot
path. Dividing an operation's wall time (less the probe's own time)
by the mean kernel time seen during it, and multiplying by
``REFERENCE_KERNEL_S``, gives the operation's time at a fixed reference
speed. The kernel uses no code from the package, so a change to the package
moves the normalized time exactly as it moves the raw time on a quiet host.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# about kernel()'s time on an unloaded 2-vCPU x86_64 host; it only fixes
# the unit the normalized seconds are expressed in
REFERENCE_KERNEL_S = 2.4e-3
INTERVAL_S = 0.05

_M = (np.arange(16).reshape(4, 4) % 5 - 2.0) + 1j * (np.arange(16).reshape(4, 4) % 3)
_T = _M.reshape(2, 2, 2, 2)


@dataclass(frozen=True)
class _Row:
    a: float
    b: float
    c: int


def kernel(rounds: int = 20) -> float:
    """A fixed amount of interpreter work and tiny NumPy calls.

    Small frozen dataclasses, a dict, float formatting and 4x4 tensordot,
    SVD, QR and einsum: the same kinds of work as the package's hot path,
    so the kernel slows down under host load about as much as it does.
    """
    acc = 0.0
    for _ in range(rounds):
        rows = [_Row(k * 0.5, math.sin(k), k) for k in range(20)]
        by_key = {row.c: row for row in rows}
        text = ",".join(f"{row.a:.17g}" for row in by_key.values())
        block = np.tensordot(_T, _T, axes=([2, 3], [0, 1])).reshape(4, 4)
        u, s, _vh = np.linalg.svd(block)
        q, _r = np.linalg.qr(np.einsum("ab,bc->ac", _M, u))
        acc += len(text) + float(s[0]) + abs(q[0, 0])
    return acc


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager: samples kernel time on a timer while the body runs.

    Must be used from the main thread (signal handlers run there).
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(timed_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, wall_s: float) -> float:
        """``wall_s``, less the probe's own time, at the reference speed."""
        if not self.samples:
            # body shorter than one interval: sample once now
            return wall_s * REFERENCE_KERNEL_S / timed_kernel()
        net = wall_s - sum(self.samples)
        return net * REFERENCE_KERNEL_S / statistics.fmean(self.samples)
