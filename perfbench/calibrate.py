"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants the same CPU-bound
call runs at speeds that differ by up to half from minute to minute, and
the slow phases last from a second to minutes.  While calls run, an
interval timer interrupts the workload every INTERVAL_S seconds and times
a fixed kernel that uses no fsbp code (a dense least-squares solve plus an
interpreted loop).  The time spent in the kernel is subtracted from the
call that was interrupted.  Each call's time is then reported at a
reference speed, ``seconds * REFERENCE_S / median(kernel time)``, the
median taken over the kernel samples within WINDOW_S seconds of the call,
so that a slow phase during a long call is scaled out too.  The raw
seconds are kept in the run record.

The handler runs between two bytecodes of the main thread, so it never
splits a native call; a tick that falls inside a long native call is
taken when that call returns.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.015   # kernel time that defines the reference speed
INTERVAL_S = 0.5      # timer period while calls run
WINDOW_S = 2.5        # a call is scaled by the samples this close to it

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((300, 150))
_B = _RNG.standard_normal(300)


def kernel() -> float:
    """Seconds for one fixed unit of dense linear algebra and Python work."""
    start = time.perf_counter()
    for _ in range(2):
        np.linalg.lstsq(_A, _B, rcond=None)
    acc = 0
    for i in range(30000):
        acc += i * i
    return time.perf_counter() - start


class Calibrator:
    """Kernel samples taken through a run, and the speed factors they give."""

    def __init__(self):
        self.samples: list = []      # (perf_counter at the end, kernel seconds)
        self.stolen = 0.0            # seconds the timer handler took from the workload

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append((time.perf_counter(), kernel()))

    def _on_tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply seconds measured in [start, end] by this to get reference-speed
        seconds.  Uses the samples within WINDOW_S of the interval (at least the
        3 nearest), or all samples when no interval is given."""
        if start is None:
            kernels = [k for _, k in self.samples]
        else:
            kernels = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
            if len(kernels) < 3:
                mid = 0.5 * (start + end)
                kernels = [k for _, k in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REFERENCE_S / statistics.median(kernels)
