"""Host-speed probe: scale pass times to a fixed reference speed.

The host this benchmark was built on shares its CPUs with other machines,
and its throughput drifts by as much as 70 % in phases of 10-60 s that no
process inside it can see or control.  Pure-Python and FFT-bound code slow
down together (their time ratio over 10 s windows stays within 3 %), so a
fixed pure-Python kernel timed while a pass runs measures how fast the host
is at that moment.

`SpeedProbe` runs the kernel when it starts and ends and, in between, every
`INTERVAL_S` from a SIGALRM handler in the main thread.  A pass's scaled
time is its own time (without the kernel's) multiplied by the mean of
REFERENCE_S / kernel time over its samples: the seconds the pass would
take on a host where the kernel takes exactly REFERENCE_S.  The kernel is
timed on the CPU clock of the thread that runs it, so other threads of the
program, which hold the GIL while the kernel waits for it, do not count as
a slower host.  Wall and CPU times are scaled by the same factor.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

KERNEL_ITERS = 150_000
REFERENCE_S = 0.010  # about the kernel's time on the reference machine when it runs fast
INTERVAL_S = 0.5


def kernel() -> int:
    s = 0
    for i in range(KERNEL_ITERS):
        s += i * i % 7
    return s


def time_kernel() -> tuple[float, float, float]:
    """Wall, process CPU and thread CPU seconds of one kernel run."""
    w0, p0, t0 = time.perf_counter(), time.process_time(), time.thread_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - p0, time.thread_time() - t0


def speed_factor(kernel_thread_s: list[float]) -> float:
    """Reference seconds per second at the speed the kernel samples show."""
    return fmean(REFERENCE_S / k for k in kernel_thread_s)


class SpeedProbe:
    """Samples the kernel while the `with` block runs (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and process CPU seconds of the block, without the kernel's,
        at reference speed."""
        walls, cpus, threads = zip(*self.samples)
        factor = speed_factor(threads)
        return (wall - sum(walls)) * factor, (cpu - sum(cpus)) * factor
