"""Reference-speed clock: times work in seconds of a fixed machine speed.

The shared host this benchmark was built on changes speed by up to 2x within
minutes, with CPU time equal to wall time, so raw seconds from runs taken a
few minutes apart do not compare.  A fixed pure-Python kernel that does not
touch braidops is therefore timed next to the work, several times a second,
and every slice of measured time is scaled by how fast the kernel ran at that
moment:

    reference seconds = raw seconds * NOMINAL_KERNEL_S / kernel time

The kernel takes about NOMINAL_KERNEL_S on that host in its usual state, so
reference seconds read close to raw seconds there.  A change to braidops
cannot change the kernel, so a slower program still shows in full.

The kernel does Fraction arithmetic, as braidops does, and random reads over a
16 MiB array: chord-table builds slow down more than arithmetic when the host
is busy, and with the reads the kernel tracked their slow spells better than
the arithmetic alone did.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from fractions import Fraction
from time import perf_counter

NOMINAL_KERNEL_S = 0.02
SAMPLE_PERIOD_S = 0.25
SMOOTHING = 3
TABLE_ITEMS = 1 << 21
TABLE_MB = TABLE_ITEMS * 8 / 2**20  # resident once the first kernel has run
_BLOCK = {signal.SIGALRM}
_table: array | None = None


def kernel_s() -> float:
    """Time of a fixed Fraction loop plus random array reads (about 20 ms)."""
    global _table
    if _table is None:
        _table = array("q", range(TABLE_ITEMS))  # filled, so every page is resident
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 1001):
        acc += Fraction((-1) ** k, k * k + 1)
        if k % 500 == 0:
            acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**12 + 1)
    table, idx, total = _table, 12345, 0
    for _ in range(20000):
        idx = (idx * 1103515245 + 12345) & (TABLE_ITEMS - 1)
        total += table[idx]
    return perf_counter() - start


def scale_now(samples: int = 3) -> float:
    """Reference seconds per raw second, from the median of a few kernel runs."""
    return NOMINAL_KERNEL_S / statistics.median(kernel_s() for _ in range(samples))


class RefClock:
    """A clock in reference seconds, sampled by SIGALRM every SAMPLE_PERIOD_S.

    Each slice between two samples is scaled by the median of the last
    SMOOTHING kernel times sampled at its start, so the clock is continuous
    and one stray sample does not rescale a short request on its own.  Time
    spent in the kernel itself is left out of both readings.  Single-threaded:
    the samples run in the main thread between bytecodes.
    """

    def __init__(self):
        self.kernel_times = [kernel_s()]
        self._raw = 0.0
        self._ref = 0.0
        self._kernel = self.kernel_times[0]
        self._mark = perf_counter()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        slice_s = perf_counter() - self._mark
        self._raw += slice_s
        self._ref += slice_s * NOMINAL_KERNEL_S / self._kernel
        self.kernel_times.append(kernel_s())
        self._kernel = statistics.median(self.kernel_times[-SMOOTHING:])
        self._mark = perf_counter()

    def read(self) -> tuple[float, float]:
        """(raw seconds, reference seconds) elapsed outside the kernel so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _BLOCK)
        try:
            open_s = perf_counter() - self._mark
            return (self._raw + open_s,
                    self._ref + open_s * NOMINAL_KERNEL_S / self._kernel)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _BLOCK)
