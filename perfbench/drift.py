"""Reference kernel, drift correction and the process-state guard.

The host's CPU speed can drift by tens of percent within a minute, and the
process is not losing the CPU when it does: CPU time tracks wall time.  A
fixed kernel owned by the benchmark is therefore timed next to every
measured operation, and each raw time is rescaled to the speed at which the
kernel takes its nominal time:

    corrected = raw * nominal_kernel_s / kernel_s

kernel_s is the mean of the kernel runs just before and just after the
operation.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time

import numpy as np

_MASK64 = (1 << 64) - 1
_DICT_STEPS = 14000
_ARGMIN_STEPS = 2000
_ROW = 257


def ref_kernel() -> int:
    """Fixed pure-Python dict/bitmask loop plus a small NumPy argmin loop.

    Takes about 8 ms on an Intel Xeon cloud vCPU at full speed.  Returns a checksum
    so the result is consumed and can be pinned by the self-tests.
    """
    table: dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    acc = 0
    for _ in range(_DICT_STEPS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        key = x >> 54
        table[key] = table.get(key, 0) | (1 << (x & 127))
        acc ^= table[key]
    row = (np.arange(_ROW, dtype=float) * 7919.0) % _ROW
    for _ in range(_ARGMIN_STEPS):
        j = int(row.argmin())
        row[j] += _ROW
        acc += j
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    ref_kernel()
    return time.perf_counter() - start


def correct(raw_s: float, kernel_s: float, nominal_s: float) -> float:
    """raw_s rescaled to the host speed at which the kernel takes nominal_s."""
    if kernel_s <= 0:
        raise ValueError("kernel time must be positive")
    return raw_s * nominal_s / kernel_s


def bracket(kernels: list[float], i: int) -> float:
    """Host-speed estimate for operation i, which ran between kernels[i] and
    kernels[i + 1]: the mean of those two kernel times.

    The host's speed changes within a second, so wider windows correct
    worse: on identical instances they left more spread than this one did.
    """
    if not 0 <= i < len(kernels) - 1:
        raise IndexError("operation i needs a kernel before and after it")
    return (kernels[i] + kernels[i + 1]) / 2


def correct_series(raw: list[float], kernels: list[float], nominal_s: float) -> list[float]:
    """Corrected times for operations that alternate with kernel runs.

    kernels has one more entry than raw: kernels[i] ran just before raw[i]
    and kernels[-1] after the last operation.
    """
    if len(kernels) != len(raw) + 1:
        raise ValueError("need exactly one more kernel run than operations")
    return [correct(r, bracket(kernels, i), nominal_s) for i, r in enumerate(raw)]


class GuardError(RuntimeError):
    """The process state changed during a run, so kernel times are not comparable."""


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def process_state() -> tuple:
    return (_thread_count(), gc.isenabled(), gc.get_threshold())


class ProcessGuard:
    """Fails the run when threads or garbage-collector settings change.

    Either would slow or speed up the kernel relative to the measured
    operations, which would bias every corrected number.
    """

    def __init__(self) -> None:
        self.start = process_state()

    def check(self) -> None:
        now = process_state()
        if now != self.start:
            raise GuardError(
                "process state changed during the run: "
                f"(threads, gc enabled, gc threshold) "
                f"was {self.start}, is {now}"
            )


class DriftClock:
    """Runs the kernel under the guard and keeps every kernel time it took."""

    def __init__(self, guard: ProcessGuard, nominal_s: float) -> None:
        self.guard = guard
        self.nominal_s = nominal_s
        self.kernels: list[float] = []

    def kernel(self) -> float:
        self.guard.check()
        k = time_kernel()
        self.kernels.append(k)
        return k

    def kernels_median(self, count: int) -> float:
        return statistics.median(self.kernel() for _ in range(count))
