"""The speed of the machine right now, to rescale CPU times.

On a shared virtual machine the same code can take 1.6 times the user
CPU time, and three times the system time for page faults, for tens of
seconds at a stretch while other tenants load the host. A fixed kernel,
run right before and right after each timed operation, measures both
factors: a compute part (interpreter, allocation and BLAS work) and a
fault part (touching fresh anonymous pages). An operation's user seconds
are rescaled by the compute part and its system seconds by the fault
part, so that its CPU time reads as seconds on the machine at its
reference speed. The kernel does not touch lpconv, so a change to lpconv
moves the operation and not the kernel.
"""

from __future__ import annotations

import mmap
import resource
import statistics
import time
from fractions import Fraction

import numpy as np

# kernel seconds that define the reference speed: a common state of a
# 2-core Xeon VM at 2.0 GHz with one BLAS thread (its fastest state reads
# about 0.014 s and 0.0045 s)
REFERENCE_COMPUTE_S = 0.017
REFERENCE_FAULT_S = 0.0055
FAULT_BYTES = 8 << 20


def _compute() -> None:
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    frac = Fraction(0)
    for i in range(1, 1500):
        frac += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(1, i % 3 + 1)
    a = np.arange(4096.0).reshape(64, 64) / 4096.0
    for _ in range(30):
        a = np.abs(a @ a.T) ** 0.5 / 8.0


def _fault() -> None:
    with mmap.mmap(-1, FAULT_BYTES) as mm:
        view = np.frombuffer(mm, dtype=np.uint8)
        view[::mmap.PAGESIZE] = 1
        del view


def kernel() -> tuple[float, float]:
    """CPU seconds of the compute part and of the fault part."""
    t0 = time.process_time()
    _compute()
    t1 = time.process_time()
    _fault()
    return t1 - t0, time.process_time() - t1


def usage() -> tuple[float, float]:
    """User and system CPU seconds of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime


def rescale(user: float, system: float, compute_s: float, fault_s: float) -> float:
    return user * REFERENCE_COMPUTE_S / compute_s + system * REFERENCE_FAULT_S / fault_s


def rescaled_now(user: float, system: float, samples: int = 3) -> float:
    """Rescale by the median of a few kernel runs made now."""
    runs = [kernel() for _ in range(samples)]
    return rescale(user, system, statistics.median(r[0] for r in runs),
                   statistics.median(r[1] for r in runs))


class Calibrated:
    """Rescales operations timed between kernel runs; each kernel run serves two operations."""

    def __init__(self):
        self.last = kernel()
        self.kernels = [self.last]

    def scale(self, user: float, system: float) -> float:
        """Rescale CPU seconds spent since the previous kernel run."""
        now = kernel()
        self.kernels.append(now)
        compute_s, fault_s = ((a + b) / 2 for a, b in zip(self.last, now))
        self.last = now
        return rescale(user, system, compute_s, fault_s)
