"""Calibration kernels: the machine's speed, measured next to the requests.

The host this benchmark was written on shares its cores with other guests,
and its speed drifts by up to 2x over hours and by tens of percent within a
minute; a pure wall time would measure the neighbours as much as symrd.  So
the runner times a fixed kernel that does not call symrd next to the
requests, and scales each wall time by REF_MS / (kernel time), giving the
time the request would take on a machine where the kernel takes REF_MS.
A change to symrd moves the scaled time; a change of machine speed moves
kernel and request alike and cancels.

Each kernel does the kind of work of the workload it calibrates, at the
same array sizes where numpy's threaded BLAS is involved, since a thread
that loses its vCPU stalls the others and so slows BLAS calls far more than
plain Python: `python` scalar float math, branching, calls and number
formatting, as in a sweep's root solves and CSV rows (sweep, certify);
`long` one full simulation block at L = 12 (sim-long); `wide` a block at
L = 150 with the per-entry math.fsum reduction and log-determinants of a
sim-wide request (sim-wide).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy


def python_kernel() -> int:
    """Bisection steps, float math and formatting: about 3 ms."""
    total = 0
    for i in range(1, 4000):
        x = i * 1e-3
        lo, hi = 0.0, x + 1.0
        for _ in range(3):
            mid = 0.5 * (lo + hi)
            if math.log1p(mid) / (1.0 + mid * mid) > 0.1:
                lo = mid
            else:
                hi = mid
        total += len(f"{mid:.12g}")
    return total


def _basis(L: int) -> numpy.ndarray:
    """A fixed orthogonal L x L matrix, standing in for simulate.eigenbasis."""
    return numpy.linalg.qr(numpy.sqrt(numpy.arange(1.0, L * L + 1.0).reshape(L, L)))[0]


def _block(L: int, rows: int, theta: numpy.ndarray) -> numpy.ndarray:
    """One simulation block's numpy work: draws, basis products, errors, Gram."""
    key = numpy.array([1, 2], dtype=numpy.uint64)
    w = numpy.random.Generator(numpy.random.Philox(key=key)).standard_normal((rows, 3 * L + 2))
    xe = w[:, 1:L + 1] @ theta
    ye = xe + w[:, L + 2:2 * L + 2] @ theta
    ve = ye + w[:, 2 * L + 2:] @ theta
    err = xe - 0.5 * ve
    numpy.einsum("ij,ij->i", err, err)
    m = numpy.hstack([ye, ve])
    return m.T @ m


_THETA_LONG = _basis(12)
_THETA_WIDE = _basis(150)


def long_kernel() -> float:
    """A sim-long block at full size: 2^17 samples at L = 12."""
    return float(_block(12, 1 << 17, _THETA_LONG)[0, 0])


def wide_kernel() -> float:
    """A sim-wide request at half its L: one block of 6L samples at L = 150,
    the per-entry math.fsum over the moment matrix and its three log-dets."""
    g = _block(150, 900, _THETA_WIDE)
    moments = numpy.array([[math.fsum((g[i, j],)) for j in range(300)] for i in range(300)])
    moments += 1e3 * numpy.eye(300)
    return sum(numpy.linalg.slogdet(m)[1] for m in (moments[:150, :150], moments[150:, 150:], moments))


# kernel -> its time in ms on the reference machine, quiet (see README.md).
KERNELS = {"python": (python_kernel, 3.4), "long": (long_kernel, 110.0),
           "wide": (wide_kernel, 33.0)}


class Calibration:
    """Times one kernel; factor() = REF_MS / mean kernel time of the window.

    The mean, not the median: like a request's own time, it takes in the
    stalls a shared host adds (a vCPU held up, a BLAS thread waiting for
    one), which a median of the short kernel runs would pass over.
    """

    def __init__(self, kind: str):
        self.kernel, self.ref_ns = KERNELS[kind][0], KERNELS[kind][1] * 1e6
        self.window = []
        self.samples = []

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            start = time.perf_counter_ns()
            self.kernel()
            elapsed = time.perf_counter_ns() - start
            self.window.append(elapsed)
            self.samples.append(elapsed)

    def factor(self) -> float:
        """Scale for the wall times of the current window; starts a new window."""
        window, self.window = self.window, []
        return self.ref_ns / statistics.fmean(window)
