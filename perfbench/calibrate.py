"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose cores slow down by up to ~2x, for
stretches of seconds to minutes.  A fixed reference kernel, written here and
independent of kuramoto_lock, is timed on each core the measured work runs
on, between the calls.  A call that took ``t`` seconds while the kernel took
``c`` is reported as ``t * r / c``: the time it would take on the reference
host, where the kernel takes ``r`` (``KERNELS``).  A change to kuramoto_lock
moves ``t`` and not ``c``, so it shows in the rescaled time; a slower host
moves both.

A slow stretch does not slow every kind of work alike: interpreter-bound
work on small arrays slows ~2x, passes over arrays of megabytes ~1.5x.  So
each workload is calibrated by the kernel most like its own work:

- ``rk4``: RK4 steps of a 20-oscillator mean-field Kuramoto model, the small
  ufunc calls that dominate the campaign and the collision census;
- ``arrays``: elementwise passes over a 4 MB array, like the pair-gap arrays
  of the large-N diagnostics (and, measured, like interpreter start-up).
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

REPEATS = 3

_rng = np.random.default_rng(20250301)
_THETA0 = _rng.uniform(0.0, 2.0 * np.pi, 20)
_OMEGA0 = _rng.uniform(-0.5, 0.5, 20)
_NU = _rng.uniform(-0.05, 0.05, 20)
_BIG = _rng.standard_normal(1 << 19)


def _rhs(theta, omega):
    return omega, _NU + np.sin(theta[None, :] - theta[:, None]).mean(axis=1) - omega


def _rk4() -> float:
    theta, omega, h = _THETA0, _OMEGA0, 0.01
    for _ in range(120):
        k1 = _rhs(theta, omega)
        k2 = _rhs(theta + 0.5 * h * k1[0], omega + 0.5 * h * k1[1])
        k3 = _rhs(theta + 0.5 * h * k2[0], omega + 0.5 * h * k2[1])
        k4 = _rhs(theta + h * k3[0], omega + h * k3[1])
        theta = theta + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        omega = omega + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return float(theta.sum())


def _arrays() -> float:
    big = np.sin(_BIG)
    for _ in range(4):
        big = np.abs(big - _BIG)
    return float(big.sum())


# name -> (kernel, its time on the reference host: a 2-vCPU Intel Xeon with
# numpy 2.4, outside its slow stretches).  The references are constants, so
# rescaled times compare across runs and commits.
KERNELS = {
    "rk4": (_rk4, 0.0070),
    "arrays": (_arrays, 0.0115),
}


@contextlib.contextmanager
def pinned(cpus):
    """Restrict this process (and children it starts meanwhile) to ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def kernel_seconds(kind: str, cpus) -> dict[int, list[float]]:
    """Times of kernel ``kind`` on each core of ``cpus``, measured pinned to it."""
    kernel = KERNELS[kind][0]
    out = {}
    for cpu in sorted(cpus):
        with pinned({cpu}):
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                samples.append(time.perf_counter() - t0)
        out[cpu] = samples
    return out


def scale(kind: str, before: dict[int, list[float]], after: dict[int, list[float]]) -> float:
    """Factor that rescales a time measured between two calibrations to the
    reference host.  Work spread over several cores finishes at their
    combined speed, so their speeds (1 / kernel time) are averaged."""
    speeds = [1.0 / statistics.median(before[cpu] + after[cpu]) for cpu in before]
    return statistics.fmean(speeds) * KERNELS[kind][1]
