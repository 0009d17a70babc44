"""Fixed reference kernels that gauge how fast the run's core is right now.

On the 2-vCPU VM where the bounds were set, the speed of a core drifts by
tens of percent over minutes (other tenants), which no repetition inside a
short run averages away.  Two fixed kernels, sharing no code with the
package, are timed before each operation and after the last one:

- a trilinear gather on a 33^3 grid, the kind of numpy work the solver and
  the certificate do;
- a pure-Python float loop, the kind of interpreter work the verify suite
  does.

An operation's time at reference speed is its wall time times
REFERENCE_S / k, with k the mean kernel time measured on either side of it.
A set-up is rescaled by the kernel time measured right after it.  A change
to the package moves the operation time and not k.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import trilinear

REFERENCE_S = 0.06  # defines reference speed: a core on which the kernels take 0.06 s

_rng = np.random.default_rng(20170618)
_VALUES = _rng.standard_normal((33, 33, 33))
# small batches, so that the kernels do not raise the run's peak RSS
_POINTS = np.sort(_rng.uniform(-1.0, 1.0, size=(15_000, 3)), axis=0)


def _gather(batches: int = 8) -> float:
    return sum(
        float(trilinear(_VALUES, (-1.0, -1.0, -1.0), (1 / 16,) * 3, _POINTS).sum())
        for _ in range(batches)
    )


def _interpreter(n: int = 300_000) -> float:
    acc = 0.0
    for i in range(n):
        acc += (i * 7 % 13) / 3.0
    return acc


def kernel_seconds(repeats: int = 3, clock=time.perf_counter) -> float:
    """Median over repeats of the two kernels' combined wall time."""
    samples = []
    for _ in range(repeats):
        t0 = clock()
        _gather()
        _interpreter()
        samples.append(clock() - t0)
    return statistics.median(samples)


def rescale(seconds: float, kernel: float) -> float:
    """seconds measured while the kernels took `kernel`, at reference speed."""
    return seconds * REFERENCE_S / kernel


def at_reference_speed(times, kernels) -> list[float]:
    """Rescale op k's time by the mean of kernels[k] and kernels[k + 1]."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before each op and one after the last")
    return [rescale(t, 0.5 * (kernels[k] + kernels[k + 1])) for k, t in enumerate(times)]
