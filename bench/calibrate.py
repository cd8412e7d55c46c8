"""Scale timings to a reference CPU speed.

On shared machines the speed of a core drifts by 2x and more over tens of
seconds as other tenants load it, far beyond any regression worth
catching.  So the benchmark times a fixed calibration task, written here
and independent of qfock, right before and after every measurement, and
reports each time t as t / slowness, where slowness is the calibration
time over its time at the reference speed.  A change to qfock moves the
measured time but not the calibration, so the ratio keeps it; a slow
spell of the machine moves both.

There are two tasks, and each workload is scaled by the one that drifts
with it.  The ``python`` task mimics the sweeps (a d-weighted geometric
series loop, list building, ``math.fsum``, float formatting); the
``blas`` task is a chain of dense matrix products like ``qfock verify``.
Interpreted code and single-threaded BLAS do not slow down alike under
load: over 16 seeds of ``oracle``, scaling by the python task left a
spread (IQR/median of wall_s) of 5.0%, by the blas task 2.0%.
"""

from __future__ import annotations

import functools
import math
import time


def _python_task() -> int:
    total = 0.0
    for k in range(24):
        q, r = 1.1 + 0.02 * k, 0.8
        terms = []
        for n in range(400):
            d = (q ** float(n) - q ** -float(n)) / (q - 1.0 / q)
            terms.append(d * (1.0 - r) * r**n)
        total += math.fsum(terms)
    return len(",".join(repr(total * k) for k in range(4000)))


@functools.cache
def _matrix():
    import numpy as np  # imported only where BLAS is calibrated

    return np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)


def _blas_task() -> float:
    matrix = product = _matrix()
    for _ in range(4):
        product = matrix @ product
        product /= product[0, 0]
    return float(product[-1, -1])


# Task and its time at the reference speed, which is roughly an unloaded
# core of the 2.1 GHz Xeon machine the bounds were set on.  Fixed for good:
# changing a time rescales every time reported against it.
TASKS = {
    "python": (_python_task, 0.007),
    "blas": (_blas_task, 0.0035),
}


def slowness(task: str = "python") -> float:
    """Current slowness relative to the reference speed (2.0 = half speed)."""
    run, reference_s = TASKS[task]
    if run is _blas_task:
        _matrix()
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) / reference_s
