"""A fixed reference computation that gauges how fast the host runs.

The speed of a shared host drifts: on one with 2 vCPUs (x86-64,
Python 3.11), the same operation took 0.28 s in one minute and
0.49 s a few minutes later, and a run cannot tell which it got.  So every
run also times this unit, between its operations, and reports its times
scaled to the speed at which one unit takes ``UNIT_S`` seconds.  The unit
uses numpy and scipy only, so no change to ``fredholm`` can move it; a
change that makes an operation 10% slower makes its scaled time 10% larger.

The unit mixes the two kinds of work the workloads do, in about equal time:
dense factorisations in compiled LAPACK, and ``scipy.integrate.quad`` calls
back into a Python integrand, which is mostly interpreter time.  A pure
Python loop was tried as well and tracked the operations worse: its own
speed swung by 2.8x while theirs swung by 1.4x.
"""

import math
import time

import numpy as np
from scipy import integrate, linalg

# Nominal seconds of one unit.  It only sets the scale of the reported
# times; on the host above, one unit took 0.045-0.05 s in a calm period.
UNIT_S = 0.05

# Small, so that the unit adds about 1 MB to the process's resident memory:
# the matrix is built in place and the factorisations overwrite one
# preallocated buffer.
_N = 256
_X = np.linspace(0.0, 1.0, _N)
_SPD = np.subtract.outer(_X, _X)
np.abs(_SPD, out=_SPD)
np.negative(_SPD, out=_SPD)
np.exp(_SPD, out=_SPD)
_SPD[np.diag_indices(_N)] += 1.0
_WORK = np.empty_like(_SPD, order="F")
_FACTORISATIONS = 16
_QUADS = 2600


def _integrand(u):
    return math.exp(-u) / (1.0 + u * u)


def unit():
    """One unit of reference work; it returns nothing the caller needs."""
    for _ in range(_FACTORISATIONS):
        np.copyto(_WORK, _SPD)
        linalg.cho_factor(_WORK, overwrite_a=True, check_finite=False)
        np.copyto(_WORK, _SPD)
        linalg.lu_factor(_WORK, overwrite_a=True, check_finite=False)
    for k in range(_QUADS):
        integrate.quad(_integrand, 1e-3 * k, 1e-3 * k + 0.1)


class Gauge:
    """Accumulates timed reference units over a run."""

    def __init__(self):
        unit()  # first-call costs are not the host's speed
        self.seconds = 0.0
        self.units = 0

    def sample(self, budget_s):
        """Run whole units until ``budget_s`` seconds have passed (at least one)."""
        start = time.perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                break
        self.seconds += elapsed

    def unit_s(self):
        return self.seconds / self.units

    def scale(self):
        """Factor from a time measured alongside the samples to one at the nominal speed."""
        return UNIT_S / self.unit_s()
