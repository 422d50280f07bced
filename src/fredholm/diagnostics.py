"""Structural shape checks on sampled solutions.

The minimizer is always symmetric about T/2 and, for completely monotone
kernels, *symmetrically totally monotone*: on (T/2, T) all finite
differences

    D_h^k phi(x) = sum_i (-1)^(k-i) C(k,i) phi(x + i h) >= 0

are nonnegative (k = 1: nondecreasing toward the right edge, k = 2:
convex, and so on).  `analyze` takes D_h^k as k nested first differences
D_h(D_h^(k-1) phi), one pass per order, instead of the binomial sum.  On
sampled data the property is only decidable to a finite order and
tolerance: each nested difference at most doubles the sample noise, so an
order-k difference amplifies it by 2^k (= sum |C(k,i)|), and verdicts
compare the *raw* difference minima against tol * 2^k, while the report
also carries the h^k-normalized (derivative-like) minima for plotting and
inspection.

`analyze` accepts any increasing uniform grid: inclusive endpoint grids
(the closed forms are usually sampled that way) via the defaults, or
cell-midpoint grids from the discrete solver via start=h/2, spacing=h.  On
an increasing grid the admissible windows of each order k and step r*h
(x > T/2, window ending before T) are one range of start indices, so the
scan slices it instead of masking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _points, _positive_finite, _positive_int

__all__ = [
    "MonotonicityReport",
    "SampledSolution",
    "analyze",
    "compare",
    "require_samples",
]


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Shape diagnostics of a sampled curve.

    ``convexity_defect`` is the most negative centered second difference
    divided by spacing^2 (a discrete phi''), measured away from the
    boundary.  ``diff_orders`` has one entry per order k = 1..K with the
    minimum of D^k phi over admissible windows (x > T/2, window inside the
    grid and ending before T, dyadic step multiples), both raw and
    h^k-normalized.  ``verdicts`` holds booleans at the tolerance ``tol``.
    """

    symmetry_err: float
    min_value: float
    convexity_defect: float
    diff_orders: list
    verdicts: dict
    tol: float

    def to_dict(self):
        # field by field with fresh containers: dataclasses.asdict deep-copies
        # every diff_orders entry, about 80x slower, for the same isolation
        return {
            "symmetry_err": self.symmetry_err,
            "min_value": self.min_value,
            "convexity_defect": self.convexity_defect,
            "diff_orders": [dict(e) for e in self.diff_orders],
            "verdicts": dict(self.verdicts),
            "tol": self.tol,
        }


@dataclass(frozen=True, eq=False)
class SampledSolution:
    """A solution reduced to samples: grid t, values phi, multiplier sigma."""

    t: np.ndarray
    phi: np.ndarray
    sigma: float


def require_samples(n, max_order):
    """Raise ValueError unless n samples are enough to scan differences up to max_order."""
    if n < 8 * max_order:
        raise ValueError(
            f"grid too coarse for order {max_order}: need at least {8 * max_order} samples, got {n}"
        )


def _scaled(m, step, power):
    """m / step**power, or its limit, ±inf or 0, where step**power under- or overflows.

    Python's float power returns 0.0 on underflow but raises on overflow, and
    a division by the 0.0 raises: horizons near the float limits reach both."""
    try:
        return m / step**power
    except ZeroDivisionError:  # step**power underflowed to 0
        return m * math.inf if m else 0.0
    except OverflowError:  # step**power overflowed
        return m * 0.0


def analyze(values, horizon, max_order=6, tol=None, start=0.0, spacing=None) -> MonotonicityReport:
    """Shape-check a uniformly sampled curve on [0, horizon].

    Parameters
    ----------
    values : array of phi samples at x_j = start + j*spacing
    horizon : T
    max_order : highest finite-difference order K to test (K >= 2)
    tol : verdict tolerance, finite and >= 0; defaults to 1e-7 * max|phi|
    start, spacing : grid geometry, both finite; defaults describe the inclusive grid
        start=0, spacing=T/(N-1).  Use start=h/2, spacing=h for the
        discrete solver's cell midpoints.
    """
    values = _points(values, "samples must be finite", lo=-math.inf)
    if values.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = values.size
    max_order = _positive_int(max_order, "max_order", least=2)
    require_samples(n, max_order)
    horizon = _positive_finite(horizon, "horizon")
    spacing = _positive_finite(horizon / (n - 1) if spacing is None else spacing, "grid spacing")
    start = _points(start, "grid start must be finite", lo=-math.inf)
    x = start + spacing * np.arange(n)
    # x increases, so the windows of order k and step r with x_s > T/2 and
    # x_{s+kr} < T are exactly the starts s = first .. inside - k*r - 1
    first = int(np.searchsorted(x, horizon / 2.0, "right"))
    inside = int(np.searchsorted(x, horizon, "left"))
    tol = _positive_finite(1e-7 * float(np.max(np.abs(values))) if tol is None else tol, "tol", zero=True)

    # the mirror of x_j must itself be a grid point for the reversal test
    if abs((2.0 * start + (n - 1) * spacing) - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("grid is not symmetric about T/2; cannot test symmetry by reversal")
    symmetry_err = float(np.max(np.abs(values - values[::-1])))

    min_value = float(values.min())

    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    interior = d2[1:-1] if d2.size > 2 else d2
    convexity_defect = _scaled(float(interior.min()), spacing, 2)

    # D^k with step r is k nested differences d[r:] - d[:-r] of values[first:inside]:
    # entry j of the k-th is the window starting at first + j, and windows of
    # order k exist while inside - k*r > first
    min_raw = [None] * max_order
    min_scaled = [None] * max_order
    r = 1
    while inside - r > first:
        d = values[first:inside]
        for k in range(max_order):
            d = d[r:] - d[:-r]
            if d.size == 0:
                break
            m = float(d.min())
            if min_raw[k] is None or m < min_raw[k]:
                min_raw[k] = m
            scaled = _scaled(m, r * spacing, k + 1)
            if min_scaled[k] is None or scaled < min_scaled[k]:
                min_scaled[k] = scaled
        r *= 2
    diff_orders = []
    for k, (best_raw, best_scaled) in enumerate(zip(min_raw, min_scaled), start=1):
        if best_raw is None:
            raise ValueError(f"no admissible windows for difference order {k}")
        diff_orders.append(
            {
                "order": k,
                "min_raw": best_raw,
                "min_scaled": best_scaled,
                "passed": bool(best_raw >= -tol * 2.0**k),
            }
        )

    verdicts = {
        "symmetric": bool(symmetry_err <= tol),
        "nonnegative": bool(min_value >= -tol),
        "convex": bool(convexity_defect >= -tol),
        "totally_monotone": bool(
            symmetry_err <= tol
            and min_value >= -tol
            and all(e["passed"] for e in diff_orders)
        ),
    }
    return MonotonicityReport(
        symmetry_err=symmetry_err,
        min_value=min_value,
        convexity_defect=convexity_defect,
        diff_orders=diff_orders,
        verdicts=verdicts,
        tol=tol,
    )


def compare(sol_a: SampledSolution, sol_b: SampledSolution) -> dict:
    """Norms of the difference of two sampled solutions on the same grid.

    Each solution's ``t`` and ``phi`` pass the point rule, ``phi`` must have
    the shape of its ``t``, and each ``sigma`` must be a finite number."""
    ta, tb = (_points(sol.t, "sampled grid t must be finite", lo=-math.inf) for sol in (sol_a, sol_b))
    if ta.shape != tb.shape:
        raise ValueError("sampled solutions live on different grids (size mismatch)")
    scale = max(1.0, float(np.max(np.abs(ta))))
    if float(np.max(np.abs(ta - tb))) > 1e-12 * scale:
        raise ValueError("sampled solutions live on different grids (points differ)")
    phi_a, phi_b = (_points(sol.phi, "sampled values phi must be finite", lo=-math.inf)
                    for sol in (sol_a, sol_b))
    if phi_a.shape != ta.shape or phi_b.shape != tb.shape:
        raise ValueError("sampled values phi must have the shape of their grid t")
    sigma_a, sigma_b = (_positive_finite(sol.sigma, "sigma", signed=True) for sol in (sol_a, sol_b))
    diff = phi_a - phi_b
    spacing = float(ta[1] - ta[0]) if ta.size > 1 else 1.0
    sig = max(abs(sigma_a), abs(sigma_b))
    return {
        "max_abs": float(np.max(np.abs(diff))),
        "l2": float(math.sqrt(np.sum(diff**2) * spacing)),
        "sigma_rel_diff": float(abs(sigma_a - sigma_b) / sig) if sig > 0 else 0.0,
    }
