"""Structural shape checks on sampled solutions.

The minimizer is always symmetric about T/2 and, for completely monotone
kernels, *symmetrically totally monotone*: on (T/2, T) all finite
differences

    D_h^k phi(x) = sum_i (-1)^(k-i) C(k,i) phi(x + i h) >= 0

are nonnegative (k = 1: nondecreasing toward the right edge, k = 2:
convex, and so on).  On sampled data the property is only decidable to a
finite order and tolerance: an order-k difference amplifies sample noise
by sum |C(k,i)| = 2^k, so verdicts compare the *raw* difference minima
against tol * 2^k, while the report also carries the h^k-normalized
(derivative-like) minima for plotting and inspection.

`analyze` accepts any increasing uniform grid: inclusive endpoint grids
(the closed forms are usually sampled that way) via the defaults, or
cell-midpoint grids from the discrete solver via start=h/2, spacing=h.  On
an increasing grid the admissible windows of each order k and step r*h
(x > T/2, window ending before T) are one range of start indices, so the
scan slices it instead of masking.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

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
        return asdict(self)


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


def analyze(values, horizon, max_order=6, tol=None, start=0.0, spacing=None) -> MonotonicityReport:
    """Shape-check a uniformly sampled curve on [0, horizon].

    Parameters
    ----------
    values : array of phi samples at x_j = start + j*spacing
    horizon : T
    max_order : highest finite-difference order K to test (K >= 2)
    tol : verdict tolerance; defaults to 1e-7 * max|phi|
    start, spacing : grid geometry; defaults describe the inclusive grid
        start=0, spacing=T/(N-1).  Use start=h/2, spacing=h for the
        discrete solver's cell midpoints.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = values.size
    max_order = int(max_order)
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    require_samples(n, max_order)
    horizon = float(horizon)
    if spacing is None:
        spacing = horizon / (n - 1)
    spacing = float(spacing)
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"grid spacing must be positive and finite, got {spacing!r}")
    x = start + spacing * np.arange(n)
    # x increases, so the windows of order k and step r with x_s > T/2 and
    # x_{s+kr} < T are exactly the starts s = first .. inside - k*r - 1
    first = int(np.searchsorted(x, horizon / 2.0, "right"))
    inside = int(np.searchsorted(x, horizon, "left"))
    if tol is None:
        tol = 1e-7 * float(np.max(np.abs(values)))
    tol = float(tol)

    # the mirror of x_j must itself be a grid point for the reversal test
    if abs((2.0 * start + (n - 1) * spacing) - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("grid is not symmetric about T/2; cannot test symmetry by reversal")
    symmetry_err = float(np.max(np.abs(values - values[::-1])))

    min_value = float(values.min())

    d2 = values[:-2] - 2.0 * values[1:-1] + values[2:]
    interior = d2[1:-1] if d2.size > 2 else d2
    convexity_defect = float(interior.min() / spacing**2)

    diff_orders = []
    products = {}  # signed binomial coefficient c -> c * values, shared by every order and step
    for k in range(1, max_order + 1):
        coeffs = [(-1.0) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
        for c in coeffs:
            if c not in products:
                products[c] = c * values
        best_raw = None
        best_scaled = None
        r = 1
        while (stop := inside - k * r) > first:
            window_sum = np.zeros(stop - first)
            for i, c in enumerate(coeffs):
                window_sum += products[c][first + i * r : stop + i * r]
            m = float(window_sum.min())
            if best_raw is None or m < best_raw:
                best_raw = m
            scaled = m / (r * spacing) ** k
            if best_scaled is None or scaled < best_scaled:
                best_scaled = scaled
            r *= 2
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
    """Norms of the difference of two sampled solutions on the same grid."""
    ta = np.asarray(sol_a.t, dtype=float)
    tb = np.asarray(sol_b.t, dtype=float)
    if ta.shape != tb.shape:
        raise ValueError("sampled solutions live on different grids (size mismatch)")
    scale = max(1.0, float(np.max(np.abs(ta))))
    if float(np.max(np.abs(ta - tb))) > 1e-12 * scale:
        raise ValueError("sampled solutions live on different grids (points differ)")
    diff = np.asarray(sol_a.phi, dtype=float) - np.asarray(sol_b.phi, dtype=float)
    spacing = float(ta[1] - ta[0]) if ta.size > 1 else 1.0
    sig = max(abs(sol_a.sigma), abs(sol_b.sigma))
    return {
        "max_abs": float(np.max(np.abs(diff))),
        "l2": float(math.sqrt(np.sum(diff**2) * spacing)),
        "sigma_rel_diff": float(abs(sol_a.sigma - sol_b.sigma) / sig) if sig > 0 else 0.0,
    }
