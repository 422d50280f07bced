"""Independent oracles: quadrature for the analytic cell integrals, and plain references
for code that was rewritten for speed.

The quadrature goes through scipy's adaptive quadrature with tight
tolerances and explicit breakpoints at the kernels' kink lags, so the
reference values share no code path with the closed-form antiderivatives
under test.  :func:`dumps` is the earlier, plain form of ``cli._dumps``,
which must match it.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-12)


def kink_lags(kernel):
    """Lags where the kernel may be non-smooth (quadrature breakpoints)."""
    spec = kernel.spec()
    kind = spec["type"]
    if kind == "capped_linear":
        return [0.0, spec.get("cap", 1.0)]
    if kind == "power_capped":
        return [0.0, 1.0 / spec["rho"]]
    if kind == "tabulated":
        return [0.0] + list(spec["t"])
    return [0.0]


def _interior(points, lo, hi):
    return sorted({p for p in points if lo < p < hi})


def cell_integral(kernel, t, y0, y1):
    """Reference for integral of G(|t-s|) ds over s in [y0, y1].

    A t inside the cell splits it into two integrals that end at s = t, where
    G(|t - s|) has its kink or, for a power law, its singularity: quadrature
    from that end reaches 1e-15 on the alpha = 0.9 power law, where a
    breakpoint inside one integral stops near 1e-12.
    """
    pts = {t + k for k in kink_lags(kernel)} | {t - k for k in kink_lags(kernel)}
    ends = [y0, *_interior({t}, y0, y1), y1]
    return sum(
        quad(lambda s: kernel.evaluate(abs(t - s)), lo, hi, points=_interior(pts, lo, hi), **QUAD_OPTS)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    )


def cell_double_integral(kernel, x0, x1, y0, y1):
    """Reference for the double integral of G(|t-s|) over [x0,x1] x [y0,y1].

    Reduced to one dimension along lines of constant lag w = t - s:
    the double integral equals int G(|w|) m(w) dw where m(w) is the length
    of [x0,x1] intersected with [y0+w, y1+w] (piecewise linear in w).
    """
    def overlap(w):
        return max(0.0, min(x1, y1 + w) - max(x0, y0 + w))

    lo, hi = x0 - y1, x1 - y0
    pts = {x0 - y0, x1 - y1, 0.0}
    for k in kink_lags(kernel):
        pts |= {k, -k}
    val, _ = quad(
        lambda w: kernel.evaluate(abs(w)) * overlap(w),
        lo,
        hi,
        points=_interior(pts, lo, hi),
        **QUAD_OPTS,
    )
    return val


def operator_apply(kernel, phi, t, horizon, breakpoints=()):
    """Reference for (G * phi)(t) = integral of G(|t-s|) phi(s) ds on [0, T].

    ``breakpoints`` are points where phi itself is not smooth.
    """
    pts = {t} | {t + k for k in kink_lags(kernel)} | {t - k for k in kink_lags(kernel)}
    pts |= set(breakpoints)
    val, _ = quad(
        lambda s: kernel.evaluate(abs(t - s)) * phi(s),
        0.0,
        horizon,
        points=_interior(pts, 0.0, horizon),
        **QUAD_OPTS,
    )
    return val


def fredholm_residual(kernel, phi, sigma, gamma, horizon, ts, breakpoints=()):
    """Max residual of the integral equation at the sample points ts.

    ``breakpoints`` are points where phi itself is not smooth.
    """
    worst = 0.0
    for t in np.atleast_1d(ts):
        r = (gamma * float(phi(t))
             + operator_apply(kernel, phi, float(t), horizon, breakpoints) - sigma)
        worst = max(worst, abs(r))
    return worst


def coupling_diagonal(kernel, gamma, h):
    """Diagonal quadratic-form entry: gamma*h/2 + 2*h^2 * int_0^1 G(h*s)(1-s) ds."""
    pts = _interior({k / h for k in kink_lags(kernel)}, 0.0, 1.0)
    val, _ = quad(lambda s: kernel.evaluate(h * s) * (1.0 - s), 0.0, 1.0,
                  points=pts, **QUAD_OPTS)
    return gamma * h / 2.0 + 2.0 * h * h * val


def coupling_offdiagonal(kernel, lag, h):
    """Off-diagonal entry at lag t_k: h^2 * int_{-1}^1 G(t_k + h*s)(1-|s|) ds."""
    pts = {0.0}
    for k in kink_lags(kernel):
        pts |= {(k - lag) / h, (-k - lag) / h}
    val, _ = quad(lambda s: kernel.evaluate(abs(lag + h * s)) * (1.0 - abs(s)),
                  -1.0, 1.0, points=_interior(pts, -1.0, 1.0), **QUAD_OPTS)
    return h * h * val


def _finite(doc):
    """``doc`` with every non-finite float replaced by its float repr string."""
    if isinstance(doc, float) and not math.isfinite(doc):
        return float.__repr__(doc)
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return doc


def dumps(doc):
    """Reference for ``cli._dumps``: indent-2 JSON with non-finite floats as strings."""
    return json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"

