"""Composite 24-point Gauss-Legendre quadrature on panels.

The closed forms integrate products of exponentials, trig polynomials and
piecewise kernels: smooth between breakpoints, with boundary layers
e^{-rate u} at the ends of smooth pieces.  :func:`graded_edges` places panels
for such layers, and :func:`panel_gauss` sums the rule over given panels.
"""

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_panels(lo, hi):
    """Abscissae and weights of the 24-point rule on each panel [lo_i, hi_i] of float arrays.

    Both results have shape (panels, 24); a panel with hi < lo gets negative
    weights, so the rule integrates with orientation.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _NODES, half[:, None] * _WEIGHTS


def graded_edges(lo, hi, rate, cuts=()):
    """Panel edges on [lo, hi] for layers e^{-rate u} at both ends of each piece between ``cuts``.

    A half-piece no longer than 10/rate is one panel; a longer one has edges
    4/rate 2^j from its end, j = 0, 1, ..., short of its midpoint: the layer
    varies on each panel by no more than it has decayed before it.
    """
    ends = [lo, *(c for c in cuts if lo < c < hi), hi]
    out = [ends[:1]]
    for p, q in zip(ends[:-1], ends[1:]):
        half = 0.5 * (q - p)
        steps = 4.0 / rate * 2.0 ** np.arange(math.ceil(math.log2(half * rate / 4.0)) + 1)
        steps = steps[steps < half] if half * rate > 10.0 else steps[:0]
        out += [p + steps, [p + half], q - steps[::-1], [q]]
    return np.concatenate(out)


def panel_gauss(f, a, b, breakpoints=(), max_panel=None):
    """Integrate ``f``, a map of 1-D abscissa arrays to values, over [a, b] in one call of ``f``.

    Panels never straddle ``breakpoints``, where the integrand loses
    smoothness, and are no longer than ``max_panel`` when it is given.  An
    ``f`` that returns a tuple of value arrays, integrands sharing the
    abscissae, gets the tuple of their integrals.
    """
    if b <= a:
        return 0.0
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    edges = [cuts[:1]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        k = math.ceil((hi - lo) / max_panel) if max_panel is not None and hi - lo > max_panel else 1
        edges.append(np.linspace(lo, hi, k + 1)[1:])
    edges = np.concatenate(edges)
    x, w = gauss_panels(edges[:-1], edges[1:])
    values = f(x.ravel())
    if isinstance(values, tuple):
        return tuple(float(np.sum(w * v.reshape(x.shape))) for v in values)
    return float(np.sum(w * values.reshape(x.shape)))
