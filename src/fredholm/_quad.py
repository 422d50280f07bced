"""Fixed-order composite Gauss-Legendre quadrature on panels.

The closed-form modules need integrals of smooth-between-breakpoints
integrands (products of exponentials, trig polynomials, piecewise kernels).
A 24-point Gauss rule per panel is effectively exact for those once panels
are short enough that the integrand's variation per panel stays moderate,
so we expose a single helper that splits [a, b] at caller-supplied
breakpoints, subdivides long panels, and sums the panel rules.
"""

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_panels(lo, hi):
    """Abscissae and weights of the 24-point rule on each panel [lo_i, hi_i].

    Both results have shape (panels, 24); a panel with hi < lo gets negative
    weights, so the rule integrates with orientation.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _NODES, half[:, None] * _WEIGHTS


def panel_gauss(f, a, b, breakpoints=(), max_panel=None):
    """Integrate ``f`` over [a, b].

    ``f`` must accept a 1-D ndarray of abscissae and return values of the
    same shape.  ``breakpoints`` are points where the integrand loses
    smoothness; panels never straddle them.  ``max_panel`` caps the panel
    length (useful when ``f`` contains steep exponentials).
    """
    if b <= a:
        return 0.0
    cuts = [a, b]
    cuts.extend(p for p in breakpoints if a < p < b)
    cuts = sorted(set(cuts))
    edges = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if max_panel is not None and hi - lo > max_panel:
            k = int(np.ceil((hi - lo) / max_panel))
            edges.append(np.linspace(lo, hi, k + 1))
        else:
            edges.append(np.array([lo, hi]))
    total = 0.0
    for seg in edges:
        # abscissae for all panels of this segment at once: (panels, nodes)
        x, w = gauss_panels(seg[:-1], seg[1:])
        total += float(np.sum(w * f(x.ravel()).reshape(x.shape)))
    return total
