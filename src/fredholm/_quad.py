"""Composite 24-point Gauss-Legendre quadrature on panels.

The closed forms integrate products of exponentials, trig polynomials and
piecewise kernels: smooth between breakpoints, with boundary layers
e^{-rate u} at the ends of smooth pieces.  :func:`graded_edges` places panels
for such layers, and :func:`panel_gauss` sums the rule over given panels.
:func:`even_check` runs the checks of an even closed form as one such sum
over the panels of the edges it is given.
"""

import math
from typing import NamedTuple

import numpy as np

# the positive half of the 24-point Gauss-Legendre rule, nodes ascending, with
# the bits of numpy.polynomial.legendre.leggauss(24), which is exactly symmetric
_HALF = np.array([
    (0.06405689286260563, 0.12793819534675202),
    (0.1911188674736163, 0.12583745634682825),
    (0.3150426796961634, 0.1216704729278033),
    (0.4337935076260451, 0.11550566805372552),
    (0.5454214713888396, 0.10744427011596556),
    (0.6480936519369755, 0.09761865210411393),
    (0.7401241915785544, 0.0861901615319532),
    (0.820001985973903, 0.07334648141108016),
    (0.8864155270044011, 0.05929858491543636),
    (0.9382745520027328, 0.04427743881741941),
    (0.9747285559713095, 0.02853138862893356),
    (0.9951872199970213, 0.01234122979998869),
])
_NODES = np.concatenate((-_HALF[::-1, 0], _HALF[:, 0]))
_WEIGHTS = np.concatenate((_HALF[::-1, 1], _HALF[:, 1]))


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
    if 0.5 * max(q - p for p, q in zip(ends[:-1], ends[1:])) * rate <= 10.0:  # no layer anywhere
        e = np.array(ends, dtype=float)
        return np.concatenate((e[:1], np.column_stack((e[:-1] + 0.5 * np.diff(e), e[1:])).ravel()))
    out = [ends[:1]]
    for p, q in zip(ends[:-1], ends[1:]):
        half = 0.5 * (q - p)
        steps = 4.0 / rate * 2.0 ** np.arange(math.ceil(math.log2(half * rate / 4.0)) + 1)
        steps = steps[steps < half] if half * rate > 10.0 else steps[:0]
        out += [p + steps, [p + half], q - steps[::-1], [q]]
    return np.concatenate(out)


def panel_edges(a, b, breakpoints=(), max_panel=None):
    """Edges of the panels :func:`panel_gauss` sums over on [a, b], from a to b.

    Panels never straddle ``breakpoints`` and are no longer than
    ``max_panel`` when it is given.
    """
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    edges = [cuts[:1]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        k = math.ceil((hi - lo) / max_panel) if max_panel is not None and hi - lo > max_panel else 1
        edges.append(np.linspace(lo, hi, k + 1)[1:])
    return np.concatenate(edges)


def panel_gauss(f, a, b, breakpoints=(), max_panel=None):
    """Integrate ``f``, a map of 1-D abscissa arrays to values, over [a, b] in one call of ``f``.

    Panels never straddle ``breakpoints``, where the integrand loses
    smoothness, and are no longer than ``max_panel`` when it is given.
    """
    if b <= a:
        return 0.0
    edges = panel_edges(a, b, breakpoints, max_panel)
    x, w = gauss_panels(edges[:-1], edges[1:])
    return float(np.sum(w * f(x.ravel()).reshape(x.shape)))


class EvenCheck(NamedTuple):
    """The checks of a curve phi on [0, T], even about T/2, that solves gamma phi + G * phi = sigma:
    its mass, its energy J = int phi (gamma phi + G * phi) / 2 and max |gamma phi + G * phi - sigma|."""

    mass: float
    energy: float
    residual_max: float


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def even_check(apply, gamma, sigma, edges):
    """The :class:`EvenCheck` of an even curve from one evaluation of phi and G * phi.

    ``edges`` are the Gauss panel edges of [0, T/2], from 0 to T/2, and
    ``apply(s)`` returns phi(s) and (G * phi)(s) on an abscissa array.  It is
    called once, on the Gauss nodes of those panels followed by the edges.
    Both integrands are even, so mass = 2 sum w phi and
    J = sum (w phi) (gamma phi + G * phi) over the nodes: the weight comes
    first, so a curve of size 1/T does not overflow its energy at a tiny T.
    The residual is the largest over the nodes and the edges, which include
    0, T/2 and every other breakpoint.  The arithmetic runs with numpy's
    warnings off: a curve that over- or underflows shows as a non-finite or
    wrong check, which the caller's tolerances catch.
    """
    nodes, w = gauss_panels(edges[:-1], edges[1:])
    n = w.size
    phi, conv = apply(np.concatenate((nodes.ravel(), edges)))
    lhs = gamma * phi + conv
    w_phi = w.ravel() * phi[:n]
    return EvenCheck(2.0 * float(np.sum(w_phi)), float(np.sum(w_phi * lhs[:n])),
                     float(np.max(np.abs(lhs - sigma))))
