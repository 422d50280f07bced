"""Displacement kernels G(|t - s|) with exact cell integration.

Every kernel offers pointwise evaluation, exact integration of G(|t - s|)
over cells and rectangles, and a structure report (nonincreasing, convex,
completely monotone, positive type).  `Kernel.lag_row` is the assembly
path of the discretized energy: one vectorized call yields the double
integrals of a uniform cell against every lag.  `Kernel.grid_rows` is the
discrete solver's hook: it returns that lag row together with the midpoint
row, the integrals of G over one cell seen from every cell midpoint, which
the solver's residual convolves with.  By default the midpoint row is one
vectorized `cell_integral` call; `Tabulated` overrides both `grid_rows` and
`lag_row` and builds the two rows from one table of half-cell moments in
O(m + knots).  `cell_double_integral` is the helper for a general rectangle,
and `cell_integral` integrates over one cell for residual checks.

The base class does the shared work (lag checks, scalar-or-array returns,
JSON specs, rectangle splitting).  A family is a frozen dataclass whose
fields are its JSON fields, and it declares its spec name `kind`, its
`structure`, and the maths: `_g0` (G itself on an array of lags t >= 0)
and the antiderivatives `_g1` and `_g2` of the next paragraph.  It
validates its fields in `__post_init__`.

Rectangle integrals reduce to scalar antiderivatives.  Writing
G1(u) = int_0^u G(w) dw and G2(u) = int_0^u G1(v) dv for u >= 0, a
rectangle X x Y that lies entirely on one side of the diagonal t = s
contributes an inclusion-exclusion of G2 values, while a square sitting on
the diagonal contributes 2*G2(L) (Fubini).  General rectangles are first
split at each other's endpoints so that only those two shapes occur.
Inclusion-exclusion is a second difference, so any affine part of G2
cancels; the `_nl2` hook lets a family supply only the nonlinear part of
G2 in whatever form is numerically stable (compactly supported kernels
return exact zeros for far-apart cells this way).
"""

import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

__all__ = [
    "Kernel",
    "KernelStructure",
    "ExponentialSum",
    "CappedLinear",
    "PowerCapped",
    "Trigonometric",
    "PowerLaw",
    "Tabulated",
    "kernel_from_spec",
]


@dataclass(frozen=True)
class KernelStructure:
    """Structural flags of a kernel.

    ``tolerance`` is only set for table-based kernels, where the
    ``nonincreasing`` and ``convex`` flags come from sign tests within it
    instead of analytic facts; ``positive_type_known`` never rests on a
    tolerance.
    """

    nonincreasing: bool
    convex: bool
    completely_monotone: bool
    positive_type_known: bool
    tolerance: float | None = None

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def _segments(lo, hi, cuts):
    """Split [lo, hi] at every cut strictly inside it."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return list(zip(pts[:-1], pts[1:]))


class Kernel:
    """Base class: generic rectangle logic on top of per-family scalar hooks."""

    kind: ClassVar[str]
    structure: ClassVar[KernelStructure]

    def evaluate(self, t):
        """Kernel value G(t) for lag t >= 0 (scalar or ndarray)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("kernel lag must be nonnegative")
        out = self._g0(t_arr)
        return float(out) if np.ndim(t) == 0 else out

    def classify(self) -> KernelStructure:
        return self.structure

    def spec(self) -> dict:
        """JSON-compatible description, round-trips through kernel_from_spec."""
        values = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        return {"type": self.kind, **values}

    # --- G and its antiderivatives (vectorized over ndarrays) ---

    def _g0(self, t):
        """G(t) on an array of lags t >= 0."""
        raise NotImplementedError

    def _g1(self, u):
        """First antiderivative of G on u >= 0 with G1(0) = 0."""
        raise NotImplementedError

    def _g2(self, u):
        """Second antiderivative of G on u >= 0 with G2(0) = G2'(0) = 0."""
        raise NotImplementedError

    def _nl2(self, u):
        """Nonlinear part of G2 (affine offsets drop out of second differences)."""
        return self._g2(u)

    # --- rectangle building blocks ---

    def _one_signed(self, gap, dx, dy):
        """Integral over a rectangle with t - s = gap + [0,dx] + [0,dy], gap >= 0."""
        f = self._nl2
        return f(gap + dx + dy) - f(gap + dx) - f(gap + dy) + f(gap)

    def lag_row(self, h, m):
        """Double integrals of G(|t - s|) over [0, h] x [k*h, (k+1)*h], k = 0..m-1."""
        edges = np.arange(m + 1) * h
        lo, hi = edges[1:-1], edges[2:]
        return np.concatenate(([2.0 * self._g2(h)], self._one_signed(lo - h, h, hi - lo)))

    def grid_rows(self, h, m):
        """The lag row and the midpoint row of m uniform cells of width h.

        The lag row is ``lag_row(h, m)``; the midpoint row holds
        int_0^h G(|(k + 1/2) h - s|) ds for k = 0..m-1, the single-cell
        integrals the discrete residual convolves with.
        """
        return self.lag_row(h, m), self.cell_integral(0.0, h, (np.arange(m) + 0.5) * h)

    def cell_double_integral(self, x_lo, x_hi, y_lo, y_hi):
        """Exact integral of G(|t - s|) ds dt over [x_lo,x_hi] x [y_lo,y_hi]."""
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError(
                "degenerate rectangle: require x_lo < x_hi and y_lo < y_hi"
            )
        total = 0.0
        for p, q in _segments(x_lo, x_hi, (y_lo, y_hi)):
            for r, s in _segments(y_lo, y_hi, (x_lo, x_hi)):
                if p == r and q == s:
                    total += 2.0 * self._g2(q - p)
                elif r >= q:
                    total += self._one_signed(r - q, q - p, s - r)
                elif p >= s:
                    total += self._one_signed(p - s, q - p, s - r)
                else:  # pragma: no cover - splitting precludes partial overlap
                    raise AssertionError("rectangle splitting failed")
        return float(total)

    def cell_integral(self, lo, hi, t):
        """int_lo^hi G(|t - s|) ds, vectorized over t (exact antiderivative)."""
        if not lo < hi:
            raise ValueError("degenerate cell: require lo < hi")
        t_arr = np.asarray(t, dtype=float)
        out = self._g1_signed(hi - t_arr) - self._g1_signed(lo - t_arr)
        return float(out) if np.ndim(t) == 0 else out

    def _g1_signed(self, w):
        """Odd extension of G1: antiderivative of s -> G(|s|)."""
        w = np.asarray(w, dtype=float)
        return np.sign(w) * self._g1(np.abs(w))


def _e2(z):
    """(expm1(z) - z) / z^2 = int_0^1 (1 - s) exp(z s) ds for real z (1/2 at z = 0)."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 1.0, z)
    series = 0.0
    for k in range(16, 1, -1):  # Taylor series; truncation error below 1e-18
        series = series * zs + 1.0 / math.factorial(k)
    return np.where(small, series, (np.expm1(zl) - zl) / (zl * zl))


def _em1p(x):
    """exp(-x) - 1 + x, accurate for all x >= 0."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-2
    xs = np.where(small, x, 0.0)
    series = 0.5 * xs * xs * (
        1.0 - xs / 3.0 * (1.0 - xs / 4.0 * (1.0 - xs / 5.0 * (1.0 - xs / 6.0)))
    )
    return np.where(small, series, np.expm1(-x) + x)


@dataclass(frozen=True)
class ExponentialSum(Kernel):
    """G(t) = sum_k a_k * exp(-sqrt(b_k) * t) with a_k > 0, b strictly increasing."""

    kind: ClassVar[str] = "exponential_sum"
    structure: ClassVar[KernelStructure] = KernelStructure(
        nonincreasing=True, convex=True, completely_monotone=True, positive_type_known=True
    )

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        if len(a) == 0 or len(a) != len(b):
            raise ValueError("exponential sum needs equally many positive a and b")
        if not all(0 < v < math.inf for v in a):
            raise ValueError("exponential sum weights a must be positive and finite")
        if not (0 < b[0] and b[-1] < math.inf and all(x < y for x, y in zip(b[:-1], b[1:]))):
            raise ValueError(
                "exponential sum rates b must be strictly increasing, positive and finite"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @cached_property
    def _arrays(self):
        a = np.array(self.a)
        b = np.array(self.b)
        return a, b, np.sqrt(b)

    def _g0(self, t):
        a, _, rate = self._arrays
        return np.sum(a * np.exp(-rate * t[..., None]), axis=-1)

    def _g1(self, u):
        a, _, rate = self._arrays
        u = np.asarray(u, dtype=float)
        return np.sum(-(a / rate) * np.expm1(-rate * u[..., None]), axis=-1)

    def _g2(self, u):
        a, b, rate = self._arrays
        u = np.asarray(u, dtype=float)
        return np.sum((a / b) * _em1p(rate * u[..., None]), axis=-1)

    def _one_signed(self, gap, dx, dy):
        _, _, rate = self._arrays
        return self._decayed(np.exp(-rate * np.asarray(gap, dtype=float)[..., None]), dx, dy)

    def _decayed(self, decay, dx, dy):
        """``_one_signed`` given the table decay = exp(-sqrt(b) * gap)."""
        # expm1 product form: no cancellation however far the cells are apart
        a, b, rate = self._arrays
        dx, dy = (np.asarray(v, dtype=float)[..., None] for v in (dx, dy))
        return np.sum((a / b) * decay * np.expm1(-rate * dx) * np.expm1(-rate * dy), axis=-1)

    def grid_rows(self, h, m):
        # one table exp(-sqrt(b) (k - 1) h), k = 1..m-1, feeds both rows: the
        # lag row as lag_row builds it, and the midpoint row in product form,
        # int_0^h G((k + 1/2) h - s) ds = sum a exp(-sqrt(b) (k - 1/2) h)
        # (1 - exp(-sqrt(b) h)) / sqrt(b), where differences of G1 would cancel
        a, _, rate = self._arrays
        edges = np.arange(m + 1) * h
        lo, hi = edges[1:-1], edges[2:]
        decay = np.exp(-rate * (lo - h)[:, None])
        lags = np.concatenate(([2.0 * self._g2(h)], self._decayed(decay, h, hi - lo)))
        weight = -(a / rate) * np.expm1(-rate * h) * np.exp(-0.5 * rate * h)
        midpoints = np.concatenate(([2.0 * self._g1(0.5 * h)], np.sum(weight * decay, axis=-1)))
        return lags, midpoints


@dataclass(frozen=True)
class CappedLinear(Kernel):
    """G(t) = (cap - t)^+ ."""

    kind: ClassVar[str] = "capped_linear"
    structure: ClassVar[KernelStructure] = KernelStructure(
        nonincreasing=True, convex=True, completely_monotone=False, positive_type_known=True
    )

    cap: float = 1.0

    def __post_init__(self):
        if not 0 < self.cap < math.inf:
            raise ValueError("cap must be positive and finite")
        object.__setattr__(self, "cap", float(self.cap))

    def _g0(self, t):
        return np.maximum(self.cap - t, 0.0)

    def _g1(self, u):
        u = np.asarray(u, dtype=float)
        uc = np.minimum(u, self.cap)
        return self.cap * uc - 0.5 * uc * uc

    def _g2(self, u):
        u = np.asarray(u, dtype=float)
        cap = self.cap
        inside = 0.5 * cap * u * u - u**3 / 6.0
        beyond = cap**3 / 3.0 + (u - cap) * 0.5 * cap * cap
        return np.where(u <= cap, inside, beyond)

    def _nl2(self, u):
        # G2(u) = affine(u) + (cap - u)^+^3 / 6; only the cube survives differencing
        w = np.maximum(self.cap - np.asarray(u, dtype=float), 0.0)
        return w**3 / 6.0


@dataclass(frozen=True)
class PowerCapped(Kernel):
    """G(t) = ((1 - rho*t)^+)^p for a positive integer power p."""

    kind: ClassVar[str] = "power_capped"
    structure: ClassVar[KernelStructure] = KernelStructure(  # p >= 1: power of an affine ramp
        nonincreasing=True, convex=True, completely_monotone=False, positive_type_known=True
    )

    rho: float
    p: int

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError("p must be a positive integer")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "p", int(self.p))

    def _g0(self, t):
        return np.maximum(1.0 - self.rho * t, 0.0) ** self.p

    def _g1(self, u):
        rho, p = self.rho, self.p
        u = np.asarray(u, dtype=float)
        w = np.maximum(1.0 - rho * u, 0.0)
        return (1.0 - w ** (p + 1)) / (rho * (p + 1))

    def _g2(self, u):
        rho, p = self.rho, self.p
        u = np.asarray(u, dtype=float)
        uc = np.minimum(u, 1.0 / rho)
        w = np.maximum(1.0 - rho * u, 0.0)
        inside = uc / (rho * (p + 1)) - (1.0 - w ** (p + 2)) / (rho**2 * (p + 1) * (p + 2))
        return inside + np.maximum(u - 1.0 / rho, 0.0) / (rho * (p + 1))

    def _nl2(self, u):
        rho, p = self.rho, self.p
        w = np.maximum(1.0 - rho * np.asarray(u, dtype=float), 0.0)
        return w ** (p + 2) / (rho**2 * (p + 1) * (p + 2))


@dataclass(frozen=True)
class Trigonometric(Kernel):
    """G(t) = cos(rho * t): of positive type, but neither nonincreasing nor convex."""

    kind: ClassVar[str] = "trigonometric"
    structure: ClassVar[KernelStructure] = KernelStructure(  # Bochner: cos is positive definite
        nonincreasing=False, convex=False, completely_monotone=False, positive_type_known=True
    )

    rho: float

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        object.__setattr__(self, "rho", float(self.rho))

    def _g0(self, t):
        return np.cos(self.rho * t)

    def _g1(self, u):
        return np.sin(self.rho * np.asarray(u, dtype=float)) / self.rho

    def _g2(self, u):
        return 2.0 * (np.sin(0.5 * self.rho * np.asarray(u, dtype=float)) / self.rho) ** 2

    def _one_signed(self, gap, dx, dy):
        # product form of the cosine second difference: no cancellation at any lag
        r = self.rho
        gap, dx, dy = (np.asarray(v, dtype=float) for v in (gap, dx, dy))
        return 4.0 * np.sin(0.5 * r * dx) * np.sin(0.5 * r * dy) * np.cos(
            r * (gap + 0.5 * (dx + dy))
        ) / r**2


@dataclass(frozen=True)
class PowerLaw(Kernel):
    """G(t) = scale * t^(-alpha), 0 < alpha < 1 (integrable singularity at 0)."""

    kind: ClassVar[str] = "power_law"
    structure: ClassVar[KernelStructure] = KernelStructure(
        nonincreasing=True, convex=True, completely_monotone=True, positive_type_known=True
    )

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "scale", float(self.scale))

    def _g0(self, t):
        if np.any(t == 0):
            raise ValueError("kernel diverges at lag 0; require t > 0")
        return self.scale * t ** (-self.alpha)

    def _g1(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * u ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def _g2(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * u ** (2.0 - self.alpha) / ((1.0 - self.alpha) * (2.0 - self.alpha))

    def _one_signed(self, gap, dx, dy):
        # Far from the diagonal the second difference of u^p (p = 2 - alpha)
        # cancels.  Expanded about the centre c = gap + (dx+dy)/2 in the
        # half-widths a = (dx+dy)/2, b = (dx-dy)/2 it is
        #   c^p * 2 sum_j C(p, 2j) E_j,  E_j = (a/c)^2j - (b/c)^2j,
        # where every term is positive; 12 terms reach round-off for a <= c/4.
        gap, dx, dy = (np.asarray(v, dtype=float) for v in (gap, dx, dy))
        p = 2.0 - self.alpha
        c = gap + 0.5 * (dx + dy)
        ra2, rb2 = (0.5 * (dx + dy) / c) ** 2, (0.5 * (dx - dy) / c) ** 2
        e1 = dx * dy / c**2  # E_1 = ra2 - rb2 without the subtraction
        e, rb2j, binom, series = e1, rb2, 1.0, 0.0
        for k in range(0, 24, 2):  # E_{j+1} = ra2 E_j + rb2^j E_1
            binom *= (p - k) * (p - k - 1) / ((k + 1) * (k + 2))
            series = series + binom * e
            e, rb2j = ra2 * e + rb2j * e1, rb2j * rb2
        far = 2.0 * series * c**p * self.scale / ((1.0 - self.alpha) * p)
        return np.where(ra2 <= 1.0 / 16.0, far, super()._one_signed(gap, dx, dy))


@dataclass(frozen=True)
class Tabulated(Kernel):
    """Kernel given by samples (abscissae t, values g).

    Interpolation is log-linear when every tabulated value is positive
    (preserving the decay shape of empirical impact kernels) and linear
    otherwise.  Outside the table the kernel extends flat.  Every integral,
    single-cell or double, is exact: the interpolant is integrated piece by
    piece in closed form.

    The rows of a uniform grid (``lag_row`` and ``grid_rows``) come from one
    table of half-cell moments, not from a rectangle per lag: the 2m half
    cells of width h/2 are split only at the knots inside them, so the work
    and memory are O(m + knots).  Both rows are sums of nonnegative moments.
    """

    kind: ClassVar[str] = "tabulated"

    t: tuple
    g: tuple

    def __post_init__(self):
        t = tuple(float(v) for v in self.t)
        g = tuple(float(v) for v in self.g)
        if len(t) < 2 or len(t) != len(g):
            raise ValueError("tabulated kernel needs >= 2 matching samples")
        if not (0 <= t[0] and t[-1] < math.inf and all(x < y for x, y in zip(t[:-1], t[1:]))):
            raise ValueError(
                "tabulated abscissae must be strictly increasing, nonnegative and finite"
            )
        if not all(0 <= v < math.inf for v in g):
            raise ValueError("tabulated values must be nonnegative and finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g", g)

    @cached_property
    def _arrays(self):
        return np.array(self.t), np.array(self.g)

    @cached_property
    def log_interpolated(self):
        return all(v > 0 for v in self.g)

    def _g0(self, t):
        xs, ys = self._arrays
        if self.log_interpolated:
            return np.exp(np.interp(t, xs, np.log(ys)))
        return np.interp(t, xs, ys)

    def _integral(self, lo, hi, weight, cuts=()):
        """Exact int_lo^hi G(w) weight(w) dw for a weight linear between cuts.

        Split at the cuts and the abscissae, every piece lies in the flat
        head, one segment or the flat tail, where G is exponential or linear:
        a closed form with nonnegative terms.  Vectorized over lo, hi, cuts.
        """
        lo, hi, *cuts = np.broadcast_arrays(lo, hi, *cuts)
        knots = np.clip(self._arrays[0], lo[..., None], hi[..., None])
        pts = np.sort(np.concatenate([np.stack([lo, hi, *cuts], axis=-1), knots], axis=-1))
        a, b = pts[..., :-1], pts[..., 1:]
        wa, wb = self._piece_weights(pts)
        return np.sum((b - a) * (weight(a) * wa + weight(b) * wb), axis=-1)

    def _piece_weights(self, pts):
        """End weights of the pieces between consecutive points (last axis).

        On a piece [a, b] free of knots, int_a^b G(w) weight(w) dw equals
        (b - a) * (weight(a) * wa + weight(b) * wb) for every weight linear
        on it: G is exponential there in log mode (the `_e2` weights) and
        linear otherwise.  Both weights are nonnegative.
        """
        xs, ys = self._arrays
        if self.log_interpolated:
            lg = np.interp(pts, xs, np.log(ys))
            g, d = np.exp(lg), np.diff(lg)
            return g[..., :-1] * _e2(d), g[..., 1:] * _e2(-d)
        g = np.interp(pts, xs, ys)
        ga, gb = g[..., :-1], g[..., 1:]
        return (2.0 * ga + gb) / 6.0, (ga + 2.0 * gb) / 6.0

    def _g1(self, u):
        return self._integral(0.0, u, lambda w: 1.0)

    def _g2(self, u):
        u = np.asarray(u, dtype=float)
        return self._integral(0.0, u, lambda w: u[..., None] - w)

    def _one_signed(self, gap, dx, dy):
        # integrate against the trapezoid of overlap lengths over the lag u = t - s:
        # second differences of G2 would cancel to ~1e-9 at far lags
        gap, dx, dy = np.broadcast_arrays(gap, dx, dy)
        end = gap + dx + dy
        side = np.minimum(dx, dy)[..., None]

        def overlap(w):
            return np.minimum(np.minimum(w - gap[..., None], end[..., None] - w), side)

        return self._integral(gap, end, overlap, (gap + dx, gap + dy))

    def _half_cell_moments(self, h, m):
        """A_j = int G(u) (1 - s) du and B_j = int G(u) s du, j = 0..2m-1.

        The integrals run over the half cell [j h/2, (j+1) h/2], whose local
        clock is s = u / (h/2) - j.  A half cell is split at the knots inside
        it, and `_piece_weights` gives both moments of each piece as sums of
        nonnegative terms.  Clocks are taken relative to the half cell, so a
        piece without a knot spans exactly [0, 1] whatever the rounding of
        its edges.
        """
        xs = self._arrays[0]
        n, half = 2 * m, 0.5 * h
        edges = np.arange(n + 1) * half
        inside = xs[(xs > 0.0) & (xs < edges[-1])]
        at = np.searchsorted(edges, inside, side="right")  # knot in half cell at - 1
        # points in order: every edge, each knot after the left edge of its half cell
        x = np.insert(edges, at, inside)
        clock = np.insert(np.zeros(n + 1), at, np.minimum((inside - edges[at - 1]) / half, 1.0))
        is_edge = np.insert(np.ones(n + 1, dtype=bool), at, False)
        cell = np.insert(np.arange(n), at, at - 1)  # half cell of the piece each point starts
        sa, sb = clock[:-1], np.where(is_edge[1:], 1.0, clock[1:])
        wa, wb = self._piece_weights(x)
        length = (sb - sa) * half
        a = np.bincount(cell, length * ((1.0 - sa) * wa + (1.0 - sb) * wb), minlength=n)
        b = np.bincount(cell, length * (sa * wa + sb * wb), minlength=n)
        return a, b

    def lag_row(self, h, m):
        return self.grid_rows(h, m)[0]

    def grid_rows(self, h, m):
        a, b = self._half_cell_moments(h, m)
        # the overlap triangle of lag k covers half cells 2k-2 .. 2k+1:
        # row[k] = h (r[k-1] + f[k]) with f[k] = A_2k + B_2k/2 + A_2k+1/2
        # and r[k] = B_2k/2 + A_2k+1/2 + B_2k+1; row[0] = 2 h f[0]
        shared = 0.5 * (b[0::2] + a[1::2])
        f, r = a[0::2] + shared, shared + b[1::2]
        mass = a + b  # int G over each half cell
        return (h * np.concatenate(([2.0 * f[0]], r[:-1] + f[1:])),
                np.concatenate(([2.0 * mass[0]], mass[1:-1:2] + mass[2::2])))

    def classify(self):
        """Structure of the interpolant actually used, flat head and tail included.

        Every piece is linear or exponential, hence convex, so the interpolant
        is convex iff its derivative does not drop at any knot, counting t[0]
        when t[0] > 0 (where the flat head ends).  In log mode the jump at
        knot k is g_k times the jump of the log-slopes.  Positive type is
        claimed only by Polya's criterion, tested without the tolerance:
        no slope jump is negative, so the interpolant is convex and, ending
        flat, nonincreasing.  The discrete solver's certificate rests on it.
        """
        xs, ys = self._arrays
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
        nodes = np.log(ys) if self.log_interpolated else ys
        slopes = np.diff(nodes) / np.diff(xs)
        jumps = np.diff(np.concatenate(([0.0], slopes, [0.0])))
        if self.log_interpolated:
            jumps = jumps * ys
        if xs[0] == 0.0:
            jumps = jumps[1:]  # no head: lag 0 ends the domain
        nonincreasing = bool(np.all(np.diff(ys) <= tol))
        convex = bool(np.all(jumps >= -tol))
        return KernelStructure(
            nonincreasing=nonincreasing,
            convex=convex,
            completely_monotone=False,  # not decidable from samples
            positive_type_known=bool(np.all(jumps >= 0.0)),
            tolerance=tol,
        )


_VARIANTS = {
    cls.kind: cls
    for cls in (ExponentialSum, CappedLinear, PowerCapped, Trigonometric, PowerLaw, Tabulated)
}


def kernel_from_spec(obj):
    """Build a kernel from its JSON object form, e.g. {"type": "trigonometric", "rho": 0.5}."""
    if not isinstance(obj, dict):
        raise ValueError("kernel spec must be a JSON object")
    spec = dict(obj)
    kind = spec.pop("type", None)
    if kind not in _VARIANTS:
        known = ", ".join(sorted(_VARIANTS))
        raise ValueError(f"unknown kernel type {kind!r}; expected one of: {known}")
    cls = _VARIANTS[kind]
    declared = fields(cls)
    missing = [f.name for f in declared if f.default is MISSING and f.name not in spec]
    if missing:
        raise ValueError(f"kernel type {kind!r} missing fields: {', '.join(missing)}")
    extra = [k for k in spec if k not in {f.name for f in declared}]
    if extra:
        raise ValueError(f"kernel type {kind!r} has unknown fields: {', '.join(extra)}")
    kwargs = {
        f: tuple(v) if isinstance(v, (list, tuple)) else v for f, v in spec.items()
    }
    return cls(**kwargs)
