"""Displacement kernels G(|t - s|) with exact cell integration.

Every kernel offers pointwise evaluation, exact integration of G(|t - s|)
over cells and rectangles, and a structure report (nonincreasing, convex,
completely monotone, positive type).  `Kernel.grid_rows` is the assembly
path of the discretized energy and the discrete solver's one hook: on m
uniform cells it returns the lag row, the double integrals of a cell against
every lag, and the midpoint row, the integrals of G over one cell seen from
every cell midpoint, which the solver's residual convolves with.  Every
entry depends on the lag index k alone, so each family builds both rows from
one table on the grid in O(m) elementwise work: by default second
differences of `_nl2` at j*h and first differences of `_g1` at (j + 1/2)*h
(`CappedLinear`, `PowerCapped`); where differences would cancel, a product
form on one table of exp(-sqrt(b) k h) (`ExponentialSum`) or cos(rho k h)
(`Trigonometric`), series in 1/k^2 for the far entries of `PowerLaw`, and
half-cell moments in O(m + knots) for `Tabulated`.  `cell_double_integral`
is the helper for a general rectangle, and `cell_integral` integrates G over
one cell seen from any point, the general form of a midpoint-row entry; the
solver itself calls neither.

The base class does the shared work (JSON specs, rectangle splitting, and
points: it converts and checks each point once, by `_points`, the one point
rule of the package, so the hooks see float arrays only).  A family is a
frozen dataclass whose fields are its JSON fields, and it declares its spec
name `kind`, its `structure`, and the maths: `_g0` (G itself on lags
t >= 0) and the antiderivatives `_g1` and `_g2` of the next paragraph.  It
validates its fields in `__post_init__`, each number through
`_positive_finite` or `_positive_int`, the one number rule of the package.

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

import bisect
import math
import numbers
from dataclasses import MISSING, dataclass, fields
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
        # from fields(): dataclasses.asdict deep-copies, and every field is immutable
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in values.items() if v is not None}


_REAL = (float, int, numbers.Real)  # builtins first: isinstance stops before the slower ABC test


def _is_number(value, kinds=_REAL):
    """Whether ``value`` is of the number ``kinds``; a bool is not, though Python counts it as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _positive_finite(value, name, zero=False, below=math.inf):
    """``value`` as a float: a real number above 0 (from 0 with ``zero``) and below ``below``.

    Anything else raises a ValueError that names ``name``: "<name> must be
    positive and finite" ("nonnegative" with ``zero``, "must lie in
    (0, below)" with a finite ``below``).  A string, a bool, a list or None
    is refused, never turned into a number.
    """
    if _is_number(value) and (0 <= value if zero else 0 < value) and value < below:
        return float(value)
    if below < math.inf:
        raise ValueError(f"{name} must lie in (0, {below:g})")
    raise ValueError(f"{name} must be {'nonnegative' if zero else 'positive'} and finite")


def _positive_int(value, name, least=1, most=None):
    """``value`` as an int: an integer, not a bool, from ``least`` to ``most`` (None: unbounded).

    Anything else raises a ValueError that names ``name`` and the range."""
    if _is_number(value, (int, numbers.Integral)) and least <= value and (most is None or value <= most):
        return int(value)
    if most is not None:
        raise ValueError(f"{name} must be an integer from {least} to {most}")
    raise ValueError(f"{name} must be a positive integer" if least == 1
                     else f"{name} must be an integer >= {least}")


def _points(t, message, lo=0.0, hi=math.inf):
    """``t`` as a float array (0-d for a scalar) of finite points in [lo, hi]; floats are not copied.

    A NaN, an infinity, a point outside [lo, hi], a bool, a string and an
    array whose dtype is neither integer nor float raise ValueError(message)."""
    points = np.asarray(t)
    if points.dtype.kind in "iuf":
        points = points.astype(float, copy=False)
        if points.size == 0:
            return points
        low, high = points.min(), points.max()  # NaN, both of them, if any point is NaN
        if lo <= low and high <= hi and math.isfinite(low) and math.isfinite(high):
            return points
    raise ValueError(message)


def _like(out, t):
    """``out``, computed on the points ``t``: a float when ``t`` is a scalar, else as it is."""
    return float(out) if np.ndim(t) == 0 else out


def _set(obj, **values):
    """Store checked field values on the frozen dataclass ``obj``."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _segments(lo, hi, cuts):
    """Split [lo, hi] at every cut strictly inside it."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return list(zip(pts[:-1], pts[1:]))


class Kernel:
    """Base class: generic rectangle logic on top of per-family scalar hooks."""

    kind: ClassVar[str]
    structure: ClassVar[KernelStructure]

    def evaluate(self, t):
        """Kernel value G(t) for finite lags t >= 0 (scalar or ndarray)."""
        t = _points(t, "kernel lag must be nonnegative and finite")
        return _like(self._g0(t), t)

    def classify(self) -> KernelStructure:
        """The family's ``structure``: the same object on every call."""
        return self.structure

    def spec(self) -> dict:
        """JSON-compatible description, round-trips through kernel_from_spec."""
        spec = {"type": self.kind}
        for f in fields(self):  # not dataclasses.asdict, which deep-copies every tuple first
            v = getattr(self, f.name)
            spec[f.name] = list(v) if isinstance(v, tuple) else v
        return spec

    # --- G and its antiderivatives (on float arrays, or the numpy floats that 0-d arithmetic gives) ---

    def _g0(self, t):
        """G(t) on lags t >= 0."""
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

    def grid_rows(self, h, m):
        """The lag row and the midpoint row of m uniform cells of width h.

        The lag row holds the double integrals of G(|t - s|) over
        [0, h] x [k h, (k + 1) h]; the midpoint row holds
        int_0^h G(|(k + 1/2) h - s|) ds for k = 0..m-1, the single-cell
        integrals the discrete residual convolves with.  Both are functions
        of the lag index k alone, so each comes from one table on the grid
        in O(m): here ``_grid_lags`` and ``_grid_midpoints``, while a family
        whose differences would cancel overrides this with a product form.
        The lag-0 entries 2 G2(h) and 2 G1(h/2) take h as a 0-d array: ``**``
        on a numpy float runs a scalar power that may round otherwise.
        """
        return self._grid_lags(h, m), self._grid_midpoints(h, m)

    def _grid_lags(self, h, m):
        """Lag row from one table nl[j] = _nl2(j h), j = 0..m: 2 G2(h), then
        the second differences nl[k+1] - 2 nl[k] + nl[k-1] in ``_one_signed``'s order."""
        nl = self._nl2(np.arange(m + 1) * h)
        return np.concatenate(([2.0 * self._g2(np.array(h))], nl[2:] - nl[1:-1] - nl[1:-1] + nl[:-2]))

    def _grid_midpoints(self, h, m):
        """Midpoint row from one table G1((j + 1/2) h), j = 0..m-1: 2 G1(h/2),
        then G1((k + 1/2) h) - G1((k - 1/2) h)."""
        g1 = self._g1((np.arange(m) + 0.5) * h)
        return np.concatenate(([2.0 * self._g1(np.array(0.5 * h))], g1[1:] - g1[:-1]))

    def cell_double_integral(self, x_lo, x_hi, y_lo, y_hi):
        """Exact integral of G(|t - s|) ds dt over [x_lo,x_hi] x [y_lo,y_hi], finite edges."""
        names = ("x_lo", "x_hi", "y_lo", "y_hi")  # each edge on its own, as a numpy float _segments can hash
        x_lo, x_hi, y_lo, y_hi = (_points(edge, f"rectangle edge {name} must be finite", -math.inf)[()]
                                  for edge, name in zip((x_lo, x_hi, y_lo, y_hi), names))
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
        """int_lo^hi G(|t - s|) ds for finite lo, hi and t, vectorized over t (exact antiderivative)."""
        lo = _points(lo, "cell edge lo must be finite", -math.inf)
        hi = _points(hi, "cell edge hi must be finite", -math.inf)
        if not lo < hi:
            raise ValueError("degenerate cell: require lo < hi")
        t = _points(t, "cell point t must be finite", -math.inf)
        return _like(self._g1_signed(hi - t) - self._g1_signed(lo - t), t)

    def _g1_signed(self, w):
        """Odd extension of G1: antiderivative of s -> G(|s|)."""
        return np.sign(w) * self._g1(np.abs(w))


# _E2_RADII[n - 1]: the |z| below which _e2's series sum_j z^j / (j + 2)!, cut
# after n terms, omits a first term |z|^n / (n + 2)! under 1e-18
_E2_RADII = tuple((1e-18 * math.factorial(n + 2)) ** (1.0 / n) for n in range(1, 16))


def _e2(z):
    """(expm1(z) - z) / z^2 = int_0^1 (1 - s) exp(z s) ds for real z (1/2 at z = 0).

    Below |z| = 0.5 the Taylor series runs to the smallest degree n whose
    first omitted term, max |z|^n / (n + 2)!, is below 1e-18: 15 terms
    near |z| = 0.5, 6 below |z| = 0.0058 (the half cells of a fine grid).
    """
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 1.0, z)
    n = bisect.bisect_right(_E2_RADII, float(np.max(np.abs(zs), initial=0.0))) + 1
    series = 0.0
    for k in range(n + 1, 1, -1):
        series = series * zs + 1.0 / math.factorial(k)
    return np.where(small, series, (np.expm1(zl) - zl) / (zl * zl))


def _em1p(x):
    """exp(-x) - 1 + x, accurate for all x >= 0."""
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
        a = tuple(_positive_finite(v, "exponential sum weights a") for v in self.a)
        b = tuple(_positive_finite(v, "exponential sum rates b") for v in self.b)
        if len(a) == 0 or len(a) != len(b):
            raise ValueError("exponential sum needs equally many positive a and b")
        if not all(x < y for x, y in zip(b[:-1], b[1:])):
            raise ValueError("exponential sum rates b must be strictly increasing")
        _set(self, a=a, b=b)

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
        return np.sum(-(a / rate) * np.expm1(-rate * u[..., None]), axis=-1)

    def _g2(self, u):
        a, b, rate = self._arrays
        return np.sum((a / b) * _em1p(rate * u[..., None]), axis=-1)

    def _one_signed(self, gap, dx, dy):
        # expm1 product form: no cancellation however far the cells are apart
        a, b, rate = self._arrays
        gap, dx, dy = (v[..., None] for v in (gap, dx, dy))
        decay = np.exp(-rate * gap)
        return np.sum((a / b) * decay * np.expm1(-rate * dx) * np.expm1(-rate * dy), axis=-1)

    def grid_rows(self, h, m):
        # one term-major table exp(-sqrt(b) (k - 1) h), k = 1..m-1, feeds both
        # rows in product form, where differences of G2 or G1 would cancel:
        # lag k is sum (a/b) expm1(-sqrt(b) h)^2 exp(-sqrt(b) (k - 1) h), and
        # int_0^h G((k + 1/2) h - s) ds = sum a exp(-sqrt(b) (k - 1/2) h)
        # (1 - exp(-sqrt(b) h)) / sqrt(b)
        a, b, rate = self._arrays
        step = np.expm1(-rate * h)
        lag_weight = (a / b) * step * step
        mid_weight = -(a / rate) * step * np.exp(-0.5 * rate * h)
        decay = np.exp(np.outer(-rate, np.arange(m - 1) * h))
        lags, midpoints = np.zeros(m), np.zeros(m)
        lags[0], midpoints[0] = 2.0 * self._g2(np.array(h)), 2.0 * self._g1(np.array(0.5 * h))
        for row, lag_w, mid_w in zip(decay, lag_weight.tolist(), mid_weight.tolist()):
            lags[1:] += lag_w * row
            midpoints[1:] += mid_w * row
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
        _set(self, cap=_positive_finite(self.cap, "cap"))

    def _g0(self, t):
        return np.maximum(self.cap - t, 0.0)

    def _g1(self, u):
        uc = np.minimum(u, self.cap)
        return self.cap * uc - 0.5 * uc * uc

    def _g2(self, u):
        cap = self.cap
        inside = 0.5 * cap * u * u - u**3 / 6.0
        beyond = cap**3 / 3.0 + (u - cap) * 0.5 * cap * cap
        return np.where(u <= cap, inside, beyond)

    def _nl2(self, u):
        # G2(u) = affine(u) + (cap - u)^+^3 / 6; only the cube survives differencing
        w = np.maximum(self.cap - u, 0.0)
        return w * w * w / 6.0  # w**3 would call libm pow, several times slower


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
        _set(self, rho=_positive_finite(self.rho, "rho"), p=_positive_int(self.p, "p"))

    def _g0(self, t):
        return np.maximum(1.0 - self.rho * t, 0.0) ** self.p

    def _g1(self, u):
        rho, p = self.rho, self.p
        w = np.maximum(1.0 - rho * u, 0.0)
        return (1.0 - w ** (p + 1)) / (rho * (p + 1))

    def _g2(self, u):
        rho, p = self.rho, self.p
        uc = np.minimum(u, 1.0 / rho)
        w = np.maximum(1.0 - rho * u, 0.0)
        inside = uc / (rho * (p + 1)) - (1.0 - w ** (p + 2)) / (rho**2 * (p + 1) * (p + 2))
        return inside + np.maximum(u - 1.0 / rho, 0.0) / (rho * (p + 1))

    def _nl2(self, u):
        rho, p = self.rho, self.p
        w = np.maximum(1.0 - rho * u, 0.0)
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
        _set(self, rho=_positive_finite(self.rho, "rho"))

    def _g0(self, t):
        return np.cos(self.rho * t)

    def _g1(self, u):
        return np.sin(self.rho * u) / self.rho

    def _g2(self, u):
        return 2.0 * (np.sin(0.5 * self.rho * u) / self.rho) ** 2

    def _one_signed(self, gap, dx, dy):
        # product form of the cosine second difference: no cancellation at any lag
        r = self.rho
        return 4.0 * (np.sin(0.5 * r * dx) / r) * (np.sin(0.5 * r * dy) / r) * np.cos(
            r * (gap + 0.5 * (dx + dy))
        )

    def grid_rows(self, h, m):
        # one table cos(rho k h) feeds both product forms: lag k is
        # (2 sin(rho h/2) / rho)^2 cos(rho k h), as _one_signed has it (each
        # sine divided by rho, so a tiny rho does not underflow rho^2), and
        # midpoint k is 2 sin(rho h/2) cos(rho k h) / rho
        r = self.rho
        half = math.sin(0.5 * r * h)
        table = np.cos(r * (np.arange(m) * h))
        lags = (2.0 * half / r) ** 2 * table
        lags[0] = 2.0 * self._g2(np.array(h))
        return lags, 2.0 * half / r * table


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
        _set(self, alpha=_positive_finite(self.alpha, "alpha", below=1.0),
             scale=_positive_finite(self.scale, "scale"))

    def _g0(self, t):
        if np.any(t == 0):
            raise ValueError("kernel diverges at lag 0; require t > 0")
        return self.scale * t ** (-self.alpha)

    def _g1(self, u):
        return self.scale * u ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def _g2(self, u):
        return self.scale * u ** (2.0 - self.alpha) / ((1.0 - self.alpha) * (2.0 - self.alpha))

    def _one_signed(self, gap, dx, dy):
        # Far from the diagonal the second difference of u^p (p = 2 - alpha)
        # cancels.  Expanded about the centre c = gap + (dx+dy)/2 in the
        # half-widths a = (dx+dy)/2, b = (dx-dy)/2 it is
        #   c^p * 2 sum_j C(p, 2j) E_j,  E_j = (a/c)^2j - (b/c)^2j,
        # where every term is positive; 12 terms reach round-off for a <= c/4.
        p = 2.0 - self.alpha
        c = gap + 0.5 * (dx + dy)
        ra2, rb2 = (0.5 * (dx + dy) / c) ** 2, (0.5 * (dx - dy) / c) ** 2
        e1 = dx * dy / c**2  # E_1 = ra2 - rb2 without the subtraction
        e, rb2j, series = e1, rb2, 0.0
        for binom in self._binomials:  # E_{j+1} = ra2 E_j + rb2^j E_1
            series = series + binom * e
            e, rb2j = ra2 * e + rb2j * e1, rb2j * rb2
        far = 2.0 * series * c**p * self.scale / ((1.0 - self.alpha) * p)
        return np.where(ra2 <= 1.0 / 16.0, far, super()._one_signed(gap, dx, dy))

    @cached_property
    def _binomials(self):
        """C(p, 2j) for j = 1..12, p = 2 - alpha: the far series' coefficients."""
        p, binom, out = 2.0 - self.alpha, 1.0, []
        for k in range(0, 24, 2):
            binom *= (p - k) * (p - k - 1) / ((k + 1) * (k + 2))
            out.append(binom)
        return tuple(out)

    @cached_property
    def _odd_binomials(self):
        """C(q, 2j+1) for j = 0..11, q = 1 - alpha: the midpoint series' coefficients."""
        q = binom = 1.0 - self.alpha
        out = [q]
        for n in range(3, 24, 2):
            binom *= (q - n + 2) * (q - n + 1) / ((n - 1) * n)
            out.append(binom)
        return tuple(out)

    def _grid_lags(self, h, m):
        # on the grid _one_signed has c = k h, ra2 = 1/k^2 and rb2 = 0, so its
        # far series is 1/k^2 times a polynomial in 1/k^2 (Horner), times
        # (k h)^p; lags below 4 (ra2 > 1/16) keep the direct second difference
        near = super()._grid_lags(h, min(m, 4))
        k = np.arange(len(near), m, dtype=float)
        x = 1.0 / (k * k)
        poly = 0.0
        for binom in reversed(self._binomials):
            poly = poly * x + binom
        p = 2.0 - self.alpha
        far = 2.0 * self.scale / ((1.0 - self.alpha) * p) * (x * poly) * (k * h) ** p
        return np.concatenate((near, far))

    def _grid_midpoints(self, h, m):
        # G1((k + 1/2) h) - G1((k - 1/2) h) cancels at far lags; about c = k h it
        # is (scale/q) c^q ((1 + e)^q - (1 - e)^q) with e = 1/(2k), q = 1 - alpha,
        # that is (2 scale/q) c^q sum_j C(q, 2j+1) e^(2j+1), a polynomial in
        # e^2 <= 1/16 (Horner); lag 1, where it converges slowly, is
        # G1(3h/2) - G1(h/2) = scale (h/2)^q expm1(q ln 3) / q, with no cancellation
        q = 1.0 - self.alpha
        near = np.array([2.0 * self._g1(np.array(0.5 * h)),
                         self.scale * (0.5 * h) ** q * math.expm1(q * math.log(3.0)) / q])[:m]
        k = np.arange(len(near), m, dtype=float)
        e = 0.5 / k
        x = e * e
        poly = 0.0
        for binom in reversed(self._odd_binomials):
            poly = poly * x + binom
        far = 2.0 * self.scale / q * (e * poly) * (k * h) ** q
        return np.concatenate((near, far))


@dataclass(frozen=True)
class Tabulated(Kernel):
    """Kernel given by samples (abscissae t, values g).

    Interpolation is log-linear when every tabulated value is positive
    (preserving the decay shape of empirical impact kernels) and linear
    otherwise.  Outside the table the kernel extends flat.  Every integral,
    single-cell or double, is exact: the interpolant is integrated piece by
    piece in closed form.

    The rows of a uniform grid (``grid_rows``) come from one
    table of half-cell moments, not from a rectangle per lag: the 2m half
    cells of width h/2 are split only at the knots inside them, so the work
    and memory are O(m + knots).  Both rows are sums of nonnegative moments.
    """

    kind: ClassVar[str] = "tabulated"

    t: tuple
    g: tuple

    def __post_init__(self):
        t = tuple(_positive_finite(v, "tabulated abscissae t", zero=True) for v in self.t)
        g = tuple(_positive_finite(v, "tabulated values g", zero=True) for v in self.g)
        if len(t) < 2 or len(t) != len(g):
            raise ValueError("tabulated kernel needs >= 2 matching samples")
        if not all(x < y for x, y in zip(t[:-1], t[1:])):
            raise ValueError("tabulated abscissae t must be strictly increasing")
        _set(self, t=t, g=g)
        if not np.all(np.isfinite(self._slopes)):  # a knot gap near the smallest subnormal
            raise ValueError("tabulated slopes between neighbouring knots must be finite")

    @cached_property
    def _arrays(self):
        return np.array(self.t), np.array(self.g)

    @cached_property
    def log_interpolated(self):
        return all(v > 0 for v in self.g)

    @cached_property
    def _slopes(self):
        """The interpolant's slope between neighbouring knots: of log g in log mode, else of g."""
        xs, ys = self._arrays
        with np.errstate(over="ignore"):  # __post_init__ refuses an overflowed slope
            return np.diff(np.log(ys) if self.log_interpolated else ys) / np.diff(xs)

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
            ea, eb = _e2(np.stack((d, -d)))
            return g[..., :-1] * ea, g[..., 1:] * eb
        g = np.interp(pts, xs, ys)
        ga, gb = g[..., :-1], g[..., 1:]
        return (2.0 * ga + gb) / 6.0, (ga + 2.0 * gb) / 6.0

    def _g1(self, u):
        return self._integral(0.0, u, lambda w: 1.0)

    def _g2(self, u):
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

    @cached_property
    def structure(self):
        """Structure of the interpolant actually used, flat head and tail included.

        Every piece is linear or exponential, hence convex, so the interpolant
        is convex iff its derivative does not drop at any knot, counting t[0]
        when t[0] > 0 (where the flat head ends).  In log mode the jump at
        knot k is g_k times the jump of the log-slopes.  Positive type is
        claimed only by Polya's criterion, tested without the tolerance:
        no slope jump is negative, so the interpolant is convex and, ending
        flat, nonincreasing.  The discrete solver's certificate rests on it.

        The report is built on the first read and kept on the instance, like
        ``_arrays``: the table of a frozen kernel cannot change, so
        ``classify()`` returns the same object every time.
        """
        xs, ys = self._arrays
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
        with np.errstate(over="ignore"):  # a jump of slopes near the float limit keeps its sign
            jumps = np.diff(np.concatenate(([0.0], self._slopes, [0.0])))
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
