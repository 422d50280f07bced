"""Displacement kernels G(|t - s|) with exact cell integration.

Every kernel family implements three capabilities used throughout the
package: pointwise evaluation, exact integration of G(|t - s|) over
axis-aligned rectangles (the building block of the discretized energy and
of residual checks), and structural classification (nonincreasing, convex,
completely monotone, positive type).

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
from dataclasses import dataclass
from functools import cached_property

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

    ``tolerance`` is only set for table-based kernels, where the flags come
    from finite-difference sign tests instead of analytic facts.
    """

    nonincreasing: bool
    convex: bool
    completely_monotone: bool
    positive_type_known: bool
    tolerance: float | None = None

    def to_dict(self):
        out = {
            "nonincreasing": self.nonincreasing,
            "convex": self.convex,
            "completely_monotone": self.completely_monotone,
            "positive_type_known": self.positive_type_known,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def _segments(lo, hi, cuts):
    """Split [lo, hi] at every cut strictly inside it."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return list(zip(pts[:-1], pts[1:]))


class Kernel:
    """Base class: generic rectangle logic on top of per-family scalar hooks."""

    def evaluate(self, t):
        """Kernel value G(t) for lag t >= 0 (scalar or ndarray)."""
        raise NotImplementedError

    def classify(self) -> KernelStructure:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-compatible description, round-trips through kernel_from_spec."""
        raise NotImplementedError

    # --- antiderivative hooks (vectorized over ndarrays) ---

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


def _check_lag(t, positive=False):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("kernel lag must be nonnegative")
    if positive and np.any(t_arr == 0):
        raise ValueError("kernel diverges at lag 0; require t > 0")
    return t_arr


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

    def evaluate(self, t):
        t_arr = _check_lag(t)
        a, _, rate = self._arrays
        out = np.sum(a * np.exp(-rate * t_arr[..., None]), axis=-1)
        return float(out) if np.ndim(t) == 0 else out

    def _g1(self, u):
        a, _, rate = self._arrays
        u = np.asarray(u, dtype=float)
        return np.sum(-(a / rate) * np.expm1(-rate * u[..., None]), axis=-1)

    def _g2(self, u):
        a, b, rate = self._arrays
        u = np.asarray(u, dtype=float)
        return np.sum((a / b) * _em1p(rate * u[..., None]), axis=-1)

    def _one_signed(self, gap, dx, dy):
        # expm1 product form: no cancellation however far the cells are apart
        a, b, rate = self._arrays
        gap, dx, dy = (np.asarray(v, dtype=float)[..., None] for v in (gap, dx, dy))
        return np.sum(
            (a / b) * np.exp(-rate * gap) * np.expm1(-rate * dx) * np.expm1(-rate * dy), axis=-1
        )

    def classify(self):
        return KernelStructure(
            nonincreasing=True,
            convex=True,
            completely_monotone=True,
            positive_type_known=True,
        )

    def spec(self):
        return {"type": "exponential_sum", "a": list(self.a), "b": list(self.b)}


@dataclass(frozen=True)
class CappedLinear(Kernel):
    """G(t) = (cap - t)^+ ."""

    cap: float = 1.0

    def __post_init__(self):
        if not 0 < self.cap < math.inf:
            raise ValueError("cap must be positive and finite")
        object.__setattr__(self, "cap", float(self.cap))

    def evaluate(self, t):
        t_arr = _check_lag(t)
        out = np.maximum(self.cap - t_arr, 0.0)
        return float(out) if np.ndim(t) == 0 else out

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

    def classify(self):
        return KernelStructure(
            nonincreasing=True,
            convex=True,
            completely_monotone=False,
            positive_type_known=True,
        )

    def spec(self):
        return {"type": "capped_linear", "cap": self.cap}


@dataclass(frozen=True)
class PowerCapped(Kernel):
    """G(t) = ((1 - rho*t)^+)^p for a positive integer power p."""

    rho: float
    p: int

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError("p must be a positive integer")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "p", int(self.p))

    def evaluate(self, t):
        t_arr = _check_lag(t)
        out = np.maximum(1.0 - self.rho * t_arr, 0.0) ** self.p
        return float(out) if np.ndim(t) == 0 else out

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

    def classify(self):
        return KernelStructure(
            nonincreasing=True,
            convex=True,  # p >= 1: piecewise power of an affine ramp
            completely_monotone=False,
            positive_type_known=True,
        )

    def spec(self):
        return {"type": "power_capped", "rho": self.rho, "p": self.p}


@dataclass(frozen=True)
class Trigonometric(Kernel):
    """G(t) = cos(rho * t): of positive type, but neither nonincreasing nor convex."""

    rho: float

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        object.__setattr__(self, "rho", float(self.rho))

    def evaluate(self, t):
        t_arr = _check_lag(t)
        out = np.cos(self.rho * t_arr)
        return float(out) if np.ndim(t) == 0 else out

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

    def classify(self):
        return KernelStructure(
            nonincreasing=False,
            convex=False,
            completely_monotone=False,
            positive_type_known=True,  # Bochner: cos is positive definite
        )

    def spec(self):
        return {"type": "trigonometric", "rho": self.rho}


@dataclass(frozen=True)
class PowerLaw(Kernel):
    """G(t) = scale * t^(-alpha), 0 < alpha < 1 (integrable singularity at 0)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "scale", float(self.scale))

    def evaluate(self, t):
        t_arr = _check_lag(t, positive=True)
        out = self.scale * t_arr ** (-self.alpha)
        return float(out) if np.ndim(t) == 0 else out

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

    def classify(self):
        return KernelStructure(
            nonincreasing=True,
            convex=True,
            completely_monotone=True,
            positive_type_known=True,
        )

    def spec(self):
        return {"type": "power_law", "alpha": self.alpha, "scale": self.scale}


@dataclass(frozen=True)
class Tabulated(Kernel):
    """Kernel given by samples (abscissae t, values g).

    Interpolation is log-linear when every tabulated value is positive
    (preserving the decay shape of empirical impact kernels) and linear
    otherwise.  Outside the table the kernel extends flat.  Every integral,
    single-cell or double, is exact: the interpolant is integrated piece by
    piece in closed form.
    """

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

    def evaluate(self, t):
        t_arr = _check_lag(t)
        xs, ys = self._arrays
        if self.log_interpolated:
            out = np.exp(np.interp(t_arr, xs, np.log(ys)))
        else:
            out = np.interp(t_arr, xs, ys)
        return float(out) if np.ndim(t) == 0 else out

    def _integral(self, lo, hi, weight, cuts=()):
        """Exact int_lo^hi G(w) weight(w) dw for a weight linear between cuts.

        Split at the cuts and the abscissae, every piece lies in the flat
        head, one segment or the flat tail, where G is exponential or linear:
        a closed form with nonnegative terms.  Vectorized over lo, hi, cuts.
        """
        xs, ys = self._arrays
        lo, hi, *cuts = np.broadcast_arrays(lo, hi, *cuts)
        knots = np.clip(xs, lo[..., None], hi[..., None])
        pts = np.sort(np.concatenate([np.stack([lo, hi, *cuts], axis=-1), knots], axis=-1))
        a, b = pts[..., :-1], pts[..., 1:]
        if self.log_interpolated:
            la, lb = np.interp(a, xs, np.log(ys)), np.interp(b, xs, np.log(ys))
            wa, wb = np.exp(la) * _e2(lb - la), np.exp(lb) * _e2(la - lb)
        else:
            ga, gb = np.interp(a, xs, ys), np.interp(b, xs, ys)
            wa, wb = (2.0 * ga + gb) / 6.0, (ga + 2.0 * gb) / 6.0
        return np.sum((b - a) * (weight(a) * wa + weight(b) * wb), axis=-1)

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

    def classify(self):
        xs, ys = self._arrays
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
        slopes = np.diff(ys) / np.diff(xs)
        nonincreasing = bool(np.all(np.diff(ys) <= tol))
        convex = bool(np.all(np.diff(slopes) >= -tol))
        return KernelStructure(
            nonincreasing=nonincreasing,
            convex=convex,
            completely_monotone=False,  # not decidable from samples
            positive_type_known=nonincreasing and convex,
            tolerance=tol,
        )

    def spec(self):
        return {"type": "tabulated", "t": list(self.t), "g": list(self.g)}


_VARIANTS = {
    "exponential_sum": (ExponentialSum, ("a", "b"), ()),
    "capped_linear": (CappedLinear, (), ("cap",)),
    "power_capped": (PowerCapped, ("rho", "p"), ()),
    "trigonometric": (Trigonometric, ("rho",), ()),
    "power_law": (PowerLaw, ("alpha",), ("scale",)),
    "tabulated": (Tabulated, ("t", "g"), ()),
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
    cls, required, optional = _VARIANTS[kind]
    missing = [f for f in required if f not in spec]
    if missing:
        raise ValueError(f"kernel type {kind!r} missing fields: {', '.join(missing)}")
    extra = [f for f in spec if f not in required and f not in optional]
    if extra:
        raise ValueError(f"kernel type {kind!r} has unknown fields: {', '.join(extra)}")
    kwargs = {
        f: tuple(v) if isinstance(v, (list, tuple)) else v for f, v in spec.items()
    }
    return cls(**kwargs)
