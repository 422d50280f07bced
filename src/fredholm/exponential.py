"""Closed-form minimizer for exponential-sum kernels.

For G(t) = sum_k a_k exp(-sqrt(b_k) t) the minimizer of J_gamma under unit
mass is

    phi(t) = d * (1 + sum_i z_i (e^{sqrt(c_i) t} + e^{sqrt(c_i)(T-t)})),
    z_i >= 0,

where the c_i are the eigenvalues of the rank-one update
M = B + 2*lambda*A*B^{1/2} 11' (lambda = 1/gamma) and the z_i come from an
n x n linear system with Cauchy structure.  Everything here is exact linear
algebra on n-vectors (n = number of exponential terms), independent of any
grid.

The route, kept deliberately step-by-step so each intermediate claim can be
certified numerically (see :func:`verify_step_identities`):

1. roots c_i of the secular function f(x) = 1 - 2*lambda*sum a_k sqrt(b_k)/(x-b_k),
   one in each (b_k, b_{k+1}) and one above b_n;
2. Cauchy matrix Qtilde_ij = 1/(c_j - b_i) diagonalizes M via Q = A B^{1/2} Qtilde;
3. the two-point boundary problem for the auxiliary convolutions collapses
   to  Ntilde y = 1  with  Ntilde = B^{1/2} Qtilde C^{1/2} + B Qtilde E(T),
   E(T) = diag(coth(sqrt(c_i) T / 2));
4. z_i = y_i / (e^{sqrt(c_i) T} - 1), guaranteed nonnegative, and the whole
   curve is rescaled to unit mass (the unscaled solution has sigma = gamma).

All exponentials are arranged so that only nonpositive arguments are ever
exponentiated; the formulas survive sqrt(c) * T far beyond 700.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import panel_gauss
from .errors import IllConditionedError
from .kernels import ExponentialSum

__all__ = [
    "ExpClosedForm",
    "secular_roots",
    "cauchy_factors",
    "build_closed_form",
    "eval_closed_form",
    "verify_step_identities",
    "fredholm_residual_max",
    "quadrature_panel",
    "quadrature_energy",
]


@dataclass(frozen=True, eq=False)
class ExpClosedForm:
    """Closed-form minimizer data.

    ``z`` are the (clamped) nonnegative boundary-layer weights; ``weights``
    is the raw solution y of Ntilde y = 1, related by
    z_i = y_i / (e^{sqrt(c_i) T} - 1) and kept because the evaluation in the
    overflow-free form  z_i e^{sqrt(c_i) t} = y_i e^{-sqrt(c_i)(T-t)} / (1 - e^{-sqrt(c_i) T})
    needs y, not z.  ``normalization`` rescales the sigma = gamma solution to
    unit mass; the reported multiplier is sigma = gamma * normalization.
    """

    d: float
    z: np.ndarray
    c: np.ndarray
    horizon: float
    normalization: float
    gamma: float
    weights: np.ndarray
    z_raw_min: float

    @property
    def sigma(self):
        return self.gamma * self.normalization


def _secular_sum(x, b, w, power):
    """sum_k w_k / (x - b_k)^power for power 1 or 2, on Python floats.

    The terms are added left to right, as ``np.sum`` adds fewer than eight;
    a zero denominator gives +inf, as numpy's division of a positive w does.
    """
    total = 0.0
    for bk, wk in zip(b, w):
        d = x - bk
        if power == 2:
            d *= d
        total += wk / d if d else math.inf
    return total


def secular_roots(kernel: ExponentialSum, lam) -> np.ndarray:
    """Roots of f(x) = 1 - 2*lam*sum_k a_k*sqrt(b_k)/(x - b_k) for the kernel's a, b.

    Bisection inside the guaranteed brackets (b_k, b_{k+1}) and
    (b_n, b_n + 2*lam*sum a_k sqrt(b_k)], then a Newton polish (f is strictly
    increasing between poles, so the polish cannot leave the bracket
    unnoticed -- steps outside are rejected).  Interlacing holds exactly by
    construction.  The kernel already guarantees positive a and strictly
    increasing positive b.  Returns the n roots c, ascending.  The
    arithmetic is scalar: 60 bisection steps per root cost more as numpy
    calls on n-element arrays than the sums themselves.
    """
    lam = float(lam)
    if not lam > 0:
        raise ValueError("lambda must be positive")

    b = kernel.b
    w = [2.0 * lam * ak * math.sqrt(bk) for ak, bk in zip(kernel.a, b)]
    n = len(b)
    reach = 0.0  # sum of w, left to right
    for wk in w:
        reach += wk
    roots = []
    for k in range(n):
        lo = b[k]
        hi = b[k + 1] if k + 1 < n else b[-1] + reach
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 1.0 - _secular_sum(mid, b, w, 1) < 0.0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        for _ in range(3):
            dfx = _secular_sum(x, b, w, 2)
            step = (1.0 - _secular_sum(x, b, w, 1)) / dfx if dfx else math.nan
            if not math.isfinite(step) or not lo <= x - step <= hi:
                break
            x -= step
        roots.append(x)
    return np.array(roots)


def cauchy_factors(b, c):
    """Qtilde_ij = 1/(c_j - b_i) and the positive diagonals of Qtilde^{-1} = D1 Qtilde' D2.

    D1_i = (c_i - b_i) prod_{l != i} (c_i - b_l)/(c_i - c_l) and
    D2_i = (c_i - b_i) prod_{l != i} (b_i - c_l)/(b_i - b_l); interlacing
    makes every quotient positive.  ``b`` (the rates) and ``c`` (their
    secular roots) are float arrays; returns (Qtilde, D1, D2).
    """
    n = b.size
    Qtilde = 1.0 / (c[None, :] - b[:, None])
    D1 = np.empty(n)
    D2 = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        D1[i] = (c[i] - b[i]) * np.prod((c[i] - b[mask]) / (c[i] - c[mask]))
        D2[i] = (c[i] - b[i]) * np.prod((b[i] - c[mask]) / (b[i] - b[mask]))
    return Qtilde, D1, D2


def _coth_half(x):
    """coth(x/2) = (e^x + 1)/(e^x - 1) without computing e^x."""
    emx = np.exp(-x)
    return (1.0 + emx) / (1.0 - emx)


def _spectrum(kernel: ExponentialSum, gamma):
    """lambda = 1/gamma, the kernel's a and b, and the secular roots c."""
    lam = 1.0 / gamma
    return lam, np.asarray(kernel.a), np.asarray(kernel.b), secular_roots(kernel, lam)


def build_closed_form(kernel: ExponentialSum, gamma, horizon) -> ExpClosedForm:
    """Assemble the closed-form minimizer for an exponential-sum kernel.

    Solves Ntilde y = 1 (n x n, LU with partial pivoting), converts to the
    boundary-layer weights z_i = y_i/(e^{sqrt(c_i) T} - 1), verifies z >= -1e-12
    elementwise, clamps the tiny negatives to 0, and rescales to unit mass.

    Raises IllConditionedError when cond(Ntilde) exceeds 1e13 -- theoretically
    excluded (Ntilde is provably nonsingular) but reachable in floating point
    when rates b_k nearly coincide.
    """
    if not isinstance(kernel, ExponentialSum):
        raise TypeError("closed form requires an ExponentialSum kernel")
    gamma = float(gamma)
    horizon = float(horizon)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not horizon > 0:
        raise ValueError("horizon must be positive")

    lam, a, b, c = _spectrum(kernel, gamma)
    rb, rc = np.sqrt(b), np.sqrt(c)
    n = a.size

    d = 1.0 / (1.0 + 2.0 * lam * np.sum(a / rb))

    coth = _coth_half(rc * horizon)
    Ntilde = (rb[:, None] * rc[None, :] + b[:, None] * coth[None, :]) / (
        c[None, :] - b[:, None]
    )
    cond = float(np.linalg.cond(Ntilde))
    if not np.isfinite(cond) or cond > 1e13:
        raise IllConditionedError("closed-form system ill-conditioned", cond)
    y = np.linalg.solve(Ntilde, np.ones(n))

    # z_i = y_i / (e^{sqrt(c_i) T} - 1), kept in decayed form throughout
    emT = np.exp(-rc * horizon)
    z_raw = y * emT / (1.0 - emT)
    z_raw_min = float(z_raw.min())
    if z_raw_min < -1e-12:
        raise RuntimeError(
            f"basis weight z = {z_raw_min:.3e} is negative beyond tolerance; "
            "contradicts the nonnegativity guarantee of the closed form"
        )
    clamp = z_raw < 0.0
    z = np.where(clamp, 0.0, z_raw)
    y = np.where(clamp, 0.0, y)

    # int_0^T (e^{sqrt(c) t} + e^{sqrt(c)(T-t)}) dt = 2 (e^{sqrt(c) T} - 1)/sqrt(c),
    # so the z (e^... ) terms integrate to 2 y / sqrt(c)
    mass_raw = d * (horizon + np.sum(2.0 * y / rc))
    return ExpClosedForm(
        d=float(d),
        z=z,
        c=c,
        horizon=horizon,
        normalization=1.0 / mass_raw,
        gamma=gamma,
        weights=y,
        z_raw_min=z_raw_min,
    )


def eval_closed_form(cf: ExpClosedForm, t):
    """phi(t) for t in [0, T] (scalar or ndarray); overflow-safe for large sqrt(c)*T."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > cf.horizon):
        raise ValueError("evaluation point outside [0, T]")
    rc = np.sqrt(cf.c)
    denom = -np.expm1(-rc * cf.horizon)  # 1 - e^{-sqrt(c) T}
    w = cf.weights / denom
    basis = np.exp(-rc * (cf.horizon - t_arr[..., None])) + np.exp(-rc * t_arr[..., None])
    out = cf.normalization * cf.d * (1.0 + np.sum(w * basis, axis=-1))
    return float(out) if np.ndim(t) == 0 else out


def verify_step_identities(kernel: ExponentialSum, gamma, horizon=1.0) -> dict:
    """Numerically certify the five structural identities behind the closed form.

    (i)   Qtilde * (D1 Qtilde' D2) = I                       (explicit Cauchy inverse)
    (ii)  column sums of Q = A B^{1/2} Qtilde equal 1/(2*lam) (eigenvector scaling)
    (iii) off-diagonal of N2^{-1} <= 0                       (Z-matrix property)
    (iv)  diag((N2+N3)^{-1} N2) >= 0 and Ntilde^{-1} 1 >= 0  (nonnegative weights)
    (v)   Q C Q^{-1} reconstructs M = B + 2*lam*A*B^{1/2} 11'

    Matrix inverses in (iii)-(v) go through LAPACK (np.linalg), independent of
    the explicit Cauchy formulas they certify.  Failures are reported, not
    raised.
    """
    lam, a, b, c = _spectrum(kernel, float(gamma))
    rb, rc = np.sqrt(b), np.sqrt(c)
    Qt, D1, D2 = cauchy_factors(b, c)
    n = a.size

    schechter_inv = D1[:, None] * Qt.T * D2[None, :]
    err_inverse = float(np.abs(Qt @ schechter_inv - np.eye(n)).max())

    Q = (a * rb)[:, None] * Qt
    err_colsums = float(np.abs(2.0 * lam * Q.sum(axis=0) - 1.0).max())

    N2 = Qt.T @ ((D2 / rb)[:, None] * Qt)
    off = np.linalg.inv(N2)[~np.eye(n, dtype=bool)]  # empty when n = 1
    err_zmatrix = float(np.max(off, initial=0.0))

    N3 = np.diag(_coth_half(rc * horizon) / (D1 * rc))
    U = np.linalg.solve(N2 + N3, N2)
    y = (1.0 / rc) * np.linalg.solve(N2 + N3, Qt.T @ (D2 / b))
    err_nonneg = float(max(-np.diag(U).min(), -y.min(), 0.0))

    M = np.diag(b) + 2.0 * lam * np.outer(a * rb, np.ones(n))
    M_rec = Q @ np.diag(c) @ np.linalg.inv(Q)
    err_similarity = float(np.abs(M_rec - M).max() / np.abs(M).max())

    checks = {
        "cauchy_inverse": (err_inverse, 1e-10),
        "column_sums": (err_colsums, 1e-10),
        "z_matrix": (err_zmatrix, 1e-10),
        "nonnegativity": (err_nonneg, 1e-10),
        "similarity": (err_similarity, 1e-9),
    }
    report = {
        name: {"error": err, "tol": tol, "passed": bool(err <= tol)}
        for name, (err, tol) in checks.items()
    }
    report["all_passed"] = all(v["passed"] for v in report.values())
    return report


def _phi1(x):
    """(1 - e^{-x})/x, the confluent ratio, accurate near x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 1.0)
    series = 1.0 - xs / 2.0 * (1.0 - xs / 3.0 * (1.0 - xs / 4.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = -np.expm1(-x) / np.where(small, 1.0, x)
    return np.where(small, series, exact)


def _convolution(kernel: ExponentialSum, cf: ExpClosedForm, t):
    """int_0^T G(|t-s|) phi(s) ds evaluated analytically term by term.

    For each kernel rate beta = sqrt(b_k) and basis rate kappa = sqrt(c_i),

        int_0^T e^{-beta|t-s|} e^{-kappa s} ds
            = t e^{-min(beta,kappa) t} phi1(|beta - kappa| t)
              + (e^{-kappa t} - e^{-beta (T-t)} e^{-kappa T})/(beta + kappa),

    and the mirrored basis term is the same expression at T - t.  The first
    summand is (e^{-kappa t} - e^{-beta t})/(beta - kappa) written so the
    phi1 argument is nonnegative (overflow-free) and the difference stays
    accurate when beta is close to kappa.
    """
    t = np.asarray(t, dtype=float)
    T = cf.horizon
    a = np.asarray(kernel.a)
    beta = np.sqrt(np.asarray(kernel.b))
    kappa = np.sqrt(cf.c)
    w = cf.weights / (-np.expm1(-kappa * T))

    # contribution of the constant part d of phi
    const = np.sum(a * (2.0 - np.exp(-beta * t[..., None]) - np.exp(-beta * (T - t[..., None]))) / beta, axis=-1)

    def w1(tv):
        # tv shape (..., 1) broadcast against beta (k-axis) and kappa (i-axis)
        tb = tv[..., None, None]
        rate_min = np.minimum(beta[:, None], kappa[None, :])
        near = tb * np.exp(-rate_min * tb) * _phi1(np.abs(beta[:, None] - kappa[None, :]) * tb)
        far = (np.exp(-kappa[None, :] * tb) - np.exp(-beta[:, None] * (T - tb)) * np.exp(-kappa[None, :] * T)) / (
            beta[:, None] + kappa[None, :]
        )
        return near + far

    pair = w1(t) + w1(T - t)  # shape (..., k, i)
    basis = np.sum(a[:, None] * w * pair, axis=(-2, -1))
    return cf.normalization * cf.d * (const + basis)


def fredholm_residual_max(kernel: ExponentialSum, cf: ExpClosedForm, samples=200):
    """max_t |gamma phi(t) + int G(|t-s|) phi(s) ds - sigma| over a sample grid."""
    t = np.linspace(0.0, cf.horizon, samples)
    phi = eval_closed_form(cf, t)
    resid = cf.gamma * phi + _convolution(kernel, cf, t) - cf.sigma
    return float(np.max(np.abs(resid)))


def quadrature_panel(kernel: ExponentialSum, cf: ExpClosedForm):
    """Longest Gauss panel on [0, T] that resolves the fastest boundary layer e^{-sqrt(c) t}."""
    return min(cf.horizon / 16.0, 4.0 / math.sqrt(max(cf.c.max(), max(kernel.b))))


def quadrature_energy(kernel: ExponentialSum, cf: ExpClosedForm):
    """J_gamma[phi] = int phi (gamma phi + G * phi) / 2 by Gauss-Legendre quadrature.

    Independent of sigma = 2 J: the double integral is folded once,
    iint G phi phi = int phi(t) (G*phi)(t) dt, with the inner convolution
    analytic, so one quadrature layer remains and phi is evaluated once per node.
    """

    def integrand(ts):
        phi = eval_closed_form(cf, ts)
        return phi * (cf.gamma * phi + _convolution(kernel, cf, ts))

    return 0.5 * panel_gauss(integrand, 0.0, cf.horizon, max_panel=quadrature_panel(kernel, cf))
