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

from ._quad import EvenCheck, even_check, graded_edges
from ._quad import panel_gauss  # noqa: F401  the benchmark's span recorder wraps this name
from .errors import IllConditionedError
from .kernels import ExponentialSum, _like, _points, _positive_finite

__all__ = [
    "ExpClosedForm",
    "secular_roots",
    "cauchy_factors",
    "build_closed_form",
    "eval_closed_form",
    "verify_step_identities",
    "closed_form_check",
    "fredholm_residual_max",
    "quadrature_edges",
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


_EPS = 2.0**-52


def _pole_offset(b, w, o, far):
    """tau = c - b_o for the root c of f(x) = 1 - sum_k w_k/(x - b_k) between b_o and b_o + far.

    Newton steps on h(tau) = tau f(b_o + tau) = tau g(tau) - w_o, where
    g = 1 - sum_{k != o} w_k/(tau + b_o - b_k) no longer has the pole at
    b_o, start from the pole itself, tau = 0, where h = -w_o < 0; h >= 0 at
    ``far``.  A step that leaves the bracket of the last two signs of h
    bisects it instead.  Near the pole h is about tau g - w_o, so tau comes
    out to a few ulps however close c is to b_o (Bunch, Nielsen & Sorensen
    1978; R.-C. Li 1994).  For one term, g = 1: the first step lands on
    tau = w_o exactly.
    """
    w_o = w[o]
    rest = [(b[o] - bk, wk) for k, (bk, wk) in enumerate(zip(b, w)) if k != o]
    neg, pos = 0.0, far  # h(neg) < 0 <= h(pos)
    tau = 0.0
    for _ in range(64):
        g, dg = 1.0, 0.0
        for dk, wk in rest:
            d = tau + dk  # the bracket holds no other pole, so d is not 0
            g -= wk / d
            dg += wk / d / d
        h = tau * g - w_o
        if h == 0.0:
            return tau
        if h < 0.0:
            neg = tau
        else:
            pos = tau
        dh = g + tau * dg
        new = tau - h / dh if dh else math.nan
        if not min(neg, pos) <= new <= max(neg, pos):  # also a step of nan
            new = 0.5 * (neg + pos)
        if abs(new - tau) <= 4.0 * _EPS * abs(new):
            return new
        tau = new
    return tau


def secular_roots(kernel: ExponentialSum, lam) -> np.ndarray:
    """Roots of f(x) = 1 - 2*lam*sum_k a_k*sqrt(b_k)/(x - b_k) for the kernel's a, b.

    One root lies in each bracket (b_k, b_{k+1}) and one in
    (b_n, b_n + 2*lam*sum a_k sqrt(b_k)]: f increases from -inf to +inf
    between poles.  The sign of f at a bracket's midpoint names the nearer
    pole, and :func:`_pole_offset` finds the root's offset from it, so a
    root that hugs its pole keeps its digits.  Interlacing holds by
    construction.  The kernel already guarantees positive a and strictly
    increasing positive b.  Returns the n roots c, ascending.  The
    arithmetic is scalar: a few Newton steps on n-term sums cost more as
    numpy calls on n-element arrays than the sums themselves.
    """
    lam = _positive_finite(lam, "lambda")
    b = kernel.b
    w = [2.0 * lam * ak * math.sqrt(bk) for ak, bk in zip(kernel.a, b)]
    n = len(b)
    roots = []
    for k in range(n):
        if k + 1 < n:
            half = 0.5 * (b[k + 1] - b[k])  # f at b_k + half from offsets: that sum may round onto a pole
            if half > 0.0 and 1.0 - sum(wj / (half + (b[k] - bj)) for bj, wj in zip(b, w)) >= 0.0:
                o, far = k, half
            else:
                o, far = k + 1, -half
        else:
            o, far = k, math.fsum(w)
        roots.append(b[o] + _pole_offset(b, w, o, far))
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
    """coth(x/2) = (e^x + 1)/(e^x - 1) without computing e^x; expm1 keeps it finite as x -> 0."""
    return (1.0 + np.exp(-x)) / -np.expm1(-x)


def _system(kernel: ExponentialSum, gamma, horizon):
    """gamma and T as floats, lambda = 1/gamma, the kernel's a and b, d, the roots c and Ntilde.

    The closed form and its certificates check their arguments here, so
    both refuse the same problems: a kernel that is not an ExponentialSum
    raises TypeError, gamma and T go through the package's number rule,
    and a d that underflows to 0 or an Ntilde with a non-finite entry
    raises RuntimeError.  Callers run it with numpy's warnings off."""
    if not isinstance(kernel, ExponentialSum):
        raise TypeError("closed form requires an ExponentialSum kernel")
    gamma = _positive_finite(gamma, "gamma")
    horizon = _positive_finite(horizon, "horizon")
    lam, (a, b, rb) = 1.0 / gamma, kernel._arrays
    d = 1.0 / (1.0 + 2.0 * lam * np.sum(a / rb))
    # checked before the roots: where 1/gamma overflows, d is 0 and secular_roots would refuse lambda = inf
    if not d > 0:  # phi = sigma d (...) would be inf * 0 everywhere
        raise RuntimeError(
            "closed-form constant d = 1/(1 + (2/gamma) sum a/sqrt(b)) underflows to 0: "
            "the kernel's weight a/sqrt(b) is too large against gamma"
        )
    c = secular_roots(kernel, lam)
    rc = np.sqrt(c)
    coth = _coth_half(rc * horizon)  # sqrt(c) T = inf has the right limits
    Ntilde = (rb[:, None] * rc[None, :] + b[:, None] * coth[None, :]) / (
        c[None, :] - b[:, None]
    )
    if not np.isfinite(Ntilde).all():  # checked before LAPACK, which prints to stdout on inf
        on_pole = (c[None, :] == b[:, None]).any()
        raise RuntimeError(
            "closed-form system has non-finite entries: "
            + ("a secular root rounds onto its pole" if on_pole
               else "sqrt(c) T underflows to 0 or a product overflows")
        )
    return gamma, horizon, lam, a, b, d, c, Ntilde


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def build_closed_form(kernel: ExponentialSum, gamma, horizon) -> ExpClosedForm:
    """Assemble the closed-form minimizer for an exponential-sum kernel.

    Solves Ntilde y = 1 (n x n, LU with partial pivoting), converts to the
    boundary-layer weights z_i = y_i/(e^{sqrt(c_i) T} - 1), verifies z >= -1e-12
    elementwise, clamps the tiny negatives to 0, and rescales to unit mass.

    Raises IllConditionedError when cond(Ntilde) exceeds 1e13 -- theoretically
    excluded (Ntilde is provably nonsingular) but reachable in floating point
    when rates b_k nearly coincide -- and RuntimeError when the constant
    d = 1/(1 + (2/gamma) sum a/sqrt(b)) underflows to 0, or when Ntilde has a
    non-finite entry, as when a secular root rounds onto its pole.  The
    arithmetic runs with numpy's warnings off, so the refusal speaks alone.
    """
    gamma, horizon, _, a, _, d, c, Ntilde = _system(kernel, gamma, horizon)
    n = a.size
    rc = np.sqrt(c)
    rcT = rc * horizon
    cond = float(np.linalg.cond(Ntilde))
    if not np.isfinite(cond) or cond > 1e13:
        raise IllConditionedError("closed-form system ill-conditioned", cond)
    y = np.linalg.solve(Ntilde, np.ones(n))

    # z_i = y_i / (e^{sqrt(c_i) T} - 1), kept in decayed form throughout
    z_raw = y * np.exp(-rcT) / -np.expm1(-rcT)
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
    t = _points(t, "evaluation point outside [0, T]", hi=cf.horizon)
    rc = np.sqrt(cf.c)
    denom = -np.expm1(-rc * cf.horizon)  # 1 - e^{-sqrt(c) T}
    w = cf.weights / denom
    basis = np.exp(-rc * (cf.horizon - t[..., None])) + np.exp(-rc * t[..., None])
    return _like(cf.normalization * cf.d * (1.0 + np.sum(w * basis, axis=-1)), t)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def verify_step_identities(kernel: ExponentialSum, gamma, horizon) -> dict:
    """Numerically certify the five structural identities behind the closed form.

    (i)   Qtilde * (D1 Qtilde' D2) = I                       (explicit Cauchy inverse)
    (ii)  column sums of Q = A B^{1/2} Qtilde equal 1/(2*lam) (eigenvector scaling)
    (iii) off-diagonal of N2^{-1} <= 0                       (Z-matrix property)
    (iv)  diag((N2+N3)^{-1} N2) >= 0 and Ntilde^{-1} 1 >= 0  (nonnegative weights)
    (v)   Q C Q^{-1} reconstructs M = B + 2*lam*A*B^{1/2} 11'

    Matrix inverses in (iii)-(v) go through LAPACK (np.linalg), independent of
    the explicit Cauchy formulas they certify.  Failures are reported, not
    raised.  The arguments are checked, and a zero d or a non-finite Ntilde
    refused, as :func:`build_closed_form` does, with numpy's warnings off.
    """
    _, horizon, lam, a, b, _, c, _ = _system(kernel, gamma, horizon)
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
    """(1 - e^{-x})/x for x >= 0, with its limit 1 at x = 0; expm1 keeps it exact near 0."""
    with np.errstate(invalid="ignore"):
        return np.where(x > 0.0, -np.expm1(-x) / x, 1.0)


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
    T = cf.horizon
    a, _, beta = kernel._arrays
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


def quadrature_edges(cf: ExpClosedForm):
    """Gauss panel edges on [0, T] graded toward e^{-sqrt(c_n) t}, the fastest layer (c_n > b_n)."""
    return graded_edges(0.0, cf.horizon, math.sqrt(cf.c.max()))


def closed_form_check(kernel: ExponentialSum, cf: ExpClosedForm) -> EvenCheck:
    """Mass, energy and residual of the closed form from one pass over [0, T/2].

    phi and the analytic convolution are evaluated once, at the Gauss nodes
    and edges of :func:`quadrature_edges` up to T/2 (:func:`_quad.even_check`).
    The energy is independent of sigma = 2 J: the double integral is folded
    once, iint G phi phi = int phi(t) (G*phi)(t) dt.  Both phi and G*phi are
    even, so the half meets no node near t = T, where T - t would carry the
    rounding of t into the layer e^{-sqrt(c) (T - t)}.
    """
    edges = quadrature_edges(cf)
    return even_check(lambda s: (eval_closed_form(cf, s), _convolution(kernel, cf, s)),
                      cf.gamma, cf.sigma, edges[edges <= 0.5 * cf.horizon])


def fredholm_residual_max(kernel: ExponentialSum, cf: ExpClosedForm):
    """max_t |gamma phi(t) + int G(|t-s|) phi(s) ds - sigma| at the points of :func:`closed_form_check`."""
    return closed_form_check(kernel, cf).residual_max


def quadrature_energy(kernel: ExponentialSum, cf: ExpClosedForm):
    """J_gamma[phi] = int phi (gamma phi + G * phi) / 2 by the Gauss pass of :func:`closed_form_check`."""
    return closed_form_check(kernel, cf).energy
