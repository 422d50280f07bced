"""Closed-form minimizers for two non-smooth/oscillatory kernel families.

Capped linear, G(t) = (1 - t)^+, integer horizon T = n: on each unit
segment the integral equation collapses to a linear ODE system driven by
the tridiagonal (2, -1) matrix, so phi restricted to segment i is a
combination of e^{+-b_j s} with b_j = sqrt(lambda_j / gamma) and
lambda_j = 2(1 - cos(j pi/(n+1))).  The segment functions are glued by a
single n x n solve; continuity at the integer junctions is not imposed but
*emerges*, which makes the junction gap a sharp self-check of the
implementation (and of the sign conventions in J and K).

Trigonometric, G(t) = cos(rho t): the minimizer is an explicit cosine
expression.  It is of positive type but not monotone, and for small gamma
the minimizer dips below zero -- the standing counterexample that positive
type alone does not buy nonnegative solutions.

Both solvers normalize to unit mass and report sigma (= 2 J_gamma).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_panels, panel_gauss

__all__ = [
    "CappedLinearSolution",
    "TrigSolution",
    "capped_linear_solve",
    "eval_capped_linear",
    "capped_linear_residual_max",
    "capped_linear_energy",
    "trig_solve",
    "eval_trig",
    "trig_residual_max",
    "trig_energy",
]


@dataclass(frozen=True, eq=False)
class CappedLinearSolution:
    """Closed form on [0, n] for the unit-cap linear kernel.

    ``a_vec`` is the solved coefficient vector (the x0 of the derivation,
    rescaled to unit mass), ``Q`` the sine eigenvector matrix
    Q_ij = sin(ij pi/(n+1)), and ``junction_gap`` the largest observed
    mismatch |phi(i-) - phi(i+)| at the interior integer points.
    """

    n: int
    gamma: float
    sigma: float
    a_vec: np.ndarray
    lambda_vec: np.ndarray
    b_vec: np.ndarray
    Q: np.ndarray
    junction_gap: float

    @property
    def horizon(self):
        return float(self.n)


@dataclass(frozen=True)
class TrigSolution:
    """phi(t) = (sigma/gamma) (1 - beta (cos(rho t) + cos(rho (T-t)))).

    ``base`` and ``swing`` hold the same curve in the form
    phi(t) = base + swing sin^2(rho (t - T/2) / 2), which does not cancel
    when beta (cos(rho t) + cos(rho (T-t))) is close to 1.
    """

    rho: float
    gamma: float
    horizon: float
    sigma: float
    beta: float
    base: float
    swing: float


def _alternating(n):
    return (-1.0) ** (np.arange(1, n + 1) + 1)


def capped_linear_solve(n, gamma) -> CappedLinearSolution:
    """Solve the capped-linear problem on [0, n] with unit cap.

    Builds the n x n junction system

        (gamma Q (E(1) + J) + K Q ((E(1)-I)(J-I) + B(E(1)-J)) B^{-2}) x0 = sigma 1

    with sigma = 1 provisionally, then rescales (a, sigma) jointly so the
    mass 1' Q diag(expm1(b)/b) (I + J) a equals one.  K adds row n-i to
    row i for i < n (the two segments adjacent to junction i), doubling the
    central diagonal entry when n is even.
    """
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
        raise ValueError("capped-linear closed form needs a positive integer horizon")
    n = int(n)
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")

    i = np.arange(1, n + 1)
    lam = 2.0 * (1.0 - np.cos(i * np.pi / (n + 1)))
    b = np.sqrt(lam / gamma)
    if b.max() > 700.0:
        raise ValueError(
            "gamma too small for the closed form: exp(sqrt(lambda_max/gamma)) overflows"
        )
    Q = np.sin(np.outer(i, i) * np.pi / (n + 1))
    Jd = _alternating(n)
    E1 = np.exp(b)

    inner = ((E1 - 1.0) * (Jd - 1.0) + b * (E1 - Jd)) / b**2
    K = np.eye(n)
    for row in range(1, n):  # 1-based junction i pairs segments i and n-i
        K[row - 1, n - row - 1] += 1.0
    S = gamma * (Q * (E1 + Jd)[None, :]) + K @ (Q * inner[None, :])
    x0 = np.linalg.solve(S, np.ones(n))

    mass = float(np.ones(n) @ (Q * (np.expm1(b) / b * (1.0 + Jd))[None, :]) @ x0)
    a = x0 / mass
    sigma = 1.0 / mass

    # continuity at the interior junctions is implied, not imposed: measure it
    end_vals = Q @ ((E1 + Jd) * a)        # phi_i(1)
    start_vals = Q @ ((1.0 + Jd * E1) * a)  # phi_i(0)
    gap = float(np.max(np.abs(end_vals[:-1] - start_vals[1:]))) if n > 1 else 0.0

    return CappedLinearSolution(
        n=n,
        gamma=gamma,
        sigma=sigma,
        a_vec=a,
        lambda_vec=lam,
        b_vec=b,
        Q=Q,
        junction_gap=gap,
    )


def eval_capped_linear(sol: CappedLinearSolution, t):
    """phi(t) for t in [0, n]: segment i = min(floor(t)+1, n), local clock s = t-(i-1)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > sol.n):
        raise ValueError("evaluation point outside [0, n]")
    idx = np.minimum(np.floor(t_arr).astype(int), sol.n - 1)
    s = t_arr - idx
    Jd = _alternating(sol.n)
    basis = np.exp(np.multiply.outer(s, sol.b_vec)) + Jd * np.exp(
        np.multiply.outer(1.0 - s, sol.b_vec)
    )
    out = np.einsum("...j,...j->...", sol.Q[idx], basis * sol.a_vec)
    return float(out) if np.ndim(t) == 0 else out


# evaluation points x basis terms per eval_capped_linear call in the
# verification quadrature: keeps its (points, n) temporaries small at any n
_BUDGET = 1 << 13


def panels_per_unit(sol: CappedLinearSolution, limit):
    """Equal panels per unit segment for verification quadrature of phi.

    Panels are at most ``limit`` long and short enough that the steepest
    boundary layer exp(-b_max s) decays by at most e^10 across one panel.
    """
    return max(math.ceil(1.0 / limit), math.ceil(float(sol.b_vec.max()) / 10.0))


def _blocks(sol, rows):
    """Row slices of ``rows`` x 24 Gauss nodes with at most _BUDGET basis terms each."""
    step = max(1, _BUDGET // (24 * sol.n))
    return (slice(i, i + step) for i in range(0, rows, step))


def _moments(sol, lo, hi):
    """Gauss sums of phi(s) and s phi(s) over each panel [lo_i, hi_i]: shape (2, panels)."""
    out = np.empty((2, lo.size))
    for rows in _blocks(sol, lo.size):
        x, w = gauss_panels(lo[rows], hi[rows])
        wphi = w * eval_capped_linear(sol, x)
        out[:, rows] = wphi.sum(axis=1), (wphi * x).sum(axis=1)
    return out


def _capped_convolution(sol: CappedLinearSolution, t):
    """(G * phi)(t) = int_0^n (1 - |t-s|)^+ phi(s) ds, vectorized over t.

    G is linear on either side of s = t, so the convolution needs only the
    prefix moments P0(x) = int_0^x phi and P1(x) = int_0^x s phi(s) ds at
    t-1, t and t+1 (clipped to [0, n]):

        (1-t)[P0(t)-P0(t-1)] + [P1(t)-P1(t-1)] + (1+t)[P0(t+1)-P0(t)] - [P1(t+1)-P1(t)].

    A prefix moment is a cumulative Gauss sum over fixed panels that never
    straddle an integer, plus one Gauss rule on the partial panel up to x.
    """
    t = np.asarray(t, dtype=float)
    k = panels_per_unit(sol, 0.25)
    edges = np.arange(sol.n * k + 1) / k  # integers fall exactly on edges
    prefix = np.cumsum(_moments(sol, edges[:-1], edges[1:]), axis=1)
    prefix = np.concatenate((np.zeros((2, 1)), prefix), axis=1)
    x = np.clip(t[..., None] + np.array([-1.0, 0.0, 1.0]), 0.0, float(sol.n))
    panel = np.minimum((x * k).astype(int), sol.n * k - 1)
    partial = _moments(sol, edges[panel].ravel(), x.ravel()).reshape((2,) + x.shape)
    d0, d1 = np.diff(prefix[:, panel] + partial, axis=-1)
    return (1.0 - t) * d0[..., 0] + d1[..., 0] + (1.0 + t) * d0[..., 1] - d1[..., 1]


def capped_linear_residual_max(sol: CappedLinearSolution, samples=500):
    """max_t |gamma phi(t) + (G * phi)(t) - sigma| on an inclusive sample grid."""
    ts = np.linspace(0.0, float(sol.n), samples)
    resid = sol.gamma * eval_capped_linear(sol, ts) + _capped_convolution(sol, ts) - sol.sigma
    return float(np.max(np.abs(resid)))


def capped_linear_energy(sol: CappedLinearSolution):
    """J_gamma[phi] by quadrature, independent of the sigma = 2 J identity."""
    k = panels_per_unit(sol, 0.5)
    edges = np.arange(sol.n * k + 1) / k
    x, w = gauss_panels(edges[:-1], edges[1:])
    phi = np.concatenate([eval_capped_linear(sol, x[rows]) for rows in _blocks(sol, len(x))])
    wphi = w * phi
    return 0.5 * sol.gamma * float(np.sum(wphi * phi)) + 0.5 * float(
        np.sum(wphi * _capped_convolution(sol, x))
    )


def _trig_defects(x):
    """g = 2x + sin 2x - 4 sin x and h = (2x)^2 + 2x sin 2x - 8 sin^2 x.

    Both vanish to high order at x = 0 (g ~ -2x^3/3, h ~ (2x)^6/360), so
    for x <= 3/2 they are summed from their Taylor series
    g = sum_{k>=1} (-1)^k (2^(2k+1) - 4) x^(2k+1) / (2k+1)!  and
    h = sum_{n>=3} (-1)^(n-1) (2n - 4) (2x)^(2n) / (2n)!;
    the first omitted terms are below 1e-17 relative there.
    """
    if x > 1.5:
        return (2.0 * x + math.sin(2.0 * x) - 4.0 * math.sin(x),
                4.0 * x * x + 2.0 * x * math.sin(2.0 * x) - 8.0 * math.sin(x) ** 2)
    g = math.fsum((-1) ** k * (2.0 ** (2 * k + 1) - 4.0) * x ** (2 * k + 1)
                  / math.factorial(2 * k + 1) for k in range(1, 17))
    h = math.fsum((-1) ** (n - 1) * (2 * n - 4) * (2.0 * x) ** (2 * n)
                  / math.factorial(2 * n) for n in range(3, 19))
    return g, h


def trig_solve(rho, gamma, horizon) -> TrigSolution:
    """Closed form for G(t) = cos(rho t); fails near the tan singularity.

    beta = 2 tan(x) / D with x = rho T/2 and D = rho (2 gamma + T) + sin(rho T),
    then sigma is fixed by unit mass through the analytic integral of the
    cosine terms.  With cos(rho t) + cos(rho (T-t)) = 2 cos(x) cos(rho (t-T/2))
    and the half-angle form of 1 - cos, the curve and the mass become

        phi(t) = rho (2 rho gamma + g + 8 sin(x) sin^2(rho (t-T/2)/2)) / N,
        sigma = gamma rho D / N,  N = 2 rho^2 gamma T + h,

    with g and h from :func:`_trig_defects`: nothing cancels as rho T -> 0.
    """
    rho = float(rho)
    gamma = float(gamma)
    horizon = float(horizon)
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not horizon > 0:
        raise ValueError("horizon must be positive")

    x = 0.5 * rho * horizon
    nearest_pole = 0.5 * math.pi + math.pi * round((x - 0.5 * math.pi) / math.pi)
    if abs(x - nearest_pole) <= 1e-8 * max(1.0, abs(x)):
        raise ValueError("trig solution singular at rho*T/2 ~ pi/2 + k*pi")

    d = rho * (2.0 * gamma + horizon) + math.sin(rho * horizon)
    g, h = _trig_defects(x)
    n = 2.0 * rho * rho * gamma * horizon + h
    return TrigSolution(
        rho=rho,
        gamma=gamma,
        horizon=horizon,
        sigma=gamma * rho * d / n,
        beta=2.0 * math.tan(x) / d,
        base=rho * (2.0 * rho * gamma + g) / n,
        swing=8.0 * rho * math.sin(x) / n,
    )


def eval_trig(sol: TrigSolution, t):
    """phi(t) = (sigma/gamma)(1 - beta (cos(rho t) + cos(rho (T - t)))), as base + swing sin^2."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > sol.horizon):
        raise ValueError("evaluation point outside [0, T]")
    out = sol.base + sol.swing * np.sin(0.5 * sol.rho * (t_arr - 0.5 * sol.horizon)) ** 2
    return float(out) if np.ndim(t) == 0 else out


def _trig_moments(sol: TrigSolution):
    """Mc = int cos(rho s) phi(s) ds and Ms = int sin(rho s) phi(s) ds by quadrature."""
    mp = min(sol.horizon / 8.0, 1.0 / sol.rho)
    Mc = panel_gauss(
        lambda s: np.cos(sol.rho * s) * eval_trig(sol, s), 0.0, sol.horizon, max_panel=mp
    )
    Ms = panel_gauss(
        lambda s: np.sin(sol.rho * s) * eval_trig(sol, s), 0.0, sol.horizon, max_panel=mp
    )
    return Mc, Ms


def trig_residual_max(sol: TrigSolution, samples=500):
    """Residual of the integral equation; the convolution folds to two moments.

    cos(rho(t-s)) = cos(rho t)cos(rho s) + sin(rho t)sin(rho s), so
    (G * phi)(t) = Mc cos(rho t) + Ms sin(rho t) with the moments computed
    by quadrature (independent of the closed-form derivation).
    """
    Mc, Ms = _trig_moments(sol)
    ts = np.linspace(0.0, sol.horizon, samples)
    conv = Mc * np.cos(sol.rho * ts) + Ms * np.sin(sol.rho * ts)
    resid = sol.gamma * eval_trig(sol, ts) + conv - sol.sigma
    return float(np.max(np.abs(resid)))


def trig_energy(sol: TrigSolution):
    """J_gamma[phi] via iint cos(rho(t-s)) phi phi = Mc^2 + Ms^2."""
    Mc, Ms = _trig_moments(sol)
    mp = min(sol.horizon / 8.0, 1.0 / sol.rho)
    quad_sq = panel_gauss(lambda s: eval_trig(sol, s) ** 2, 0.0, sol.horizon, max_panel=mp)
    return 0.5 * sol.gamma * quad_sq + 0.5 * (Mc**2 + Ms**2)
