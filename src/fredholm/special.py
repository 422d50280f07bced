"""Closed-form minimizers for two non-smooth/oscillatory kernel families.

Capped linear, G(t) = (1 - t)^+, integer horizon T = n: on each unit
segment the integral equation collapses to a linear ODE system driven by
the tridiagonal (2, -1) matrix, so phi restricted to segment i is a
combination of e^{+-b_j s} with b_j = sqrt(lambda_j / gamma) and
lambda_j = 2(1 - cos(j pi/(n+1))), written in the decayed form
e^{-b_j (1-s)} and e^{-b_j s} so that nothing overflows at any gamma > 0.
The segment functions are glued by a single n x n solve; continuity at the
integer junctions is not imposed but *emerges*, which makes the junction
gap a sharp self-check of the implementation (and of the sign conventions
in J and K).  The residual check integrates that basis against the kernel
exactly; only the energy check's outer integral is Gauss quadrature.

Trigonometric, G(t) = cos(rho t): the minimizer is an explicit cosine
expression.  It is of positive type but not monotone, and for small gamma
the minimizer dips below zero -- the standing counterexample that positive
type alone does not buy nonnegative solutions.

Both solvers normalize to unit mass and report sigma (= 2 J_gamma).  Both
minimizers are even about T/2, so each route checks its mass, energy and
residual in one pass over [0, T/2] (:func:`_quad.even_check`).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import EvenCheck, even_check, graded_edges, panel_edges, panel_gauss
from .kernels import _em1p, _like, _points, _positive_finite, _positive_int

__all__ = [
    "CappedLinearSolution",
    "TrigSolution",
    "capped_linear_solve",
    "eval_capped_linear",
    "capped_linear_check",
    "capped_linear_residual_max",
    "capped_linear_energy",
    "trig_solve",
    "eval_trig",
    "trig_check",
    "trig_residual_max",
    "trig_energy",
    "trig_panel",
    "MAX_TRIG_PANELS",
]


@dataclass(frozen=True, eq=False)
class CappedLinearSolution:
    """Closed form on [0, n] for the unit-cap linear kernel.

    ``a_vec`` is the solved coefficient vector (the x0 of the derivation,
    rescaled to unit mass) of the decayed basis e^{-b(1-s)} + J e^{-bs},
    ``Q`` the sine eigenvector matrix Q_ij = sin(ij pi/(n+1)), and
    ``junction_gap`` the largest observed mismatch |phi(i-) - phi(i+)| at
    the interior integer points.
    """

    n: int
    gamma: float
    sigma: float
    a_vec: np.ndarray
    lambda_vec: np.ndarray
    b_vec: np.ndarray
    Q: np.ndarray
    junction_gap: float


@dataclass(frozen=True)
class TrigSolution:
    """phi(t) = base + swing sin^2(rho (t - T/2) / 2).

    This is the classical (sigma/gamma) (1 - beta (cos(rho t) + cos(rho (T-t))))
    with beta = 2 tan(rho T/2) / D, written without beta: it does not cancel
    when beta (cos(rho t) + cos(rho (T-t))) is close to 1, and it stays
    finite at rho T/2 = pi/2 + k pi, where only beta diverges.
    """

    rho: float
    gamma: float
    horizon: float
    sigma: float
    base: float
    swing: float


def _alternating(n):
    return (-1.0) ** (np.arange(1, n + 1) + 1)


def capped_linear_solve(n, gamma) -> CappedLinearSolution:
    """Solve the capped-linear problem on [0, n] with unit cap.

    In the growing basis e^{bs} + J e^{b(1-s)} the n x n junction system is

        (gamma Q (E(1) + J) + K Q ((E(1)-I)(J-I) + B(E(1)-J)) B^{-2}) x0 = sigma 1

    with sigma = 1 provisionally.  Scaling each coefficient by E(1) = e^{b}
    gives the decayed basis e^{-b(1-s)} + J e^{-bs}, in which the columns
    are gamma (1 + J e^{-b}) and (-expm1(-b)(J-1) + b(1 - J e^{-b}))/b^2:
    nothing overflows however large b = sqrt(lambda/gamma) is.  Then
    (a, sigma) are rescaled jointly so the mass
    1' Q diag(-expm1(-b)/b) (I + J) a equals one.  K adds row n-i to row i
    for i < n (the two segments adjacent to junction i), doubling the
    central diagonal entry when n is even.

    Raises ValueError when gamma is too small for the solution to be
    verified (b_max above 40,960), before anything is solved: the junction
    system loses its digits long before it becomes singular.
    """
    n = _positive_int(n, "horizon")
    gamma = _positive_finite(gamma, "gamma")

    i = np.arange(1, n + 1)
    lam = 2.0 * (1.0 - np.cos(i * np.pi / (n + 1)))
    # the junction system loses digits as b_max grows (its continuity gap is 4.4e-9 at
    # b_max 40,320 for n = 3): cap b_max, squared so that no gamma overflows lam / gamma
    if not lam[-1] <= gamma * 40960.0**2:
        raise ValueError(
            "gamma too small to verify the closed form: the junction system loses its "
            "digits once the boundary-layer rate sqrt(lambda_max/gamma) exceeds 40960"
        )
    b = np.sqrt(lam / gamma)
    Q = np.sin(np.outer(i, i) * np.pi / (n + 1))
    Jd = _alternating(n)
    decay = np.exp(-b)
    rise = -np.expm1(-b)  # 1 - e^{-b}

    inner = (rise * (Jd - 1.0) + b * (1.0 - Jd * decay)) / b**2
    K = np.eye(n)
    for row in range(1, n):  # 1-based junction i pairs segments i and n-i
        K[row - 1, n - row - 1] += 1.0
    S = gamma * (Q * (1.0 + Jd * decay)[None, :]) + K @ (Q * inner[None, :])
    x0 = np.linalg.solve(S, np.ones(n))

    mass = float(np.ones(n) @ (Q * (rise / b * (1.0 + Jd))[None, :]) @ x0)
    a = x0 / mass
    sigma = 1.0 / mass

    # continuity at the interior junctions is implied, not imposed: measure it
    end_vals = Q @ ((1.0 + Jd * decay) * a)  # phi_i(1)
    start_vals = Q @ ((decay + Jd) * a)      # phi_i(0)
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
    t = _points(t, "evaluation point outside [0, n]", hi=sol.n)
    idx = np.minimum(np.floor(t).astype(int), sol.n - 1)
    s = t - idx
    Jd = _alternating(sol.n)
    basis = np.exp(-np.multiply.outer(1.0 - s, sol.b_vec)) + Jd * np.exp(
        -np.multiply.outer(s, sol.b_vec)
    )
    return _like(np.einsum("...j,...j->...", sol.Q[idx], basis * sol.a_vec), t)


# evaluation points x basis terms per block of the check pass
_BUDGET = 1 << 13


def capped_linear_edges(sol: CappedLinearSolution):
    """Gauss panel edges on [0, n], graded toward the layers e^{-b_max s} at every integer."""
    return graded_edges(0.0, sol.n, float(sol.b_vec.max()), range(1, sol.n))


def _blocks(sol, points):
    """Slices of ``points`` evaluation points with at most _BUDGET basis terms each."""
    step = max(1, _BUDGET // sol.n)
    return (slice(i, i + step) for i in range(0, points, step))


def _head_moments(sol, r):
    """int_0^r u^p (e^{-b(1-u)} + J e^{-bu}) du per basis term, p = 0 and 1: (2, ..., n).

    With x = b r these are -expm1(-x) (e^{-b(1-r)} + J) / b and
    (e^{-b(1-r)} em1p(x) - J (em1p(x) + x expm1(-x))) / b^2: no exponent is positive.
    """
    b, Jd = sol.b_vec, _alternating(sol.n)
    x = np.multiply.outer(r, b)
    late = np.exp(-np.multiply.outer(1.0 - r, b))
    rise, em1p = -np.expm1(-x), _em1p(x)
    return np.stack((rise * (late + Jd) / b, (late * em1p - Jd * (em1p - x * rise)) / b**2))


def _capped_convolution(sol: CappedLinearSolution, t):
    """(G * phi)(t) = int_0^n (1 - |t-s|)^+ phi(s) ds in closed form, vectorized over t.

    With t = k + r, the window [t-1, t+1] meets segment k-1 on [r, 1], segment
    k whole and segment k+1 on [0, r] (segments outside [0, n) are empty).
    On the local clock u the weights are u - r, 1 - |u - r| and r - u, so with
    whole-segment moments W_p = int_0^1 u^p phi_i and g_i = int_0^r (r - u) phi_i

        (G * phi)(t) = (W1 - r W0)_{k-1} + ((1 + r) W0 - W1)_k + g_{k-1} - 2 g_k + g_{k+1}.

    Each term is bounded by one segment's moments: round-off does not grow with n.
    """
    k, r = np.divmod(t, 1.0)
    seg = k.astype(int)[..., None] + np.array([-1, 0, 1])
    rows = sol.Q[np.clip(seg, 0, sol.n - 1)] * ((seg >= 0) & (seg < sol.n))[..., None]
    h0, h1 = np.einsum("...dj,p...j->p...d", rows, sol.a_vec * _head_moments(sol, r))
    w0, w1 = np.einsum("...dj,pj->p...d", rows, sol.a_vec * _head_moments(sol, 1.0))
    g = r[..., None] * h0 - h1
    return (w1[..., 0] - r * w0[..., 0] + (1.0 + r) * w0[..., 1] - w1[..., 1]
            + g[..., 0] - 2.0 * g[..., 1] + g[..., 2])


def capped_linear_check(sol: CappedLinearSolution) -> EvenCheck:
    """Mass, energy and residual from one pass on the panels of :func:`capped_linear_edges` up to n/2.

    n/2 is one of those edges.  phi and G * phi are evaluated once per Gauss
    node and edge (:func:`_quad.even_check`), in blocks of at most _BUDGET
    basis terms; the energy does not use sigma = 2 J.
    """
    def apply(s):
        blocks = [(eval_capped_linear(sol, s[blk]), _capped_convolution(sol, s[blk]))
                  for blk in _blocks(sol, s.size)]
        return tuple(np.concatenate(v) for v in zip(*blocks))

    edges = capped_linear_edges(sol)
    return even_check(apply, sol.gamma, sol.sigma, edges[edges <= 0.5 * sol.n])


def capped_linear_residual_max(sol: CappedLinearSolution):
    """max_t |gamma phi(t) + (G * phi)(t) - sigma| at the points of :func:`capped_linear_check`."""
    return capped_linear_check(sol).residual_max


def capped_linear_energy(sol: CappedLinearSolution):
    """J_gamma[phi] = int phi (gamma phi + G * phi) / 2 from :func:`capped_linear_check`."""
    return capped_linear_check(sol).energy


def _trig_defects(x):
    """g/x and h/x^2 for g = 2x + sin 2x - 4 sin x and h = (2x)^2 + 2x sin 2x - 8 sin^2 x.

    Both vanish to high order at x = 0 (g/x ~ -2x^2/3, h/x^2 ~ 8x^4/45), so
    for x <= 3/2 they are summed from their Taylor series
    g/x = sum_{k>=1} (-1)^k (2^(2k+1) - 4) x^(2k) / (2k+1)!  and
    h/x^2 = sum_{n>=3} (-1)^(n-1) (8n - 16) (2x)^(2n-2) / (2n)!;
    the first omitted terms are below 1e-17 relative there.
    """
    if x > 1.5:
        return ((2.0 * x + math.sin(2.0 * x) - 4.0 * math.sin(x)) / x,
                (4.0 * x * x + 2.0 * x * math.sin(2.0 * x) - 8.0 * math.sin(x) ** 2) / (x * x))
    g = math.fsum((-1) ** k * (2.0 ** (2 * k + 1) - 4.0) * x ** (2 * k)
                  / math.factorial(2 * k + 1) for k in range(1, 17))
    h = math.fsum((-1) ** (n - 1) * (8 * n - 16) * (2.0 * x) ** (2 * n - 2)
                  / math.factorial(2 * n) for n in range(3, 19))
    return g, h


def trig_solve(rho, gamma, horizon) -> TrigSolution:
    """Closed form for G(t) = cos(rho t), regular at every horizon.

    beta = 2 tan(x) / D with x = rho T/2 and D = rho (2 gamma + T) + sin(rho T),
    then sigma is fixed by unit mass through the analytic integral of the
    cosine terms.  With cos(rho t) + cos(rho (T-t)) = 2 cos(x) cos(rho (t-T/2))
    and the half-angle form of 1 - cos, the curve and the mass become, scaled
    by rho so that nothing underflows as rho -> 0,

        phi(t) = (2 gamma + (T/2) g/x + 8 (sin(x)/rho) sin^2(rho (t-T/2)/2)) / N,
        sigma = gamma ((D/rho) / N),  N = 2 gamma T + (T^2/4) h/x^2,

    with g/x and h/x^2 from :func:`_trig_defects`: nothing cancels as rho T -> 0,
    and tan(x) cancels against cos(x), so x = pi/2 + k pi is no pole.  sigma
    divides before it multiplies: gamma D/rho underflows when gamma T is tiny
    (2e-330 at rho 1, gamma 1e-300, T 1e-30) while sigma is not (7.2e-148).
    """
    rho = _positive_finite(rho, "rho")
    gamma = _positive_finite(gamma, "gamma")
    horizon = _positive_finite(horizon, "horizon")

    x = 0.5 * rho * horizon
    gx, hx = _trig_defects(x)
    n = 2.0 * gamma * horizon + 0.25 * horizon * horizon * hx
    return TrigSolution(
        rho=rho,
        gamma=gamma,
        horizon=horizon,
        sigma=gamma * ((2.0 * gamma + horizon + math.sin(rho * horizon) / rho) / n),
        base=(2.0 * gamma + 0.5 * horizon * gx) / n,
        swing=8.0 * math.sin(x) / rho / n,
    )


def eval_trig(sol: TrigSolution, t):
    """phi(t) = base + swing sin^2(rho (t - T/2) / 2) for t in [0, T]."""
    t = _points(t, "evaluation point outside [0, T]", hi=sol.horizon)
    return _like(sol.base + sol.swing * np.sin(0.5 * sol.rho * (t - 0.5 * sol.horizon)) ** 2, t)


def trig_panel(sol: TrigSolution):
    """Longest Gauss panel for integrands of phi and cos(rho (t - T/2))."""
    return min(sol.horizon / 8.0, 1.0 / sol.rho)


# the trig check's panels on [0, T/2] number max(4, rho T / 2), 24 nodes each; a solve at
# this bound (rho 0.5, T 262144) peaks at about 140 MB
MAX_TRIG_PANELS = 1 << 16


def _trig_moment(sol: TrigSolution):
    """M = int cos(rho (s - T/2)) phi(s) ds: one Gauss pass over [0, T/2], doubled."""
    half = 0.5 * sol.horizon
    return 2.0 * panel_gauss(lambda s: np.cos(sol.rho * (s - half)) * eval_trig(sol, s),
                             0.0, half, max_panel=trig_panel(sol))


def trig_check(sol: TrigSolution) -> EvenCheck:
    """Mass, energy and residual of the integral equation; the convolution folds to one moment.

    cos(rho(t-s)) = cos(rho(t-T/2)) cos(rho(s-T/2)) + sin(rho(t-T/2)) sin(rho(s-T/2)),
    and the sine moment of the even phi vanishes, so (G * phi)(t) =
    M cos(rho(t-T/2)), with M from :func:`_trig_moment` by quadrature
    (independent of the closed-form derivation) on the check pass's panels.

    Raises ValueError, before anything is allocated, when [0, T/2] needs
    more than MAX_TRIG_PANELS panels.
    """
    half = 0.5 * sol.horizon
    panel = trig_panel(sol)
    if not half <= MAX_TRIG_PANELS * panel:  # also when the panel length underflows to 0
        count = math.ceil(half / panel) if panel > 0.0 else math.inf
        raise ValueError(f"trig check needs {count} Gauss panels on [0, T/2], "
                         f"above its bound of {MAX_TRIG_PANELS}")

    def apply(s):
        return eval_trig(sol, s), _trig_moment(sol) * np.cos(sol.rho * (s - half))

    return even_check(apply, sol.gamma, sol.sigma, panel_edges(0.0, half, max_panel=panel))


def trig_residual_max(sol: TrigSolution):
    """max_t |gamma phi(t) + (G * phi)(t) - sigma| at the points of :func:`trig_check`."""
    return trig_check(sol).residual_max


def trig_energy(sol: TrigSolution):
    """J_gamma[phi] = int phi (gamma phi + M cos(rho (t - T/2))) / 2 from :func:`trig_check`."""
    return trig_check(sol).energy
