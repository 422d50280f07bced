"""Independent checks of solver outputs.

Nothing here imports ``fredholm``.  Kernels are described by the plain spec
dicts of the CLI's JSON schema, and every formula below is derived afresh:
cell integrals from hand-written antiderivatives (or Gauss-Legendre
quadrature for tabulated kernels), the exponential-sum minimiser from
``numpy.linalg.eigvals`` plus its own boundary-condition system, the cosine
minimiser from the rank-2 reduction of cos(rho(t - s)) to a 3x3 system, and
Galerkin upper bounds from a Toeplitz solve of the benchmark's own
assembly.

Every ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

import math

import numpy as np
from scipy import linalg

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


# ---------------------------------------------------------------- kernels

def _tabulated_value(spec, u):
    """The tabulated kernel: log-linear between knots when every sample is
    positive, linear otherwise, flat outside the table."""
    knots, vals = np.asarray(spec["t"], float), np.asarray(spec["g"], float)
    if np.all(vals > 0):
        return np.exp(np.interp(u, knots, np.log(vals)))
    return np.interp(u, knots, vals)


def _exp_params(spec):
    a = np.asarray(spec["a"], dtype=float)
    beta = np.sqrt(np.asarray(spec["b"], dtype=float))
    return a, beta


def _first_antiderivative(spec, u):
    """int_0^u G(w) dw."""
    kind = spec["type"]
    if kind == "capped_linear":
        cap = spec.get("cap", 1.0)
        uc = np.minimum(u, cap)
        return cap * uc - 0.5 * uc * uc
    if kind == "power_law":
        alpha = spec["alpha"]
        return spec.get("scale", 1.0) * u ** (1.0 - alpha) / (1.0 - alpha)
    if kind == "trigonometric":
        return np.sin(spec["rho"] * u) / spec["rho"]
    raise ValueError(kind)


def _second_antiderivative(spec, u):
    """int_0^u int_0^v G, up to an affine term (which second differences drop)."""
    kind = spec["type"]
    if kind == "capped_linear":
        cap = spec.get("cap", 1.0)
        return np.maximum(cap - u, 0.0) ** 3 / 6.0
    if kind == "power_law":
        alpha = spec["alpha"]
        return spec.get("scale", 1.0) * u ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))
    if kind == "trigonometric":
        return -np.cos(spec["rho"] * u) / spec["rho"] ** 2
    raise ValueError(kind)


def _lag_quadrature(spec, h, m, half_steps):
    """Gauss nodes and G-weighted weights of a tabulated kernel on [0, (m+1)h],
    panels cut at every knot and every multiple of h/half_steps."""
    cuts = np.arange(0, (m + 1) * half_steps + 1) * (h / half_steps)
    knots = [v for v in spec["t"] if 0.0 < v < cuts[-1]]
    edges = np.unique(np.concatenate([cuts, knots]))
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    u = (0.5 * (hi + lo))[:, None] + half[:, None] * _NODES[None, :]
    w = half[:, None] * _WEIGHTS[None, :]
    return u.ravel(), (w * _tabulated_value(spec, u)).ravel()


def cell_row(spec, h, m):
    """c_k = int over |u| in [(k-1/2)h, (k+1/2)h] of G: the convolution of a
    unit cell with G at the midpoint of the cell k places away."""
    k = np.arange(m, dtype=float)
    kind = spec["type"]
    if kind == "exponential_sum":
        a, beta = _exp_params(spec)
        far = np.sum((a / beta) * np.exp(-beta * (k[1:, None] - 0.5) * h)
                     * -np.expm1(-beta * h), axis=-1)
        near = 2.0 * np.sum((a / beta) * -np.expm1(-beta * h / 2.0))
        return np.concatenate([[near], far])
    if kind == "tabulated":
        u, wg = _lag_quadrature(spec, h, m, 2)
        idx = np.floor(u / h + 0.5).astype(int)  # cell whose midpoint window holds u
        row = np.bincount(idx, weights=wg, minlength=m + 2)[:m]
        row[0] *= 2.0
        return row
    g1 = _first_antiderivative(spec, (k + 0.5) * h)
    return np.concatenate([[2.0 * g1[0]], np.diff(g1)])


def galerkin_row(spec, h, m):
    """r_k = iint over cell 0 x cell k of G(|t - s|) ds dt."""
    k = np.arange(m, dtype=float)
    kind = spec["type"]
    if kind == "exponential_sum":
        a, beta = _exp_params(spec)
        b = beta * beta
        far = np.sum((a / b) * np.exp(-beta * (k[1:, None] - 1.0) * h)
                     * np.expm1(-beta * h) ** 2, axis=-1)
        x = beta * h
        near = 2.0 * np.sum((a / b) * (np.expm1(-x) + x))
        return np.concatenate([[near], far])
    if kind == "tabulated":
        u, wg = _lag_quadrature(spec, h, m, 1)
        j = np.floor(u / h).astype(int)
        frac = u - j * h
        row = (np.bincount(j, weights=wg * (h - frac), minlength=m + 2)
               + np.bincount(j + 1, weights=wg * frac, minlength=m + 2))[:m]
        row[0] *= 2.0
        return row
    g2 = _second_antiderivative(spec, np.arange(m + 1) * h)
    row = np.empty(m)
    row[0] = 2.0 * (g2[1] - g2[0] - h * _slope_at_zero(spec))
    row[1:] = g2[2:] - 2.0 * g2[1:-1] + g2[:-2]
    return row


def _slope_at_zero(spec):
    """d/du of _second_antiderivative at 0 (it is not normalised to 0 there)."""
    kind = spec["type"]
    if kind == "capped_linear":
        return -0.5 * spec.get("cap", 1.0) ** 2
    return 0.0


# ----------------------------------------------------- reference solutions

def galerkin_solve(spec, gamma, horizon, m):
    """Own cell-averaged minimiser: returns (sigma, cell values).

    The Galerkin matrix is symmetric Toeplitz, so Levinson recursion solves
    it from its first column in O(m) memory.  A dense m x m matrix here
    would raise the worker's peak RSS above that of the operation measured.
    """
    h = horizon / m
    column = 0.5 * galerkin_row(spec, h, m)
    column[0] += 0.5 * gamma * h
    x = linalg.solve_toeplitz(column, np.ones(m))
    mass = h * math.fsum(x)
    return 2.0 / (h * mass), x / mass


def exp_reference(spec, gamma, horizon):
    """Exponential-sum minimiser from eigvals(M) and the boundary conditions.

    phi = D + sum_i Y_i (e^{-k_i (T-t)} + e^{-k_i t}) with k_i^2 the eigenvalues
    of M = B + 2 lam A B^{1/2} 11'.  Requiring the e^{-sqrt(b_k) t} terms of
    gamma phi + G * phi to vanish gives, with D = 1,
        sum_i Y_i (1/(k_i - beta_k) - e^{-k_i T}/(k_i + beta_k)) = 1/beta_k,
    and the constant terms give sigma = gamma + 2 sum_k a_k/beta_k before the
    rescaling to unit mass.
    """
    a, beta = _exp_params(spec)
    b = beta * beta
    lam = 1.0 / gamma
    M = np.diag(b) + 2.0 * lam * np.outer(a * beta, np.ones(a.size))
    c = np.sort(np.linalg.eigvals(M).real)
    kappa = np.sqrt(c)
    decay = np.exp(-kappa * horizon)
    A = 1.0 / (kappa[None, :] - beta[:, None]) - decay[None, :] / (kappa[None, :] + beta[:, None])
    Y = np.linalg.solve(A, 1.0 / beta)
    mass = horizon + np.sum(2.0 * Y * -np.expm1(-kappa * horizon) / kappa)
    sigma = (gamma + 2.0 * np.sum(a / beta)) / mass

    def phi(t):
        t = np.asarray(t, dtype=float)[..., None]
        return (1.0 + np.sum(Y * (np.exp(-kappa * (horizon - t)) + np.exp(-kappa * t)), axis=-1)) / mass

    return c, sigma, phi


def one_term_phi(a, b, gamma, horizon, t):
    """Explicit one-exponential minimiser (acceptance criterion 8, any a, b, gamma, T).

    c = b + 2 a sqrt(b)/gamma, D = b/(gamma c), and the boundary weight
    Z e^{kT} = sqrt(b)(c - b)/(gamma c)/(k(1 - e^{-kT}) + sqrt(b)(1 + e^{-kT})),
    all at sigma = 1 before rescaling to unit mass.
    """
    beta = math.sqrt(b)
    c = b + 2.0 * a * beta / gamma
    kappa = math.sqrt(c)
    e = math.exp(-kappa * horizon)
    D = b / (gamma * c)
    W = beta * (c - b) / (gamma * c) / (kappa * (1.0 - e) + beta * (1.0 + e))
    mass = D * horizon + 2.0 * W * (1.0 - e) / kappa
    t = np.asarray(t, dtype=float)
    return c, 1.0 / mass, (D + W * (np.exp(-kappa * (horizon - t)) + np.exp(-kappa * t))) / mass


def trig_reference(rho, gamma, horizon):
    """cos(rho(t-s)) = cos cos + sin sin, so phi = (sigma - Mc cos - Ms sin)/gamma
    with the moments Mc, Ms and sigma solving a 3x3 linear system."""
    T = horizon
    C1 = math.sin(rho * T) / rho
    S1 = (1.0 - math.cos(rho * T)) / rho
    Ccc = T / 2.0 + math.sin(2.0 * rho * T) / (4.0 * rho)
    Sss = T / 2.0 - math.sin(2.0 * rho * T) / (4.0 * rho)
    Ccs = math.sin(rho * T) ** 2 / (2.0 * rho)
    A = np.array([
        [-C1, gamma + Ccc, Ccs],
        [-S1, Ccs, gamma + Sss],
        [T, -C1, -S1],
    ])
    sigma, Mc, Ms = np.linalg.solve(A, [0.0, 0.0, gamma])

    def phi(t):
        t = np.asarray(t, dtype=float)
        return (sigma - Mc * np.cos(rho * t) - Ms * np.sin(rho * t)) / gamma

    return float(sigma), phi


# ------------------------------------------------------------------ checks

def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


def check_discrete(values, sigma, energy, residual_max, spec, gamma, horizon,
                   rows, lower=None, upper=None):
    """Invariants of a cell-averaged solution on m = len(values) cells.

    ``rows`` is (cell_row, galerkin_row) for this spec and grid.  ``lower``
    is the continuum sigma when known; ``upper`` is (m0, sigma(m0)) of the
    benchmark's own solve on a grid that m refines, so the discrete sigma(m)
    must lie between them, with a gap to ``lower`` that shrinks like h^2.
    """
    fails = []
    phi = np.asarray(values, dtype=float)
    m = phi.size
    h = horizon / m
    mass = math.fsum(phi * h)
    if not abs(mass - 1.0) <= 1e-12:
        fails.append(f"mass {mass!r} != 1")
    if not sigma > 0:
        fails.append(f"sigma {sigma!r} not positive")
    crow, grow = rows
    auto = np.correlate(phi, phi, mode="full")[m - 1:]
    quad_form = 0.5 * gamma * h * float(phi @ phi) + 0.5 * (grow[0] * auto[0] + 2.0 * float(grow[1:] @ auto[1:]))
    if not abs(sigma - 2.0 * quad_form) <= 1e-9 * abs(sigma):
        fails.append(f"sigma {sigma!r} != 2J = {2.0 * quad_form!r}")
    if not abs(energy - quad_form) <= 1e-9 * abs(sigma):
        fails.append(f"reported energy {energy!r} != J = {quad_form!r}")
    samples = np.unique(np.round(np.linspace(0, m - 1, 65)).astype(int))
    conv = np.array([float(crow[np.abs(i - np.arange(m))] @ phi) for i in samples])
    resid = float(np.max(np.abs(gamma * phi[samples] + conv - sigma)))
    if not resid <= residual_max * (1.0 + 1e-6) + 1e-12 * abs(sigma):
        fails.append(f"sampled residual {resid!r} exceeds reported max {residual_max!r}")
    if not resid <= 1e-2 * abs(sigma):
        fails.append(f"sampled residual {resid!r} above 1e-2 sigma")
    if lower is not None and not sigma >= lower * (1.0 - 1e-12):
        fails.append(f"sigma(m) {sigma!r} below the continuum sigma {lower!r}")
    if upper is not None:
        m0, sigma0 = upper
        if not sigma <= sigma0 * (1.0 + 1e-12):
            fails.append(f"sigma(m) {sigma!r} above the coarser sigma({m0}) {sigma0!r}")
        if lower is not None and not sigma - lower <= 4.0 * (m0 / m) ** 2 * (sigma0 - lower) + 1e-13 * sigma:
            fails.append(f"Galerkin gap {sigma - lower!r} not O(h^2) against sigma({m0})")
    return fails


def check_strictly_decreasing(sigmas):
    """sigma(gamma) falls strictly as gamma falls (sigmas in sweep order)."""
    bad = [i for i in range(1, len(sigmas)) if not sigmas[i] < sigmas[i - 1]]
    return [f"sigma not strictly decreasing at sweep step {i}" for i in bad]


def check_curve(name, phi, ref, tol):
    """Pointwise agreement of a sampled curve with a reference, relative to max|ref|."""
    err = float(np.max(np.abs(np.asarray(phi) - ref)))
    scale = float(np.max(np.abs(ref)))
    if not err <= tol * scale:
        return [f"{name}: curve differs from reference by {err!r} (scale {scale!r})"]
    return []


def check_value(name, value, ref, rtol):
    if not _rel(value, ref) <= rtol:
        return [f"{name}: {value!r} != reference {ref!r}"]
    return []


def check_roots(c, ref_c):
    """Secular roots against eigvals of M, root by root."""
    c = np.asarray(c, dtype=float)
    if c.shape != ref_c.shape:
        return [f"{c.size} roots, expected {ref_c.size}"]
    err = float(np.max(np.abs(c - ref_c) / ref_c))
    return [] if err <= 1e-10 else [f"secular roots differ from eigvals(M) by {err!r}"]


def check_negative_minimum(phi):
    low = float(np.min(phi))
    return [] if low < 0.0 else [f"trig minimum {low!r} is not negative"]


def check_hump(phi, spacing):
    """Nonnegative but not convex: some interior second difference is well below 0."""
    phi = np.asarray(phi, dtype=float)
    d2 = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / spacing**2
    fails = []
    if not float(phi.min()) >= -1e-8:
        fails.append(f"capped hump goes negative ({float(phi.min())!r})")
    if not float(d2.min()) < -1e-3 * float(np.max(np.abs(d2))):
        fails.append("capped hump is convex")
    return fails
