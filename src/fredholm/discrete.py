"""Discretized minimization of J_gamma over piecewise-constant densities.

The energy

    J_gamma[phi] = (gamma/2) int phi^2 + (1/2) iint G(|t-s|) phi(t) phi(s)

restricted to functions that are constant on m uniform cells of [0, T] is a
quadratic form phi' H phi whose coefficients are *exact* cell integrals of
the kernel (no quadrature error enters the discretization).  H is
symmetric Toeplitz, and minimizing under the unit-mass constraint
sum_k phi_k (T/m) = 1  is one Toeplitz solve; the Lagrange multiplier is the
free constant sigma of the equivalent second-kind integral equation

    gamma phi(t) + int_0^T G(|t-s|) phi(s) ds = sigma,

and equals twice the minimal energy.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .errors import IndefiniteKernelError
from .kernels import Kernel

__all__ = [
    "Problem",
    "SolutionGrid",
    "DiscreteKernelRow",
    "discretize",
    "kernel_row",
    "solve",
    "gamma_sweep",
    "sweep_gammas",
    "endpoint_mass",
]


@dataclass(frozen=True)
class Problem:
    """Instance data: weight gamma > 0, horizon T > 0, and a kernel."""

    gamma: float
    horizon: float
    kernel: Kernel

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "horizon", float(self.horizon))


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Piecewise-constant minimizer on m uniform cells.

    ``values[k]`` is the density on [k*T/m, (k+1)*T/m).  ``sigma`` is the
    constraint multiplier (= 2 * energy), ``residual_max`` the largest
    pointwise defect of the integral equation at cell midpoints, computed
    with exact single-cell integrals.
    """

    cells: int
    values: np.ndarray
    sigma: float
    energy: float
    residual_max: float
    horizon: float

    @property
    def spacing(self):
        return self.horizon / self.cells

    def midpoints(self):
        return (np.arange(self.cells) + 0.5) * self.spacing


@dataclass(frozen=True, eq=False)
class DiscreteKernelRow:
    """Lag sequence G_n of the discretized kernel.

    ``Gn0`` is the value at lag 0 (it absorbs the gamma ridge of the
    diagonal), ``Gn[k-1]`` the value at lag t_k = k*T/m.  The quadratic
    form of :func:`discretize` is H_ii = (Gn0 + gamma*T/(2m))/2 and
    H_ij = Gn[|i-j|-1]/2.
    """

    Gn0: float
    Gn: np.ndarray


def _lags(problem: Problem, m: int):
    """Cell double integrals of the kernel at lags 0..m-1 (no gamma term)."""
    if m < 2:
        raise ValueError("need at least two cells")
    row = problem.kernel.lag_row(problem.horizon / m, m)
    if not np.all(np.isfinite(row)):
        raise ValueError("kernel produced non-finite cell integrals")
    return row


def _column(problem: Problem, lags):
    """First column of the symmetric Toeplitz matrix 2H: lags plus the gamma ridge."""
    col = lags.copy()
    col[0] += problem.gamma * (problem.horizon / len(lags))
    return col


def discretize(problem: Problem, m: int):
    """Assemble (H, w) with J_gamma[phi] = phi' H phi and constraint w' phi = 1.

    H_{ij} = (1/2) * iint_{cell_i x cell_j} G(|t-s|) for i != j, and the
    diagonal carries the extra (gamma/2)(T/m) from the gamma-term.  H is
    symmetric Toeplitz, so only the first row is integrated.
    """
    H = 0.5 * linalg.toeplitz(_column(problem, _lags(problem, m)))
    return H, np.full(m, problem.horizon / m)


def kernel_row(problem: Problem, m: int) -> DiscreteKernelRow:
    """Lag sequence of the discretized kernel (diagonal value plus off-diagonals)."""
    lags = _lags(problem, m)
    return DiscreteKernelRow(Gn0=0.5 * problem.gamma * (problem.horizon / m) + lags[0], Gn=lags[1:])


def _levinson_ones(col):
    """Solve T x = 1 for the symmetric Toeplitz T with first column col.

    Levinson-Durbin, O(m^2) time and O(m) memory.  The prediction errors
    beta = det T_{k+1} / (col[0] det T_k) certify positive definiteness; the
    first one that is not positive names the leading minor Cholesky would.
    """
    m = len(col)
    if not col[0] > 0:
        raise IndefiniteKernelError(1)
    r = col[1:] / col[0]
    y = np.empty(m - 1)  # Durbin's Yule-Walker solution, y[:k] at step k
    x = np.empty(m)
    y[0] = alpha = -r[0]
    x[0] = 1.0
    beta = 1.0
    for k in range(1, m):
        beta *= (1.0 - alpha) * (1.0 + alpha)
        if not beta > 0:
            raise IndefiniteKernelError(k + 1)
        mu = (1.0 - r[:k] @ x[k - 1::-1]) / beta
        x[:k] += mu * y[k - 1::-1]
        x[k] = mu
        if k < m - 1:
            alpha = -(r[k] + r[:k] @ y[k - 1::-1]) / beta
            y[:k] += alpha * y[k - 1::-1]
            y[k] = alpha
    return x / col[0]


def _solve(problem: Problem, lags) -> SolutionGrid:
    m = len(lags)
    h = problem.horizon / m
    col = _column(problem, lags)
    x = _levinson_ones(col)  # 2H phi = sigma w and w = h*1, so phi ~ x
    mass = h * math.fsum(x)
    phi = x / mass
    sigma = 1.0 / (h * mass)

    energy = 0.5 * float(phi @ linalg.matmul_toeplitz(col, phi))
    mids = (np.arange(m) + 0.5) * h
    conv = linalg.matmul_toeplitz(problem.kernel.cell_integral(0.0, h, mids), phi)
    resid = problem.gamma * phi + conv - sigma
    return SolutionGrid(
        cells=m,
        values=phi,
        sigma=sigma,
        energy=energy,
        residual_max=float(np.max(np.abs(resid))),
        horizon=problem.horizon,
    )


def solve(problem: Problem, m: int) -> SolutionGrid:
    """Minimize the discretized energy under unit mass.

    One Levinson-Durbin solve of 2H x = 1 gives phi = x / (h sum x) and the
    multiplier sigma = 1 / (h^2 sum x).  The energy phi' H phi and the
    midpoint residual are FFT Toeplitz products; no m x m matrix is formed.
    Raises :class:`~fredholm.errors.IndefiniteKernelError` when H is not
    positive definite (the kernel is not of positive type at this resolution).

    The midpoint residual shrinks with the cell width h at a rate the kernel
    sets: like h^2 for the bounded families (a 4x finer grid divides it by
    about 16), but only like h^(1 - alpha) for ``PowerLaw``, whose
    singularity at lag 0 sits in every diagonal cell (a 4x finer grid
    divides it by 4^(1 - alpha), that is 2 at alpha = 0.5).
    """
    return _solve(problem, _lags(problem, m))


def sweep_gammas(gammas) -> list:
    """The ridge values of a sweep as floats.

    Raises ValueError unless there is at least one, each is positive and
    finite, and they are strictly decreasing.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma sweep needs at least one value")
    if not all(0 < g < math.inf for g in gammas):
        raise ValueError("sweep gammas must be positive and finite")
    if any(x <= y for x, y in zip(gammas[:-1], gammas[1:])):
        raise ValueError("sweep gammas must be strictly decreasing")
    return gammas


def gamma_sweep(problem: Problem, m: int, gammas) -> list:
    """Solve a strictly decreasing sequence of gamma values on a fixed grid.

    The gamma-free lag row is assembled once.  Used to watch mass migrate
    toward the endpoints as the quadratic penalty vanishes; no convergence
    claim is attached.
    """
    gammas = sweep_gammas(gammas)
    lags = _lags(problem, m)
    return [_solve(replace(problem, gamma=g), lags) for g in gammas]


def endpoint_mass(grid: SolutionGrid) -> float:
    """Mass carried by the first and last cell."""
    return float((grid.values[0] + grid.values[-1]) * grid.spacing)
