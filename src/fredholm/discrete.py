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

No m x m matrix is formed.  Toeplitz products go through the FFT of a
2m-point circulant embedding.  For a kernel of positive type the cell
averages form a Gram matrix K, so 2H = gamma h I + K has every eigenvalue at
or above gamma h: that theory margin, checked against a bound on the lag
row's rounding, is the positive-definiteness certificate, and preconditioned
conjugate gradients with T. Chan's optimal circulant preconditioner solve
2H x = 1 in O(m log m), in a number of iterations that does not grow with m
(the equation is of the second kind).  Any other kernel, or a run whose
margin fails or whose iteration misses its cap, is solved by the O(m^2)
Levinson-Durbin recursion, whose prediction errors certify (or refute)
positive definiteness directly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

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
    i = np.arange(m)
    H = 0.5 * _column(problem, _lags(problem, m))[np.abs(np.subtract.outer(i, i))]
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


class _Toeplitz:
    """Symmetric Toeplitz matrix with first column ``col``, applied by FFT.

    It is the leading m x m block of the 2m-point circulant with first column
    (col, 0, col[m-1:0:-1]), whose eigenvalues are the rfft of that column,
    so ``op @ v`` is one rfft and one irfft.  Adding s to col[0] adds s to
    every eigenvalue: ``shifted(s)`` reuses the spectrum.
    """

    def __init__(self, col=None, spectrum=None):
        if spectrum is None:
            spectrum = np.fft.rfft(np.concatenate((col, [0.0], col[:0:-1])))
        self.spectrum = spectrum
        self.m = len(spectrum) - 1

    def shifted(self, s):
        return _Toeplitz(spectrum=self.spectrum + s)

    def __matmul__(self, v):
        n = 2 * self.m
        return np.fft.irfft(self.spectrum * np.fft.rfft(v, n), n)[:self.m]


def _chan_eigenvalues(col):
    """Eigenvalues (rfft order) of T. Chan's optimal circulant for the Toeplitz col.

    Its first column averages the two diagonals that wrap onto each other,
    ((m-k) col[k] + k col[m-k]) / m, so it is the Frobenius-nearest circulant.
    """
    m = len(col)
    k = np.arange(m)
    return np.fft.rfft(((m - k) * col + k * col[(m - k) % m]) / m).real


# conjugate gradients on a second-kind equation converge in a number of steps
# that does not grow with m; past this many the run falls back to Levinson
_PCG_MAX_ITER = 200
_PCG_RTOL = 1e-14


def _pcg_ones(op, precond):
    """Solve op x = 1 by preconditioned CG from x = 0; None when it stalls.

    ``precond`` holds the eigenvalues of a symmetric positive definite
    circulant.  Stops at |r| <= 1e-14 |1|; returns None after
    ``_PCG_MAX_ITER`` steps, or when a search direction has p' op p <= 0.
    """
    m = op.m
    x = np.zeros(m)
    r = np.ones(m)
    stop = _PCG_RTOL * math.sqrt(m)
    z = np.fft.irfft(np.fft.rfft(r) / precond, m)
    p = z
    rz = r @ z
    for _ in range(_PCG_MAX_ITER):
        q = op @ p
        curvature = p @ q
        if not curvature > 0:
            return None
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if math.sqrt(r @ r) <= stop:
            return x
        z = np.fft.irfft(np.fft.rfft(r) / precond, m)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return None


class _Operators:
    """The gamma-free FFT operators of one grid, shared by every gamma of a sweep.

    ``lags`` is the lag row of K, ``kernel`` applies K, ``chan`` holds the
    eigenvalues of K's T. Chan circulant, and ``midpoints`` applies the
    single-cell integrals at the cell midpoints (the residual's convolution).
    ``certifiable`` holds when theory puts every eigenvalue of K at or above
    0 (the kernel is of positive type), and ``rounding`` bounds how far
    rounding in the computed lag row can move them: a symmetric Toeplitz
    perturbation d has norm at most 2 |d|_1, and m/2 ulps of every entry
    are allowed for.
    """

    def __init__(self, problem: Problem, lags):
        m = len(lags)
        h = problem.horizon / m
        self.lags = lags
        self.kernel = _Toeplitz(lags)
        self.chan = _chan_eigenvalues(lags)
        self.midpoints = _Toeplitz(problem.kernel.cell_integral(0.0, h, (np.arange(m) + 0.5) * h))
        self.certifiable = problem.kernel.classify().positive_type_known
        self.rounding = m * np.finfo(float).eps * float(np.sum(np.abs(lags)))


def _solve(problem: Problem, ops: _Operators) -> SolutionGrid:
    m = len(ops.lags)
    h = problem.horizon / m
    ridge = problem.gamma * h  # 2H = ridge I + K
    op = ops.kernel.shifted(ridge)
    x = None
    if ops.certifiable and ridge > ops.rounding:  # lambda_min(2H) >= ridge > 0
        x = _pcg_ones(op, ops.chan + ridge)
    if x is None:
        x = _levinson_ones(_column(problem, ops.lags))
    mass = h * math.fsum(x)  # 2H phi = sigma w and w = h*1, so phi ~ x
    phi = x / mass
    sigma = 1.0 / (h * mass)

    energy = 0.5 * float(phi @ (op @ phi))
    resid = problem.gamma * phi + ops.midpoints @ phi - sigma
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

    Solving 2H x = 1 gives phi = x / (h sum x) and the multiplier
    sigma = 1 / (h^2 sum x).  For a kernel of positive type
    (``classify().positive_type_known``), theory puts every eigenvalue of
    2H at or above gamma h; when that margin exceeds the bound
    m * eps * |lag row|_1 on the lag row's rounding, preconditioned
    conjugate gradients with T. Chan's circulant preconditioner solve the
    system in O(m log m).  Otherwise, or when the iteration does not reach
    |r| <= 1e-14 |1| within its cap, Levinson-Durbin solves it in O(m^2),
    and raises :class:`~fredholm.errors.IndefiniteKernelError` when H is
    not positive definite (the kernel is not of positive type at this
    resolution).  The energy phi' H phi and the midpoint residual are FFT
    Toeplitz products; no m x m matrix is formed.

    The midpoint residual shrinks with the cell width h at a rate the kernel
    sets: like h^2 for the bounded families (a 4x finer grid divides it by
    about 16), but only like h^(1 - alpha) for ``PowerLaw``, whose
    singularity at lag 0 sits in every diagonal cell (a 4x finer grid
    divides it by 4^(1 - alpha), that is 2 at alpha = 0.5).
    """
    return _solve(problem, _Operators(problem, _lags(problem, m)))


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

    The gamma-free lag row, the FFT spectra of K and of the midpoint
    convolution, and the eigenvalues of K's circulant preconditioner are
    computed once; each gamma only adds gamma h to the spectrum of K and to
    the preconditioner's eigenvalues.  Every gamma is solved as
    :func:`solve` would: conjugate gradients under the positive-type
    certificate, Levinson-Durbin otherwise.  Used to watch mass migrate
    toward the endpoints as the quadratic penalty vanishes; no convergence
    claim is attached.
    """
    gammas = sweep_gammas(gammas)
    ops = _Operators(problem, _lags(problem, m))
    return [_solve(replace(problem, gamma=g), ops) for g in gammas]


def endpoint_mass(grid: SolutionGrid) -> float:
    """Mass carried by the first and last cell."""
    return float((grid.values[0] + grid.values[-1]) * grid.spacing)
