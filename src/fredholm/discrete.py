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
(the equation is of the second kind).  One iteration serves every caller:
it runs on a (k, m) block of right-hand sides, one row per gamma, so each
operator or preconditioner application is one 2-D FFT over the rows still
iterating; a single solve is the block with one row, a gamma sweep the
block with one row per gamma.  Any other kernel, or a row whose margin
fails or whose iteration misses its cap, is solved alone by the O(m^2)
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


def _embedding_spectrum(col):
    """Eigenvalues (rfft order) of the 2m-point circulant (col, 0, col[m-1:0:-1]).

    Its leading m x m block is the symmetric Toeplitz matrix with first column
    ``col``, so that matrix times v is irfft(spectrum * rfft(v, 2m), 2m)[:m].
    Adding s to col[0] adds s to every eigenvalue.
    """
    return np.fft.rfft(np.concatenate((col, [0.0], col[:0:-1])))


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
# a sweep's rows are iterated in blocks of at most this many cells in total, so
# a block's working arrays stay near the size of one solve at large m
_BLOCK_CELLS = 1 << 16


class _Operators:
    """The gamma-free FFT operators of one grid, shared by every gamma of a sweep.

    ``lags`` is the lag row of K, ``kernel`` the spectrum of K's circulant
    embedding, ``chan`` the eigenvalues of K's T. Chan circulant, and
    ``midpoints`` the embedding spectrum of the single-cell integrals at the
    cell midpoints (the residual's convolution).  ``certifiable`` holds when
    theory puts every eigenvalue of K at or above 0 (the kernel is of
    positive type), and ``rounding`` bounds how far rounding in the computed
    lag row can move them: a symmetric Toeplitz perturbation d has norm at
    most 2 |d|_1, and m/2 ulps of every entry are allowed for.
    """

    def __init__(self, problem: Problem, lags):
        m = len(lags)
        h = problem.horizon / m
        self.lags = lags
        self.kernel = _embedding_spectrum(lags)
        self.chan = _chan_eigenvalues(lags)
        self.midpoints = _embedding_spectrum(problem.kernel.cell_integral(0.0, h, (np.arange(m) + 0.5) * h))
        self.certifiable = problem.kernel.classify().positive_type_known
        self.rounding = m * np.finfo(float).eps * float(np.sum(np.abs(lags)))


def _solve_rows(problem: Problem, ops: _Operators, gammas) -> list:
    """Solve 2H x = 1 on one grid for each gamma, one row of a (k, m) block each.

    A row whose margin gamma h clears ``ops.rounding`` under the positive-type
    certificate runs preconditioned CG from x = 0 with T. Chan's circulant,
    whose eigenvalues shifted by gamma h are the preconditioner's.  Every
    operator and preconditioner application is one 2-D rfft/irfft over the
    rows still iterating.  A row leaves the block when |r| <= 1e-14 |1|; it
    gives up when a search direction has p' 2H p <= 0 or after
    ``_PCG_MAX_ITER`` steps.  A row that gives up, or was never certified, is
    solved alone by Levinson-Durbin.  Each row does the arithmetic of a
    one-row block, so a sweep matches the single solves bit for bit.
    """
    m = len(ops.lags)
    n = 2 * m
    h = problem.horizon / m
    gammas = np.array(gammas)[:, None]  # (k, 1), like every per-row scalar below
    ridges = gammas * h  # 2H = ridge I + K
    spectra = ops.kernel + ridges
    x_rows = [None] * len(gammas)

    # the block's bookkeeping is Python lists: at small m, numpy calls on a
    # handful of per-row scalars would cost as much as the FFTs
    rows = [i for i, ridge in enumerate(ridges[:, 0].tolist())
            if ops.certifiable and ridge > ops.rounding]
    if rows:  # lambda_min(2H) >= ridge > 0 on every row
        spec, precond = spectra[rows], ops.chan + ridges[rows]
        r = np.ones((len(rows), m))
        x = np.zeros_like(r)
        stop = _PCG_RTOL * math.sqrt(m)
        # 1 is an eigenvector of every circulant, so this z is 1 / precond[:, :1]
        # up to rounding; the round trip stays because the two differ in the
        # last bit unless m is a power of two, and that bit reaches every output
        z = np.fft.irfft(np.fft.rfft(r[0]) / precond, m)
        p = z
        rz = np.vecdot(r, z, keepdims=True)
        for _ in range(_PCG_MAX_ITER):
            q = np.fft.irfft(spec * np.fft.rfft(p, n), n)[:, :m]
            curvature = np.vecdot(p, q, keepdims=True)
            keep = [c > 0 for (c,) in curvature.tolist()]
            if not all(keep):  # these rows give up
                rows = [i for i, kept in zip(rows, keep) if kept]
                x, r, p, q, rz, curvature, spec, precond = (
                    a[keep] for a in (x, r, p, q, rz, curvature, spec, precond))
                if not rows:
                    break
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * q
            keep = [math.sqrt(rr) > stop for rr in np.vecdot(r, r).tolist()]
            if not all(keep):  # these rows converged
                # a stored row is a view of x, which the compaction below
                # replaces before the next in-place update
                for i, x_row, kept in zip(rows, x, keep):
                    if not kept:
                        x_rows[i] = x_row
                if not any(keep):
                    break
                rows = [i for i, kept in zip(rows, keep) if kept]
                x, r, p, rz, spec, precond = (a[keep] for a in (x, r, p, rz, spec, precond))
            z = np.fft.irfft(np.fft.rfft(r) / precond, m)
            rz, rz_old = np.vecdot(r, z, keepdims=True), rz
            p = z + (rz / rz_old) * p
    for i, x_row in enumerate(x_rows):
        if x_row is None:
            x_rows[i] = _levinson_ones(_column(replace(problem, gamma=float(gammas[i, 0])), ops.lags))

    # 2H phi = sigma w and w = h*1, so phi ~ x
    x_rows = np.array(x_rows)
    mass = h * np.array([[math.fsum(x_row)] for x_row in x_rows.tolist()])
    phi = x_rows / mass
    sigma = 1.0 / (h * mass)
    phi_hat = np.fft.rfft(phi, n)  # shared by the energy and the residual
    energy = 0.5 * np.vecdot(phi, np.fft.irfft(spectra * phi_hat, n)[:, :m])
    resid = gammas * phi + np.fft.irfft(ops.midpoints * phi_hat, n)[:, :m] - sigma
    residual_max = np.max(np.abs(resid), axis=1)
    return [
        SolutionGrid(
            cells=m,
            values=phi[i],
            sigma=float(sigma[i, 0]),
            energy=float(energy[i]),
            residual_max=float(residual_max[i]),
            horizon=problem.horizon,
        )
        for i in range(len(gammas))
    ]


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
    Toeplitz products that share one rfft of phi; no m x m matrix is formed.
    This is the one-row case of the block iteration :func:`gamma_sweep`
    runs, so both give the same bits.

    The midpoint residual shrinks with the cell width h at a rate the kernel
    sets: like h^2 for the bounded families (a 4x finer grid divides it by
    about 16), but only like h^(1 - alpha) for ``PowerLaw``, whose
    singularity at lag 0 sits in every diagonal cell (a 4x finer grid
    divides it by 4^(1 - alpha), that is 2 at alpha = 0.5).
    """
    return _solve_rows(problem, _Operators(problem, _lags(problem, m)), [problem.gamma])[0]


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
    the preconditioner's eigenvalues.  The gammas are one block of rows:
    conjugate gradients iterate every certified row at once, one 2-D FFT per
    operator or preconditioner application, and a row leaves the block when
    it converges; rows that are not certified, or give up, are solved one
    by one by Levinson-Durbin.  Every gamma gets the bits :func:`solve`
    gives it.  A block holds at most 2^16 cells in total, or one row when m
    is larger, so memory stays that of one solve at large m.  Used
    to watch mass migrate toward the endpoints as the quadratic penalty
    vanishes; no convergence claim is attached.
    """
    gammas = sweep_gammas(gammas)
    ops = _Operators(problem, _lags(problem, m))
    step = max(1, _BLOCK_CELLS // m)
    return [grid for i in range(0, len(gammas), step)
            for grid in _solve_rows(problem, ops, gammas[i:i + step])]


def endpoint_mass(grid: SolutionGrid) -> float:
    """Mass carried by the first and last cell."""
    return float((grid.values[0] + grid.values[-1]) * grid.spacing)
