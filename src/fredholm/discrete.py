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
(the equation is of the second kind).  2H commutes with the reversal of the
cells and the right-hand side is 1, so x is even about T/2, like the
continuous minimizer (a series in even powers of t - T/2).  For even m
the iteration runs on the right half: both products become symmetric
convolutions (DCT-II/III pairs) evaluated by FFTs of length m and m/2
instead of 2m and m, and the solution equals its reversal exactly.  Odd m
has a cell on the midpoint and iterates on every cell.  One iteration
serves every caller: it runs on a block of right-hand sides, one row per
gamma, so each operator or preconditioner application is one 2-D FFT over
the rows still iterating; a single solve is the block with one row, a
gamma sweep the block with one row per gamma.  Any other kernel, or a row
whose margin fails or whose iteration misses its cap, is solved alone by
the O(m^2) Levinson-Durbin recursion, whose prediction errors certify (or
refute) positive definiteness directly.
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


def _grid_rows(problem: Problem, m: int):
    """The kernel's rows on m cells: cell double integrals at lags 0..m-1
    (no gamma term) and the midpoint row (see ``Kernel.grid_rows``)."""
    if m < 2:
        raise ValueError("need at least two cells")
    lags, midpoints = problem.kernel.grid_rows(problem.horizon / m, m)
    if not np.all(np.isfinite(lags)):
        raise ValueError("kernel produced non-finite cell integrals")
    return lags, midpoints


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
    H = 0.5 * _column(problem, _grid_rows(problem, m)[0])[np.abs(np.subtract.outer(i, i))]
    return H, np.full(m, problem.horizon / m)


def kernel_row(problem: Problem, m: int) -> DiscreteKernelRow:
    """Lag sequence of the discretized kernel (diagonal value plus off-diagonals)."""
    lags = _grid_rows(problem, m)[0]
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


def _half_operator(spectrum, n, k):
    """(A, D) of a symmetric product folded onto even vectors.

    ``spectrum`` holds the real eigenvalues C_0..C_n (rfft order) of a
    symmetric circulant of size 2n; S is that circulant (n = k) or its
    leading 2k x 2k block (n = 2k).  A vector x of length 2k with
    x = x[::-1] is held by its right half v = x[k:] in the order
    u = (v[1::2][::-1], v[0::2]), and the right half of S x, in the same
    order, is irfft(A U + D conj(U), n)[:k] with U = rfft(u, n),
    A = (C_f + C_{n-f})/2 and D = (C_f - C_{n-f})/2 exp(i pi f (1 - 4 floor(k/2)) / n).
    That is a DCT-II/III pair (symmetric convolution, Martucci 1994)
    evaluated by Makhoul's n-point FFT (1980), with u rotated so that one
    layout serves every k.  The solve folds K's 2m-point embedding (n = m)
    and T. Chan's m-point circulant (n = m/2).  The twist's integer angle is
    reduced mod 2n first: exp of an angle near pi k would lose its low
    digits (2e-13 at k = 2048).
    """
    f = np.arange(n // 2 + 1)
    # slices, not an index array: fancy indexing on the last axis returns
    # column-major rows, which np.vecdot sums in another order than one row
    low, high = spectrum[..., :n // 2 + 1], spectrum[..., n - n // 2:][..., ::-1]
    twist = np.exp(1j * np.pi / n * (f * (1 - 4 * (k // 2)) % (2 * n)))
    return 0.5 * (low + high), 0.5 * (low - high) * twist


def _apply(a, d, v, n):
    """irfft(a V + d conj(V), n) cut to v's length, with V = rfft(v, n).

    With d None this is the circulant product of eigenvalues a, else the
    folded product of ``_half_operator``.  Works along the last axis.
    """
    spectrum = np.fft.rfft(v, n)
    spectrum = a * spectrum if d is None else a * spectrum + d * spectrum.conj()
    return np.fft.irfft(spectrum, n)[..., :v.shape[-1]]


# conjugate gradients on a second-kind equation converge in a number of steps
# that does not grow with m; past this many the run falls back to Levinson
_PCG_MAX_ITER = 200
_PCG_RTOL = 1e-14
# a sweep's rows are iterated in blocks of at most this many cells in total, so
# a block's working arrays stay near the size of one solve at large m
_BLOCK_CELLS = 1 << 16


class _Operators:
    """The gamma-free FFT operators of one grid, shared by every gamma of a sweep.

    Both rows come from one ``Kernel.grid_rows`` call, so a kernel that
    builds them from a shared table (``Tabulated``'s half-cell moments)
    builds it once per solve or sweep.  ``lags`` is the lag row of K,
    ``kernel`` the spectrum of K's circulant embedding, ``chan`` the
    eigenvalues of K's T. Chan circulant, and ``midpoints`` the embedding
    spectrum of the midpoint row, the single-cell integrals at the cell
    midpoints (the residual's convolution).  ``certifiable`` holds when
    theory puts every eigenvalue of K at or above 0 (the kernel is of
    positive type), and ``rounding`` bounds how far rounding in the computed
    lag row can move them: a symmetric Toeplitz perturbation d has norm at
    most 2 |d|_1, and m/2 ulps of every entry are allowed for.

    2H commutes with the reversal of the cells and the right-hand side is 1,
    so the solution is even about T/2.  For even m conjugate gradients
    iterate on the ``unknowns`` = m/2 cells of the right half, in the order
    of ``_half_operator``: K's product is (``product_a``, ``product_d``) at
    transform length m, the preconditioner's at length m/2.  Odd m has a
    cell on the midpoint, which needs a DCT-I and has no half-length FFT, so
    it iterates on all m cells with the plain products (``product_d`` None)
    at lengths 2m and m.  Either way K's transforms are twice as long as the
    preconditioner's.  ``order`` unfolds an iterate to the m cells.
    """

    def __init__(self, problem: Problem, m: int):
        lags, midpoints = _grid_rows(problem, m)
        self.lags = lags
        self.kernel = _embedding_spectrum(lags)
        self.chan = _chan_eigenvalues(lags)
        self.midpoints = _embedding_spectrum(midpoints)
        self.certifiable = problem.kernel.classify().positive_type_known
        self.rounding = m * np.finfo(float).eps * float(np.sum(np.abs(lags)))
        if m % 2:
            self.unknowns, self.order = m, np.arange(m)
            self.product_a, self.product_d = self.kernel, None
        else:
            k = self.unknowns = m // 2
            half = np.empty(k, dtype=np.intp)  # v = u[half]
            half[0::2] = np.arange(k // 2, k)
            half[1::2] = np.arange(k // 2 - 1, -1, -1)
            self.order = np.concatenate((half[::-1], half))
            self.product_a, self.product_d = _half_operator(self.kernel.real, m, k)

    def preconditioner(self, ridges):
        """(a, d) of the inverse of T. Chan's circulant plus each ridge, one row each."""
        inverse = 1.0 / (self.chan + ridges)
        if self.unknowns == len(self.lags):
            return inverse, None
        return _half_operator(inverse, self.unknowns, self.unknowns)


def _solve_rows(problem: Problem, ops: _Operators, gammas) -> list:
    """Solve 2H x = 1 on one grid for each gamma, one row of a block each.

    A row whose margin gamma h clears ``ops.rounding`` under the positive-type
    certificate runs preconditioned CG from x = 0 with T. Chan's circulant,
    whose eigenvalues shifted by gamma h are the preconditioner's.  The
    block's rows hold ``ops.unknowns`` cells: the right half of x for even
    m, all of x for odd m.  Every operator and preconditioner application is
    one 2-D rfft/irfft over the rows still iterating, of length 2 and 1
    times ``ops.unknowns``.  A row leaves the block when the full residual
    has |r| <= 1e-14 |1| (for even m the half holds |r|^2 / 2); it gives up
    when a search direction has p' 2H p <= 0 or after ``_PCG_MAX_ITER``
    steps.  A converged row is unfolded to all m cells, so for even m the
    solution equals its reversal exactly.  A row that gives up, or was never
    certified, is solved alone by Levinson-Durbin.  Each row does the
    arithmetic of a one-row block, so a sweep matches the single solves bit
    for bit.
    """
    m = len(ops.lags)
    n = 2 * m
    width = ops.unknowns
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
        kern_a, kern_d = ops.product_a + ridges[rows], ops.product_d
        pre_a, pre_d = ops.preconditioner(ridges[rows])
        r = np.ones((len(rows), width))
        x = np.zeros_like(r)
        stop = _PCG_RTOL * math.sqrt(width)
        # 1 is an eigenvector of every circulant, so this z is 1 / (chan[0] + ridge)
        # up to rounding; the round trip stays because the two differ in the
        # last bit unless m is a power of two, and that bit reaches every output
        z = _apply(pre_a, pre_d, r[0], width)
        p = z
        rz = np.vecdot(r, z, keepdims=True)
        for _ in range(_PCG_MAX_ITER):
            q = _apply(kern_a, kern_d, p, 2 * width)
            curvature = np.vecdot(p, q, keepdims=True)
            keep = [c > 0 for (c,) in curvature.tolist()]
            if not all(keep):  # these rows give up
                rows = [i for i, kept in zip(rows, keep) if kept]
                x, r, p, q, rz, curvature, kern_a, pre_a, pre_d = (
                    a if a is None else a[keep]
                    for a in (x, r, p, q, rz, curvature, kern_a, pre_a, pre_d))
                if not rows:
                    break
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * q
            keep = [math.sqrt(rr) > stop for rr in np.vecdot(r, r).tolist()]
            if not all(keep):  # these rows converged
                for i, x_row, kept in zip(rows, x, keep):
                    if not kept:
                        x_rows[i] = x_row[ops.order]
                if not any(keep):
                    break
                rows = [i for i, kept in zip(rows, keep) if kept]
                x, r, p, rz, kern_a, pre_a, pre_d = (
                    a if a is None else a[keep] for a in (x, r, p, rz, kern_a, pre_a, pre_d))
            z = _apply(pre_a, pre_d, r, width)
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
    system in O(m log m); for even m they iterate on the right half of the
    even solution, with FFTs of length m and m/2, and ``values`` equals its
    reversal exactly.  Otherwise, or when the iteration does not reach
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

    Known limits of the Levinson-Durbin route.  It is an O(m^2) Python
    loop: a kernel with no positive-type claim takes about 1 s at m = 16384,
    so near the CLI's 2^22 cell ceiling a solve takes hours.  Its solution
    meets sigma = 2 J only to its own relative residual: for the cosine
    kernel at rho 0.5, gamma 1e-5, T 20, where the iteration reaches its
    cap and falls back, the defect is 1.5e-9 sigma at m = 200 and 3.5e-9
    sigma at m = 256, so the CLI's 1e-9 check fails there; m = 1024 passes.
    """
    return _solve_rows(problem, _Operators(problem, m), [problem.gamma])[0]


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
    computed once, and so are the half-length operators of an even m;
    each gamma only adds gamma h to K's spectrum and to the preconditioner's
    eigenvalues.  The gammas are one block of rows: conjugate gradients
    iterate every certified row at once (the right half of each for even m),
    one 2-D FFT per operator or preconditioner application, and a row
    leaves the block when it converges; rows that are not certified, or
    give up, are solved one by one by Levinson-Durbin.  Every gamma gets the
    bits :func:`solve` gives it.  A block holds at most 2^16 cells in total,
    or one row when m is larger, so memory stays that of one solve at large
    m.  Used to watch mass migrate toward the endpoints as the quadratic
    penalty vanishes; no convergence claim is attached.
    """
    gammas = sweep_gammas(gammas)
    ops = _Operators(problem, m)
    step = max(1, _BLOCK_CELLS // m)
    return [grid for i in range(0, len(gammas), step)
            for grid in _solve_rows(problem, ops, gammas[i:i + step])]


def endpoint_mass(grid: SolutionGrid) -> float:
    """Mass carried by the first and last cell."""
    return float((grid.values[0] + grid.values[-1]) * grid.spacing)
