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
conjugate gradients solve 2H x = 1 in O(m log m), in a number of iterations
that does not grow with m (the equation is of the second kind).  The
preconditioner is a ladder of two circulants, each shifted by gamma h: the
leading block of the inverse of K's 2m-point embedding (a Ku-Kuo-type
construction, Chan & Ng, SIAM Review 38(3), 1996), then that of the von
Hann-windowed embedding; a row that misses the first rung's cap restarts
from its iterate under the second.  2H commutes with the reversal of the
cells and the right-hand side is 1, so x is even about T/2, like the
continuous minimizer (a series in even powers of t - T/2).  For even m a
solve holds x by its right half from the first FFT to the mass, energy and
residual: every product, preconditioner included, becomes a symmetric
convolution (DCT-II/III pair) evaluated by FFTs of length m instead of 2m.
Odd m has a cell on the midpoint and holds every cell.  The tables that
depend on m alone (the fold permutations and the FFT twist) are built once
per solve or sweep, and the output stage takes one FFT of the solution for
both the energy and the residual.  One iteration serves every
caller: it runs on a block of right-hand sides, one row per
gamma, so each operator or preconditioner application is one 2-D FFT over
the rows still iterating; a single solve is the block with one row, a
gamma sweep the block with one row per gamma.  Any other kernel, or a row
whose margin fails or whose iteration misses the last cap, is solved alone
by the O(m^2) Levinson-Durbin recursion, whose prediction errors certify (or
refute) positive definiteness directly; above 2^15 cells that recursion is
refused before it starts.  A solution found on all m cells
is replaced by its average with its reversal, so every solution equals its
reversal exactly.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IndefiniteKernelError, LevinsonLimitError
from .kernels import Kernel, _positive_finite, _set

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
        _set(self, gamma=_positive_finite(self.gamma, "gamma"),
             horizon=_positive_finite(self.horizon, "horizon"))


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
    (no gamma term) and the midpoint row (see ``Kernel.grid_rows``).

    A horizon near the float limit overflows the rows; numpy's warnings are
    silenced so that the non-finite check below reports it as one error.
    """
    if m < 2:
        raise ValueError("need at least two cells")
    with np.errstate(over="ignore", invalid="ignore"):
        lags, midpoints = problem.kernel.grid_rows(problem.horizon / m, m)
    if not np.all(np.isfinite(lags)):
        raise ValueError("kernel produced non-finite cell integrals")
    return lags, midpoints


def _column(lags, ridge):
    """First column of the symmetric Toeplitz matrix 2H: lags plus the ridge gamma h."""
    col = lags.copy()
    col[0] += ridge
    return col


def discretize(problem: Problem, m: int):
    """Assemble (H, w) with J_gamma[phi] = phi' H phi and constraint w' phi = 1.

    H_{ij} = (1/2) * iint_{cell_i x cell_j} G(|t-s|) for i != j, and the
    diagonal carries the extra (gamma/2)(T/m) from the gamma-term.  H is
    symmetric Toeplitz, so only the first row is integrated.
    """
    i = np.arange(m)
    col = _column(_grid_rows(problem, m)[0], problem.gamma * (problem.horizon / m))
    H = 0.5 * col[np.abs(np.subtract.outer(i, i))]
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


def _embedding(col):
    """The 2m-point symmetric circulant column (col, col[m-1], col[m-1:0:-1]).

    Its leading m x m block is the symmetric Toeplitz matrix with first column
    ``col`` whatever the free middle entry is.  That entry is col[m-1], not 0:
    the inverse of the circulant then preconditions the Toeplitz matrix
    better (the tabulated sweep's slowest row takes 7 steps, against 9).
    Works along the last axis.
    """
    return np.concatenate((col, col[..., -1:], col[..., :0:-1]), axis=-1)


def _embedding_spectrum(col):
    """Eigenvalues (rfft order) of the circulant ``_embedding(col)``.

    The Toeplitz matrix with first column ``col`` times v is
    irfft(spectrum * rfft(v, 2m), 2m)[:m].  The circulant is symmetric, so
    its eigenvalues are real.  Adding s to col[0] adds s to every
    eigenvalue.  Works along the last axis.
    """
    return np.fft.rfft(_embedding(col)).real


def _hann_eigenvalues(col):
    """Eigenvalues (rfft order) of the von Hann-windowed embedding, clipped at 0.

    The embedding's column is tapered by cos^2(pi min(k, 2m-k) / 4m), which
    smooths its spectrum (Chan & Ng, SIAM Review 38(3), 1996) where the
    plain embedding has eigenvalues far below 0, as for a compactly
    supported kernel at small gamma.
    """
    m = len(col)
    k = np.arange(2 * m)
    window = np.cos(np.pi / (4 * m) * np.minimum(k, 2 * m - k)) ** 2
    return np.maximum(np.fft.rfft(_embedding(col) * window).real, 0.0)


def _half_operator(spectrum, twist):
    """(A, D) of a symmetric product folded onto even vectors.

    ``spectrum`` holds the real eigenvalues C_0..C_n (rfft order) of a
    symmetric circulant of size 2n, and S is its leading n x n block, n = 2k.
    A vector x of length n with x = x[::-1] is held by its right half
    v = x[k:] in the order u = (v[1::2][::-1], v[0::2]), and the right half
    of S x, in the same order, is irfft(A U + D conj(U), n)[:k] with
    U = rfft(u, n), A = (C_f + C_{n-f})/2 and D = (C_f - C_{n-f})/2 ``twist``,
    where ``twist`` = exp(i pi f (1 - 4 floor(k/2)) / n) for f = 0..k.
    That is a DCT-II/III pair (symmetric convolution, Martucci 1994)
    evaluated by Makhoul's n-point FFT (1980), with u rotated so that one
    layout serves every k.  The solve folds the 2m-point embeddings of K and
    of the midpoint row and the inverses of K's embeddings (n = m).
    """
    k = (spectrum.shape[-1] - 1) // 2
    # slices, not an index array: fancy indexing on the last axis returns
    # column-major rows, which np.vecdot sums in another order than one row
    low, high = spectrum[..., :k + 1], spectrum[..., k:][..., ::-1]
    return 0.5 * (low + high), 0.5 * (low - high) * twist


def _apply(a, d, v, n):
    """irfft(a V + d conj(V), n) cut to v's length, with V = rfft(v, n).

    With d None this is the circulant product of eigenvalues a, else the
    folded product of ``_half_operator``.  Works along the last axis.
    """
    return _product(a, d, np.fft.rfft(v, n), n)[..., :v.shape[-1]]


def _product(a, d, spectrum, n):
    """irfft(a U + d conj(U), n) for the rfft ``spectrum`` U, as in ``_apply``.

    One U serves several (a, d) pairs: the output stage applies the energy's
    and the residual's operators to one transform of phi.
    """
    spectrum = a * spectrum if d is None else a * spectrum + d * spectrum.conj()
    return np.fft.irfft(spectrum, n)


# conjugate gradients on a second-kind equation converge in a number of steps
# that does not grow with m; a row that misses the first rung's cap moves on
# to the second preconditioner, and past its cap to Levinson-Durbin
_RUNG_CAPS = (10, 200)
_PCG_RTOL = 1e-14
# a sweep's rows are iterated in blocks of at most this many cells in total, so
# a block's working arrays stay near the size of one solve at large m
_BLOCK_CELLS = 1 << 16
# a row left to the O(m^2) Levinson-Durbin loop above this many cells is
# refused: on the bump Tabulated((0, .4, .5, .6, 1), (.01, .2, 1, .2, .01)) the
# loop took 0.57 s at 2^14 cells and 2.3 s at 2^15 (one BLAS thread), and at
# the CLI's 2^22 ceiling it would run for hours
_LEVINSON_MAX_CELLS = 1 << 15


class _Operators:
    """The gamma-free FFT operators of one grid, shared by every gamma of a sweep.

    Both rows come from one ``Kernel.grid_rows`` call, so the grid table a
    family builds them from is built once per solve or sweep.  ``lags`` is the
    lag row of K and ``spectrum`` the eigenvalues of its 2m-point embedding
    (``_embedding``), clipped at 0.  ``certifiable`` holds when theory puts
    every eigenvalue of K at or above 0 (the kernel is of positive type),
    and ``rounding`` bounds how far rounding in the computed lag row can move
    them: a symmetric Toeplitz perturbation d has norm at most 2 |d|_1, and
    m/2 ulps of every entry are allowed for.

    2H commutes with the reversal of the cells and the right-hand side is 1,
    so the solution is even about T/2; a solve holds it by its ``unknowns``:
    the m/2 cells of the right half in ``_half_operator``'s order for even m,
    all m cells for odd m (a cell on the midpoint needs a DCT-I, which has no
    half-length FFT).  u = x[``fold``] and x = u[``order``].  K's product
    (``product_a``, ``product_d``) and the residual's convolution with the
    midpoint row (``residual_a``, ``residual_d``) transform at length
    2 ``unknowns``: folded at m for even m, plain (``_d`` None) at 2m for
    odd m.  The permutations and the fold twist depend on m alone and are
    built once here.  The second rung's spectrum, ``hann``, is built when a
    row first reaches it.
    """

    def __init__(self, problem: Problem, m: int):
        lags, midpoints = _grid_rows(problem, m)
        self.lags = lags
        self.certifiable = problem.kernel.classify().positive_type_known
        self.rounding = m * np.finfo(float).eps * float(np.sum(np.abs(lags)))
        spectra = _embedding_spectrum(np.stack((lags, midpoints)))
        self.spectrum = np.maximum(spectra[0], 0.0)
        if m % 2:
            self.unknowns = m
            self.fold = self.order = np.arange(m)
            self._twist = None
            self.product_a, self.residual_a = spectra
            self.product_d = self.residual_d = None
        else:
            k = self.unknowns = m // 2
            half = np.empty(k, dtype=np.intp)  # v = u[half]
            half[0::2] = np.arange(k // 2, k)
            half[1::2] = np.arange(k // 2 - 1, -1, -1)
            self.order = np.concatenate((half[::-1], half))
            self.fold = np.empty(k, dtype=np.intp)
            self.fold[half] = np.arange(k, m)
            # the integer angle is reduced mod 2m first: exp of an angle near
            # pi m/2 would lose its low digits (2e-13 at m = 4096)
            f = np.arange(k + 1)
            self._twist = np.exp(1j * np.pi / m * (f * (1 - 4 * (k // 2)) % (2 * m)))
            (self.product_a, self.residual_a), (self.product_d, self.residual_d) = (
                _half_operator(spectra, self._twist))

    @cached_property
    def hann(self):
        return _hann_eigenvalues(self.lags)

    def preconditioner(self, rung, ridges):
        """(a, d) of the rung's preconditioner plus each ridge, one row each,
        applied like the product, by ``_apply(a, d, r, 2 * unknowns)``.

        Rungs 0 and 1 invert K's 2m-point embedding, plain and von Hann
        windowed, each with its eigenvalues clipped at 0 and shifted by the
        ridge, and act by the leading block of that inverse: folded like the
        product for even m.
        """
        inverse = 1.0 / ((self.hann if rung else self.spectrum) + ridges)
        a, d = (inverse, None) if self._twist is None else _half_operator(inverse, self._twist)
        return a.astype(complex), d  # cast once, not inside every product


def _pcg(kern_a, kern_d, pre, x, r, cap, stop):
    """Preconditioned conjugate gradients on a block of rows, from x with r = 1 - 2H x.

    ``kern_a``, ``kern_d`` are 2H's product as ``_apply`` takes it and
    ``pre`` = (a, d) the preconditioner's, both at x's transform length
    2 ``unknowns``; each ``a`` and a preconditioner's ``d`` hold one row per
    row of x.  Each operator or preconditioner application is one 2-D
    rfft/irfft over the rows still iterating.  A row leaves the block when
    |r| <= ``stop``, or gives up at the same step when its search direction
    has p' 2H p <= 0 (alpha = 0).
    Returns (solved, missed, x): solved[j] is row j's solution, or None if it
    gave up or missed the cap; ``missed`` lists the rows still iterating
    after ``cap`` steps, and x their iterates, in that order.
    """
    pre_a, pre_d = pre
    n = 2 * x.shape[-1]
    live = list(range(len(x)))
    solved = [None] * len(x)
    p = rz = None
    for _ in range(cap):
        z = _apply(pre_a, pre_d, r, n)
        rz, rz_old = np.vecdot(r, z, keepdims=True), rz
        p = z if p is None else z + (rz / rz_old) * p
        q = _apply(kern_a, kern_d, p, n)
        curvature = np.vecdot(p, q, keepdims=True)
        curved = [c > 0 for (c,) in curvature.tolist()]
        # alpha = 0 on a row that is not curved: it leaves with the converged ones
        alpha = rz / (curvature if all(curved) else np.where(curvature > 0, curvature, np.inf))
        x += alpha * p
        r -= alpha * q
        keep = [c and math.sqrt(rr) > stop for c, rr in zip(curved, np.vecdot(r, r).tolist())]
        if not all(keep):  # these rows converged, or gave up if not curved
            for j, x_row, c, kept in zip(live, x, curved, keep):
                if c and not kept:
                    solved[j] = x_row
            live = [j for j, kept in zip(live, keep) if kept]
            if not live:
                break
            keep = np.array(keep)  # converted once for the seven arrays below
            x, r, p, rz, kern_a, pre_a, pre_d = (
                a if a is None else a[keep] for a in (x, r, p, rz, kern_a, pre_a, pre_d))
    return solved, live, x


def _solve_rows(problem: Problem, ops: _Operators, gammas) -> list:
    """Solve 2H x = 1 on one grid for each gamma, one row of a block each.

    Every row is held by its ``ops.unknowns`` u from the first FFT to the
    output and unfolded once, into its ``SolutionGrid``.  A row that
    ``_uncertified_cause`` certifies (margin gamma h over ``ops.rounding``) runs
    ``_pcg`` from x = 0 up a ladder of preconditioners, each shifted by
    gamma h (``_Operators.preconditioner``): the inverse of K's embedding
    for at most 10 steps, then the inverse of the von Hann windowed
    embedding for 200.  A row that misses the first cap keeps its iterate
    and restarts under the second rung from its true residual, one
    product.  The ladder runs once per rung on the rows still unconverged,
    and each row does the arithmetic of a one-row block, so a sweep matches
    the single solves bit for bit.  A row leaves the block when the full
    residual has |r| <= 1e-14 |1| (for even m the half holds |r|^2 / 2).  A
    row that gives up (p' 2H p <= 0) or misses the last cap, or is never
    certified, is solved alone by Levinson-Durbin, which refuses with
    :class:`~fredholm.errors.LevinsonLimitError` above 2^15 cells.  A row
    solved on all m cells (Levinson-Durbin, or CG at odd m) enters as the
    average of x and its reversal, u = x[``ops.fold``]: that projection onto
    even vectors commutes with 2H, so it cannot raise the residual beyond
    rounding.  Every row leaves by one output stage, where each u stands for
    s = m // ``ops.unknowns`` cells: the mass sum x is s fsum(u), correctly
    rounded, and the energy (s/2) phi' 2H phi and the midpoint residual are
    two ``_product`` calls on one rfft of phi.
    """
    m = len(ops.lags)
    width = ops.unknowns
    h = problem.horizon / m
    gammas = np.array(gammas)[:, None]  # (k, 1), like every per-row scalar below
    ridges = gammas * h  # 2H = ridge I + K
    x_rows = [None] * len(gammas)

    # the block's bookkeeping is Python lists: at small m, numpy calls on a
    # handful of per-row scalars would cost as much as the FFTs
    rows = [i for i, ridge in enumerate(ridges[:, 0].tolist())
            if _uncertified_cause(ops, ridge) is None]
    x, r = np.zeros((len(rows), width)), np.ones((len(rows), width))
    stop = _PCG_RTOL * math.sqrt(width)
    for rung, cap in enumerate(_RUNG_CAPS):
        if not rows:
            break
        # lambda_min(2H) >= ridge > 0 on every row; the real eigenvalue rows
        # are cast to complex once per rung here, not inside every product
        kern_a = (ops.product_a + ridges[rows]).astype(complex)
        if rung:  # the true residual of the iterate the last rung left
            r = 1.0 - _apply(kern_a, ops.product_d, x, 2 * width)
        solved, missed, x = _pcg(kern_a, ops.product_d, ops.preconditioner(rung, ridges[rows]),
                                 x, r, cap, stop)
        for i, x_row in zip(rows, solved):
            x_rows[i] = x_row
        rows = [rows[j] for j in missed]
    for i, x_row in enumerate(x_rows):
        if x_row is None:
            if m > _LEVINSON_MAX_CELLS:
                raise LevinsonLimitError(m, _LEVINSON_MAX_CELLS, _uncertified_cause(ops, ridges[i, 0])
                                         or "conjugate gradients did not converge under any preconditioner")
            x_row = _levinson_ones(_column(ops.lags, float(ridges[i, 0])))
        if len(x_row) == m:  # solved on all m cells
            x_rows[i] = 0.5 * (x_row + x_row[::-1])[ops.fold]

    # 2H phi = sigma w and w = h*1, so phi ~ x
    u = np.array(x_rows)
    mass = h * np.array([m // width * math.fsum(row.tolist()) for row in u])[:, None]
    phi = u / mass
    sigma = 1.0 / (h * mass)
    spectrum = np.fft.rfft(phi, 2 * width)
    energy = 0.5 * (m // width) * np.vecdot(
        phi, _product(ops.product_a + ridges, ops.product_d, spectrum, 2 * width)[:, :width])
    resid = (gammas * phi + _product(ops.residual_a, ops.residual_d, spectrum, 2 * width)[:, :width]
             - sigma)
    residual_max = np.max(np.abs(resid), axis=1)
    return [
        SolutionGrid(
            cells=m,
            values=phi[i, ops.order],
            sigma=float(sigma[i, 0]),
            energy=float(energy[i]),
            residual_max=float(residual_max[i]),
            horizon=problem.horizon,
        )
        for i in range(len(gammas))
    ]


def _uncertified_cause(ops: _Operators, ridge):
    """None when the positive-type certificate lets the ladder take a row of ridge
    gamma h, else why it does not, in words."""
    if not ops.certifiable:
        return "the kernel has no positive-type claim"
    if not ridge > ops.rounding:
        return "the margin gamma h does not clear the lag row's rounding bound"


def solve(problem: Problem, m: int) -> SolutionGrid:
    """Minimize the discretized energy under unit mass.

    Solving 2H x = 1 gives phi = x / (h sum x) and the multiplier
    sigma = 1 / (h^2 sum x).  For a kernel of positive type
    (``classify().positive_type_known``), theory puts every eigenvalue of
    2H at or above gamma h; when that margin exceeds the bound
    m * eps * |lag row|_1 on the lag row's rounding, preconditioned
    conjugate gradients solve the system in O(m log m), under the inverse of
    K's circulant embedding, then that of the von Hann windowed embedding
    (see ``_solve_rows``).  Otherwise, or when the
    iteration does not reach |r| <= 1e-14 |1| within the last rung's cap,
    Levinson-Durbin solves it in O(m^2), and raises
    :class:`~fredholm.errors.IndefiniteKernelError` when H is not positive
    definite (the kernel is not of positive type at this resolution).  For
    even m the solve, the mass, the energy phi' H phi and the midpoint
    residual all run on the right half of the even solution, with FFTs of
    length m; a Levinson-Durbin solution enters that
    half as the average of itself and its reversal.  ``values`` equals its
    reversal exactly, for odd m too; no m x m matrix is formed.  This is
    the one-row case of the block iteration :func:`gamma_sweep` runs, so
    both give the same bits.

    The midpoint residual shrinks with the cell width h at a rate the kernel
    sets: like h^2 for the bounded families (a 4x finer grid divides it by
    about 16), but only like h^(1 - alpha) for ``PowerLaw``, whose
    singularity at lag 0 sits in every diagonal cell (a 4x finer grid
    divides it by 4^(1 - alpha), that is 2 at alpha = 0.5).

    The Levinson-Durbin route is an O(m^2) Python loop: a kernel with no
    positive-type claim takes 0.57 s at m = 2^14 and 2.3 s at 2^15, so
    above 2^15 cells it raises :class:`~fredholm.errors.LevinsonLimitError`
    instead of starting.  Its solution meets sigma = 2 J only to its own
    relative residual, a few 1e-9 sigma for the cosine kernel at gamma
    1e-5, T 20, where the ladder meets it to 2e-11.
    """
    return _solve_rows(problem, _Operators(problem, m), [problem.gamma])[0]


def sweep_gammas(gammas) -> list:
    """The ridge values of a sweep as floats, in the order given.

    Raises ValueError unless there is at least one and each is positive and
    finite.  Every row starts from zero, so the order changes no bit.
    """
    gammas = [_positive_finite(g, "sweep gammas") for g in gammas]
    if not gammas:
        raise ValueError("gamma sweep needs at least one value")
    return gammas


def gamma_sweep(problem: Problem, m: int, gammas) -> list:
    """Solve a sequence of gamma values, in any order, on a fixed grid.

    The gamma-free lag row, the (for even m folded) FFT operators of K and
    of the midpoint convolution, and the eigenvalues of each circulant
    preconditioner are computed once, the second rung's only when a row
    reaches it; each gamma only adds gamma h to K's spectrum and to the
    preconditioners' eigenvalues.  The gammas are one block of rows:
    conjugate gradients iterate every certified row at once (the right half
    of each for even m), one 2-D FFT per operator or preconditioner
    application, each of the ladder's two rungs runs once on the rows still
    unconverged, and a row leaves the block when it converges; rows that are
    not certified, or give up, are solved one by one by Levinson-Durbin.
    Every gamma gets the bits :func:`solve` gives it.  A block holds at most
    2^16 cells in total, or one row when m is larger, so memory stays that of
    one solve at large m.  Used to watch mass migrate toward the endpoints as the quadratic
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
