"""Discretized minimization: assembly, Toeplitz solve, invariants, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from fredholm import discrete, exponential
from fredholm.discrete import Problem, discretize, endpoint_mass, gamma_sweep, kernel_row, solve
from fredholm.errors import IndefiniteKernelError, LevinsonLimitError
from fredholm.kernels import (
    CappedLinear,
    ExponentialSum,
    PowerCapped,
    PowerLaw,
    Tabulated,
    Trigonometric,
)

import oracles

EXP1 = Problem(gamma=1.0, horizon=1.0, kernel=ExponentialSum(a=(1.0,), b=(1.0,)))


def test_problem_validation():
    k = ExponentialSum(a=(1.0,), b=(1.0,))
    with pytest.raises(ValueError):
        Problem(gamma=0.0, horizon=1.0, kernel=k)
    with pytest.raises(ValueError):
        Problem(gamma=1.0, horizon=-2.0, kernel=k)
    with pytest.raises(ValueError):
        solve(EXP1, 1)


def test_assembled_diagonal_entry_exact():
    # m=2, gamma=1, T=1: H_00 = 0.5 * 2(e^{-h}-1+h) + gamma*h/2 with h=1/2,
    # worked out by hand from the definition of the energy matrix
    H, w = discretize(EXP1, 2)
    h = 0.5
    expected = (math.expm1(-h) + h) + 1.0 * h / 2.0
    assert H[0, 0] == pytest.approx(expected, rel=1e-15)
    assert H[0, 0] == pytest.approx(0.3565306597126334, rel=1e-15)
    assert w[0] == h
    # symmetric Toeplitz structure
    assert H[0, 1] == H[1, 0]


def test_solve_invariants_exp():
    grid = solve(EXP1, 256)
    h = grid.spacing
    assert math.fsum(grid.values * h) == pytest.approx(1.0, abs=1e-15)
    assert grid.sigma > 0
    # sigma = 2 * J by construction of the KKT system
    assert grid.sigma == pytest.approx(2.0 * grid.energy, rel=1e-12)
    # minimizer of a symmetric problem is symmetric
    assert np.max(np.abs(grid.values - grid.values[::-1])) <= 1e-7
    assert grid.residual_max <= 1e-3 * grid.sigma
    assert np.all(grid.values > 0)


def test_solution_converges_to_closed_form():
    kernel = ExponentialSum(a=(1.0,), b=(1.0,))
    cf = exponential.build_closed_form(kernel, 1.0, 1.0)
    errs = []
    for m in (64, 256, 1024):
        grid = solve(EXP1, m)
        ref = exponential.eval_closed_form(cf, grid.midpoints())
        errs.append(np.max(np.abs(grid.values - ref)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-3


def test_sigma_converges_to_closed_form():
    cf = exponential.build_closed_form(ExponentialSum(a=(1.0,), b=(1.0,)), 1.0, 1.0)
    sig_err = [abs(solve(EXP1, m).sigma - cf.sigma) for m in (32, 128, 512)]
    assert sig_err[0] > sig_err[1] > sig_err[2]


def test_kernel_row_matches_assembled_matrix():
    # H must be exactly the half quadratic form built from the row entries
    problem = Problem(gamma=0.5, horizon=2.0, kernel=ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0)))
    m = 16
    row = kernel_row(problem, m)
    H, _ = discretize(problem, m)
    h = problem.horizon / m
    assert H[0, 0] == pytest.approx((row.Gn0 + problem.gamma * h / 2.0) / 2.0, rel=1e-14)
    for k in range(1, m):
        assert H[0, k] == pytest.approx(row.Gn[k - 1] / 2.0, rel=1e-14)


def test_kernel_row_against_weighted_quadrature():
    problem = Problem(gamma=0.5, horizon=2.0, kernel=ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0)))
    m = 16
    h = problem.horizon / m
    row = kernel_row(problem, m)
    assert row.Gn0 == pytest.approx(
        oracles.coupling_diagonal(problem.kernel, problem.gamma, h), rel=1e-10
    )
    for k in (1, 2, 7, 15):
        assert row.Gn[k - 1] == pytest.approx(
            oracles.coupling_offdiagonal(problem.kernel, k * h, h), rel=1e-10
        )


def test_trig_solution_goes_negative():
    problem = Problem(gamma=0.001, horizon=1.0, kernel=Trigonometric(rho=0.5))
    grid = solve(problem, 512)
    assert grid.values.min() < 0
    assert grid.sigma > 0


def test_indefinite_kernel_detected():
    # a bump (increasing then decreasing) tabulated kernel is not of positive
    # type; with nearly no quadratic penalty the Cholesky certificate fails
    bump = Tabulated(t=(0.0, 0.4, 0.5, 0.6, 1.0), g=(0.01, 0.2, 1.0, 0.2, 0.01))
    problem = Problem(gamma=1e-6, horizon=1.0, kernel=bump)
    with pytest.raises(IndefiniteKernelError) as info:
        solve(problem, 32)
    assert info.value.pivot == 2
    assert "positive type" in str(info.value)


@pytest.mark.parametrize("m", [8, 32, 128])
@pytest.mark.parametrize("gamma", [1e-6, 1e-4, 1e-2])
def test_indefinite_pivot_matches_dense_cholesky(m, gamma):
    # the Levinson-Durbin certificate must name the same leading minor as a
    # dense Cholesky factorization of the assembled quadratic form
    bump = Tabulated(t=(0.0, 0.4, 0.5, 0.6, 1.0), g=(0.01, 0.2, 1.0, 0.2, 0.01))
    problem = Problem(gamma=gamma, horizon=1.0, kernel=bump)
    H, _ = discretize(problem, m)
    info = linalg.lapack.dpotrf(H, lower=1)[1]
    assert info > 0
    with pytest.raises(IndefiniteKernelError) as err:
        solve(problem, m)
    assert err.value.pivot == info


def _levinson_solution(problem, m):
    """(sigma, phi) from the Levinson-Durbin solve of 2H x = 1, made even as
    the solver does: averaged with its reversal and held by its unknowns."""
    h = problem.horizon / m
    ops = discrete._Operators(problem, m)
    x = discrete._levinson_ones(discrete._column(ops.lags, problem.gamma * h))
    u = 0.5 * (x + x[::-1])[ops.fold]
    mass = h * (m // ops.unknowns * math.fsum(u))
    return 1.0 / (h * mass), (u / mass)[ops.order]


POSITIVE_TYPE = {
    "exp2": Problem(gamma=0.5, horizon=2.0, kernel=ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0))),
    "capped": Problem(gamma=0.1, horizon=3.0, kernel=CappedLinear(cap=1.0)),
    "power_capped": Problem(gamma=0.3, horizon=2.0, kernel=PowerCapped(rho=1.0, p=2)),
    "trig": Problem(gamma=0.01, horizon=1.0, kernel=Trigonometric(rho=0.5)),
    "power_law": Problem(gamma=0.5, horizon=2.0, kernel=PowerLaw(alpha=0.5)),
    "tabulated": Problem(gamma=0.3, horizon=3.0,
                         kernel=Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05))),
}


# odd m, and even m with m/2 even and odd (the half iteration's two layouts)
@pytest.mark.parametrize("m", [2, 3, 6, 255, 256, 1026, 4096])
@pytest.mark.parametrize("name", POSITIVE_TYPE)
def test_pcg_matches_levinson(monkeypatch, name, m):
    # every positive-type family runs conjugate gradients; they must land on
    # the Levinson-Durbin solution of the same Toeplitz system
    problem = POSITIVE_TYPE[name]
    assert problem.kernel.classify().positive_type_known
    sigma, phi = _levinson_solution(problem, m)
    monkeypatch.setattr(discrete, "_levinson_ones", None)  # the certified route needs no fallback
    grid = solve(problem, m)
    assert grid.sigma == pytest.approx(sigma, rel=1e-14)
    assert np.max(np.abs(grid.values - phi)) <= 1e-12 * np.max(np.abs(phi))
    np.testing.assert_array_equal(grid.values, grid.values[::-1])


BUMP = Tabulated(t=(0.0, 0.4, 0.5, 0.6, 1.0), g=(0.01, 0.2, 1.0, 0.2, 0.01))


@pytest.mark.parametrize("problem, m", [
    (POSITIVE_TYPE["exp2"], 1024),  # conjugate gradients on the right half
    (replace(EXP1, gamma=5e-15), 64),  # margin below the rounding bound
    (replace(EXP1, gamma=5e-15), 65),
    (Problem(gamma=1.0, horizon=3.0, kernel=BUMP), 64),  # no positive-type claim
], ids=["exp2-pcg", "exp1-levinson-64", "exp1-levinson-65", "bump-levinson"])
def test_values_equal_their_reversal(problem, m):
    # 2H commutes with the reversal of the cells, so the minimizer is even
    # about T/2; a Levinson-Durbin solution, which rounding leaves 1e-12 off
    # even, must come back as exactly even as the iterated one
    grid = solve(problem, m)
    np.testing.assert_array_equal(grid.values, grid.values[::-1])


@pytest.mark.parametrize("m", [2, 6, 1026, 4096])
def test_half_products_match_full_products(m):
    # the folded products of an even vector must be as accurate as the
    # full-length FFT products; random rows and a random vector give every
    # frequency weight, where an unreduced twist angle would put 2e-13 into
    # them at m = 4096
    rng = np.random.default_rng(m)
    k = m // 2
    ops = discrete._Operators(EXP1, m)
    order, twist = ops.order, ops._twist
    x = rng.standard_normal(k)
    x = np.concatenate((x[::-1], x))
    u = np.empty(k)
    u[order[k:]] = x[k:]
    col = rng.standard_normal(m)
    toeplitz = discrete._embedding_spectrum(col)
    # the leading block of the inverse of the clipped, shifted embedding, as
    # the first rung of the preconditioner ladder applies it
    inverse = 1.0 / (np.maximum(toeplitz, 0.0) + 1.0)
    for half, full in [
        (discrete._apply(*discrete._half_operator(toeplitz, twist), u, m),
         np.fft.irfft(toeplitz * np.fft.rfft(x, 2 * m), 2 * m)[:m]),
        (discrete._apply(*discrete._half_operator(inverse, twist), u, m),
         np.fft.irfft(inverse * np.fft.rfft(x, 2 * m), 2 * m)[:m]),
    ]:
        assert np.max(np.abs(half[order] - full)) <= 4e-15 * np.max(np.abs(full))


@pytest.mark.parametrize("cause", ["iteration_cap", "margin"])
def test_uncertified_runs_fall_back_to_levinson(monkeypatch, cause):
    # a PCG run that misses the cap of every rung of its preconditioner
    # ladder, or whose theory margin gamma h does not clear the lag row's
    # rounding bound, is solved by Levinson-Durbin instead
    problem = EXP1
    if cause == "iteration_cap":
        monkeypatch.setattr(discrete, "_RUNG_CAPS", (1, 1))
    else:  # gamma h = 7.8e-17 against the bound m eps |lags|_1 = 1.4e-16
        problem = replace(EXP1, gamma=5e-15)
    calls = []
    levinson = discrete._levinson_ones
    monkeypatch.setattr(discrete, "_levinson_ones", lambda col: calls.append(1) or levinson(col))
    grid = solve(problem, 64)
    assert calls == [1]
    sigma, phi = _levinson_solution(problem, 64)
    assert grid.sigma == sigma
    np.testing.assert_array_equal(grid.values, phi)


def _spy(monkeypatch, name):
    """Replace discrete.<name> by a wrapper that logs its first argument's length."""
    calls = []
    function = getattr(discrete, name)
    monkeypatch.setattr(discrete, name, lambda first, *rest: calls.append(len(first))
                        or function(first, *rest))
    return calls


# the rung a row ends on, the rung caps that put it there, and how often the
# von Hann spectrum is built on the way: once, and only when a row reaches it
@pytest.mark.parametrize("last, caps, built", [
    (0, discrete._RUNG_CAPS, 0),
    (1, (1, 200), 1),
    (2, (1, 1), 1),
], ids=["embedding", "hann", "levinson"])
@pytest.mark.parametrize("m", [255, 256, 1026])
def test_every_rung_of_the_ladder_lands_on_levinson(monkeypatch, m, last, caps, built):
    # exp2 needs 5 steps under the embedding inverse; capping a rung at one
    # step makes a row keep its iterate and restart from its true residual
    # under the von Hann rung, and past that one Levinson-Durbin solves it
    problem = POSITIVE_TYPE["exp2"]
    sigma, phi = _levinson_solution(problem, m)
    monkeypatch.setattr(discrete, "_RUNG_CAPS", caps)
    rungs = _spy(monkeypatch, "_pcg")
    hann = _spy(monkeypatch, "_hann_eigenvalues")
    levinson = _spy(monkeypatch, "_levinson_ones")
    grid = solve(problem, m)
    assert rungs == [1] * min(last + 1, 2)
    assert len(hann) == built
    assert levinson == ([m] if last == 2 else [])
    assert grid.sigma == pytest.approx(sigma, rel=1e-14)
    assert np.max(np.abs(grid.values - phi)) <= 1e-12 * np.max(np.abs(phi))
    np.testing.assert_array_equal(grid.values, grid.values[::-1])


def test_sweep_rows_ending_on_different_rungs_match_single_solves(monkeypatch):
    # cosine kernel at T 3: gamma 0.1 converges under the embedding inverse,
    # 0.01 and 1e-5 under the von Hann embedding; each rung runs once on the
    # rows still unconverged, and every row keeps the bits of its single solve
    problem = Problem(gamma=1.0, horizon=3.0, kernel=Trigonometric(rho=0.5))
    gammas = [0.1, 0.01, 1e-5]
    refs = [solve(replace(problem, gamma=g), 256) for g in gammas]
    rungs = _spy(monkeypatch, "_pcg")
    monkeypatch.setattr(discrete, "_levinson_ones", None)
    grids = gamma_sweep(problem, 256, gammas)
    assert rungs == [3, 2]
    for grid, ref in zip(grids, refs, strict=True):
        assert (grid.sigma, grid.energy, grid.residual_max) == (ref.sigma, ref.energy, ref.residual_max)
        np.testing.assert_array_equal(grid.values, ref.values)


@pytest.mark.parametrize("problem, m", [
    (Problem(gamma=1e-8, horizon=1.0, kernel=CappedLinear(cap=1.0)), 255),
    (Problem(gamma=1e-8, horizon=1.0, kernel=CappedLinear(cap=1.0)), 256),
    (Problem(gamma=0.01, horizon=3.0, kernel=Trigonometric(rho=0.5)), 256),
], ids=["capped-255", "capped-256", "cosine-256"])
def test_rows_leaving_the_embedding_rung_end_on_von_hann(monkeypatch, problem, m):
    # these rows miss the embedding inverse's 10 steps and converge under the
    # von Hann embedding within its cap, with no Levinson-Durbin fallback
    reference = _levinson_solution(problem, m)
    missed = []
    pcg = discrete._pcg

    def spy(*args):
        result = pcg(*args)
        missed.append(result[1])
        return result

    monkeypatch.setattr(discrete, "_pcg", spy)
    hann = _spy(monkeypatch, "_hann_eigenvalues")
    monkeypatch.setattr(discrete, "_levinson_ones", None)
    grid = solve(problem, m)
    assert missed == [[0], []]
    assert hann == [m]
    h = problem.horizon / m
    H, _ = discretize(problem, m)
    # 2H x = 1 with x = phi / (sigma h), to the stop rule's 1e-14 per cell
    # plus the dense product's rounding (measured: at most 1e-14)
    assert np.max(np.abs(2.0 * H @ grid.values / (grid.sigma * h) - 1.0)) <= 1e-13
    np.testing.assert_array_equal(grid.values, grid.values[::-1])
    if isinstance(problem.kernel, Trigonometric):
        # capped at gamma 1e-8 Levinson-Durbin is itself 2e-12 off; cosine is not
        sigma, phi = reference
        assert grid.sigma == pytest.approx(sigma, rel=1e-14)
        assert np.max(np.abs(grid.values - phi)) <= 1e-12 * np.max(np.abs(phi))


def test_levinson_refused_above_its_size(monkeypatch):
    # a row left to the O(m^2) recursion above the limit is refused before
    # the recursion starts, with the cause named
    monkeypatch.setattr(discrete, "_LEVINSON_MAX_CELLS", 63)
    levinson = _spy(monkeypatch, "_levinson_ones")
    for problem, cause in [
        (Problem(gamma=1.0, horizon=3.0, kernel=BUMP), "no positive-type claim"),
        (replace(EXP1, gamma=5e-15), "rounding bound"),
    ]:
        with pytest.raises(LevinsonLimitError, match=cause) as info:
            solve(problem, 64)
        assert (info.value.cells, info.value.limit) == (64, 63)
    monkeypatch.setattr(discrete, "_RUNG_CAPS", (1, 1))
    with pytest.raises(LevinsonLimitError, match="did not converge"):
        solve(EXP1, 64)
    assert levinson == []
    solve(EXP1, 63)  # at the limit the recursion still runs
    assert levinson == [63]


def test_gamma_sweep_orders_and_endpoint_mass():
    grids = gamma_sweep(EXP1, 128, [1.0, 0.25, 0.05])
    masses = [endpoint_mass(g) for g in grids]
    # mass concentrates at the endpoints as the quadratic penalty shrinks
    assert masses[0] < masses[1] < masses[2]
    sigmas = [g.sigma for g in grids]
    assert sigmas[0] > sigmas[1] > sigmas[2] > 0


@pytest.mark.parametrize("problem, m, gammas", [
    (EXP1, 96, [1.0, 0.1, 0.003]),
    (Problem(gamma=0.3, horizon=3.0,
             kernel=Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05))),
     96, [1.0, 0.1, 0.003]),
    # rows leave the block at different iterations, and every row climbs the
    # preconditioner ladder to its second rung, the von Hann embedding
    (Problem(gamma=1.0, horizon=20.0, kernel=Trigonometric(rho=0.5)), 256, [1e-2, 1e-3, 1e-5, 1e-8]),
    # the last row's margin gamma h does not clear the rounding bound
    (EXP1, 64, [1.0, 1e-3, 5e-15]),
    # odd m iterates on every cell, m = 2 mod 4 on an odd half
    (EXP1, 97, [1.0, 0.1, 0.003]),
    (Problem(gamma=0.3, horizon=3.0,
             kernel=Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05))),
     98, [1.0, 0.1, 0.003]),
], ids=["exp1", "tabulated", "trig_cap", "exp1_margin", "exp1_odd", "tabulated_2mod4"])
def test_gamma_sweep_matches_independent_solves(monkeypatch, problem, m, gammas):
    # a sweep iterates its gammas as one block, or as blocks of two rows when
    # a block is capped at 2m cells; every row must carry the bits of its own
    # single solve and take the same route
    calls = []
    levinson = discrete._levinson_ones
    monkeypatch.setattr(discrete, "_levinson_ones", lambda col: calls.append(1) or levinson(col))
    refs = [solve(replace(problem, gamma=g), m) for g in gammas]
    solve_calls = len(calls)
    for block_cells in (discrete._BLOCK_CELLS, 2 * m):
        monkeypatch.setattr(discrete, "_BLOCK_CELLS", block_cells)
        calls.clear()
        grids = gamma_sweep(problem, m, gammas)
        assert len(calls) == solve_calls
        for grid, ref in zip(grids, refs, strict=True):
            assert (grid.sigma, grid.energy, grid.residual_max) == (ref.sigma, ref.energy, ref.residual_max)
            np.testing.assert_array_equal(grid.values, ref.values)


def test_sweep_row_losing_curvature_falls_back(monkeypatch):
    # with the certificate forced on for a kernel that is not of positive
    # type, the gamma <= 0.1 rows meet p' 2H p <= 0 long before any cap: they
    # leave the block while the gamma = 1 row iterates on, and Levinson-Durbin
    # names the pivot a single solve names
    kernel = Tabulated(t=(0.0, 0.2, 0.4, 1.0), g=(0.1, 1.0, 0.1, 0.0))
    init = discrete._Operators.__init__

    def certified(self, problem, m):
        init(self, problem, m)
        self.certifiable = True

    monkeypatch.setattr(discrete._Operators, "__init__", certified)
    monkeypatch.setattr(discrete, "_RUNG_CAPS", (10_000,))
    problem = Problem(gamma=1.0, horizon=1.0, kernel=kernel)
    with pytest.raises(IndefiniteKernelError) as single:
        solve(replace(problem, gamma=0.1), 64)
    with pytest.raises(IndefiniteKernelError) as swept:
        gamma_sweep(problem, 64, [1.0, 0.1, 0.01])
    assert swept.value.pivot == single.value.pivot == 32


def test_gamma_sweep_validation():
    with pytest.raises(ValueError, match="positive"):
        gamma_sweep(EXP1, 64, [0.5, -0.1])
    with pytest.raises(ValueError, match="at least one"):
        gamma_sweep(EXP1, 64, [])


def test_gamma_sweep_order_changes_no_bits():
    # every row starts from zero, so the six gammas of the tabulated sweep
    # give each gamma the same bits in increasing and in shuffled order as
    # in the decreasing sweep
    problem = Problem(gamma=1.0, horizon=3.0,
                      kernel=Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05)))
    decreasing = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003)
    refs = dict(zip(decreasing, gamma_sweep(problem, 512, decreasing)))
    for order in (decreasing[::-1], (0.03, 1.0, 0.003, 0.3, 0.01, 0.1)):
        for g, grid in zip(order, gamma_sweep(problem, 512, order), strict=True):
            ref = refs[g]
            assert (grid.sigma, grid.energy, grid.residual_max) == (ref.sigma, ref.energy, ref.residual_max)
            np.testing.assert_array_equal(grid.values, ref.values)


def test_residual_against_independent_quadrature():
    grid = solve(EXP1, 128)
    h = grid.spacing

    # convolve the step function cell by cell so the quadrature never has to
    # straddle a jump; each cell integral is adaptive quadrature, sharing no
    # code with the antiderivative-based assembly
    def convolution(t):
        return math.fsum(
            grid.values[j] * oracles.cell_integral(EXP1.kernel, t, j * h, (j + 1) * h)
            for j in range(grid.cells)
        )

    worst = max(
        abs(EXP1.gamma * grid.values[i] + convolution(float(t)) - grid.sigma)
        for i, t in ((0, grid.midpoints()[0]), (64, grid.midpoints()[64]),
                     (97, grid.midpoints()[97]))
    )
    assert worst <= grid.residual_max * (1.0 + 1e-6) + 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_power_law_residual_rate(alpha):
    # the singular kernel caps the midpoint residual's decay at h^(1 - alpha)
    problem = Problem(gamma=0.5, horizon=2.0, kernel=PowerLaw(alpha=alpha))
    coarse, fine = (solve(problem, m) for m in (1024, 4096))
    ratio = (coarse.residual_max / coarse.sigma) / (fine.residual_max / fine.sigma)
    assert ratio == pytest.approx(4.0 ** (1.0 - alpha), rel=0.05)


def test_grid_midpoints():
    grid = solve(EXP1, 8)
    mids = grid.midpoints()
    assert mids.shape == (8,)
    assert mids[0] == pytest.approx(1.0 / 16.0)
    assert mids[-1] == pytest.approx(1.0 - 1.0 / 16.0)
