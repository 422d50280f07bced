"""Discretized minimization: assembly, Toeplitz solve, invariants, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from fredholm import discrete, exponential
from fredholm.discrete import Problem, discretize, endpoint_mass, gamma_sweep, kernel_row, solve
from fredholm.errors import IndefiniteKernelError
from fredholm.kernels import ExponentialSum, Tabulated, Trigonometric

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


def test_gamma_sweep_orders_and_endpoint_mass():
    grids = gamma_sweep(EXP1, 128, [1.0, 0.25, 0.05])
    masses = [endpoint_mass(g) for g in grids]
    # mass concentrates at the endpoints as the quadratic penalty shrinks
    assert masses[0] < masses[1] < masses[2]
    sigmas = [g.sigma for g in grids]
    assert sigmas[0] > sigmas[1] > sigmas[2] > 0


@pytest.mark.parametrize("problem", [
    EXP1,
    Problem(gamma=0.3, horizon=3.0,
            kernel=Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05))),
], ids=["exp1", "tabulated"])
def test_gamma_sweep_matches_independent_solves(problem):
    gammas = [1.0, 0.1, 0.003]
    for g, grid in zip(gammas, gamma_sweep(problem, 96, gammas)):
        ref = solve(replace(problem, gamma=g), 96)
        assert grid.sigma == pytest.approx(ref.sigma, rel=1e-13)
        np.testing.assert_allclose(grid.values, ref.values, rtol=1e-13, atol=0)


def test_gamma_sweep_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        gamma_sweep(EXP1, 64, [0.1, 0.5])
    with pytest.raises(ValueError, match="positive"):
        gamma_sweep(EXP1, 64, [0.5, -0.1])
    with pytest.raises(ValueError, match="at least one"):
        gamma_sweep(EXP1, 64, [])


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


def test_grid_midpoints():
    grid = solve(EXP1, 8)
    mids = grid.midpoints()
    assert mids.shape == (8,)
    assert mids[0] == pytest.approx(1.0 / 16.0)
    assert mids[-1] == pytest.approx(1.0 - 1.0 / 16.0)
