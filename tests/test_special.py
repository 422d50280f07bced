"""Capped-linear and trigonometric closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fredholm import _quad, discrete, exponential, special
from fredholm.kernels import CappedLinear, ExponentialSum, Trigonometric
from fredholm.special import (
    capped_linear_energy,
    capped_linear_residual_max,
    capped_linear_solve,
    eval_capped_linear,
    eval_trig,
    trig_energy,
    trig_residual_max,
    trig_solve,
)

import oracles


# ---------------------------------------------------------------- capped linear

def test_capped_eigenvalues_n3():
    # the n=3 junction system has eigenvalues 2 - sqrt2, 2, 2 + sqrt2
    sol = capped_linear_solve(3, 0.1)
    lam = np.sort(sol.lambda_vec)
    assert lam[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
    assert lam[1] == pytest.approx(2.0, rel=1e-14)
    assert lam[2] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)


def test_capped_n3_golden():
    # frozen from this implementation after confirming an adaptive-quadrature
    # residual of ~7e-16 and unit mass at the same commit
    sol = capped_linear_solve(3, 0.1)
    assert sol.sigma == pytest.approx(0.31112139483083995, rel=1e-13)
    assert eval_capped_linear(sol, 0.0) == pytest.approx(0.9376057482867005, rel=1e-12)
    assert eval_capped_linear(sol, 1.5) == pytest.approx(0.28354799192439734, rel=1e-12)


def test_capped_junctions_continuous():
    sol = capped_linear_solve(3, 0.1)
    assert sol.junction_gap <= 1e-9
    # continuity checked directly on the evaluator as well
    for j in (1.0, 2.0):
        below = eval_capped_linear(sol, j - 1e-12)
        above = eval_capped_linear(sol, j + 1e-12)
        assert below == pytest.approx(above, rel=1e-9)


def test_capped_residual_against_quadrature():
    sol = capped_linear_solve(3, 0.1)
    worst = oracles.fredholm_residual(
        CappedLinear(cap=1.0), lambda t: eval_capped_linear(sol, t),
        sol.sigma, 0.1, 3.0, [0.0, 0.4, 1.0, 1.5, 2.2, 3.0], breakpoints=range(1, sol.n),
    )
    assert worst <= 1e-14 * sol.sigma
    assert capped_linear_residual_max(sol) <= 1e-9 * sol.sigma


@pytest.mark.parametrize("n, gamma", [(1, 0.5), (3, 0.1), (11, 0.01), (3, 1e4), (3, 1e-5)])
def test_capped_convolution_matches_quadrature(n, gamma):
    # closed-form convolution against adaptive quadrature of the kernel's own
    # definition split at phi's junctions, at integers, interior points and
    # both ends; gamma = 1e-5 has boundary layers exp(-b s) with b near 600
    sol = capped_linear_solve(n, gamma)
    ts = np.unique(np.clip([0.0, 0.4, 1.0, 1.5, 2.2, n / 2, n - 0.3, float(n)], 0.0, n))
    got = special._capped_convolution(sol, ts)
    ref = [oracles.operator_apply(CappedLinear(cap=1.0), lambda s: eval_capped_linear(sol, s),
                                  t, float(n), breakpoints=range(1, n)) for t in ts]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_capped_residual_at_round_off_for_tiny_gamma():
    # the basis is integrated exactly, so even steep boundary layers
    # (b near 18,000 at gamma = 1e-8) leave the residual at round-off
    sol = capped_linear_solve(3, 1e-8)
    assert capped_linear_residual_max(sol) <= 1e-13 * sol.sigma


def test_capped_residual_detects_perturbed_coefficients(monkeypatch):
    # the check pass must see a 1e-6 relative error in the coefficients; the
    # reference takes the residual by adaptive quadrature at the pass's own points
    sol = capped_linear_solve(3, 0.1)
    tilt = 1.0 + 1e-6 * np.linspace(-1.0, 1.0, sol.n)
    bad = dataclasses.replace(sol, a_vec=sol.a_vec * tilt)
    seen = []
    convolution = special._capped_convolution
    monkeypatch.setattr(special, "_capped_convolution",
                        lambda s, t: seen.append(t) or convolution(s, t))
    got = capped_linear_residual_max(bad)
    ts = np.concatenate(seen)
    assert ts.min() == 0.0 and ts.max() == 1.5
    ref = oracles.fredholm_residual(
        CappedLinear(cap=1.0), lambda t: eval_capped_linear(bad, t),
        bad.sigma, bad.gamma, 3.0, ts, breakpoints=range(1, bad.n),
    )
    assert got == pytest.approx(ref, rel=1e-6, abs=0.0)
    assert got > 1e-6 * sol.sigma  # three orders above the 1e-9 test bound


def test_capped_symmetric_unit_mass():
    sol = capped_linear_solve(4, 0.3)
    t = np.linspace(0.0, 4.0, 161)
    phi = eval_capped_linear(sol, t)
    assert np.max(np.abs(phi - phi[::-1])) <= 1e-11
    # piecewise-exponential mass via fine trapezoid as a sanity bound
    assert np.trapezoid(phi, t) == pytest.approx(1.0, abs=1e-4)
    assert sol.sigma == pytest.approx(2.0 * capped_linear_energy(sol), rel=1e-11)


def test_capped_agrees_with_discrete_solver():
    sol = capped_linear_solve(3, 0.1)
    problem = discrete.Problem(gamma=0.1, horizon=3.0, kernel=CappedLinear(cap=1.0))
    grid = discrete.solve(problem, 1536)
    ref = eval_capped_linear(sol, grid.midpoints())
    assert np.max(np.abs(grid.values - ref)) <= 5e-3


def test_capped_hump_shape_n11():
    # gamma = 0.01, T = 11: positive but visibly nonconvex hump pattern
    sol = capped_linear_solve(11, 0.01)
    t = np.linspace(0.0, 11.0, 1101)
    phi = eval_capped_linear(sol, t)
    assert phi.min() >= -1e-8
    interior_second = np.diff(phi, 2)
    assert interior_second.min() < 0 < interior_second.max()  # not convex
    assert sol.junction_gap <= 1e-12


def test_capped_input_validation():
    for bad_n in (0, 2.5, True, -1):
        with pytest.raises(ValueError, match="positive integer"):
            capped_linear_solve(bad_n, 0.1)
    with pytest.raises(ValueError):
        capped_linear_solve(3, 0.0)


def test_capped_verification_panel_limit():
    # past boundary-layer rate 40960 (gamma below about 2.03e-9 at n = 3) the
    # solve refuses before solving, where the junction system would lose its
    # digits, turn singular or overflow
    for gamma in (2e-9, 1e-12, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="gamma too small to verify"):
            capped_linear_solve(3, gamma)
    # graded panels: the steepest accepted layers need few of them
    assert special.capped_linear_edges(capped_linear_solve(3, 2.1e-9)).size - 1 <= 100


def test_capped_edges_grade_toward_every_integer():
    # gentle layers: two panels per unit; steep ones: edges 4/b_max 2^j from every integer
    assert np.array_equal(special.capped_linear_edges(capped_linear_solve(3, 0.1)),
                          np.arange(7) / 2.0)
    sol = capped_linear_solve(3, 2.1e-9)
    edges = special.capped_linear_edges(sol)
    widths = np.diff(edges)
    assert edges[0] == 0.0 and edges[-1] == 3.0 and np.all(widths > 0)
    assert {0.5, 1.0, 1.5, 2.0, 2.5} <= set(edges.tolist())
    assert widths[0] == pytest.approx(4.0 / sol.b_vec.max(), rel=1e-15)
    assert widths[1] == pytest.approx(widths[0], rel=1e-15)
    assert widths[2] == pytest.approx(2.0 * widths[0], rel=1e-15)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       gamma=st.floats(min_value=0.01, max_value=10.0))
def test_capped_properties(n, gamma):
    sol = capped_linear_solve(n, gamma)
    assert sol.sigma > 0
    assert sol.junction_gap <= 1e-8 * max(1.0, abs(eval_capped_linear(sol, n / 2.0)))
    t = np.linspace(0.0, float(n), 16 * n + 1)
    phi = eval_capped_linear(sol, t)
    assert np.max(np.abs(phi - phi[::-1])) <= 1e-9 * max(1.0, phi.max())


# ------------------------------------------------------------------------ trig

# rho=1/2, gamma=1/1000, T=1 at 50 digits from the explicit formulas:
# beta = 2 tan(rho T/2) / (rho(2 gamma + T) + sin(rho T)),
# sigma = gamma / (T - 2 beta sin(rho T)/rho)
TRIG_BETA = 0.5208797836591599
TRIG_SIGMA = 0.9027579107931675
TRIG_PHI_AT_0 = 19.865369606635877
TRIG_PHI_AT_HALF = -8.462258752969181


def test_trig_fixture_golden():
    sol = trig_solve(0.5, 0.001, 1.0)
    # the swing of base + swing sin^2(rho (t - T/2)/2) is 4 beta cos(rho T/2) sigma/gamma
    assert sol.swing == pytest.approx(4.0 * TRIG_BETA * math.cos(0.25) * TRIG_SIGMA / 0.001,
                                      rel=1e-12)
    assert sol.sigma == pytest.approx(TRIG_SIGMA, rel=1e-12)
    assert eval_trig(sol, 0.0) == pytest.approx(TRIG_PHI_AT_0, rel=1e-12)
    assert eval_trig(sol, 0.5) == pytest.approx(TRIG_PHI_AT_HALF, rel=1e-12)


def test_trig_goes_negative_yet_sigma_positive():
    sol = trig_solve(0.5, 0.001, 1.0)
    t = np.linspace(0.0, 1.0, 10001)
    phi = eval_trig(sol, t)
    assert phi.min() < 0
    assert sol.sigma > 0


def test_trig_residual_against_quadrature():
    sol = trig_solve(0.5, 0.001, 1.0)
    worst = oracles.fredholm_residual(
        Trigonometric(rho=0.5), lambda t: eval_trig(sol, t), sol.sigma,
        0.001, 1.0, [0.0, 0.31, 0.5, 0.87, 1.0],
    )
    assert worst <= 1e-10 * sol.sigma
    assert trig_residual_max(sol) <= 1e-11 * sol.sigma


def test_trig_energy_identity():
    for rho, gamma, T in ((0.5, 0.001, 1.0), (2.0, 0.3, 1.5), (0.2, 1.0, 4.0)):
        sol = trig_solve(rho, gamma, T)
        assert sol.sigma == pytest.approx(2.0 * trig_energy(sol), rel=1e-11)


def test_trig_agrees_with_discrete_solver():
    sol = trig_solve(0.5, 0.001, 1.0)
    problem = discrete.Problem(gamma=0.001, horizon=1.0, kernel=Trigonometric(rho=0.5))
    grid = discrete.solve(problem, 1024)
    ref = eval_trig(sol, grid.midpoints())
    assert np.max(np.abs(grid.values - ref)) <= 5e-3


def test_trig_pole_horizon_is_regular():
    # rho*T/2 = pi/2 + k pi is a pole of beta = 2 tan(rho T/2)/D only: the
    # curve, sigma and every check stay regular there and continuous across it
    for T in (math.pi, 3.0 * math.pi):
        sol = trig_solve(1.0, 0.1, T)
        assert sol.sigma > 0
        assert trig_residual_max(sol) <= 1e-11 * sol.sigma
        worst = oracles.fredholm_residual(Trigonometric(rho=1.0), lambda t: eval_trig(sol, t),
                                          sol.sigma, 0.1, T, [0.0, 0.9, T / 2.0, T])
        assert worst <= 1e-10 * sol.sigma
        assert sol.sigma == pytest.approx(2.0 * trig_energy(sol), rel=1e-11)
        assert quad(lambda t: eval_trig(sol, t), 0.0, T)[0] == pytest.approx(1.0, rel=1e-12)
        near = trig_solve(1.0, 0.1, T - 1e-9)
        assert near.sigma == pytest.approx(sol.sigma, rel=1e-8)
        assert eval_trig(near, 0.0) == pytest.approx(eval_trig(sol, 0.0), rel=1e-8)


def test_trig_sigma_does_not_underflow_at_tiny_gamma_horizon():
    # gamma (2 gamma + T + sin(rho T)/rho) is about 2e-330 here and underflows,
    # while sigma tends to 720 gamma / (rho^4 T^5) as rho T -> 0 with
    # gamma << rho^4 T^5: N -> rho^4 T^6 / 360 and D/rho -> 2 T
    rho, gamma, T = 1.0, 1e-300, 1e-30
    sol = trig_solve(rho, gamma, T)
    assert sol.sigma > 0
    assert sol.sigma == pytest.approx(720.0 * gamma / (rho**4 * T**5), rel=1e-12)


def test_trig_input_validation():
    with pytest.raises(ValueError):
        trig_solve(-0.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        trig_solve(0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        trig_solve(0.5, 0.1, 0.0)


@pytest.mark.parametrize("horizon, count", [
    (4.0 * special.MAX_TRIG_PANELS * (1.0 + 2.0**-50), special.MAX_TRIG_PANELS + 1),
    (1e-323, math.inf),  # T/8 underflows to a panel of length 0
])
def test_trig_check_refuses_too_many_panels_before_it_allocates(monkeypatch, horizon, count):
    # rho 0.5: a panel is min(T/8, 2) long, so [0, T/2] needs max(4, T/4) of them
    def refuse(*args, **kwargs):
        raise AssertionError("panels allocated")

    monkeypatch.setattr(special, "panel_edges", refuse)
    monkeypatch.setattr(special, "panel_gauss", refuse)
    with pytest.raises(ValueError, match=f"needs {count} Gauss panels"):
        special.trig_check(trig_solve(0.5, 0.5, horizon))


# ------------------------------------------------------------ the check pass

def _exp_case(a, b, gamma, horizon):
    kernel = ExponentialSum(a=a, b=b)
    cf = exponential.build_closed_form(kernel, gamma, horizon)
    edges = exponential.quadrature_edges(cf)
    return (edges[edges <= horizon / 2.0], cf.sigma,
            lambda t: gamma * exponential.eval_closed_form(cf, t)
            + exponential._convolution(kernel, cf, t) - cf.sigma)


def _capped_case(n, gamma):
    sol = capped_linear_solve(n, gamma)
    edges = special.capped_linear_edges(sol)
    return (edges[edges <= n / 2.0], sol.sigma,
            lambda t: gamma * eval_capped_linear(sol, t) + special._capped_convolution(sol, t)
            - sol.sigma)


def _trig_case(rho, gamma, horizon):
    # the unfolded convolution cos(rho t) int cos(rho s) phi + sin(rho t) int sin(rho s) phi
    # over all of [0, T]: it does not assume that phi is even
    sol = trig_solve(rho, gamma, horizon)
    panel = special.trig_panel(sol)
    mc, ms = (_quad.panel_gauss(lambda u: wave(rho * u) * eval_trig(sol, u), 0.0, horizon,
                                max_panel=panel) for wave in (np.cos, np.sin))
    return (_quad.panel_edges(0.0, horizon / 2.0, max_panel=panel), sol.sigma,
            lambda t: gamma * eval_trig(sol, t) + mc * np.cos(rho * t) + ms * np.sin(rho * t)
            - sol.sigma)


@pytest.mark.parametrize("case", [
    lambda: _exp_case((1.0,), (1.0,), 1.0, 1.0),
    lambda: _exp_case((1.0, 1.0), (1.0, 4.0), 0.5, 2.0),
    lambda: _trig_case(0.5, 0.001, 1.0),
    lambda: _capped_case(3, 0.1),
    lambda: _capped_case(11, 0.01),
], ids=["exp1", "exp2", "trig", "capped3", "hump"])
def test_check_residual_on_the_mirrored_half_is_the_same(case):
    # the check pass takes the residual at the Gauss nodes and edges of
    # [0, T/2] only; at their mirrors on [T/2, T] it is the same to round-off,
    # so the half loses nothing
    edges, sigma, residual = case()
    nodes, _ = _quad.gauss_panels(edges[:-1], edges[1:])
    left = np.concatenate((nodes.ravel(), edges))
    horizon = 2.0 * edges[-1]
    assert np.max(np.abs(residual(horizon - left) - residual(left))) <= 1e-14 * sigma
    assert np.max(np.abs(residual(horizon - left))) <= 1e-14 * sigma
