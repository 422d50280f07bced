"""Exponential-sum closed form: spectrum, Cauchy algebra, certificates.

Reference values were frozen from a 50-digit arbitrary-precision evaluation
of the explicit one-term solution (normalized by quadrature) resp. from
adaptive-quadrature residuals of the assembled solution; see the inline
comments on each constant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm import exponential
from fredholm.errors import IllConditionedError
from fredholm.exponential import (
    build_closed_form,
    cauchy_factors,
    eval_closed_form,
    fredholm_residual_max,
    quadrature_energy,
    secular_roots,
    verify_step_identities,
)
from fredholm.kernels import ExponentialSum

import oracles

EXP1 = ExponentialSum(a=(1.0,), b=(1.0,))
EXP2 = ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0))
EXP3 = ExponentialSum(a=(1.0, 2.0, 3.0), b=(1.0, 2.0, 5.0))

# one-term kernel, gamma=1, T=1: phi proportional to
# 1 + 2(e^{sqrt3 t} + e^{sqrt3 (1-t)}) / (e^{sqrt3}(1+sqrt3) + 1 - sqrt3),
# normalized to unit mass; 50-digit quadrature of that expression gives
SIGMA1 = 1.7337312449228033
PHI1_AT_0 = 1.1005968673842049
PHI1_AT_QUARTER = 0.9870926412593097
PHI1_AT_HALF = 0.9515163761050952


def test_one_term_closed_form_matches_explicit_solution():
    cf = build_closed_form(EXP1, 1.0, 1.0)
    assert cf.sigma == pytest.approx(SIGMA1, rel=1e-14)
    assert eval_closed_form(cf, 0.0) == pytest.approx(PHI1_AT_0, rel=1e-13)
    assert eval_closed_form(cf, 0.25) == pytest.approx(PHI1_AT_QUARTER, rel=1e-13)
    assert eval_closed_form(cf, 0.5) == pytest.approx(PHI1_AT_HALF, rel=1e-13)


def test_one_term_secular_root_is_three():
    # c = b + (2/gamma) sqrt(b) at b = 1, gamma = 1
    spectrum = secular_roots(EXP1, 1.0)
    assert spectrum.c == (3.0,)


def test_secular_roots_interlace():
    spectrum = secular_roots(EXP3, 1.0 / 0.2)
    c = spectrum.c
    assert 1.0 < c[0] < 2.0 < c[1] < 5.0 < c[2]
    # each root actually solves the secular equation
    for x in c:
        f = 1.0 - 2.0 * (1.0 / 0.2) * sum(
            a * math.sqrt(b) / (x - b)
            for a, b in zip((1.0, 2.0, 3.0), (1.0, 2.0, 5.0))
        )
        assert abs(f) < 1e-10


def test_two_term_fixture_golden():
    # frozen from this implementation after verifying the quadrature residual
    # of the assembled solution is ~2e-16 and its mass is 1 + 2e-16
    cf = build_closed_form(EXP2, 0.5, 2.0)
    assert cf.sigma == pytest.approx(1.1654840327054725, rel=1e-13)
    assert eval_closed_form(cf, 0.0) == pytest.approx(0.8883406505154867, rel=1e-12)
    assert eval_closed_form(cf, 1.0) == pytest.approx(0.38344395820115007, rel=1e-12)
    assert cf.c[0] == pytest.approx(1.8479326521749646, rel=1e-13)
    assert cf.c[1] == pytest.approx(15.152067347825033, rel=1e-13)


def test_residual_via_independent_quadrature():
    cf = build_closed_form(EXP2, 0.5, 2.0)
    worst = oracles.fredholm_residual(
        EXP2, lambda t: eval_closed_form(cf, t), cf.sigma, 0.5, 2.0,
        [0.0, 0.31, 1.0, 1.73, 2.0],
    )
    assert worst <= 1e-12 * cf.sigma


def test_analytic_residual_small():
    for kernel, gamma, T in ((EXP1, 1.0, 1.0), (EXP2, 0.5, 2.0), (EXP3, 0.2, 1.0)):
        cf = build_closed_form(kernel, gamma, T)
        assert fredholm_residual_max(kernel, cf) <= 1e-12 * cf.sigma


def test_sigma_equals_twice_energy():
    for kernel, gamma, T in ((EXP1, 1.0, 1.0), (EXP2, 0.5, 2.0), (EXP3, 0.2, 1.0)):
        cf = build_closed_form(kernel, gamma, T)
        assert cf.sigma == pytest.approx(2.0 * quadrature_energy(kernel, cf), rel=1e-12)


def test_solution_symmetric_and_positive():
    cf = build_closed_form(EXP2, 0.5, 2.0)
    t = np.linspace(0.0, 2.0, 201)
    phi = eval_closed_form(cf, t)
    assert np.max(np.abs(phi - phi[::-1])) <= 1e-12
    assert phi.min() > 0


def test_eval_rejects_outside_domain():
    cf = build_closed_form(EXP1, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_closed_form(cf, -0.01)
    with pytest.raises(ValueError):
        eval_closed_form(cf, 1.01)


def test_weights_nonnegative_by_clamp():
    cf = build_closed_form(EXP3, 0.2, 1.0)
    assert min(cf.z) >= 0.0
    assert cf.z_raw_min >= -1e-12


def test_long_horizon_no_overflow():
    # sqrt(c) * T ~ 2800 here; naive e^{sqrt c T} would overflow
    with np.errstate(over="raise"):
        cf = build_closed_form(EXP1, 0.01, 200.0)
        assert fredholm_residual_max(EXP1, cf) <= 1e-12 * cf.sigma
        mid = eval_closed_form(cf, 100.0)
    assert mid > 0
    # interior is flat: boundary layers carry all the structure
    assert eval_closed_form(cf, 100.0) == pytest.approx(eval_closed_form(cf, 90.0), rel=1e-9)


def test_nearly_coincident_rates_rejected():
    kernel = ExponentialSum(a=(1.0, 1.0), b=(1.0, 1.0 + 1e-13))
    with pytest.raises(IllConditionedError) as info:
        build_closed_form(kernel, 1.0, 1.0)
    assert info.value.condition > 1e13


def test_cauchy_factors_give_exact_inverse():
    spectrum = secular_roots(EXP3, 5.0)
    fac = cauchy_factors(spectrum)
    prod = fac.Qtilde @ (fac.D1[:, None] * fac.Qtilde.T * fac.D2[None, :])
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-12


CERT_NAMES = [
    "cauchy_inverse",
    "column_sums",
    "z_matrix",
    "nonnegativity",
    "similarity",
]


@pytest.mark.parametrize("kernel, gamma", [(EXP1, 1.0), (EXP2, 0.5), (EXP3, 0.2)])
def test_certificates_pass(kernel, gamma):
    report = verify_step_identities(kernel, gamma, horizon=1.0)
    assert report["all_passed"]
    for name in CERT_NAMES:
        entry = report[name]
        assert entry["passed"], name
        assert entry["error"] <= entry["tol"]


def test_certificate_thresholds():
    report = verify_step_identities(EXP3, 0.2, horizon=1.0)
    assert report["cauchy_inverse"]["tol"] == 1e-10
    assert report["column_sums"]["tol"] == 1e-10
    assert report["similarity"]["tol"] == 1e-9


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=3),
    gamma=st.floats(min_value=0.05, max_value=5.0),
)
def test_random_instances_well_behaved(data, n, gamma):
    # rates spaced at least 10% apart to stay far from the conditioning guard
    raw = data.draw(
        st.lists(st.floats(min_value=0.1, max_value=25.0), min_size=n, max_size=n,
                 unique=True)
    )
    b = []
    for r in sorted(raw):
        if not b or r > 1.1 * b[-1]:
            b.append(r)
    a = data.draw(
        st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=len(b),
                 max_size=len(b))
    )
    kernel = ExponentialSum(a=tuple(a), b=tuple(b))
    cf = build_closed_form(kernel, gamma, 1.0)
    assert cf.sigma > 0
    assert cf.z_raw_min >= -1e-12
    for lo, root in zip(kernel.b, cf.c):
        assert root > lo
    t = np.linspace(0.0, 1.0, 41)
    phi = eval_closed_form(cf, t)
    assert np.all(phi > 0)
    assert np.max(np.abs(phi - phi[::-1])) <= 1e-10 * phi.max()
