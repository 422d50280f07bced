"""Shape diagnostics: symmetric total monotonicity via finite differences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm import exponential
from fredholm.diagnostics import SampledSolution, analyze, compare
from fredholm.kernels import ExponentialSum
from fredholm.special import capped_linear_solve, eval_capped_linear, eval_trig, trig_solve


def _grid(horizon, n):
    return np.linspace(0.0, horizon, n)


def test_even_polynomial_passes_all_orders():
    t = _grid(2.0, 257)
    values = 1.0 + (t - 1.0) ** 2
    report = analyze(values, 2.0, max_order=4)
    assert report.verdicts["symmetric"]
    assert report.verdicts["nonnegative"]
    assert report.verdicts["convex"]
    assert report.verdicts["totally_monotone"]
    assert all(entry["passed"] for entry in report.diff_orders)


def test_constant_passes():
    report = analyze(np.full(200, 3.7), 1.0, max_order=6)
    assert report.verdicts["totally_monotone"]
    assert report.symmetry_err == 0.0
    assert report.convexity_defect == 0.0


def test_exponential_solution_passes_order_six():
    cf = exponential.build_closed_form(
        ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0)), 0.5, 2.0
    )
    t = _grid(2.0, 801)
    report = analyze(exponential.eval_closed_form(cf, t), 2.0, max_order=6)
    assert report.verdicts["totally_monotone"]


def test_capped_solution_fails_only_convexity():
    sol = capped_linear_solve(11, 0.01)
    t = _grid(11.0, 1101)
    report = analyze(eval_capped_linear(sol, t), 11.0, max_order=6)
    assert report.verdicts["symmetric"]
    assert report.verdicts["nonnegative"]
    assert not report.verdicts["convex"]
    assert not report.verdicts["totally_monotone"]
    assert report.convexity_defect < -report.tol


def test_trig_solution_fails_nonnegativity():
    sol = trig_solve(0.5, 0.001, 1.0)
    t = _grid(1.0, 401)
    report = analyze(eval_trig(sol, t), 1.0, max_order=4)
    assert not report.verdicts["nonnegative"]
    assert not report.verdicts["totally_monotone"]
    assert report.min_value < -report.tol
    # this curve is convex even though it dips negative
    assert report.verdicts["convex"]


def test_asymmetric_data_flagged():
    t = _grid(1.0, 101)
    report = analyze(1.0 + t, 1.0, max_order=2)
    assert not report.verdicts["symmetric"]
    assert report.symmetry_err == pytest.approx(1.0, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError, match="need at least 48 samples"):
        analyze(np.ones(17), 1.0, max_order=6)
    with pytest.raises(ValueError, match="order"):
        analyze(np.ones(100), 1.0, max_order=1)
    with pytest.raises(ValueError):
        analyze(np.ones((10, 10)), 1.0, max_order=2)
    # start/spacing that do not cover [0, T] symmetrically
    with pytest.raises(ValueError, match="symmetric"):
        analyze(np.ones(64), 1.0, max_order=2, start=0.0, spacing=0.01)
    # a decreasing grid is symmetric about T/2 but its windows are not one index range
    with pytest.raises(ValueError, match="spacing"):
        analyze(np.ones(64), 1.0, max_order=2, start=1.0, spacing=-1.0 / 63)


def _masked_diff_orders(values, horizon, max_order, start, spacing):
    """(min_raw, min_scaled) per order by the boolean-mask scan of nested
    differences: the k-th difference d[r:] - d[:-r] of the whole curve is
    taken at every start, then the admissible ones are picked out."""
    n = values.size
    x = start + spacing * np.arange(n)
    out = []
    for k in range(1, max_order + 1):
        best_raw = best_scaled = None
        r = 1
        while k * r < n:
            d = values
            for _ in range(k):
                d = d[r:] - d[:-r]
            admissible = (x[: n - k * r] > horizon / 2.0) & (x[k * r :] < horizon)
            if not np.any(admissible):
                break
            m = float(np.min(d[admissible]))
            if best_raw is None or m < best_raw:
                best_raw = m
            scaled = m / (r * spacing) ** k
            if best_scaled is None or scaled < best_scaled:
                best_scaled = scaled
            r *= 2
        out.append((best_raw, best_scaled))
    return out


def _binomial_min_raw(values, horizon, max_order, start, spacing):
    """min_raw per order from the binomial sum sum_i (-1)^(k-i) C(k,i) phi(x + i r h)."""
    n = values.size
    x = start + spacing * np.arange(n)
    out = []
    for k in range(1, max_order + 1):
        best = None
        r = 1
        while k * r < n:
            window_sum = np.zeros(n - k * r)
            for i in range(k + 1):
                window_sum += (-1.0) ** (k - i) * math.comb(k, i) * values[i * r : n - k * r + i * r]
            admissible = (x[: n - k * r] > horizon / 2.0) & (x[k * r :] < horizon)
            if not np.any(admissible):
                break
            m = float(np.min(window_sum[admissible]))
            best = m if best is None else min(best, m)
            r *= 2
        out.append(best)
    return out


@pytest.mark.parametrize("data", ["smooth", "random"])
@pytest.mark.parametrize("n", [48, 49, 50, 1025, 2048])
@pytest.mark.parametrize("grid", ["inclusive", "midpoint"])
def test_difference_scan_is_bit_exact(grid, n, data):
    # the one-range scan must reproduce every float of the masked scan exactly
    horizon = 2.7
    if grid == "inclusive":
        start, spacing = 0.0, horizon / (n - 1)
    else:
        start, spacing = horizon / (2 * n), horizon / n
    x = start + spacing * np.arange(n)
    if data == "smooth":
        values = np.cosh(1.3 * (x - horizon / 2.0))
    else:
        values = np.random.default_rng(n).standard_normal(n)
    for max_order in range(2, min(8, n // 8) + 1):
        report = analyze(values, horizon, max_order=max_order, start=start, spacing=spacing)
        got = [(e["min_raw"], e["min_scaled"]) for e in report.diff_orders]
        want = _masked_diff_orders(values, horizon, max_order, start, spacing)
        assert [tuple(map(repr, g)) for g in got] == [tuple(map(repr, w)) for w in want]
        # nested and binomial differences agree to their rounding, 2^k eps max|v|
        binomial = _binomial_min_raw(values, horizon, max_order, start, spacing)
        eps_max = np.finfo(float).eps * float(np.max(np.abs(values)))
        for k, (g, b) in enumerate(zip(got, binomial), start=1):
            assert abs(g[0] - b) <= 2.0**k * eps_max, k


@pytest.mark.parametrize("horizon", [1e-300, 1e-100, 1e60, 1e300])
def test_scaled_minima_at_extreme_horizons_are_their_limits(horizon):
    # (r h)^k under- or overflows here.  Each scaled minimum is the one at
    # T = 1 divided by T^k, rounded once to a float: 0 or inf where that
    # quotient is out of range.  Nothing raises or warns, and the raw minima
    # and the verdicts are those at T = 1.
    from decimal import Decimal

    x = np.linspace(-1.0, 1.0, 65)
    values = 1.0 + x**2 + x**4
    report = analyze(values, horizon)
    ref = analyze(values, 1.0)
    assert [e["min_raw"] for e in report.diff_orders] == [e["min_raw"] for e in ref.diff_orders]
    assert report.verdicts == ref.verdicts
    for got, want in zip(report.diff_orders, ref.diff_orders):
        limit = float(Decimal(want["min_scaled"]) / Decimal(horizon) ** got["order"])
        assert got["min_scaled"] == pytest.approx(limit, rel=1e-12)
    limit = float(Decimal(ref.convexity_defect) / Decimal(horizon) ** 2)
    assert report.convexity_defect == pytest.approx(limit, rel=1e-12)


def test_midpoint_grid_accepted():
    # start = h/2, spacing = h is how discrete solutions are laid out
    h = 1.0 / 64.0
    values = np.ones(64)
    report = analyze(values, 1.0, max_order=2, start=h / 2.0, spacing=h)
    assert report.verdicts["totally_monotone"]


def test_explicit_tol_is_respected():
    t = _grid(2.0, 257)
    values = 1.0 + (t - 1.0) ** 2
    noisy = values + 1e-6 * np.cos(37.0 * t)
    strict = analyze(noisy, 2.0, max_order=4, tol=1e-12)
    loose = analyze(noisy, 2.0, max_order=4, tol=1e-2)
    assert not strict.verdicts["totally_monotone"]
    assert loose.verdicts["totally_monotone"]


def test_report_dict_round_trips_to_json():
    import json

    report = analyze(np.ones(100), 1.0, max_order=3)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["verdicts"]["totally_monotone"] is True
    assert len(doc["diff_orders"]) >= 2

    # the same document dataclasses.asdict builds, key order included, and
    # the caller owns its containers
    d = report.to_dict()
    assert json.dumps(d) == json.dumps(dataclasses.asdict(report))
    d["diff_orders"][0]["min_raw"] = -1.0
    d["diff_orders"].clear()
    d["verdicts"]["symmetric"] = False
    assert report.to_dict() == dataclasses.asdict(report)
    assert report.diff_orders[0]["min_raw"] != -1.0 and report.verdicts["symmetric"]


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       width=st.floats(min_value=0.2, max_value=4.0))
def test_verdicts_invariant_under_positive_scaling(scale, width):
    t = _grid(width, 129)
    values = np.cosh(t - width / 2.0)
    base = analyze(values, width, max_order=4)
    scaled = analyze(scale * values, width, max_order=4)
    assert base.verdicts == scaled.verdicts


@settings(max_examples=40, deadline=None)
@given(tol_lo=st.floats(min_value=1e-12, max_value=1e-4),
       factor=st.floats(min_value=1.0, max_value=1e6))
def test_passing_is_monotone_in_tol(tol_lo, factor):
    rng = np.random.default_rng(7)
    t = _grid(1.0, 129)
    values = 1.0 + 0.5 * (t - 0.5) ** 2 + 1e-7 * rng.standard_normal(129)
    values = 0.5 * (values + values[::-1])  # symmetrize the noise
    lo = analyze(values, 1.0, max_order=4, tol=tol_lo)
    hi = analyze(values, 1.0, max_order=4, tol=tol_lo * factor)
    for verdict, passed in lo.verdicts.items():
        if passed:
            assert hi.verdicts[verdict]


# ---------------------------------------------------------------------- compare

def test_compare_identical_is_zero():
    t = _grid(1.0, 33)
    sol = SampledSolution(t=t, phi=np.sin(t) + 2.0, sigma=1.5)
    out = compare(sol, sol)
    assert out == {"max_abs": 0.0, "l2": 0.0, "sigma_rel_diff": 0.0}


def test_compare_norms():
    t = _grid(1.0, 101)
    a = SampledSolution(t=t, phi=np.ones(101), sigma=2.0)
    b = SampledSolution(t=t, phi=np.ones(101) + 0.01, sigma=2.002)
    out = compare(a, b)
    assert out["max_abs"] == pytest.approx(0.01, rel=1e-12)
    assert out["l2"] == pytest.approx(0.01, rel=1e-2)
    assert out["sigma_rel_diff"] == pytest.approx(0.002 / 2.002, rel=1e-9)


def test_compare_rejects_grid_mismatch():
    t = _grid(1.0, 33)
    a = SampledSolution(t=t, phi=np.ones(33), sigma=1.0)
    b = SampledSolution(t=_grid(1.0, 65), phi=np.ones(65), sigma=1.0)
    with pytest.raises(ValueError, match="grid"):
        compare(a, b)
    c = SampledSolution(t=t + 0.25, phi=np.ones(33), sigma=1.0)
    with pytest.raises(ValueError, match="grid"):
        compare(a, c)


@pytest.mark.parametrize("bad", [[0.0, math.nan], [0.0, math.inf], ["0", "1"], [False, True]], ids=repr)
@pytest.mark.parametrize("side", ["a", "b"])
def test_compare_refuses_bad_abscissae(side, bad):
    good = SampledSolution(t=np.array([0.0, 1.0]), phi=np.ones(2), sigma=1.0)
    other = SampledSolution(t=np.array(bad), phi=np.ones(2), sigma=1.0)
    with pytest.raises(ValueError, match="^sampled grid t must be finite$"):
        compare(*((other, good) if side == "a" else (good, other)))
