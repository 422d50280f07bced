"""Kernel evaluation and analytic cell integrals vs quadrature oracles."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm import diagnostics, discrete, exponential, special
from fredholm.kernels import (
    _E2_RADII,
    CappedLinear,
    ExponentialSum,
    PowerCapped,
    PowerLaw,
    Tabulated,
    Trigonometric,
    _e2,
    kernel_from_spec,
)

import oracles


# ---------------------------------------------------------------- spec parsing

SPEC_SAMPLES = [
    {"type": "exponential_sum", "a": [1.0, 0.5], "b": [1.0, 3.0]},
    {"type": "capped_linear", "cap": 2.0},
    {"type": "power_capped", "rho": 10.0, "p": 4},
    {"type": "trigonometric", "rho": 0.5},
    {"type": "power_law", "alpha": 0.5, "scale": 2.0},
    {"type": "tabulated", "t": [0.0, 1.0, 2.0], "g": [1.0, 0.5, 0.1]},
]


@pytest.mark.parametrize("spec", SPEC_SAMPLES, ids=lambda s: s["type"])
def test_spec_round_trip(spec):
    kernel = kernel_from_spec(spec)
    assert kernel.spec() == spec
    assert kernel_from_spec(kernel.spec()) == kernel


def test_spec_defaults():
    assert kernel_from_spec({"type": "capped_linear"}).cap == 1.0
    assert kernel_from_spec({"type": "power_law", "alpha": 0.3}).scale == 1.0


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"type": "nope"}, "unknown kernel type"),
        ({"type": "exponential_sum", "a": [1.0]}, "missing fields: b"),
        ({"type": "exponential_sum", "a": [1.0], "b": [1.0], "x": 2}, "unknown fields: x"),
        ({"type": "exponential_sum", "a": [1.0, 2.0], "b": [1.0]}, "equally many"),
        ({"type": "exponential_sum", "a": [], "b": []}, "equally many"),
        ({"type": "exponential_sum", "a": [1.0], "b": [-1.0]}, "rates b must be positive"),
        ({"type": "power_law", "alpha": 1.5}, r"alpha must lie in \(0, 1\)"),
        ({"type": "power_law", "alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
        ({"type": "power_capped", "rho": 10.0, "p": 0}, "p"),
        ({"type": "tabulated", "t": [0.0, 0.0], "g": [1.0, 1.0]}, "strictly increasing"),
        ({"type": "tabulated", "t": [0.0, 1.0], "g": [1.0, -0.5]}, "nonnegative"),
        ("not a dict", "JSON object"),
        ({"type": "exponential_sum", "a": [math.inf], "b": [1.0]}, "finite"),
        ({"type": "exponential_sum", "a": [1.0], "b": [math.nan]}, "finite"),
        ({"type": "capped_linear", "cap": math.inf}, "finite"),
        ({"type": "power_capped", "rho": math.inf, "p": 1}, "finite"),
        ({"type": "trigonometric", "rho": math.inf}, "finite"),
        ({"type": "power_law", "alpha": 0.5, "scale": math.inf}, "finite"),
        ({"type": "tabulated", "t": [0.0, math.inf], "g": [1.0, 0.5]}, "finite"),
        ({"type": "tabulated", "t": [0.0, 1.0], "g": [math.inf, 0.5]}, "finite"),
        ({"type": "exponential_sum", "a": [1.0, 1.0], "b": [2.0, 1.0]}, "strictly increasing"),
        # a bool, a string, a list or None is refused by name, never turned into a number
        ({"type": "capped_linear", "cap": True}, "^cap must be positive and finite$"),
        ({"type": "power_law", "alpha": 0.5, "scale": True}, "^scale must be positive and finite$"),
        ({"type": "power_law", "alpha": "0.5"}, r"^alpha must lie in \(0, 1\)$"),
        ({"type": "power_capped", "rho": 10.0, "p": True}, "^p must be a positive integer$"),
        ({"type": "trigonometric", "rho": "0.5"}, "^rho must be positive and finite$"),
        ({"type": "trigonometric", "rho": None}, "^rho must be positive and finite$"),
        ({"type": "exponential_sum", "a": ["1.5"], "b": [1.0]}, "^exponential sum weights a must"),
        ({"type": "exponential_sum", "a": [1.0], "b": [[1.0]]}, "^exponential sum rates b must"),
        ({"type": "tabulated", "t": ["0", "1"], "g": [1.0, 0.5]}, "^tabulated abscissae t must"),
        ({"type": "tabulated", "t": [0.0, 1.0], "g": [1.0, False]}, "^tabulated values g must"),
    ],
)
def test_spec_rejects(bad, match):
    with pytest.raises((ValueError, TypeError), match=match):
        kernel_from_spec(bad)


@pytest.mark.parametrize("build, name", [
    (lambda v: CappedLinear(cap=v), "cap"),
    (lambda v: PowerCapped(rho=v, p=2), "rho"),
    (lambda v: Trigonometric(rho=v), "rho"),
    (lambda v: PowerLaw(alpha=0.5, scale=v), "scale"),
    (lambda v: discrete.Problem(gamma=v, horizon=1.0, kernel=CappedLinear()), "gamma"),
    (lambda v: discrete.Problem(gamma=1.0, horizon=v, kernel=CappedLinear()), "horizon"),
], ids=["cap", "power_capped_rho", "trig_rho", "scale", "gamma", "horizon"])
def test_positive_finite_fields(build, name):
    # one rule for every positive finite field: the same message, and a float stored
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            build(bad)
    stored = getattr(build(2), name)
    assert type(stored) is float and stored == 2.0


_EXP1 = ExponentialSum(a=(1.0,), b=(1.0,))
_ENTRY_POINTS = {  # call(gamma, horizon, rho) of each library entry point that takes a problem
    "problem": lambda g, T, r: discrete.Problem(gamma=g, horizon=T, kernel=_EXP1),
    "exp": lambda g, T, r: exponential.build_closed_form(_EXP1, g, T),
    "trig": lambda g, T, r: special.trig_solve(r, g, T),
    "capped": lambda g, T, r: special.capped_linear_solve(T, g),
    "verify": lambda g, T, r: exponential.verify_step_identities(_EXP1, g, T),
}


@pytest.mark.parametrize("entry, name, bad", [
    (entry, name, bad)
    for entry in _ENTRY_POINTS
    for name in ("gamma", "horizon", "rho")
    for bad in (math.inf, math.nan, True)
    if (name != "rho" or entry == "trig")
    and (entry != "problem" or bad is True)  # test_positive_finite_fields pins inf and nan
])
def test_entry_points_refuse_a_bad_number_by_name(entry, name, bad):
    args = {"gamma": 0.5, "horizon": 3, "rho": 0.5, name: bad}
    rule = "a positive integer" if (entry, name) == ("capped", "horizon") else "positive and finite"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}$"):
        _ENTRY_POINTS[entry](args["gamma"], args["horizon"], args["rho"])


def test_positive_finite_fields_keep_their_check_order():
    with pytest.raises(ValueError, match="^rho must"):
        PowerCapped(rho=0.0, p=0)
    with pytest.raises(ValueError, match="^alpha must"):
        PowerLaw(alpha=2.0, scale=0.0)
    with pytest.raises(ValueError, match="^gamma must"):
        discrete.Problem(gamma=0.0, horizon=0.0, kernel=CappedLinear())


_PROBLEM = discrete.Problem(gamma=0.5, horizon=2.0, kernel=_EXP1)
_GRID_ENTRY_POINTS = {  # call(m) of each discrete entry point that takes a cell count
    "solve": lambda m: discrete.solve(_PROBLEM, m),
    "gamma_sweep": lambda m: discrete.gamma_sweep(_PROBLEM, m, [0.5]),
    "discretize": lambda m: discrete.discretize(_PROBLEM, m),
    "kernel_row": lambda m: discrete.kernel_row(_PROBLEM, m),
}


@pytest.mark.parametrize("bad", [8.0, 2.5, True, "8", 1], ids=repr)
@pytest.mark.parametrize("entry", _GRID_ENTRY_POINTS)
def test_cell_counts_are_checked_by_the_number_rule(entry, bad):
    with pytest.raises(ValueError, match="^cells must be an integer >= 2$"):
        _GRID_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("arg, bad, message", [
    *(("horizon", bad, "horizon must be positive and finite") for bad in (True, math.inf, 0)),
    *(("max_order", bad, "max_order must be an integer >= 2") for bad in (6.9, True, 1)),
    *(("spacing", bad, "grid spacing must be positive and finite") for bad in (0, math.inf, math.nan)),
    *(("tol", bad, "tol must be nonnegative and finite") for bad in (True, "0.1", math.nan, -1.0, math.inf)),
    *(("start", bad, "grid start must be finite") for bad in ("0", True, math.nan, math.inf)),
])
def test_analyze_checks_its_numbers_by_name(arg, bad, message):
    args = {"horizon": 1.0, "max_order": 2, "spacing": 1.0 / 63, arg: bad}
    with pytest.raises(ValueError, match=f"^{message}$"):
        diagnostics.analyze(np.ones(64), **args)


@pytest.mark.parametrize("bad", [math.inf, math.nan, True], ids=repr)
def test_secular_roots_refuse_a_bad_lambda(bad):
    with pytest.raises(ValueError, match="^lambda must be positive and finite$"):
        exponential.secular_roots(_EXP1, bad)


@pytest.mark.parametrize("call", [
    lambda: discrete.Problem(0.5, 2.0, "exp"),
    lambda: exponential.verify_step_identities(CappedLinear(), 0.5, 1.0),
], ids=["problem", "verify"])
def test_a_kernel_of_the_wrong_type_is_refused(call):
    with pytest.raises(TypeError, match="kernel"):
        call()


@pytest.mark.parametrize("point", [math.nan, np.array([0.5, math.nan]), math.inf, True, "0.5"],
                         ids=["scalar", "array", "inf", "bool", "string"])
@pytest.mark.parametrize("evaluate, message", [
    (_EXP1.evaluate, "kernel lag must be nonnegative"),
    (lambda t: exponential.eval_closed_form(exponential.build_closed_form(_EXP1, 0.5, 1.0), t),
     "outside"),
    (lambda t: special.eval_capped_linear(special.capped_linear_solve(3, 0.1), t), "outside"),
    (lambda t: special.eval_trig(special.trig_solve(0.5, 0.5, 1.0), t), "outside"),
], ids=["kernel", "exp", "capped", "trig"])
def test_nan_evaluation_points_are_refused(evaluate, message, point):
    with pytest.raises(ValueError, match=message):
        evaluate(point)


_RECTANGLE_API = {  # valid points of each call, and the name each one is refused by
    "cell_integral": ((0.0, 1.0, 0.5), ("cell edge lo", "cell edge hi", "cell point t")),
    "cell_double_integral": ((0.0, 1.0, 0.5, 2.0),
                             tuple(f"rectangle edge {e}" for e in ("x_lo", "x_hi", "y_lo", "y_hi"))),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.5"], ids=repr)
@pytest.mark.parametrize("method, at", [(method, at) for method, (points, _) in _RECTANGLE_API.items()
                                        for at in range(len(points))])
@pytest.mark.parametrize("spec", SPEC_SAMPLES, ids=lambda s: s["type"])
def test_rectangle_points_are_refused_by_name(spec, method, at, bad):
    # each edge on its own: a bool edge is refused even where its pair would make a valid cell
    points, names = _RECTANGLE_API[method]
    args = [*points[:at], bad, *points[at + 1:]]
    with pytest.raises(ValueError, match=f"^{names[at]} must be finite$"):
        getattr(kernel_from_spec(spec), method)(*args)


@pytest.mark.parametrize("t, g", [
    ((0.0, 5e-324), (1.0, 0.5)),  # log mode
    ((0.0, 5e-324, 1e-323), (1.0, 0.5, 0.25)),
    ((0.0, 1e-308), (0.0, 1.7e308)),  # linear mode
], ids=["one_gap", "two_gaps", "linear"])
def test_tabulated_refuses_an_infinite_slope(t, g):
    # a knot gap near the smallest subnormal overflows the slope the structure
    # report reads; the table is refused instead of classified with a warning
    with pytest.raises(ValueError, match="slopes between neighbouring knots must be finite"):
        Tabulated(t=t, g=g)


def test_tabulated_slope_jump_overflow_keeps_its_sign():
    # slopes of +-1.1e308 are finite, their jump overflows to -inf without a warning
    structure = Tabulated(t=(0.0, 1e-308, 2e-308), g=(1.0, 3.0, 1.0)).classify()
    assert not structure.convex and not structure.positive_type_known


# ---------------------------------------------------------------- evaluation

def test_pointwise_values():
    assert ExponentialSum(a=(2.0,), b=(4.0,)).evaluate(0.5) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-15
    )
    assert CappedLinear(cap=1.0).evaluate(0.25) == 0.75
    assert CappedLinear(cap=1.0).evaluate(1.5) == 0.0
    assert PowerCapped(rho=10.0, p=4).evaluate(0.05) == pytest.approx(0.5**4, rel=1e-15)
    assert PowerCapped(rho=10.0, p=4).evaluate(0.2) == 0.0
    assert Trigonometric(rho=0.5).evaluate(math.pi) == pytest.approx(
        math.cos(math.pi / 2), abs=1e-15
    )
    assert PowerLaw(alpha=0.5, scale=3.0).evaluate(4.0) == pytest.approx(1.5, rel=1e-15)


def test_evaluate_shapes():
    k = ExponentialSum(a=(1.0,), b=(1.0,))
    scalar = k.evaluate(0.5)
    assert isinstance(scalar, float)
    arr = k.evaluate(np.array([0.0, 0.5, 1.0]))
    assert arr.shape == (3,)
    assert arr[1] == scalar
    assert k.evaluate(np.array([[0.5]])).shape == (1, 1)


def test_evaluate_rejects_negative_lag():
    for k in (ExponentialSum(a=(1.0,), b=(1.0,)), CappedLinear(cap=1.0)):
        with pytest.raises(ValueError):
            k.evaluate(-0.1)


def test_power_law_diverges_at_zero():
    with pytest.raises(ValueError, match="lag 0"):
        PowerLaw(alpha=0.5).evaluate(0.0)


# ------------------------------------------------------- analytic vs oracle

TAB4 = Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05))

ORACLE_KERNELS = [
    ExponentialSum(a=(1.0,), b=(1.0,)),
    ExponentialSum(a=(0.4, 1.1, 0.6), b=(0.7, 2.3, 9.0)),
    CappedLinear(cap=1.0),
    CappedLinear(cap=0.7),
    PowerCapped(rho=10.0, p=4),
    PowerCapped(rho=3.0, p=5),
    Trigonometric(rho=0.5),
    Trigonometric(rho=2.0),
    Trigonometric(rho=1e-200),  # rho^2 underflows
    PowerLaw(alpha=0.5, scale=1.0),
    PowerLaw(alpha=0.9, scale=2.0),
    TAB4,
    Tabulated(t=(0.0, 1.0, 2.0), g=(1.0, 0.5, 0.0)),  # linear mode
    Tabulated(t=(0.5, 1.0, 2.0), g=(1.0, 0.6, 0.3)),  # flat head below t[0]
    Tabulated(t=(0.0, 0.4, 0.5, 0.6, 1.0), g=(0.01, 0.2, 1.0, 0.2, 0.01)),  # rising log segments
]

# cells chosen to hit all the geometric cases: identical (diagonal),
# adjacent, disjoint, overlapping, and straddling a kink/support edge
CELL_CASES = [
    (0.0, 0.25, 0.0, 0.25),
    (0.0, 0.25, 0.25, 0.5),
    (0.0, 0.25, 1.75, 2.0),
    (0.1, 0.6, 0.3, 0.9),
    (0.0, 0.8, 0.55, 1.6),
]


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: repr(k)[:40])
def test_cell_double_integral_matches_quadrature(kernel):
    for x0, x1, y0, y1 in CELL_CASES:
        got = kernel.cell_double_integral(x0, x1, y0, y1)
        ref = oracles.cell_double_integral(kernel, x0, x1, y0, y1)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-13), (x0, x1, y0, y1)


# quadpack reports roundoff stagnation on the nearly singular alpha=0.9 cell;
# the returned value is still good to ~1e-13, which the assertion confirms
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: repr(k)[:40])
def test_cell_integral_matches_quadrature(kernel):
    for y0, y1, t in [(0.0, 0.25, 0.125), (0.0, 0.25, 0.5), (0.0, 2.5, 2.1),
                      (0.6, 1.4, 0.9), (0.0, 1.0, 0.0)]:
        got = kernel.cell_integral(y0, y1, t)
        ref = oracles.cell_integral(kernel, t, y0, y1)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-13), (y0, y1, t)


def _decay_table(count):
    t = np.concatenate(([0.0], np.geomspace(0.01, 2.5, count - 1)))
    return Tabulated(t=tuple(t), g=tuple(2.0 * np.exp(-1.3 * t) + 0.05 / (1.0 + t)))


# tables whose knots test the half-cell split of the tabulated rows at h = 0.07
# and m = 40 (T = 2.8): knots on a half-cell edge (0.035), on a cell edge
# (0.07) and one ulp below one (0.7 < 10 * 0.07 in floats), linear mode with a
# zero inside [0, T], knots past T behind a flat head, and 200 knots
ROW_KERNELS = ORACLE_KERNELS + [
    Tabulated(t=(0.0, 0.035, 0.07, 0.7), g=(2.0, 1.2, 0.9, 0.1)),
    Tabulated(t=(0.0, 0.035, 0.07, 0.7, 2.0), g=(2.0, 1.2, 0.9, 0.1, 0.0)),
    Tabulated(t=(0.2, 1.0, 3.5, 9.0), g=(1.0, 0.7, 0.2, 0.1)),
    _decay_table(200),
]


@pytest.mark.parametrize("kernel", ROW_KERNELS, ids=lambda k: repr(k)[:40])
def test_lag_row_matches_cell_loop(kernel):
    # the vectorized rows against one scalar integral per cell: a rectangle
    # for the lag row, and the cell seen from each midpoint for the other
    h, m = 0.07, 40
    lags, midpoints = kernel.grid_rows(h, m)
    ref = [kernel.cell_double_integral(0.0, h, k * h, (k + 1) * h) for k in range(m)]
    np.testing.assert_allclose(lags, ref, rtol=1e-14, atol=1e-18)
    ref = [kernel.cell_integral(0.0, h, (k + 0.5) * h) for k in range(m)]
    # the loop differences G1, which costs it a few ulps of G1(T) at any lag
    slack = 8.0 * np.finfo(float).eps * abs(kernel.cell_integral(0.0, m * h, 0.0))
    np.testing.assert_allclose(midpoints, ref, rtol=1e-13, atol=slack)


@pytest.mark.parametrize("kernel, horizon", [
    (TAB4, 3.0),
    (ExponentialSum(a=(1.0, 1.0), b=(1.0, 4.0)), 2.0),
    (Trigonometric(rho=0.5), 2.0),
    (PowerLaw(alpha=0.9, scale=2.0), 1.3),
], ids=["Tabulated", "ExponentialSum", "Trigonometric", "PowerLaw"])
def test_midpoint_row_far_lags(kernel, horizon):
    # summed half-cell integrals (tabulated), the product forms of an
    # exponential sum and of the cosine, and the power law's series in 1/k^2
    # keep the midpoint row exact at far lags, where differences of G1 lose
    # 4e-13 (tabulated, lag 1000) to 8.5e-12 (power law, lag 4095)
    m = 4096
    h = horizon / m
    midpoints = kernel.grid_rows(h, m)[1]
    for lag in (1, 1000, 4095):
        ref = oracles.cell_integral(kernel, (lag + 0.5) * h, 0.0, h)
        assert midpoints[lag] == pytest.approx(ref, rel=1e-13, abs=0.0), lag


def test_power_law_lag1_midpoint_near_alpha_one():
    # G1(3h/2) - G1(h/2) cancels as q = 1 - alpha -> 0 (3.1e-14 relative
    # at alpha 0.999 as a difference); against a 50-digit reference
    alpha, m = 0.999, 4096
    h = 1.0 / m
    got = PowerLaw(alpha=alpha).grid_rows(h, m)[1][1]
    with localcontext() as ctx:
        ctx.prec = 50
        q = 1 - Decimal(alpha)
        ref = ((q * Decimal(1.5 * h).ln()).exp() - (q * Decimal(0.5 * h).ln()).exp()) / q
        assert float(abs(Decimal(got) - ref) / ref) <= 1e-15


def test_tabulated_rows_memory_is_linear():
    # the half-cell table holds O(m + knots) numbers: a row that clipped
    # every knot into every cell would need 2000 floats a cell here
    kernel = _decay_table(2000)
    m = 1 << 15
    tracemalloc.start()
    try:
        kernel.grid_rows(3.0 / m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * m


@pytest.mark.parametrize("kernel", [Trigonometric(rho=0.5), PowerLaw(alpha=0.5), TAB4],
                         ids=["Trigonometric", "PowerLaw", "Tabulated"])
def test_lag_row_far_lags(kernel):
    # product forms (cosine), series in the inverse lag (power law) and sums
    # of nonnegative half-cell moments (tabulated) keep the lag row exact at
    # fine grids, where plain second differences cancel
    m = 4096
    h = 2.0 / m
    row = kernel.grid_rows(h, m)[0]
    for lag in (1, 2, 1000, 4095):
        ref = oracles.cell_double_integral(kernel, 0.0, h, lag * h, (lag + 1) * h)
        assert row[lag] == pytest.approx(ref, rel=1e-13, abs=0.0), lag


def test_cell_integral_vectorized_over_t():
    k = ExponentialSum(a=(1.0, 0.5), b=(1.0, 6.0))
    ts = np.array([0.0, 0.3, 0.7, 1.9])
    vec = k.cell_integral(0.2, 0.8, ts)
    assert vec.shape == (4,)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(k.cell_integral(0.2, 0.8, float(t)), rel=1e-14)


def test_exponential_disjoint_cells_closed_form():
    # lag between cell edges is 2.5: closed form in terms of expm1 products
    k = ExponentialSum(a=(2.0,), b=(4.0,))
    got = k.cell_double_integral(0.0, 0.5, 3.0, 3.5)
    beta = 2.0
    ref = (2.0 / 4.0) * math.exp(-beta * 2.5) * math.expm1(-beta * 0.5) ** 2
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(oracles.cell_double_integral(k, 0.0, 0.5, 3.0, 3.5),
                                rel=1e-12)


def test_compact_support_cells_vanish():
    assert CappedLinear(cap=1.0).cell_double_integral(0.0, 0.5, 2.0, 2.5) == 0.0
    assert PowerCapped(rho=10.0, p=4).cell_double_integral(0.0, 0.05, 0.5, 0.75) == 0.0


def test_diagonal_cell_symmetry():
    # swapping the two intervals is exact, not approximate
    k = CappedLinear(cap=1.0)
    assert k.cell_double_integral(0.1, 0.4, 0.6, 1.1) == k.cell_double_integral(
        0.6, 1.1, 0.1, 0.4
    )


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                   min_size=4, max_size=4, unique=True),
    b=st.floats(min_value=0.05, max_value=40.0),
)
def test_exponential_cell_double_integral_property(edges, b):
    x0, x1, y0, y1 = sorted(edges)
    k = ExponentialSum(a=(1.0,), b=(b,))
    got = k.cell_double_integral(x0, x1, y0, y1)
    # positivity and the exchange symmetry must hold for any rectangle
    assert got >= 0.0
    assert got == pytest.approx(k.cell_double_integral(y0, y1, x0, x1), rel=1e-12)
    area = (x1 - x0) * (y1 - y0)
    assert got <= area * 1.0 + 1e-12  # G <= a


# ------------------------------------------------------------------ tabulated

def test_tabulated_flat_extension():
    k = Tabulated(t=(0.0, 1.0), g=(1.0, 0.25))
    assert k.evaluate(5.0) == 0.25
    # the last value extends flat, so cell integrals far out are rectangles
    assert k.cell_integral(20.0, 21.0, 10.0) == pytest.approx(0.25, rel=1e-12)


def test_tabulated_log_vs_linear_interpolation():
    klog = Tabulated(t=(0.0, 1.0), g=(1.0, 0.25))  # all positive -> log mode
    assert klog.evaluate(0.5) == pytest.approx(0.5, rel=1e-12)  # geometric mean
    klin = Tabulated(t=(0.0, 1.0), g=(1.0, 0.0))  # zero forces linear mode
    assert klin.evaluate(0.5) == pytest.approx(0.5, rel=1e-12)
    assert klin.evaluate(0.25) == pytest.approx(0.75, rel=1e-12)


def test_tabulated_classify_carries_tolerance():
    st_decay = Tabulated(t=(0.0, 1.0, 2.0), g=(1.0, 0.5, 0.3)).classify()
    assert st_decay.nonincreasing and st_decay.convex
    assert not st_decay.completely_monotone  # never claimed from samples
    assert st_decay.tolerance is not None and st_decay.tolerance > 0
    bump = Tabulated(t=(0.0, 0.5, 1.0), g=(0.1, 1.0, 0.1)).classify()
    assert not bump.nonincreasing
    assert not bump.positive_type_known


@pytest.mark.parametrize(
    "kernel",
    [
        Tabulated(t=(0.0, 1.0, 2.0), g=(1.0, 0.5, 0.01)),  # log-slopes fall: concave knot
        Tabulated(t=(0.5, 1.0, 2.0), g=(1.0, 0.6, 0.3)),  # flat head meets a falling segment
    ],
    ids=["log_slopes", "flat_head"],
)
def test_tabulated_classify_describes_the_interpolant(kernel):
    # linear chords of these samples are convex, the interpolant is not, and
    # Polya's criterion fails with it: the discretised H is indefinite
    structure = kernel.classify()
    assert structure.nonincreasing and not structure.convex
    assert not structure.positive_type_known
    H, _ = discrete.discretize(discrete.Problem(gamma=1e-6, horizon=20.0, kernel=kernel), 400)
    assert np.linalg.eigvalsh(H)[0] < -1e-3


def test_tabulated_classify_uses_log_slopes():
    # log-slopes -1.99, -1.45, -1.39 increase: convex in log mode, so Polya applies
    structure = Tabulated(t=(0.0, 0.3, 1.0, 2.5), g=(2.0, 1.1, 0.4, 0.05)).classify()
    assert structure.nonincreasing and structure.convex and structure.positive_type_known


def test_tabulated_positive_type_ignores_the_tolerance():
    # a concave knot of 2e-10 passes the convexity flag's tolerance, but the
    # positive-type claim certifies the discrete solve, so it must be exact
    structure = Tabulated(t=(0.0, 1.0, 2.0, 3.0), g=(1.5, 1.0, 0.5 + 1e-10, 0.0)).classify()
    assert structure.nonincreasing and structure.convex
    assert not structure.positive_type_known


@pytest.mark.parametrize("t, g", [
    ((0.0, 0.3, 1.0, 2.5), (2.0, 1.1, 0.4, 0.05)),  # log mode
    ((0.0, 0.5, 1.0, 2.0), (1.5, 1.0, 0.5, 0.0)),  # a zero value: linear mode
    ((0.5, 1.0, 2.0), (1.0, 0.6, 0.3)),  # flat head below t[0]
], ids=["log", "linear", "flat_head"])
def test_tabulated_classify_is_built_once(t, g):
    kernel = Tabulated(t=t, g=g)
    report = kernel.classify()
    assert kernel.classify() is report
    assert report == Tabulated(t=t, g=g).classify()


def _e2_fixed(z):
    """_e2 with its Taylor series always summed to 15 terms."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 1.0, z)
    series = 0.0
    for k in range(16, 1, -1):
        series = series * zs + 1.0 / math.factorial(k)
    return np.where(small, series, (np.expm1(zl) - zl) / (zl * zl))


# each radius is where the series gains a term: sample up to it and just short of it
RADII = [r for r in _E2_RADII if r < 0.5]


@pytest.mark.parametrize("bound", [1e-12, 1e-6, 1e-3, 6e-3, 0.1, 0.4999, *RADII,
                                   *(math.nextafter(r, 0.0) for r in RADII)])
def test_e2_short_series_keeps_the_full_series_value(bound):
    # the series stops where its first omitted term is below 1e-18, so it may
    # round differently from the 15-term sum, but by no more than 1 ulp
    z = np.random.default_rng(7).uniform(-bound, bound, 4000)
    z[:2] = bound, -bound
    np.testing.assert_array_max_ulp(_e2(z), _e2_fixed(z), maxulp=1)


def test_e2_equals_the_full_series_at_zero_and_off_the_series():
    assert _e2(0.0) == 0.5
    for z in ([0.0], [0.5, -0.5, 0.7, -3.0, 40.0], [0.5, 0.2, -0.49, 0.0, -700.0]):
        np.testing.assert_array_equal(_e2(np.array(z)), _e2_fixed(np.array(z)))


# ------------------------------------------------------------------ classify

def test_classify_flags():
    assert ExponentialSum(a=(1.0,), b=(1.0,)).classify().completely_monotone
    assert PowerLaw(alpha=0.5).classify().completely_monotone
    capped = CappedLinear(cap=1.0).classify()
    assert capped.nonincreasing and capped.convex and not capped.completely_monotone
    assert capped.positive_type_known
    trig = Trigonometric(rho=0.5).classify()
    assert not trig.nonincreasing and not trig.convex
    assert trig.positive_type_known  # cos(rho*|t-s|) is of positive type
    d = trig.to_dict()
    assert set(d) >= {"nonincreasing", "convex", "completely_monotone",
                      "positive_type_known"}
