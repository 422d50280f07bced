"""Composite Gauss panels: graded edges and the even check pass."""

import numpy as np
import pytest

from fredholm import _quad


@pytest.mark.parametrize("lo, hi, rate, cuts, want", [
    (0.0, 2.0, 3.9, [], [0.0, 1.0, 2.0]),                     # no layer: one panel per half-piece
    (0.0, 2.0, 10.0, [], [0.0, 1.0, 2.0]),                    # half-piece exactly 10/rate
    (0.0, 11.0, 19.8, range(1, 11), np.arange(23) * 0.5),     # the capped hump
    (0.0, 2.0, 10.5, [], [0.0, 4 / 10.5, 8 / 10.5, 1.0, 2 - 8 / 10.5, 2 - 4 / 10.5, 2.0]),
    (0.0, 3.0, 10.5, [1.0, 2.0, 5.0], [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),  # a cut outside is ignored
    (0.0, 3.0, 10.5, [1.0], [0.0, 0.5, 1.0, 1.0 + 4 / 10.5, 1.0 + 8 / 10.5, 2.0,
                             3 - 8 / 10.5, 3 - 4 / 10.5, 3.0]),  # one piece with layers, one without
])
def test_graded_edges(lo, hi, rate, cuts, want):
    # the no-layer return and the per-piece rule give the same edges either side of 10/rate
    np.testing.assert_allclose(_quad.graded_edges(lo, hi, rate, cuts), want, rtol=0, atol=1e-15)


def test_even_check_weights_before_it_multiplies():
    # phi = 1e300 on [0, 2e-300] is a unit mass; phi * (gamma phi) overflows,
    # w phi * gamma phi does not
    edges = np.array([0.0, 0.5e-300, 1e-300])
    check = _quad.even_check(lambda s: (np.full(s.shape, 0.5e300), np.zeros(s.shape)),
                             1.0, 0.5e300, edges)
    assert check.mass == pytest.approx(1.0, rel=1e-15)
    assert check.energy == pytest.approx(0.25e300, rel=1e-15)
    assert check.residual_max == 0.0


def test_gauss_table_is_numpys_24_point_rule_and_symmetric():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(_quad._NODES, nodes)
    assert np.array_equal(_quad._WEIGHTS, weights)
    assert np.array_equal(_quad._NODES, -_quad._NODES[::-1])
    assert np.array_equal(_quad._WEIGHTS, _quad._WEIGHTS[::-1])
