"""Grid discretization: stencils, quadrature, interpolation, gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttjko.grid import (Grid, gradient_tensors, interpolate, interpolate_batch,
                        laplacian_1d, quadrature_weights)
from ttjko.tt import tt_eval, tt_from_full, tt_ones, tt_rank_one

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestGrid:
    def test_nodes_include_endpoints(self):
        g = Grid.regular(-1.0, 2.0, 4, d=1)
        assert_allclose(g.axis_nodes(0), [-1.0, 0.0, 1.0, 2.0])
        assert_allclose(g.spacings, [1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="upper"):
            Grid.regular(1.0, 1.0, 5, d=2)
        with pytest.raises(ValueError, match="2 nodes"):
            Grid.regular(0.0, 1.0, 1, d=1)

    def test_points_from_indices(self):
        g = Grid.regular([0.0, -1.0], [1.0, 1.0], [3, 5])
        pts = g.points(np.array([[0, 0], [2, 4]]))
        assert_allclose(pts, [[0.0, -1.0], [1.0, 1.0]])

    def test_round_trip_dict(self):
        g = Grid.regular(-2.0, 3.0, 7, d=3)
        g2 = Grid.from_dict(g.to_dict())
        assert_allclose(g2.lower, g.lower)
        assert_allclose(g2.upper, g.upper)
        assert g2.shape == g.shape


class TestLaplacian:
    def test_three_node_stencil(self):
        g = Grid.regular(0.0, 2.0, 3, d=1)     # h = 1
        expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        assert_allclose(laplacian_1d(g, 0), expected)

    @pytest.mark.parametrize("n", [3, 5, 17])
    def test_row_sums_zero(self, n):
        g = Grid.regular(0.0, 1.0, n, d=1)
        assert_allclose(laplacian_1d(g, 0).sum(axis=1), 0.0, atol=1e-12)

    def test_symmetric_nonpositive_diagonal(self):
        g = Grid.regular(-1.0, 1.0, 9, d=1)
        lap = laplacian_1d(g, 0)
        assert_allclose(lap, lap.T)
        assert np.all(np.diag(lap) <= 0)

    def test_kills_constants(self):
        g = Grid.regular(0.0, 1.0, 12, d=1)
        assert_allclose(laplacian_1d(g, 0) @ np.ones(12), 0.0, atol=1e-10)


class TestQuadrature:
    def test_two_nodes(self):
        g = Grid.regular(0.0, 1.0, 2, d=1)
        assert_allclose(quadrature_weights(g, 0), [0.5, 0.5])

    def test_three_nodes(self):
        g = Grid.regular(0.0, 2.0, 3, d=1)
        assert_allclose(quadrature_weights(g, 0), [0.5, 1.0, 0.5])

    def test_weights_sum_to_length(self):
        g = Grid.regular(-3.0, 5.0, 37, d=1)
        assert_allclose(quadrature_weights(g, 0).sum(), 8.0)

    def test_exact_on_affine(self):
        g = Grid.regular(0.0, 1.0, 13, d=1)
        x = g.axis_nodes(0)
        w = quadrature_weights(g, 0)
        assert_allclose((w * (3.0 * x + 2.0)).sum(), 3.5, rtol=1e-14)


class TestInterpolate:
    def test_node_values_exact(self):
        g = Grid.regular(0.0, 1.0, 5, d=2)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((5, 5))
        t = tt_from_full(dense, 1e-13)
        val = interpolate(t, g, g.points(np.array([[2, 3]]))[0])
        assert_allclose(val, tt_eval(t, np.array([[2, 3]]))[0], rtol=1e-13)

    def test_affine_reproduced_exactly(self):
        g = Grid.regular(-1.0, 1.0, 7, d=3)
        axes = [g.axis_nodes(k) for k in range(3)]
        dense = axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
        t = tt_from_full(dense, 1e-13)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(30, 3))
        vals, clamped = interpolate_batch(t, g, pts)
        assert not clamped.any()
        assert_allclose(vals, pts.sum(axis=1), atol=1e-12)

    def test_outside_points_clamped_and_flagged(self):
        g = Grid.regular(0.0, 1.0, 4, d=2)
        t = tt_ones((4, 4))
        vals, clamped = interpolate_batch(t, g, np.array([[2.0, 0.5], [0.5, 0.5]]))
        assert clamped.tolist() == [True, False]
        assert_allclose(vals, 1.0)

    def test_second_order_refinement(self):
        def f(x, y):
            return np.sin(1.3 * x) * np.cos(0.7 * y)

        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.8, 0.8, size=(400, 2))
        errs = []
        for n in (33, 65):
            g = Grid.regular(-1.0, 1.0, n, d=2)
            ax = g.axis_nodes(0)
            dense = f(ax[:, None], ax[None, :])
            t = tt_from_full(dense, 1e-13)
            vals, _ = interpolate_batch(t, g, pts)
            errs.append(np.max(np.abs(vals - f(pts[:, 0], pts[:, 1]))))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.5      # O(h^2): halving h divides error by ~4

    def test_nan_cores_rejected(self):
        g = Grid.regular(0.0, 1.0, 3, d=1)
        bad = tt_rank_one([np.array([1.0, np.nan, 1.0])])
        with pytest.raises(ValueError, match="non-finite"):
            interpolate_batch(bad, g, np.array([[0.5]]))

    def test_points_of_wrong_width_rejected(self):
        g = Grid.regular(0.0, 1.0, 4, d=2)
        t = tt_ones((4, 4))
        with pytest.raises(ValueError, match="2 columns"):
            interpolate_batch(t, g, [[0.5], [0.25]])
        with pytest.raises(ValueError, match="2 columns"):
            interpolate_batch(t, g, np.full((3, 3), 0.5))
        with pytest.raises(ValueError, match="2 columns"):
            interpolate(t, g, [0.5, 0.5, 0.5])


class TestGradients:
    def test_constant_has_zero_gradient(self):
        g = Grid.regular(0.0, 1.0, 8, d=2)
        grads = gradient_tensors(tt_ones((8, 8)), g)
        for gt in grads:
            assert np.max(np.abs(tt_eval(gt, np.array([[3, 4]])))) <= 1e-12

    def test_linear_function_exact_interior(self):
        g = Grid.regular(0.0, 1.0, 9, d=2)
        x = g.axis_nodes(0)
        t = tt_rank_one([x, np.ones(9)])
        gx, gy = gradient_tensors(t, g)
        idx = np.array([[4, 4], [2, 6], [0, 0], [8, 8]])
        assert_allclose(tt_eval(gx, idx), 1.0, atol=1e-12)
        assert_allclose(tt_eval(gy, idx), 0.0, atol=1e-12)

    def test_sin_derivative_second_order(self):
        g = Grid.regular(0.0, np.pi, 101, d=1)
        x = g.axis_nodes(0)
        t = tt_rank_one([np.sin(x)])
        (gt,) = gradient_tensors(t, g)
        interior = np.arange(1, 100)[:, None]
        err = np.max(np.abs(tt_eval(gt, interior) - np.cos(x[1:100])))
        assert err <= 1.5 * (g.spacings[0] ** 2) / 6 * 10

    def test_ranks_unchanged(self):
        rng = np.random.default_rng(3)
        from ttjko.tt import tt_random
        t = tt_random((6, 6, 6), 3, rng)
        g = Grid.regular(0.0, 1.0, 6, d=3)
        for gt in gradient_tensors(t, g):
            assert gt.ranks == t.ranks
