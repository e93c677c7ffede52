"""Grid discretization: stencils, quadrature, interpolation, gradients."""

import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import tt_from_full, tt_random
from ttjko.grid import (Grid, gradient_matrix, interpolate_batch, laplacian_1d,
                        quadrature_weights)
from ttjko.fixed_point import StepState
from ttjko.heat import HeatPropagator
from ttjko.sampler import SamplerConfig, StepDynamics
from ttjko.tt import TTTensor, tt_eval, tt_ones, tt_rank_one


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

    @pytest.mark.parametrize("nodes", [16.7, 16.0, [16, 16.5], True, "16"])
    def test_nodes_that_are_not_integers_are_rejected(self, nodes):
        # a cast would fit on 16 nodes what asked for 16.7
        with pytest.raises(ValueError, match="nodes must be integers"):
            Grid.regular(0.0, 1.0, nodes, d=2)

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


def _assert_spacings(g):
    """The cached spacings: read-only, and bitwise (upper - lower) / (nodes - 1)."""
    assert g.spacings.tobytes() == ((g.upper - g.lower) / (g.nodes - 1)).tobytes()
    assert not any(a.flags.writeable for a in (g.lower, g.upper, g.nodes, g.spacings))
    with pytest.raises(ValueError, match="read-only"):
        g.spacings[0] = 1.0


class TestGridConstants:
    GRID = Grid.regular([-2.0, 0.1, -1e-3], [3.0, 0.7, 5.0], [7, 33, 2])

    def test_spacings_are_read_only_and_exact(self):
        _assert_spacings(self.GRID)

    @pytest.mark.parametrize("clone", [lambda g: Grid.from_dict(g.to_dict()),
                                       lambda g: pickle.loads(pickle.dumps(g)),
                                       copy.deepcopy, copy.copy],
                             ids=["from_dict", "pickle", "deepcopy", "copy"])
    def test_spacings_survive_copies(self, clone):
        g = clone(self.GRID)
        assert g is not self.GRID and g.shape == self.GRID.shape
        _assert_spacings(g)
        assert g.spacings.tobytes() == self.GRID.spacings.tobytes()

    def test_cells_and_clamp_match_the_clip_form(self):
        # points inside, outside, on every face, and signed zeros on the
        # faces at 0, where the clamp must return the zero np.clip returns
        g = Grid.regular([-2.0, 0.0, -1.0], [3.0, 0.7, 0.0], [7, 33, 2])
        rng = np.random.default_rng(4)
        width = g.upper - g.lower
        x = rng.uniform(g.lower - 0.3 * width, g.upper + 0.3 * width, (200, 3))
        x[:20] = g.lower
        x[20:40] = g.upper
        x[40:60, 0] = g.upper[0]
        x[60:80, 1:] = -0.0
        x[80:100, 1:] = 0.0
        clipped = np.clip(x, g.lower, g.upper)
        pos = (clipped - g.lower) / ((g.upper - g.lower) / (g.nodes - 1))
        ref_cell = np.minimum(pos.astype(np.intp), g.nodes - 2)
        cell, w = g.cells(x)
        assert g.clamp(x).tobytes() == clipped.tobytes()
        assert cell.dtype == ref_cell.dtype and cell.tobytes() == ref_cell.tobytes()
        assert w.tobytes() == (pos - ref_cell).tobytes()
        assert np.all(cell <= g.nodes - 2) and np.all(cell >= 0)


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
        vals, _ = interpolate_batch(t, g, g.points(np.array([[2, 3]])))
        assert_allclose(vals, tt_eval(t, np.array([[2, 3]])), rtol=1e-13)

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
            interpolate_batch(t, g, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # rejected by name before the cast to a cell, which would warn and
        # then fail inside the gather
        g = Grid.regular(0.0, 1.0, 4, d=2)
        x = np.full((4, 2), 0.5)
        x[2, 1] = x[3, 0] = bad
        with pytest.raises(ValueError, match="point 2 is not finite"):
            interpolate_batch(tt_ones((4, 4)), g, x)


class TestGradients:
    def test_constant_has_zero_gradient(self):
        g = Grid.regular(0.0, 1.0, 8, d=2)
        for axis in range(2):
            assert np.max(np.abs(gradient_matrix(g, axis) @ np.ones(8))) <= 1e-12

    def test_linear_function_exact_interior(self):
        g = Grid.regular([0.0, -2.0], [1.0, 2.0], 9)
        for axis in range(2):
            x = g.axis_nodes(axis)
            assert_allclose(gradient_matrix(g, axis) @ (3.0 * x - 1.0), 3.0, rtol=1e-12)

    def test_sin_derivative_second_order(self):
        g = Grid.regular(0.0, np.pi, 101, d=1)
        x = g.axis_nodes(0)
        deriv = gradient_matrix(g, 0) @ np.sin(x)
        err = np.max(np.abs(deriv[1:100] - np.cos(x[1:100])))
        assert err <= 1.5 * (g.spacings[0] ** 2) / 6 * 10

    def test_ranks_unchanged(self):
        # the sampler's gradient cores keep each potential's ranks, also
        # where the two potentials' cores share a run's table padded to the
        # larger rank; the ranks cut the four like axes into runs of 1, 2, 1
        rng = np.random.default_rng(3)
        g = Grid.regular(0.0, 1.0, 6, d=4)
        eta, hat = (TTTensor([np.abs(c) + 0.05 for c in tt_random(g.shape, r, rng).cores])
                    for r in (3, 1))
        state = StepState(eta_T=eta, eta_hat_0=hat, eta_hat_T=None,
                          T=1.0, beta=0.1, converged=True, iters=1)
        dyn = StepDynamics(state, g, SamplerConfig(n_time_nodes=6))
        t = 0.3
        x = rng.uniform(0.0, 1.0, (4, 4))
        dyn.ode_drift(t, x)
        dyn.sde_drift(t, x)
        eta_t = HeatPropagator(g, dyn.beta * (dyn.T - t)).apply(eta)
        assert dyn._runs == [(0, 1), (1, 3), (3, 4)]
        for (start, stop), table, shared in zip(dyn._runs, dyn._tables[1], dyn._tables[2]):
            for j, axis in enumerate(range(start, stop)):
                core = eta_t.cores[axis]                             # (r1, N, r2)
                r1, _, r2 = core.shape
                assert (r1, r2) == (eta.cores[axis].shape[0], eta.cores[axis].shape[2])
                assert table.shape[1:3] == (r1, r2)
                # eta_hat's half of the shared table: its own ranks, zero-padded
                a, b = hat.cores[axis].shape[0], hat.cores[axis].shape[2]
                hat_half = shared[:, :, :, 1, j]                     # (2, r1, r2, N)
                assert hat_half[0, :a, :b].all()
                assert not hat_half[:, a:].any() and not hat_half[:, :, b:].any()
                grad = np.einsum("ij,ajb->abi", gradient_matrix(g, axis), core)
                assert_allclose(table[1, :, :, 0, j], grad, rtol=1e-12, atol=1e-14)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            gradient_matrix(Grid.regular(0.0, 1.0, 2, d=1), 0)
