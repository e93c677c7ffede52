"""Heat semigroup applied core-wise: oracle matches and structural laws."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import oracles as oc
from oracles import tt_from_full, tt_random, tt_to_full
from ttjko.grid import Grid, laplacian_1d, quadrature_weights
from ttjko import heat
from ttjko.heat import HeatPropagator, heat_factor
from ttjko.tt import tt_contract_all, tt_rank_one


class TestBuild:
    def test_zero_time_is_identity(self):
        g = Grid.regular(0.0, 1.0, 9, d=2)
        prop = HeatPropagator(g, 0.0)
        for e in prop.factors:
            assert_allclose(e, np.eye(9), atol=1e-13)

    def test_negative_time_rejected(self):
        g = Grid.regular(0.0, 1.0, 5, d=1)
        with pytest.raises(ValueError, match=">= 0"):
            HeatPropagator(g, -0.1)

    def test_matches_eigendecomposition(self):
        g = Grid.regular(-2.0, 2.0, 16, d=1)
        prop = HeatPropagator(g, 0.7)
        ref = oc.dense_heat_factor(16, float(g.spacings[0]), 0.7)
        assert np.max(np.abs(prop.factors[0] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_factors_are_stochastic(self, s):
        g = Grid.regular(-3.0, 3.0, 24, d=1)
        e = HeatPropagator(g, s).factors[0]
        assert_allclose(e.sum(axis=1), 1.0, atol=1e-12)
        assert e.min() >= -1e-13
        assert_allclose(e, e.T, atol=1e-12)

    def test_shared_axes_share_factor(self, monkeypatch):
        # axes of one node count and spacing share one factor from one call
        g = Grid.regular(-4.0, 4.0, 24, d=16)
        calls = []

        def counting(lap, s):
            calls.append((lap, s))
            return heat_factor(lap, s)

        monkeypatch.setattr(heat, "heat_factor", counting)
        prop = HeatPropagator(g, 0.37)
        assert len(calls) == 1
        assert all(e is prop.factors[0] for e in prop.factors)
        assert np.array_equal(prop.factors[0], heat_factor(laplacian_1d(g, 0), 0.37))

    def test_distinct_axes_get_their_own_factor(self, monkeypatch):
        g = Grid.regular([-1.0, -1.0, 0.0], [1.0, 1.0, 3.0], [10, 12, 10])
        calls = []

        def counting(lap, s):
            calls.append((lap, s))
            return heat_factor(lap, s)

        monkeypatch.setattr(heat, "heat_factor", counting)
        prop = HeatPropagator(g, 0.3)
        assert len(calls) == 3
        assert len({id(e) for e in prop.factors}) == 3
        for k, e in enumerate(prop.factors):
            ref = scipy.linalg.expm(0.3 * laplacian_1d(g, k))
            assert np.max(np.abs(e - ref)) <= 1e-13


class TestHeatFactor:
    @pytest.mark.parametrize("n", [9, 24, 30])
    @pytest.mark.parametrize("s", [0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0])
    def test_matches_expm(self, n, s):
        lap = laplacian_1d(Grid.regular(-4.5, 4.5, n, d=1), 0)
        e = heat_factor(lap, s)
        assert np.max(np.abs(e - scipy.linalg.expm(s * lap))) <= 1e-13
        assert e.min() >= 0.0
        assert_allclose(e.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert_allclose(e, e.T, rtol=0.0, atol=1e-15)


class TestApply:
    def test_identity_at_zero(self):
        g = Grid.regular(0.0, 1.0, 7, d=2)
        rng = np.random.default_rng(0)
        t = tt_random((7, 7), 2, rng)
        out = HeatPropagator(g, 0.0).apply(t)
        assert_allclose(tt_to_full(out), tt_to_full(t), atol=1e-12)

    def test_matches_dense_kronecker(self):
        g = Grid.regular(-1.0, 1.0, 12, d=2)
        rng = np.random.default_rng(1)
        t = tt_random((12, 12), 3, rng)
        out = HeatPropagator(g, 0.4).apply(t)
        ref = oc.dense_heat_apply(tt_to_full(t), g.spacings, 0.4)
        assert np.max(np.abs(tt_to_full(out) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gaussian_variance_law(self):
        g = Grid.regular(-6.0, 6.0, 200, d=1)
        x = g.axis_nodes(0)
        sig2, s = 0.25, 0.1
        start = tt_rank_one([np.exp(-x**2 / (2 * sig2)) / np.sqrt(2 * np.pi * sig2)])
        out = HeatPropagator(g, s).apply(start)
        target = np.exp(-x**2 / (2 * (sig2 + 2 * s))) / np.sqrt(2 * np.pi * (sig2 + 2 * s))
        got = out.cores[0][0, :, 0]
        assert np.linalg.norm(got - target) / np.linalg.norm(target) <= 1e-3

    def test_mass_conservation(self):
        g = Grid.regular(-2.0, 3.0, 14, d=3)
        rng = np.random.default_rng(2)
        t = tt_random((14, 14, 14), 3, rng)
        ones = [np.ones(14)] * 3
        before = tt_contract_all(t, ones)
        after = tt_contract_all(HeatPropagator(g, 1.3).apply(t), ones)
        assert abs(after - before) <= 1e-10 * max(abs(before), 1.0)

    def test_semigroup_property(self):
        g = Grid.regular(-1.0, 1.0, 10, d=2)
        rng = np.random.default_rng(3)
        t = tt_random((10, 10), 3, rng)
        one_shot = HeatPropagator(g, 0.9).apply(t)
        two_step = HeatPropagator(g, 0.5).apply(HeatPropagator(g, 0.4).apply(t))
        a, b = tt_to_full(one_shot), tt_to_full(two_step)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))

    def test_positivity_preserved(self):
        g = Grid.regular(-2.0, 2.0, 20, d=2)
        rng = np.random.default_rng(4)
        dense = rng.uniform(0.0, 1.0, size=(20, 20))
        t = tt_from_full(dense, 0.0)
        out = tt_to_full(HeatPropagator(g, 0.8).apply(t))
        assert out.min() >= -1e-12 * np.max(np.abs(dense))

    def test_rank_invariance(self):
        g = Grid.regular(0.0, 1.0, 8, d=4)
        rng = np.random.default_rng(5)
        t = tt_random((8, 8, 8, 8), 3, rng)
        out = HeatPropagator(g, 2.0).apply(t)
        assert out.ranks == t.ranks

    def test_shape_mismatch(self):
        g = Grid.regular(0.0, 1.0, 8, d=2)
        with pytest.raises(ValueError, match="does not match"):
            HeatPropagator(g, 0.1).apply(tt_random((7, 7), 2, np.random.default_rng(0)))

    def test_grid_integral_invariant_with_quadrature(self):
        # trapezoid-weighted mass moves only through the boundary weights
        g = Grid.regular(-5.0, 5.0, 60, d=2)
        x = g.axis_nodes(0)
        t = tt_rank_one([np.exp(-x**2), np.exp(-x**2)])
        w = [quadrature_weights(g, k) for k in range(2)]
        before = tt_contract_all(t, w)
        after = tt_contract_all(HeatPropagator(g, 0.05).apply(t), w)
        assert abs(after - before) <= 1e-6 * before
