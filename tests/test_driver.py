"""Outer proximal loop, KL tracking, marginals, model persistence."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles as oc
from ttjko.cross import CrossConfig
from ttjko.driver import (FlowModel, GaussianInitial, Schedule, kl_estimate,
                          marginal_1d, marginals, run)
from ttjko.fixed_point import FixedPointConfig, StepState
from ttjko.grid import Grid, all_quadrature_weights, quadrature_weights
from ttjko.targets import CachedDensity, Gaussian
from ttjko.tt import (tt_contract_all, tt_from_full, tt_ones, tt_rank_one,
                      tt_to_full)


def tight_config(max_rank=12, tol=1e-8):
    return FixedPointConfig(tolerance=tol, max_iters=500, max_rank=max_rank,
                            trunc_tol=1e-11,
                            cross=CrossConfig(max_rank=max_rank, tolerance=1e-10))


class TestRun:
    def test_empty_schedule_returns_initial(self):
        grid = Grid.regular(-4.0, 4.0, 16, d=2)
        init = GaussianInitial.standard(2)
        rho_inf = CachedDensity(Gaussian(mean=[0., 0.], var=0.5).density, grid)
        model = run(init, rho_inf, grid, Schedule([]), tight_config())
        assert model.steps == []
        assert_allclose(tt_to_full(model.rho_tt), tt_to_full(init.tt(grid)))

    def test_schedule_validates(self):
        with pytest.raises(ValueError, match="T > 0"):
            Schedule([(0.0, 0.1)])

    def test_single_step_kl_matches_quadrature(self, gauss2):
        model = gauss2["model"]
        grid = gauss2["grid"]
        w = [quadrature_weights(grid, k) for k in range(2)]
        axes = [grid.axis_nodes(k) for k in range(2)]
        dense_fit = np.maximum(tt_to_full(model.rho_tt), 0.0)
        dense_tgt = oc.gaussian_grid(axes, [0.8, -0.5], 0.5)
        kl_q = oc.quadrature_kl(dense_fit, dense_tgt, w)
        assert abs(model.kl_history[-1] - kl_q) <= 1e-6 + 1e-3 * kl_q

    def test_two_steps_consistent_with_one(self):
        grid = Grid.regular(-6.0, 6.0, 48, d=2)
        target = Gaussian(mean=[0.7, -0.2], var=0.5)
        init = GaussianInitial.standard(2)
        w = [quadrature_weights(grid, k) for k in range(2)]
        axes = [grid.axis_nodes(k) for k in range(2)]
        tgt_dense = oc.gaussian_grid(axes, [0.7, -0.2], 0.5)
        for schedule in (Schedule([(1e3, 1e-2)]), Schedule([(5e2, 1e-2), (5e2, 1e-2)])):
            rho_inf = CachedDensity(target.density, grid)
            model = run(init, rho_inf, grid, schedule, tight_config(),
                        rng=np.random.default_rng(3))
            assert model.converged
            kl = oc.quadrature_kl(np.maximum(tt_to_full(model.rho_tt), 0), tgt_dense, w)
            assert kl <= 1e-3

    def test_warm_start_carries_log_scale(self):
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        rho_inf = CachedDensity(Gaussian(mean=[0.6, -0.3], var=0.5).density, grid)
        records = []
        model = run(GaussianInitial.standard(2), rho_inf, grid,
                    Schedule([(5e2, 1e-2), (5e2, 1e-2)]), tight_config(max_rank=8),
                    rng=np.random.default_rng(3), telemetry=records.append)
        assert model.converged
        first = [r for r in records if r["step"] == 0][0]
        resumed = [r for r in records if r["step"] == 1][0]
        assert first["log_scale"] == 0.0
        assert resumed["log_scale"] == model.steps[0].log_scale != 0.0

    def test_mass_positive_and_finite(self, gauss2):
        mass = tt_contract_all(gauss2["model"].rho_tt,
                               all_quadrature_weights(gauss2["grid"]))
        assert np.isfinite(mass) and mass > 0

    def test_unconverged_step_flagged(self):
        grid = Grid.regular(-4.0, 4.0, 16, d=2)
        init = GaussianInitial.standard(2)
        rho_inf = CachedDensity(Gaussian(mean=[0.5, 0.1], var=0.5).density, grid)
        cfg = FixedPointConfig(tolerance=1e-12, max_iters=2, max_rank=8,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))
        model = run(init, rho_inf, grid, Schedule([(10.0, 0.1)]), cfg)
        assert not model.converged
        assert np.isnan(model.kl_history[-1])

    def test_rescaled_target_same_density(self):
        # the fitted density is invariant under scaling the unnormalized target
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        init = GaussianInitial.standard(2)
        base = Gaussian(mean=[0.4, -0.6], var=0.5)
        cfg = FixedPointConfig(tolerance=1e-13, max_iters=200, max_rank=24,
                               trunc_tol=1e-14,
                               cross=CrossConfig(max_rank=24, tolerance=1e-13,
                                                 rank_adaptive=False))
        fits = []
        for scale in (1.0, 7.3):
            rho_inf = CachedDensity(lambda x, s=scale: s * base.density(x), grid)
            model = run(init, rho_inf, grid, Schedule([(1e2, 0.5)]), cfg,
                        rng=np.random.default_rng(4))
            assert model.converged
            mass = tt_contract_all(model.rho_tt, all_quadrature_weights(grid))
            fits.append(tt_to_full(model.rho_tt) / mass)
        # amplitude is a float pseudo-fixed-point degree of freedom; the
        # density itself is scale-invariant far below the required level
        err = np.max(np.abs(fits[0] - fits[1])) / np.max(np.abs(fits[0]))
        assert err <= 1e-10


def test_fit_invariant_to_target_scale():
    # the fixed point's overall scale moves as the target's to the power
    # 1/(2 beta); at the paper's small betas that mode is slow and leaves
    # the float range unless the solver fixes it.  The gauge absorbs the
    # target's scale: its log-scale moves by exactly s
    grid = Grid.regular(-4.0, 4.0, 16, d=2)
    base = Gaussian(mean=[0.4, -0.6], var=0.5)
    cfg = FixedPointConfig(tolerance=1e-6, max_iters=300, max_rank=6)
    for beta in (1e-2, 1e-3):
        iters, log_scales = [], {}
        for s in (-20.0, 0.0, 3.0):
            rho_inf = CachedDensity(lambda x, f=np.exp(s): f * base.density(x), grid)
            model = run(GaussianInitial.standard(2), rho_inf, grid,
                        Schedule([(1e3, beta)]), cfg)
            assert model.converged, f"beta={beta:g}: unconverged at scale exp({s:g})"
            iters.append(model.steps[0].iters)
            log_scales[s] = model.steps[0].log_scale
        assert len(set(iters)) == 1, f"beta={beta:g}: iterations {iters}"
        for s, ell in log_scales.items():
            assert abs(ell - log_scales[0.0] - s) <= 1e-9, f"beta={beta:g}, s={s:g}"


class TestKLEstimate:
    def test_identical_densities_give_zero(self):
        grid = Grid.regular(-6.0, 6.0, 64, d=2)
        axes = [grid.axis_nodes(k) for k in range(2)]
        tgt = oc.gaussian_grid(axes, [0.8, -0.5], 0.5)
        tgt_tt = tt_from_full(tgt, 1e-13)
        state = StepState(eta_T=tt_ones(grid.shape), eta_0=tt_ones(grid.shape),
                          eta_hat_0=tgt_tt, eta_hat_T=tgt_tt, T=1.0, beta=0.3,
                          converged=True, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(2),
                          steps=[state], rho_tt=tgt_tt)
        assert abs(kl_estimate(model)) <= 1e-8

    def test_gaussian_pair_matches_closed_form(self):
        grid = Grid.regular(-6.0, 6.0, 64, d=2)
        axes = [grid.axis_nodes(k) for k in range(2)]
        mean1, var1 = np.array([0.3, -0.2]), np.array([0.8, 1.2])
        mean2, var2 = np.array([0.8, -0.5]), np.array([0.5, 0.5])
        rho = oc.gaussian_grid(axes, mean1, var1)
        tgt = oc.gaussian_grid(axes, mean2, var2)
        beta = 0.5
        eta = (tgt / rho) ** (1.0 / (2 * beta))       # terminal identity holds exactly
        ehat = rho / eta
        state = StepState(eta_T=tt_from_full(eta, 1e-13),
                          eta_0=tt_ones(grid.shape),
                          eta_hat_0=tt_from_full(ehat, 1e-13),
                          eta_hat_T=tt_from_full(ehat, 1e-13),
                          T=1.0, beta=beta, converged=True, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(2),
                          steps=[state], rho_tt=tt_from_full(rho, 1e-13))
        expected = oc.gaussian_kl(mean1, var1, mean2, var2)
        assert abs(kl_estimate(model) - expected) <= 1e-4

    def test_requires_converged_last_step(self):
        grid = Grid.regular(-1.0, 1.0, 8, d=1)
        state = StepState(eta_T=tt_ones((8,)), eta_0=tt_ones((8,)),
                          eta_hat_0=tt_ones((8,)), eta_hat_T=tt_ones((8,)),
                          T=1.0, beta=0.1, converged=False, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(1),
                          steps=[state], rho_tt=tt_ones((8,)))
        with pytest.raises(ValueError, match="did not converge"):
            kl_estimate(model)

    def test_requires_steps(self):
        grid = Grid.regular(-1.0, 1.0, 8, d=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(1),
                          steps=[], rho_tt=tt_ones((8,)))
        with pytest.raises(ValueError, match="no proximal steps"):
            kl_estimate(model)


class TestMarginals:
    def make_product_model(self):
        grid = Grid.regular(-6.0, 6.0, 64, d=3)
        vecs = []
        for k, (m, v) in enumerate([(0.5, 0.6), (-0.3, 0.9), (0.1, 0.4)]):
            x = grid.axis_nodes(k)
            vecs.append(np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v))
        rho = tt_rank_one(vecs)
        state = StepState(eta_T=tt_ones(grid.shape), eta_0=tt_ones(grid.shape),
                          eta_hat_0=rho, eta_hat_T=rho, T=1.0, beta=0.1,
                          converged=True, iters=1)
        return FlowModel(grid=grid, initial=GaussianInitial.standard(3),
                         steps=[state], rho_tt=rho), grid, vecs

    def test_product_density_factor_recovery(self):
        model, grid, vecs = self.make_product_model()
        dens = marginal_1d(model, 1)
        w = quadrature_weights(grid, 1)
        expected = vecs[1] / (w * vecs[1]).sum()
        assert_allclose(dens, expected, rtol=1e-10)

    def test_all_axes_is_normalized_density(self):
        model, grid, _ = self.make_product_model()
        marg = marginals(model, [0, 1, 2])
        mass = tt_contract_all(marg, all_quadrature_weights(grid))
        assert_allclose(mass, 1.0, rtol=1e-12)

    def test_gaussian_marginal_closed_form(self):
        model, grid, _ = self.make_product_model()
        dens = marginal_1d(model, 0)
        x = grid.axis_nodes(0)
        exact = np.exp(-0.5 * (x - 0.5) ** 2 / 0.6) / np.sqrt(2 * np.pi * 0.6)
        w = quadrature_weights(grid, 0)
        assert (w * np.abs(dens - exact)).sum() <= 1e-3

    def test_marginals_compose(self, gauss2):
        model = gauss2["model"]
        w = all_quadrature_weights(gauss2["grid"])
        m12 = marginals(model, [0, 1])
        sub = FlowModel(grid=gauss2["grid"], initial=model.initial,
                        steps=model.steps, rho_tt=m12)
        m1_of_m12 = marginal_1d(sub, 0)
        m1_direct = marginal_1d(model, 0)
        assert np.max(np.abs(m1_of_m12 - m1_direct)) <= 1e-12 * np.max(np.abs(m1_direct))


class TestPersistence:
    def test_round_trip_bitwise(self, gauss2, tmp_path):
        model = gauss2["model"]
        model.save(tmp_path / "m")
        loaded = FlowModel.load(tmp_path / "m")
        assert loaded.converged == model.converged
        assert loaded.kl_history == pytest.approx(model.kl_history)
        for a, b in zip(model.rho_tt.cores, loaded.rho_tt.cores):
            assert np.array_equal(a, b)
        for s1, s2 in zip(model.steps, loaded.steps):
            assert (s1.T, s1.beta, s1.iters) == (s2.T, s2.beta, s2.iters)
            for name in ("eta_T", "eta_0", "eta_hat_0", "eta_hat_T"):
                for a, b in zip(getattr(s1, name).cores, getattr(s2, name).cores):
                    assert np.array_equal(a, b)

    def test_log_scale_round_trip(self, gauss2, tmp_path):
        model = gauss2["model"]
        assert model.steps[0].log_scale != 0.0
        model.save(tmp_path / "m")
        loaded = FlowModel.load(tmp_path / "m")
        assert [s.log_scale for s in loaded.steps] == [s.log_scale for s in model.steps]

    def test_missing_log_scale_reads_as_ungauged(self, gauss2, tmp_path):
        # a model saved without the gauge is the log-scale 0 fixed point
        gauss2["model"].save(tmp_path / "m")
        meta_path = tmp_path / "m" / "model.json"
        meta = json.loads(meta_path.read_text())
        for step in meta["steps"]:
            del step["log_scale"]
        meta_path.write_text(json.dumps(meta))
        loaded = FlowModel.load(tmp_path / "m")
        assert [s.log_scale for s in loaded.steps] == [0.0]
