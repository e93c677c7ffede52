"""Outer proximal loop, KL tracking, marginals, model persistence."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles as oc
from oracles import tt_from_full, tt_to_full
from ttjko.config import load_config
from ttjko.cross import CrossConfig
import ttjko.driver
from ttjko.driver import (FlowModel, GaussianInitial, Schedule, kl_estimate,
                          kl_from_uniforms, marginal_1d, marginals, run)
from ttjko.fixed_point import FixedPointConfig, StepState
from ttjko.grid import Grid, all_quadrature_weights, quadrature_weights
from ttjko.targets import CachedDensity, Gaussian
from ttjko.tt import TTTensor, tt_contract_all, tt_ones, tt_rank_one, tt_save

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tight_config(max_rank=12, tol=1e-8):
    return FixedPointConfig(tolerance=tol, max_iters=500, trunc_tol=1e-11,
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
        assert abs(model.kl_history[-1] - kl_q) <= 4.0 * model.kl_stderr[-1]

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
        cfg = FixedPointConfig(tolerance=1e-12, max_iters=2,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))
        model = run(init, rho_inf, grid, Schedule([(10.0, 0.1)]), cfg)
        assert not model.converged
        assert np.isnan(model.kl_history[-1])

    def test_rescaled_target_same_density(self):
        # the fitted density is invariant under scaling the unnormalized target
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        init = GaussianInitial.standard(2)
        base = Gaussian(mean=[0.4, -0.6], var=0.5)
        cfg = FixedPointConfig(tolerance=1e-13, max_iters=200,
                               trunc_tol=1e-14,
                               cross=CrossConfig(max_rank=24, tolerance=1e-13,
                                                 max_sweeps=30))
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
    cfg = FixedPointConfig(tolerance=1e-6, max_iters=300,
                           cross=CrossConfig(max_rank=6, tolerance=1e-7, max_sweeps=6))
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



def test_reduced_rank_one_gaussian_fit_is_pinned():
    # gaussian_verification at d = 8 on 20 nodes: every TT of the fit has
    # rank 1, and a change to the TT kernels that keeps the arithmetic of
    # unit ranks must leave the iterations, the calls and the KL's bits be
    d = 8
    grid = Grid.regular(-3.0, 3.0, 20, d=d)
    mean = np.random.default_rng(42).uniform(-1.5, 1.5, size=d)
    rho_inf = CachedDensity(Gaussian(mean=mean, var=0.5).density, grid)
    cfg = FixedPointConfig(tolerance=1e-5, max_iters=1000, trunc_tol=1e-8,
                           cross=CrossConfig(max_rank=8, tolerance=1e-7, max_sweeps=6))
    model = run(GaussianInitial.standard(d), rho_inf, grid, Schedule([(1e4, 1e-3)]),
                cfg, rng=np.random.default_rng(1))
    assert model.converged
    assert model.steps[0].eta_T.ranks == (1,) * (d + 1)
    assert model.steps[0].iters == 4
    assert (rho_inf.unique_calls, rho_inf.total_calls) == (1286, 5280)
    assert float(model.kl_history[-1]).hex() == "0x1.cc9444738afcap-18"


def test_shipped_parabolic_fit_converges():
    # the posterior is nonzero on 0.16% of the box, and eta_hat_T is nearly
    # flat on it after the step's heat flow: a cold terminal cross seeded from
    # eta_hat_T sees no mass and the first iteration raises
    cfg = load_config(CONFIGS / "parabolic_d10.json")
    rho_inf = CachedDensity(cfg.target.density, cfg.grid, capacity=cfg.cache_capacity)
    model = run(cfg.initial, rho_inf, cfg.grid, cfg.schedule, cfg.fixed_point,
                rng=np.random.default_rng(cfg.seeds["model"]))
    assert model.converged


class TestGaussianInitial:
    def test_sample_from_uniforms_matches_reference(self):
        # boxes in standard deviations: the bulk, both tails out to 40 sd,
        # and one box whose lower CDF (5.7e-300) is near underflow
        sd_boxes = np.array([[-4.5, 4.5], [-40.0, 40.0], [-40.0, -5.0], [5.0, 40.0],
                             [-37.0, -35.0], [-1.0, 0.5]])
        mean = np.array([0.0, 1.0, -2.0, 0.5, 3.0, -0.25])
        std = np.array([1.0, 0.5, 2.0, 0.1, 1.5, 0.75])
        grid = Grid.regular(mean + std * sd_boxes[:, 0], mean + std * sd_boxes[:, 1], 9)
        u = np.random.default_rng(8).uniform(size=(200, 6))
        u[0], u[1] = 0.0, 1.0 - 2.0**-53
        init = GaussianInitial(mean=mean, std=std)
        got = init.sample_from_uniforms(u, grid)
        # the reference is the bare inverse CDF; the draws are clipped into the box
        ref = np.clip(oc.reference_truncated_normal(mean, std, grid.lower, grid.upper, u),
                      grid.lower, grid.upper)
        # relative in standard deviations: a draw near 0 loses its last bits to
        # the cancellation of mean + std * z in both versions alike
        assert_allclose((got - mean) / std, (ref - mean) / std, rtol=1e-14, atol=1e-14)
        # Phi rounds to 0 at 40 sd below the mean and to 1 at 40 sd above it,
        # where the quantile is infinite: those draws land on the box edge
        assert got[0, 1] == grid.lower[1] and got[0, 2] == grid.lower[2]
        assert got[1, 3] == grid.upper[3]
        assert np.all((got >= grid.lower) & (got <= grid.upper))


class TestKLEstimate:
    def test_identical_densities_give_zero(self):
        grid = Grid.regular(-6.0, 6.0, 64, d=2)
        axes = [grid.axis_nodes(k) for k in range(2)]
        tgt = oc.gaussian_grid(axes, [0.8, -0.5], 0.5)
        tgt_tt = tt_from_full(tgt, 1e-13)
        state = StepState(eta_T=tt_ones(grid.shape),
                          eta_hat_0=tgt_tt, eta_hat_T=tgt_tt, T=1.0, beta=0.3,
                          converged=True, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(2),
                          steps=[state], rho_tt=tgt_tt)
        kl, _ = kl_estimate(model)
        assert abs(kl) <= 1e-8

    @staticmethod
    def gaussian_pair():
        """A model whose terminal identity holds exactly on the grid, and
        the closed-form KL of its two Gaussians."""
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
                          eta_hat_0=tt_from_full(ehat, 1e-13),
                          eta_hat_T=tt_from_full(ehat, 1e-13),
                          T=1.0, beta=beta, converged=True, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(2),
                          steps=[state], rho_tt=tt_from_full(rho, 1e-13))
        return model, oc.gaussian_kl(mean1, var1, mean2, var2)

    def test_gaussian_pair_matches_closed_form(self):
        model, expected = self.gaussian_pair()
        kl, se = kl_estimate(model)
        assert abs(kl - expected) <= 4.0 * se

    def test_many_draws_match_closed_form(self):
        model, expected = self.gaussian_pair()
        u = np.random.default_rng(21).random((2**18, 2))
        kl, se = kl_from_uniforms(model, u)
        assert abs(kl - expected) <= 4.0 * se

    def test_many_draws_match_quadrature(self, gauss2):
        model = gauss2["model"]
        grid = gauss2["grid"]
        w = [quadrature_weights(grid, k) for k in range(2)]
        axes = [grid.axis_nodes(k) for k in range(2)]
        kl_q = oc.quadrature_kl(np.maximum(tt_to_full(model.rho_tt), 0.0),
                                oc.gaussian_grid(axes, [0.8, -0.5], 0.5), w)
        kl, se = kl_from_uniforms(model, np.random.default_rng(22).random((2**18, 2)))
        assert abs(kl - kl_q) <= 4.0 * se

    def test_estimate_is_never_negative(self):
        # Jensen: log mean e^(X - mean X) >= 0 for any draws
        model, _ = self.gaussian_pair()
        for seed in range(5):
            kl, _ = kl_from_uniforms(model, np.random.default_rng(seed).random((16, 2)))
            assert kl >= 0.0

    def test_negligible_nonpositive_eta_is_left_out(self):
        # eta_T <= 0 where the density is 1e-6 of its peak: those draws are
        # dropped; where the density is larger, the estimate raises
        grid = Grid.regular(-1.0, 1.0, 4, d=1)
        rho = np.array([1e-6, 1.0, 1.0, 1.0])
        u = np.append(0.0, (np.arange(199) + 0.5) / 199)[:, None]   # u = 0 draws node 0

        def model_with(eta):
            state = StepState(eta_T=TTTensor([eta.reshape(1, -1, 1)]),
                              eta_hat_0=tt_ones((4,)), eta_hat_T=tt_ones((4,)),
                              T=1.0, beta=0.5, converged=True, iters=1)
            return FlowModel(grid=grid, initial=GaussianInitial.standard(1),
                             steps=[state], rho_tt=TTTensor([rho.reshape(1, -1, 1)]))

        eta = np.array([-1.0, 1.0, 2.0, 4.0])
        kl, _ = kl_from_uniforms(model_with(eta), u)
        kept, _ = kl_from_uniforms(model_with(np.array([4.0, 1.0, 2.0, 4.0])), u[1:])
        assert kl == kept > 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            kl_from_uniforms(model_with(np.array([1.0, -1.0, 2.0, 4.0])), u)

    def test_makes_no_target_calls_and_moves_no_fit(self, monkeypatch):
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        target = Gaussian(mean=[0.6, -0.3], var=0.5)
        schedule = Schedule([(5e2, 1e-2), (5e2, 1e-2)])

        def fit():
            rho_inf = CachedDensity(target.density, grid)
            model = run(GaussianInitial.standard(2), rho_inf, grid, schedule,
                        tight_config(max_rank=8), rng=np.random.default_rng(3))
            return model, rho_inf.total_calls

        model, calls = fit()
        assert model.converged and np.all(np.isfinite(model.kl_stderr))
        monkeypatch.setattr(ttjko.driver, "kl_estimate", lambda m: (np.nan, np.nan))
        bare, bare_calls = fit()
        assert calls == bare_calls
        for a, b in zip(model.steps, bare.steps):
            assert (a.iters, a.log_scale, a.residual_history) == \
                (b.iters, b.log_scale, b.residual_history)
            for name in ("eta_T", "eta_hat_0", "eta_hat_T"):
                for x, y in zip(getattr(a, name).cores, getattr(b, name).cores):
                    assert np.array_equal(x, y)
        for x, y in zip(model.rho_tt.cores, bare.rho_tt.cores):
            assert np.array_equal(x, y)

    def test_requires_converged_last_step(self):
        grid = Grid.regular(-1.0, 1.0, 8, d=1)
        state = StepState(eta_T=tt_ones((8,)),
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
        state = StepState(eta_T=tt_ones(grid.shape),
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
        assert loaded.kl_stderr == pytest.approx(model.kl_stderr)
        for a, b in zip(model.rho_tt.cores, loaded.rho_tt.cores):
            assert np.array_equal(a, b)
        for s1, s2 in zip(model.steps, loaded.steps):
            assert (s1.T, s1.beta, s1.iters) == (s2.T, s2.beta, s2.iters)
            for name in ("eta_T", "eta_hat_0", "eta_hat_T"):
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

    def test_missing_kl_stderr_reads_as_nan(self, gauss2, tmp_path):
        gauss2["model"].save(tmp_path / "m")
        meta_path = tmp_path / "m" / "model.json"
        meta = json.loads(meta_path.read_text())
        del meta["kl_stderr"]
        meta_path.write_text(json.dumps(meta))
        loaded = FlowModel.load(tmp_path / "m")
        assert loaded.kl_history == gauss2["model"].kl_history
        assert len(loaded.kl_stderr) == 1 and np.isnan(loaded.kl_stderr[0])

    def test_save_writes_no_eta_0_and_older_directories_load(self, gauss2, tmp_path):
        model = gauss2["model"]
        model.save(tmp_path / "m")
        eta_0 = tmp_path / "m" / "step_000.eta_0.tt"
        assert not eta_0.exists()
        # directories saved before eta_0 was dropped still carry its file
        tt_save(tt_ones(gauss2["grid"].shape), eta_0)
        loaded = FlowModel.load(tmp_path / "m")
        for a, b in zip(model.steps[0].eta_T.cores, loaded.steps[0].eta_T.cores):
            assert np.array_equal(a, b)
