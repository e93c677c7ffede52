"""Hybrid ODE/SDE sampling of fitted models."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles as oc
from ttjko import sampler as sampler_module

from ttjko.driver import FlowModel, GaussianInitial, Schedule, run
from ttjko.fixed_point import FixedPointConfig, StepState
from ttjko.cross import CrossConfig
from ttjko.grid import Grid
from ttjko.sampler import (Ensemble, SamplerConfig, StepDynamics, _em_single,
                           _integrate_ode, _reflect, sample)
from ttjko.targets import CachedDensity, Gaussian
from ttjko.tt import tt_rank_one, tt_ones


def gaussian_state(grid, mean_eta, var_eta, mean_hat, var_hat, T=1.0, beta=0.1):
    """StepState with Gaussian-shaped potentials for closed-form checks."""
    def vec(k, m, v):
        x = grid.axis_nodes(k)
        return np.exp(-0.5 * (x - m) ** 2 / v)

    d = grid.d
    eta = tt_rank_one([vec(k, mean_eta, var_eta) for k in range(d)])
    hat = tt_rank_one([vec(k, mean_hat, var_hat) for k in range(d)])
    return StepState(eta_T=eta, eta_0=eta, eta_hat_0=hat, eta_hat_T=hat,
                     T=T, beta=beta, converged=True, iters=1)


class TestDrifts:
    def test_equal_potentials_cancel_at_midpoint(self):
        # eta(t) and eta_hat(t) see the same smoothing at t = T/2
        grid = Grid.regular(-4.0, 4.0, 60, d=2)
        state = gaussian_state(grid, 0.3, 0.8, 0.3, 0.8, T=1.0, beta=0.05)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
        v = dyn.ode_drift(np.full(50, 0.5), x)
        assert np.max(np.abs(v)) <= 1e-10

    def test_one_dimensional_gaussian_closed_form(self):
        grid = Grid.regular(-6.0, 6.0, 400, d=1)
        m1, v1, m2, v2 = 0.4, 0.9, -0.3, 0.6
        state = gaussian_state(grid, m1, v1, m2, v2, T=1.0, beta=0.07)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.linspace(-2.0, 2.0, 41)[:, None]
        t = np.zeros(41)
        # at t=0: eta is smoothed by beta*T, eta_hat is raw
        s = state.beta * state.T
        v1_eff = v1 + 2 * s
        got = dyn.ode_drift(t, x)[:, 0]
        expected = state.beta * (-(x[:, 0] - m1) / v1_eff + (x[:, 0] - m2) / v2)
        assert np.max(np.abs(got - expected)) <= 5e-3 * max(np.max(np.abs(expected)), 1)

    def test_sde_drift_is_twice_log_gradient(self):
        grid = Grid.regular(-5.0, 5.0, 200, d=1)
        state = gaussian_state(grid, 0.2, 0.7, 0.0, 1.0, T=1.0, beta=0.05)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.linspace(-1.5, 1.5, 21)[:, None]
        t = np.full(21, state.T)
        got = dyn.sde_drift(t, x)[:, 0]
        expected = 2 * state.beta * (-(x[:, 0] - 0.2) / 0.7)
        assert np.max(np.abs(got - expected)) <= 5e-3 * np.max(np.abs(expected))

    def test_ode_sde_drift_relation(self):
        # probability-flow identity: ode = sde - beta * grad log(eta*eta_hat)
        grid = Grid.regular(-4.0, 4.0, 80, d=2)
        state = gaussian_state(grid, 0.5, 0.8, -0.2, 0.6, T=2.0, beta=0.04)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(60, 2))
        t = rng.uniform(0, state.T, size=60)
        ode = dyn.ode_drift(t, x)
        sde = dyn.sde_drift(t, x)
        grad_log_rho = dyn.grad_log_eta(t, x) + dyn.grad_log_eta_hat(t, x)
        assert np.max(np.abs(ode - (sde - state.beta * grad_log_rho))) <= 1e-10

    def test_constant_eta_gives_pure_brownian_drift(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        ones = tt_ones(grid.shape)
        state = StepState(eta_T=ones, eta_0=ones, eta_hat_0=ones, eta_hat_T=ones,
                          T=1.0, beta=0.2, converged=True, iters=1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.random.default_rng(2).uniform(-2, 2, size=(30, 2))
        assert np.max(np.abs(dyn.sde_drift(np.full(30, 0.3), x))) <= 1e-12
        assert_allclose(dyn.diffusion, np.sqrt(2 * 0.2))

    def test_scratch_reuse_is_transparent(self):
        # one evaluator's gather scratch grows and is reused across calls
        # of changing batch size; every call must equal a fresh evaluator's
        grid = Grid.regular(-4.0, 4.0, 30, d=3)
        state = gaussian_state(grid, 0.3, 0.8, -0.2, 1.1, T=1.0, beta=0.05)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(1)
        for m in (20, 5, 60, 1, 33):
            t = rng.uniform(0.0, 1.0, m)
            x = rng.uniform(-4.5, 4.5, size=(m, 3))
            fresh = StepDynamics(state, grid, SamplerConfig())
            assert np.array_equal(dyn.ode_drift(t, x), fresh.ode_drift(t, x))
            assert np.array_equal(dyn.sde_drift(t, x), fresh.sde_drift(t, x))

    def test_nan_point_raises(self):
        grid = Grid.regular(-4.0, 4.0, 30, d=2)
        dyn = StepDynamics(gaussian_state(grid, 0.3, 0.8, -0.2, 1.1), grid,
                           SamplerConfig())
        x = np.array([[0.1, 0.2], [np.nan, 0.0]])
        # the cell of a NaN coordinate is a negative integer, which the
        # gather would clip into the tables without the range check
        with np.errstate(invalid="ignore"), pytest.raises(IndexError):
            dyn.ode_drift(np.array([0.5, 0.5]), x)


class TestReflect:
    def test_folds_into_box(self):
        grid = Grid.regular(0.0, 1.0, 5, d=2)
        x = np.array([[1.3, -0.2], [0.5, 0.5], [2.1, 0.9]])
        y = _reflect(x, grid)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert_allclose(y[1], [0.5, 0.5])
        assert_allclose(y[0], [0.7, 0.2])


@pytest.fixture(scope="module")
def fitted():
    grid = Grid.regular(-5.0, 5.0, 48, d=2)
    target = Gaussian(mean=[0.6, -0.4], var=0.5)
    rho_inf = CachedDensity(target.density, grid)
    cfg = FixedPointConfig(tolerance=1e-6, max_iters=300, max_rank=8,
                           trunc_tol=1e-9,
                           cross=CrossConfig(max_rank=8, tolerance=1e-8))
    model = run(GaussianInitial.standard(2), rho_inf, grid,
                Schedule([(1e4, 1e-3)]), cfg, rng=np.random.default_rng(1))
    assert model.converged
    return model


class TestSample:

    def test_moments_match_target(self, fitted):
        ens = sample(fitted, 2000, SamplerConfig(), seed=42)
        mean = ens.positions.mean(axis=0)
        sigma = np.sqrt(0.5)
        assert np.all(np.abs(mean - [0.6, -0.4]) <= 3 * sigma / np.sqrt(2000))
        var = ens.positions.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 0.5) <= 0.15 * 0.5)

    def test_bitwise_reproducible(self, fitted):
        a = sample(fitted, 300, SamplerConfig(), seed=7)
        b = sample(fitted, 300, SamplerConfig(), seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_batch_order_independence(self, fitted):
        full = sample(fitted, 200, SamplerConfig(), seed=7)
        part = sample(fitted, 50, SamplerConfig(), seed=7)
        assert np.array_equal(full.positions[:50], part.positions)

    def test_pure_em_pipeline(self, fitted):
        ens = sample(fitted, 200, SamplerConfig(epsilon_sde=1.0, n_em_steps=50),
                     seed=3)
        assert np.all(np.isfinite(ens.positions))
        g = fitted.grid
        assert np.all(ens.positions >= g.lower) and np.all(ens.positions <= g.upper)

    def test_zero_particles(self, fitted):
        ens = sample(fitted, 0, SamplerConfig(), seed=0)
        assert ens.positions.shape == (0, 2)

    def test_unconverged_model_refused(self, fitted):
        bad_state = StepState(**{**fitted.steps[0].__dict__, "converged": False,
                                 "residual_history": []})
        bad = FlowModel(grid=fitted.grid, initial=fitted.initial,
                        steps=[bad_state], rho_tt=fitted.rho_tt)
        with pytest.raises(ValueError, match="unconverged"):
            sample(bad, 10, SamplerConfig(), seed=0)
        ens = sample(bad, 10, SamplerConfig(), seed=0, force=True)
        assert ens.positions.shape == (10, 2)

    def test_initial_draws_are_truncated_normal(self, fitted):
        # with an empty schedule, samples are raw initial draws
        empty = FlowModel(grid=fitted.grid, initial=fitted.initial, steps=[],
                          rho_tt=fitted.rho_tt)
        ens = sample(empty, 4000, SamplerConfig(), seed=11)
        g = fitted.grid
        assert np.all(ens.positions > g.lower) and np.all(ens.positions < g.upper)
        assert np.all(np.abs(ens.positions.mean(axis=0)) <= 3 / np.sqrt(4000))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epsilon_sde"):
            SamplerConfig(epsilon_sde=1.2)
        with pytest.raises(ValueError, match="n_em_steps"):
            SamplerConfig(n_em_steps=0)

    def test_save_csv_with_sidecar(self, fitted, tmp_path):
        ens = sample(fitted, 5, SamplerConfig(), seed=1)
        path = tmp_path / "ens.csv"
        ens.save(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x0,x1"
        assert len(lines) == 6
        import json
        sidecar = json.loads((tmp_path / "ens.csv.json").read_text())
        assert sidecar["n"] == 5 and "seed" in sidecar


class TestRescue:
    def test_em_single_advances_time(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        state = gaussian_state(grid, 0.0, 1.0, 0.0, 1.0, T=1.0, beta=0.1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(0)
        x = np.array([0.2, -0.1])
        out = _em_single(dyn, x, 0.0, 0.5, 10, rng.standard_normal((10, 2)))
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))
        assert np.all(out >= grid.lower) and np.all(out <= grid.upper)


class TestTrace:
    """The per-step sampler trace, and first-same-as-last stage reuse."""

    @staticmethod
    def _integrate(integrate, m=37):
        grid = Grid.regular(-3.0, 3.0, 30, d=2)
        state = gaussian_state(grid, 0.4, 0.5, -0.3, 0.9, T=2.0, beta=0.2)
        dyn = StepDynamics(state, grid, SamplerConfig())
        calls = []
        drift = dyn.ode_drift

        def counted(t, x):
            calls.append(x.shape[0])
            return drift(t, x)

        dyn.ode_drift = counted
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (m, 2))
        out = integrate(dyn, x, 0.0, 1.5, SamplerConfig(rel_tol=1e-8),
                        lambda pid: np.zeros((20, 2)))
        return x, out, calls

    def test_positions_match_seven_stage_reference(self):
        x_ref, (resc_ref, unfin_ref), calls_ref = self._integrate(oc.reference_integrate_ode)
        x, (resc, unfin, trace), calls = self._integrate(_integrate_ode)
        assert_array_equal(x, x_ref)
        assert_array_equal(resc, resc_ref)
        assert_array_equal(unfin, unfin_ref)
        assert trace["rejected"] > 0          # both FSAL branches are exercised
        assert sum(calls) < sum(calls_ref)

    def test_counters_follow_fsal(self):
        m = 37
        _, (_, _, trace), calls = self._integrate(_integrate_ode, m)
        # round 1 evaluates 7 stages of every particle, later rounds 6 of the
        # particles still active
        assert calls[:7] == [m] * 7
        later = calls[7:]
        assert len(later) % 6 == 0
        rounds = [later[i:i + 6] for i in range(0, len(later), 6)]
        assert all(len(set(r)) == 1 for r in rounds)
        active = [m] + [r[0] for r in rounds]
        assert trace["ode_rounds"] == len(active)
        assert trace["drift_rows"] == sum(calls) == 7 * m + 6 * sum(active[1:])
        assert trace["accepted"] + trace["rejected"] == sum(active)
        assert trace["accepted"] >= m
        assert all(type(trace[k]) is int
                   for k in ("ode_rounds", "accepted", "rejected", "drift_rows"))
        assert type(trace["min_step"]) is float and 0.0 < trace["min_step"] <= 1.5 / 16

    def test_sample_positions_unchanged_by_trace(self, fitted, monkeypatch, tmp_path):
        ens = sample(fitted, 40, SamplerConfig(), seed=5)
        trace = ens.meta["trace"]
        assert len(trace) == len(fitted.steps)
        assert set(trace[0]) == {"ode_rounds", "accepted", "rejected", "drift_rows",
                                 "min_step", "rescued", "unfinished"}
        assert trace[0]["rescued"] == int(ens.rescued.sum())
        assert trace[0]["unfinished"] == int(ens.unfinished.sum())
        ens.save(tmp_path / "ens.csv")
        assert json.loads((tmp_path / "ens.csv.json").read_text())["trace"] == trace

        def untraced(*args):
            return (*oc.reference_integrate_ode(*args), {})

        monkeypatch.setattr(sampler_module, "_integrate_ode", untraced)
        ref = sample(fitted, 40, SamplerConfig(), seed=5)
        assert_array_equal(ens.positions, ref.positions)
