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
from ttjko.heat import HeatPropagator
from ttjko.sampler import (MIN_STEP_FRACTION, Ensemble, SamplerConfig, StepDynamics,
                           _integrate_em, _integrate_ode, _reflect, sample)
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
    return StepState(eta_T=eta, eta_hat_0=hat, eta_hat_T=hat,
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
        stacks = [oc.reference_stacks([HeatPropagator(grid, state.beta * s).apply(p)
                                       for s in times], grid)
                  for p, times in ((state.eta_T, state.T - dyn.tau),
                                   (state.eta_hat_0, dyn.tau))]
        grad_log_rho = sum(oc.reference_log_grad(st, dyn.tau, dyn.T, grid, t, x)
                           for st in stacks)
        assert np.max(np.abs(ode - (sde - state.beta * grad_log_rho))) <= 1e-10

    def test_constant_eta_gives_pure_brownian_drift(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        ones = tt_ones(grid.shape)
        state = StepState(eta_T=ones, eta_hat_0=ones, eta_hat_T=ones,
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
    cfg = FixedPointConfig(tolerance=1e-6, max_iters=300,
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

    def test_ode_error_is_a_fifth_of_the_node_error(self, fitted):
        # the default tolerance leaves the integrator's error well below
        # that of interpolating the potentials between the time nodes
        tight = {"rel_tol": 1e-10, "abs_tol": 1e-12}
        x = sample(fitted, 40, SamplerConfig(), seed=5).positions
        ref = sample(fitted, 40, SamplerConfig(**tight), seed=5).positions
        fine = sample(fitted, 40, SamplerConfig(**tight, n_time_nodes=128), seed=5).positions
        ode = np.linalg.norm(x - ref, axis=1)
        node = np.linalg.norm(ref - fine, axis=1)
        assert ode.mean() <= node.mean() / 5
        assert ode.max() <= node.max() / 5

    def test_zero_particles(self, fitted):
        ens = sample(fitted, 0, SamplerConfig(), seed=0)
        assert ens.positions.shape == (0, 2)

    @pytest.mark.parametrize("n", [-3, 2.5])
    def test_particle_count_that_is_not_a_count_is_rejected(self, fitted, n):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            sample(fitted, n, SamplerConfig(), seed=0)

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

    @pytest.mark.parametrize("value", [0.0, -1e-6, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_tolerances_that_are_not_positive_and_finite_are_rejected(self, name, value):
        # with rel_tol=nan every error test fails: sample would run the
        # whole round budget and leave every particle unfinished
        with pytest.raises(ValueError, match="tolerances"):
            SamplerConfig(**{name: value})

    @pytest.mark.parametrize("n", [2.5, 0])
    def test_em_steps_that_are_not_a_positive_integer_are_rejected(self, n):
        # a float would fail only when sample draws the noise
        with pytest.raises(ValueError, match="n_em_steps"):
            SamplerConfig(n_em_steps=n)

    @pytest.mark.parametrize("n", [0, 4, 5, 7, 33, 32.0])
    def test_time_nodes_that_would_be_overridden_are_rejected(self, n):
        # below 6 the sub-grid would still have 7 nodes, an odd value
        # would give the same nodes as the even value below it, and a
        # float would fail only when the sub-grid is built
        with pytest.raises(ValueError, match="n_time_nodes"):
            SamplerConfig(n_time_nodes=n)

    @pytest.mark.parametrize("n", [6, 8, 32])
    def test_time_sub_grid_has_n_plus_one_nodes(self, n):
        grid = Grid.regular(-3.0, 3.0, 10, d=1)
        state = gaussian_state(grid, 0.0, 1.0, 0.0, 1.0, T=2.0)
        tau = StepDynamics(state, grid, SamplerConfig(n_time_nodes=n)).tau
        assert tau.size == n + 1
        assert tau[0] == 0.0 and tau[-1] == 2.0 and np.all(np.diff(tau) > 0)

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
    def test_one_row_em_advances_time(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        state = gaussian_state(grid, 0.0, 1.0, 0.0, 1.0, T=1.0, beta=0.1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(0)
        x = np.array([[0.2, -0.1]])
        out = _integrate_em(dyn, x, 0.0, 0.5, 10, rng.standard_normal((1, 10, 2)))[0]
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))
        assert np.all(out >= grid.lower) and np.all(out <= grid.upper)

    def test_per_row_start_times_match_one_row_calls(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        state = gaussian_state(grid, 0.0, 1.0, 0.3, 0.8, T=1.0, beta=0.1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(4)
        x = rng.uniform(-2.5, 2.5, (7, 2))
        t0 = rng.uniform(0.0, 0.9, 7)
        noise = rng.standard_normal((7, 10, 2))
        out = _integrate_em(dyn, x, t0, 1.0, 10, noise)
        for i in range(7):
            assert_array_equal(out[i], _integrate_em(dyn, x[i:i + 1], t0[i], 1.0, 10,
                                                     noise[i:i + 1])[0])

    def test_rescued_sample(self, fitted, monkeypatch):
        # raise the rescue threshold just above the smallest step the
        # controller proposes, so the particle(s) proposing it are rescued;
        # at the default tolerance every particle proposes that same step
        cfg = SamplerConfig(rel_tol=1e-6)
        base = sample(fitted, 200, cfg, seed=7)
        assert not base.rescued.any()
        span = (1.0 - cfg.epsilon_sde) * fitted.steps[0].T
        monkeypatch.setattr(sampler_module, "MIN_STEP_FRACTION",
                            1.01 * base.meta["trace"][0]["min_step"] / span)
        full = sample(fitted, 200, cfg, seed=7)
        assert 0 < full.rescued.sum() < 200
        assert full.meta["trace"][0]["rescued"] == full.rescued.sum()
        again = sample(fitted, 200, cfg, seed=7)
        assert_array_equal(again.positions, full.positions)
        assert_array_equal(again.rescued, full.rescued)
        part = sample(fitted, 50, cfg, seed=7)
        assert_array_equal(part.positions, full.positions[:50])
        assert_array_equal(part.rescued, full.rescued[:50])
        # reflected into the box by the integrator, not clamped afterwards
        assert not full.clamped[full.rescued].any()
        assert not full.unfinished.any()

    def test_one_em_call_per_round_of_rescues(self, fitted, monkeypatch):
        # every particle is rescued; the rescues of a round share one call,
        # and each row ends where a call on its row alone would leave it
        monkeypatch.setattr(sampler_module, "MIN_STEP_FRACTION", 7e-4)
        calls = []
        drift = StepDynamics.sde_drift

        def counted(self, t, x):
            calls.append(x.shape[0])
            return drift(self, t, x)

        monkeypatch.setattr(StepDynamics, "sde_drift", counted)
        ens = sample(fitted, 200, SamplerConfig(), seed=7)
        batched = len(calls)
        assert ens.rescued.all()

        def one_row_rescues(*args):
            return (*oc.reference_integrate_ode(*args), {})

        calls.clear()
        monkeypatch.setattr(sampler_module, "_integrate_ode", one_row_rescues)
        ref = sample(fitted, 200, SamplerConfig(), seed=7)
        assert_array_equal(ens.positions, ref.positions)
        assert_array_equal(ens.rescued, ref.rescued)
        # 200 one-row rescues of n_em_steps calls each, plus the tail's
        n_em = SamplerConfig().n_em_steps
        assert len(calls) == 201 * n_em
        assert batched < len(calls) / 10


class TestTrace:
    """The per-step sampler trace, and first-same-as-last stage reuse."""

    @staticmethod
    def _dynamics():
        grid = Grid.regular(-3.0, 3.0, 30, d=2)
        state = gaussian_state(grid, 0.4, 0.5, -0.3, 0.9, T=2.0, beta=0.2)
        return StepDynamics(state, grid, SamplerConfig())

    @classmethod
    def _integrate(cls, integrate, m=37, t0=0.0, times=None):
        """Integrate m particles over [t0, 1.5]; every drift call appends its
        row count to the returned list, and its times to ``times``."""
        dyn = cls._dynamics()
        calls = []
        drift = dyn.ode_drift

        def counted(t, x):
            calls.append(x.shape[0])
            if times is not None:
                times.append(np.array(t, dtype=float))
            return drift(t, x)

        dyn.ode_drift = counted
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (m, 2))
        out = integrate(dyn, x, t0, 1.5, SamplerConfig(rel_tol=1e-8),
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
        assert set(trace[0]) == {"ode_rounds", "accepted", "rejected", "node_stops",
                                 "drift_rows", "min_step", "rescued", "unfinished"}
        assert trace[0]["rescued"] == int(ens.rescued.sum())
        assert trace[0]["unfinished"] == int(ens.unfinished.sum())
        ens.save(tmp_path / "ens.csv")
        assert json.loads((tmp_path / "ens.csv.json").read_text())["trace"] == trace

        def untraced(*args):
            return (*oc.reference_integrate_ode(*args), {})

        monkeypatch.setattr(sampler_module, "_integrate_ode", untraced)
        ref = sample(fitted, 40, SamplerConfig(), seed=5)
        assert_array_equal(ens.positions, ref.positions)

    def test_stages_of_a_step_stay_between_two_time_nodes(self):
        # the drift is linear in time between nodes; a step that straddled
        # a node would see its time derivative jump
        times = []
        _, (_, _, trace), _ = self._integrate(_integrate_ode, times=times)
        tau = self._dynamics().tau
        rounds = [times[:7]] + [times[i:i + 6] for i in range(7, len(times), 6)]
        assert len(rounds) == trace["ode_rounds"]
        for stages in rounds:
            stages = np.stack(stages)
            first, last = stages.min(axis=0), stages.max(axis=0)
            k = np.searchsorted(tau, first, side="right") - 1
            assert np.all(tau[k] <= first) and np.all(last <= tau[k + 1])
        # every particle stops on each node inside (0, 1.5)
        assert trace["node_stops"] >= 37 * np.count_nonzero((tau > 0) & (tau < 1.5))

    def test_particle_an_ulp_below_a_node_lands_on_it(self):
        node = self._dynamics().tau[5]
        t0 = np.nextafter(node, -np.inf)
        times = []
        _, (resc, unfin, trace), _ = self._integrate(_integrate_ode, t0=t0, times=times)
        # the first step is one ulp long and ends on the node exactly
        assert_array_equal(times[0], t0)
        assert np.all(times[6] == node)
        assert trace["node_stops"] >= 37
        # the one-ulp step is not a step-size collapse
        assert not resc.any() and not unfin.any()
        assert trace["min_step"] >= 1e3 * MIN_STEP_FRACTION * (1.5 - t0)

    def test_fewer_rejected_than_half_the_accepted_steps(self, fitted):
        # with node stops 517 steps are rejected here against 1,673
        # accepted; when steps crossed the nodes, 2,098 against 1,678
        trace = sample(fitted, 40, SamplerConfig(), seed=5).meta["trace"][0]
        assert trace["rejected"] < 0.5 * trace["accepted"]
        assert trace["rescued"] == trace["unfinished"] == 0
