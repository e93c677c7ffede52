"""Hybrid ODE/SDE sampling of fitted models."""

import hashlib
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
from ttjko.sampler import (SamplerConfig, StepDynamics, _integrate_em, _integrate_ode,
                           _reflect, sample)
from ttjko.targets import CachedDensity, Gaussian
from ttjko.tt import TTTensor, tt_rank_one, tt_ones


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
        v = dyn.ode_drift(0.5, x)
        assert np.max(np.abs(v)) <= 1e-10

    def test_one_dimensional_gaussian_closed_form(self):
        grid = Grid.regular(-6.0, 6.0, 400, d=1)
        m1, v1, m2, v2 = 0.4, 0.9, -0.3, 0.6
        state = gaussian_state(grid, m1, v1, m2, v2, T=1.0, beta=0.07)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.linspace(-2.0, 2.0, 41)[:, None]
        # at t=0: eta is smoothed by beta*T, eta_hat is raw
        s = state.beta * state.T
        v1_eff = v1 + 2 * s
        got = dyn.ode_drift(0.0, x)[:, 0]
        expected = state.beta * (-(x[:, 0] - m1) / v1_eff + (x[:, 0] - m2) / v2)
        assert np.max(np.abs(got - expected)) <= 5e-3 * max(np.max(np.abs(expected)), 1)

    def test_sde_drift_is_twice_log_gradient(self):
        grid = Grid.regular(-5.0, 5.0, 200, d=1)
        state = gaussian_state(grid, 0.2, 0.7, 0.0, 1.0, T=1.0, beta=0.05)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.linspace(-1.5, 1.5, 21)[:, None]
        got = dyn.sde_drift(state.T, x)[:, 0]
        expected = 2 * state.beta * (-(x[:, 0] - 0.2) / 0.7)
        assert np.max(np.abs(got - expected)) <= 5e-3 * np.max(np.abs(expected))

    def test_ode_sde_drift_relation(self):
        # probability-flow identity: ode = sde - beta * grad log(eta*eta_hat)
        grid = Grid.regular(-4.0, 4.0, 80, d=2)
        state = gaussian_state(grid, 0.5, 0.8, -0.2, 0.6, T=2.0, beta=0.04)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(60, 2))
        for t in rng.uniform(0, state.T, size=6):
            ode = dyn.ode_drift(t, x)
            sde = dyn.sde_drift(t, x)
            grad_log_rho = (
                oc.reference_log_grad(state.eta_T, state.beta * (state.T - t), grid, x)
                + oc.reference_log_grad(state.eta_hat_0, state.beta * t, grid, x))
            assert np.max(np.abs(ode - (sde - state.beta * grad_log_rho))) <= 1e-10

    def test_constant_eta_gives_pure_brownian_drift(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        ones = tt_ones(grid.shape)
        state = StepState(eta_T=ones, eta_hat_0=ones, eta_hat_T=ones,
                          T=1.0, beta=0.2, converged=True, iters=1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        x = np.random.default_rng(2).uniform(-2, 2, size=(30, 2))
        assert np.max(np.abs(dyn.sde_drift(0.3, x))) <= 1e-12
        assert_allclose(dyn.diffusion, np.sqrt(2 * 0.2))

    def test_scratch_reuse_is_transparent(self):
        # one evaluator's gather scratch grows and is reused across calls
        # of changing batch size; every call must equal a fresh evaluator's
        grid = Grid.regular(-4.0, 4.0, 30, d=3)
        state = gaussian_state(grid, 0.3, 0.8, -0.2, 1.1, T=1.0, beta=0.05)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(1)
        for m in (20, 5, 60, 1, 33):
            t = rng.uniform(0.0, 1.0)
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
            dyn.ode_drift(0.5, x)


class TestPositivity:
    """The heat factors of a drift come from ``heat_factor`` and products of
    its factors, which cannot round below zero as an eigenbasis can.
    Checked where that matters: axes of distinct spacings, each with a
    factor of its own (as on ``parabolic_d10``), the shipped T and beta,
    and potentials narrow enough that their tails underflow."""

    @staticmethod
    def _case():
        half = np.array([4.5, 2.25, 1.5, 1.125])
        grid = Grid.regular(-half, half, 30)

        def narrow(shift):
            return tt_rank_one([np.exp(-0.5 * ((grid.axis_nodes(k) - shift * h) / (0.02 * h)) ** 2)
                                for k, h in enumerate(half)])

        eta, hat = narrow(0.3), narrow(-0.2)
        state = StepState(eta_T=eta, eta_hat_0=hat, eta_hat_T=hat, T=1e4, beta=1e-3,
                          converged=True, iters=1)
        model = FlowModel(grid=grid, initial=GaussianInitial.standard(4), steps=[state],
                          rho_tt=eta)
        # a switch time whose Euler-Maruyama times a running sum of the
        # step would miss by a few ulps
        return model, SamplerConfig(epsilon_sde=0.0123)

    def test_stage_factors_are_nonnegative_and_drifts_finite(self):
        model, config = self._case()
        grid, state = model.grid, model.steps[0]
        dyn = StepDynamics(state, grid, config)
        assert len(set(dyn._kinds)) == 4
        x = np.random.default_rng(6).uniform(grid.lower, grid.upper, (50, 4))
        x[:5] = grid.lower
        x[5:10] = grid.upper
        for t, (interval, powers) in dyn._stages.items():
            # a drift's factors are products of these and their powers,
            # so they are >= 0 too
            for factors in interval.values():
                assert all(f.min() >= 0.0 for f in factors)
            assert sum(powers) in (2 * sampler_module.RK4_STEPS, config.n_em_steps)
            assert np.isfinite(dyn.ode_drift(t, x)).all()
            assert np.isfinite(dyn.sde_drift(t, x)).all()

    def test_sample_evaluates_only_times_with_composed_factors(self, monkeypatch):
        # every RK4 stage up to t_switch, t_switch included, and every
        # Euler-Maruyama time has its factors in the stage map
        model, config = self._case()
        calls = {"ode_drift": [], "sde_drift": []}
        for name, drift in [(name, getattr(StepDynamics, name)) for name in calls]:
            def spy(self, t, x, name=name, drift=drift):
                assert t in self._stages
                calls[name].append(t)
                return drift(self, t, x)
            monkeypatch.setattr(StepDynamics, name, spy)
        ens = sample(model, 20, config, seed=3)
        assert np.isfinite(ens.positions).all()
        state = model.steps[0]
        t_switch = (1.0 - config.epsilon_sde) * state.T
        assert max(calls["ode_drift"]) == t_switch
        assert_array_equal(calls["sde_drift"],
                           np.linspace(t_switch, state.T, config.n_em_steps + 1)[:-1])


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

    def test_positions_are_within_the_error_budget(self, fitted, monkeypatch):
        # the drift is exact in time, so the RK4 steps alone set the error:
        # against 128 intervals of 4 steps each, the default 32 of 2 lie
        # 1.0e-4 (mean) and 5.0e-4 (max) away, one step per interval 9.0e-4
        # and 8.9e-3; the bounds are twice the default's
        x = sample(fitted, 40, SamplerConfig(), seed=5).positions
        monkeypatch.setattr(sampler_module, "RK4_STEPS", 4)
        fine = sample(fitted, 40, SamplerConfig(n_time_nodes=128), seed=5).positions
        error = np.linalg.norm(x - fine, axis=1)
        assert error.mean() <= 2e-4
        assert error.max() <= 1e-3

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

    @pytest.mark.parametrize("eps", [-1e-6, 1.0 + 1e-9, np.nan, np.inf, -np.inf])
    def test_epsilon_outside_the_unit_interval_is_rejected(self, eps):
        # a NaN fraction would give a NaN switch time: an empty ODE window
        # and a noisy tail on NaN times
        with pytest.raises(ValueError, match="epsilon_sde"):
            SamplerConfig(epsilon_sde=eps)

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
        # how the positions were integrated
        assert sidecar["n_time_nodes"] == SamplerConfig().n_time_nodes
        assert sidecar["rk4_steps"] == sampler_module.RK4_STEPS
        assert sidecar["epsilon_sde"] == SamplerConfig().epsilon_sde
        assert sidecar["n_em_steps"] == SamplerConfig().n_em_steps


class TestEulerMaruyama:
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

    def test_rows_match_one_row_calls(self):
        grid = Grid.regular(-3.0, 3.0, 40, d=2)
        state = gaussian_state(grid, 0.0, 1.0, 0.3, 0.8, T=1.0, beta=0.1)
        dyn = StepDynamics(state, grid, SamplerConfig())
        rng = np.random.default_rng(4)
        x = rng.uniform(-2.5, 2.5, (7, 2))
        noise = rng.standard_normal((7, 10, 2))
        out = _integrate_em(dyn, x, 0.3, 1.0, 10, noise)
        for i in range(7):
            assert_array_equal(out[i], _integrate_em(dyn, x[i:i + 1], 0.3, 1.0, 10,
                                                     noise[i:i + 1])[0])


class TestTrace:
    """The fixed-step RK4 integrator and the per-step sampler trace."""

    @staticmethod
    def _dynamics():
        grid = Grid.regular(-3.0, 3.0, 30, d=2)
        state = gaussian_state(grid, 0.4, 0.5, -0.3, 0.9, T=2.0, beta=0.2)
        return StepDynamics(state, grid, SamplerConfig())

    @classmethod
    def _integrate(cls, m=37, t_end=1.5, times=None):
        """Integrate m particles over [0, t_end]; every drift call appends its
        row count to the returned list, and its time to ``times``."""
        dyn = cls._dynamics()
        calls = []
        drift = dyn.ode_drift

        def counted(t, x):
            calls.append(x.shape[0])
            if times is not None:
                times.append(t)
            return drift(t, x)

        dyn.ode_drift = counted
        x0 = np.random.default_rng(3).uniform(-2.5, 2.5, (m, 2))
        x, trace = _integrate_ode(dyn, x0, t_end)
        return x0, x, trace, calls

    @pytest.mark.parametrize("node", [None, 5, -1])
    def test_positions_match_one_particle_reference(self, node):
        # t_end between nodes, on an interior node and on the last node
        t_end = 1.5 if node is None else self._dynamics().tau[node]
        x0, x, _, _ = self._integrate(m=11, t_end=t_end)
        ref = oc.reference_rk4(self._dynamics(), x0, t_end, sampler_module.RK4_STEPS)
        assert_array_equal(x, ref)

    @pytest.mark.parametrize("node", [None, 5, -1])
    def test_exact_for_a_drift_cubic_in_time(self, node):
        # RK4 integrates a drift of time alone by Simpson's rule, exact for
        # a cubic on any step, so the sum is exact only if the steps tile
        # [0, t_end] with no gap or overlap
        dyn = self._dynamics()
        t_end = 1.5 if node is None else dyn.tau[node]
        dyn.ode_drift = lambda t, x: np.broadcast_to([t ** 3, 1.0 - 2.0 * t ** 2],
                                                     x.shape).copy()
        # from the origin, so that a short window's displacement is not
        # rounded against the start position
        x, _ = _integrate_ode(dyn, np.zeros((5, 2)), t_end)
        assert_allclose(x, np.broadcast_to(
            [t_end ** 4 / 4, t_end - 2.0 * t_end ** 3 / 3], x.shape), rtol=1e-13)

    @pytest.mark.parametrize("drift, exact", [
        (lambda t, x: -2.0 * x, lambda x, t: x * np.exp(-2.0 * t)),
        (lambda t, x: -2.0 * t * x, lambda x, t: x * np.exp(-t ** 2)),
    ], ids=["autonomous", "time-dependent"])
    def test_fourth_order_in_the_steps_per_interval(self, drift, exact, monkeypatch):
        # halving every step divides the error by about 2^4 (2^3 or 2^5
        # would be a third- or fifth-order method)
        dyn = self._dynamics()
        dyn.ode_drift = drift
        x0 = np.random.default_rng(3).uniform(-2.5, 2.5, (11, 2))
        errors = []
        for steps in (2, 4, 8):
            monkeypatch.setattr(sampler_module, "RK4_STEPS", steps)
            x, _ = _integrate_ode(dyn, x0, 1.5)
            errors.append(np.max(np.abs(x - exact(x0, 1.5))))
        order = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((3.5 < order) & (order < 4.5))

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_drift_rows_are_four_per_step_per_particle(self, steps, monkeypatch):
        monkeypatch.setattr(sampler_module, "RK4_STEPS", steps)
        m = 37
        _, _, trace, calls = self._integrate(m)
        intervals = np.count_nonzero(self._dynamics().tau < 1.5)
        steps = sampler_module.RK4_STEPS * intervals
        # every call carries the whole batch
        assert calls == [m] * (4 * steps)
        assert trace == {"ode_steps": steps, "drift_rows": 4 * steps * m}
        assert all(type(v) is int for v in trace.values())

    def test_stages_of_a_step_stay_between_two_time_nodes(self):
        # the steps tile each time-node interval, so a step's stage times
        # are pieces of one interval's np.linspace
        times = []
        self._integrate(times=times)
        tau = self._dynamics().tau
        inner = tau[tau < 1.5]
        bounds = np.append(inner, 1.5)
        steps = np.array(times, dtype=float).reshape(-1, 4)      # one row per step
        assert steps.shape[0] == sampler_module.RK4_STEPS * inner.size
        k = np.repeat(np.arange(inner.size), sampler_module.RK4_STEPS)
        assert np.all(bounds[k] <= steps.min(axis=1))
        assert np.all(steps.max(axis=1) <= bounds[k + 1])
        # each interval starts on its node and its last step ends on the next
        first = steps[::sampler_module.RK4_STEPS]
        last = steps[sampler_module.RK4_STEPS - 1::sampler_module.RK4_STEPS]
        assert_array_equal(first[:, 0], inner)
        assert_array_equal(last[:, 3], bounds[1:])

    @pytest.mark.parametrize("node", [None, 5])
    def test_tables_are_rebuilt_once_per_stage_time(self, node):
        # k2 and k3 share the midpoint and a step ends where the next
        # starts, bit for bit, so the tables are rebuilt once per distinct
        # time, in place.  Up to a node every time is in the stage map;
        # an interval cut at 1.5, which is not a node, takes heat_factor's
        # own factors after its start
        dyn = self._dynamics()
        t_end = 1.5 if node is None else dyn.tau[node]
        rebuilt = []

        class Recorded(dict):
            def get(self, t, default=None):
                rebuilt.append(t)
                return super().get(t, default)

        dyn._stages = Recorded(dyn._stages)
        assert dyn._runs == [(0, 2)]            # the two like axes share one table
        tables = [list(ts) for ts in dyn._tables.values()]
        x0 = np.random.default_rng(3).uniform(-2.5, 2.5, (13, 2))
        _integrate_ode(dyn, x0, t_end)
        intervals = list(sampler_module._intervals(dyn.tau, t_end))
        pieces = 2 * sampler_module.RK4_STEPS
        assert_array_equal(rebuilt, np.unique([t for a, b in intervals
                                               for t in np.linspace(a, b, pieces + 1)]))
        missing = [t for t in rebuilt if t not in dyn._stages]
        assert len(missing) == (pieces if node is None else 0)
        assert all(t > intervals[-1][0] for t in missing)
        assert all(a is b for ts, new in zip(tables, dyn._tables.values())
                   for a, b in zip(ts, new))

    def test_sample_trace_and_positions(self, fitted, monkeypatch, tmp_path):
        n = 40
        ens = sample(fitted, n, SamplerConfig(), seed=5)
        trace = ens.meta["trace"]
        assert len(trace) == len(fitted.steps)
        state = fitted.steps[0]
        t_switch = (1.0 - SamplerConfig().epsilon_sde) * state.T
        tau = StepDynamics(state, fitted.grid, SamplerConfig()).tau
        intervals = np.count_nonzero(tau < t_switch)
        assert trace[0] == {"ode_steps": sampler_module.RK4_STEPS * intervals,
                            "drift_rows": 4 * sampler_module.RK4_STEPS * intervals * n}
        assert not ens.rescued.any() and not ens.unfinished.any()
        ens.save(tmp_path / "ens.csv")
        assert json.loads((tmp_path / "ens.csv.json").read_text())["trace"] == trace

        def one_particle_at_a_time(dyn, x, t_end):
            return oc.reference_rk4(dyn, x, t_end, sampler_module.RK4_STEPS), {}

        monkeypatch.setattr(sampler_module, "_integrate_ode", one_particle_at_a_time)
        ref = sample(fitted, n, SamplerConfig(), seed=5)
        assert_array_equal(ens.positions, ref.positions)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.5, 1.0])
    def test_trace_counts_the_intervals_of_the_ode_window(self, fitted, eps):
        # epsilon_sde 0 integrates all n_time_nodes intervals, 1 none
        n = 6
        ens = sample(fitted, n, SamplerConfig(epsilon_sde=eps), seed=2)
        state = fitted.steps[0]
        tau = StepDynamics(state, fitted.grid, SamplerConfig()).tau
        intervals = np.count_nonzero(tau < (1.0 - eps) * state.T)
        assert intervals == {0.0: SamplerConfig().n_time_nodes, 1.0: 0}.get(eps, intervals)
        steps = sampler_module.RK4_STEPS * intervals
        assert ens.meta["trace"][0] == {"ode_steps": steps, "drift_rows": 4 * steps * n}
        assert np.all(np.isfinite(ens.positions)) and not ens.clamped.any()


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestPinnedPositions:
    """SHA-256 of sampled positions, so that a change that claims to keep
    every bit of the sampler is checked by the suite.  The pins hold for
    one BLAS thread (conftest); a change that means to move the sampler's
    arithmetic updates them and says why."""

    def test_rank_one_fit(self, fitted):
        # each axis is a block of its own: the drift divides each axis's
        # derivative core by its own value core
        assert [s.eta_T.ranks for s in fitted.steps] == [(1, 1, 1)]
        x = sample(fitted, 40, SamplerConfig(), seed=5).positions
        assert _sha256(x) == ("ac70638499b14b61568b691ba9786c74"
                              "39aa08f75eb83b527c95455d9a7b55a3")

    def test_rank_three_potentials(self):
        # ranks 3 and 2 inside, 1 at the two ends: both the summed and the
        # unit-rank reductions of the drift kernel
        x = _sample_random_step(Grid.regular(-3.0, 3.0, [9, 7, 8]), 23).positions
        assert _sha256(x) == ("dd7fb515ac49151e78938848ecb95e19"
                              "5189155aa7a84ec99aa3309cfee2a6eb")

    def test_runs_of_like_axes(self):
        # five axes of 7 nodes and two spacings: the ranks cut them into
        # runs of 1, 3 and 1 axes, the inner run with a spacing per axis
        grid = Grid.regular(-3.0, [3.0, 2.0, 3.0, 2.0, 3.0], 7)
        x = _sample_random_step(grid, 29).positions
        assert _sha256(x) == ("9a03eb6278f57b778a425ff28fd8a6aa"
                              "e6b6976650d7a3a722ec14e16417b85a")


def _sample_random_step(grid, seed):
    """40 particles sampled from one step of random positive potentials,
    eta of rank 3 and eta_hat of rank 2."""
    rng = np.random.default_rng(seed)

    def positive(rank):
        return TTTensor([np.abs(c) + 0.05 for c in oc.tt_random(grid.shape, rank, rng).cores])

    eta, hat = positive(3), positive(2)
    state = StepState(eta_T=eta, eta_hat_0=hat, eta_hat_T=hat, T=1.5, beta=0.3,
                      converged=True, iters=1)
    model = FlowModel(grid=grid, initial=GaussianInitial.standard(grid.d),
                      steps=[state], rho_tt=eta)
    return sample(model, 40, SamplerConfig(), seed=5)
