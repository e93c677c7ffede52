"""One proximal step: cycle stages vs the dense oracle, Anderson vs Picard."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles as oc
from ttjko.cross import CrossConfig
from ttjko.driver import GaussianInitial
from ttjko.fixed_point import (DivisionFloorError, FixedPointConfig,
                               anderson_alpha, certificate_indices, cycle,
                               guarded_ratio, solve_step,
                               terminal_identity_error)
from ttjko.grid import Grid
from ttjko.targets import CachedDensity, Gaussian, GaussianMixture
from ttjko.tt import tt_ones, tt_to_full


def make_problem(n=16, box=4.0, seed=11, k=3):
    grid = Grid.regular(-box, box, n, d=2)
    rng = np.random.default_rng(seed)
    init = GaussianInitial.standard(2)
    rho0 = init.tt(grid)
    mix = GaussianMixture.random(2, k, var=0.4, half_width=1.5, rng=rng)
    rho_inf = CachedDensity(mix.density, grid)
    axes = [grid.axis_nodes(j) for j in range(2)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    tgt_dense = mix.density(pts).reshape(n, n)
    return grid, rho0, rho_inf, tgt_dense


class TestGuardedRatio:
    def test_plain_division(self):
        out = guarded_ratio(np.array([2.0, 3.0]), np.array([4.0, 6.0]),
                            np.zeros((2, 1), dtype=int))
        assert_allclose(out, 0.5)

    def test_isolated_underflow_maps_to_zero(self):
        num = np.array([1.0, 1e-12])
        den = np.array([2.0, -1e-320])
        out = guarded_ratio(num, den, np.zeros((2, 2), dtype=int))
        assert_allclose(out, [0.5, 0.0])

    def test_systematic_breakdown_raises_with_index(self):
        num = np.ones(8)
        den = np.full(8, -1.0)
        with pytest.raises(DivisionFloorError) as err:
            guarded_ratio(num, den, np.arange(16).reshape(8, 2))
        assert err.value.index == (0, 1)


class TestAndersonAlpha:
    def test_matches_least_squares(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.standard_normal(30)
            r_old = rng.standard_normal(30)
            alpha = anderson_alpha(r @ r, r_old @ r_old, r_old @ r)
            grid_a = np.linspace(alpha - 1, alpha + 1, 2001)
            vals = [np.sum((a * r + (1 - a) * r_old) ** 2) for a in grid_a]
            assert abs(grid_a[int(np.argmin(vals))] - alpha) <= 1.1e-3


class TestCycleVsDense:
    def test_single_pass_stages(self):
        grid, rho0, rho_inf, tgt = make_problem()
        T, beta = 100.0, 0.1
        stages = oc.dense_cycle(np.ones((16, 16)), tt_to_full(rho0), tgt,
                                grid.spacings, T, beta)
        cfg = CrossConfig(max_rank=16, tolerance=1e-13, rank_adaptive=False)
        res = cycle(tt_ones(grid.shape), rho0, rho_inf, grid, T, beta, cfg,
                    1e-14, 16, rng=np.random.default_rng(0))
        for name in ("eta_0", "eta_hat_0", "eta_hat_T", "eta_new"):
            got = tt_to_full(getattr(res, name))
            want = stages[name]
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), name

    def test_flat_start_zero_horizon(self):
        # with beta*T = 0 the heat maps are identities:
        # eta_hat_0 = rho0, eta_new = (target / rho0)^(1/(1+2 beta))
        grid, rho0, rho_inf, tgt = make_problem()
        beta = 0.5
        cfg = CrossConfig(max_rank=16, tolerance=1e-13, rank_adaptive=False)
        res = cycle(tt_ones(grid.shape), rho0, rho_inf, grid, T=1e-14, beta=beta,
                    cross_cfg=cfg, trunc_tol=1e-14, max_rank=16,
                    rng=np.random.default_rng(1))
        rho0_d = tt_to_full(rho0)
        assert_allclose(tt_to_full(res.eta_hat_0), rho0_d, rtol=1e-8)
        want = (tgt / rho0_d) ** (1.0 / (1.0 + 2 * beta))
        got = tt_to_full(res.eta_new)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_picard_iterates_match_dense(self, seed):
        grid, rho0, rho_inf, tgt = make_problem(seed=seed)
        T, beta = 100.0, 0.1
        n_iter = 10
        dense_iters = oc.dense_picard(np.ones((16, 16)), tt_to_full(rho0), tgt,
                                      grid.spacings, T, beta, n_iter)
        cfg = CrossConfig(max_rank=16, tolerance=1e-13, rank_adaptive=False)
        x = tt_ones(grid.shape)
        res = None
        for m in range(n_iter):
            res = cycle(x, rho0, rho_inf, grid, T, beta, cfg, 1e-14, 16,
                        warm=res, rng=np.random.default_rng(100 + m))
            x = res.eta_new
            err = np.max(np.abs(tt_to_full(x) - dense_iters[m]))
            assert err <= 1e-8 * np.max(np.abs(dense_iters[m])), f"iteration {m}"


class TestSolve:
    def test_converged_fixed_point_is_stationary(self, gauss2):
        model = gauss2["model"]
        state = model.steps[0]
        res = cycle(state.eta_T, model.initial.tt(gauss2["grid"]),
                    gauss2["rho_inf"], gauss2["grid"], state.T, state.beta,
                    gauss2["config"].cross, gauss2["config"].trunc_tol,
                    gauss2["config"].max_rank, rng=np.random.default_rng(2),
                    log_scale=state.log_scale)
        from ttjko.tt import tt_axpy, tt_norm
        rel = tt_norm(tt_axpy(-1.0, state.eta_T, res.eta_new)) / tt_norm(state.eta_T)
        assert rel <= 10 * gauss2["config"].tolerance

    def test_certificate_on_converged_step(self, gauss2):
        model = gauss2["model"]
        rng = np.random.default_rng(3)
        idx = certificate_indices(model.rho_tt, gauss2["grid"], 100, rng)
        err = terminal_identity_error(model.steps[0], gauss2["rho_inf"], idx)
        assert err <= 10 * gauss2["config"].tolerance

    def test_max_iters_flags_nonconvergence(self):
        grid, rho0, rho_inf, _ = make_problem()
        cfg = FixedPointConfig(tolerance=1e-12, max_iters=2, max_rank=8,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))
        records = []
        state = solve_step(rho0, rho_inf, grid, 10.0, 0.1, cfg, telemetry=records.append)
        assert not state.converged
        assert state.iters == 2
        assert len(state.residual_history) == 2
        # the returned potentials come from the last cycle, so the
        # log-scale must be the one that cycle ran under
        assert state.log_scale == records[-1]["log_scale"] != records[0]["log_scale"]

    def test_picard_residual_monotone_after_burn_in(self):
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        target = Gaussian(mean=[0.6, -0.3], var=0.5)
        init = GaussianInitial.standard(2)
        for beta, T in [(1e-1, 1e2), (1e-2, 1e3)]:
            rho_inf = CachedDensity(target.density, grid)
            cfg = FixedPointConfig(tolerance=1e-6, max_iters=120, max_rank=8,
                                   cross=CrossConfig(max_rank=8, tolerance=1e-8))
            state = oc.reference_picard_solve(init.tt(grid), rho_inf, grid, T, beta,
                                              cfg, rng=np.random.default_rng(1))
            hist = np.asarray(state.residual_history[3:])
            assert np.all(np.diff(hist) <= 1e-12 + 1e-6 * hist[:-1])

    def test_anderson_first_step_equals_relaxed_picard(self):
        # with one residual in its window Anderson takes the plain gauged
        # step, so the second residual is the gauged Picard one as well
        grid, rho0, rho_inf, _ = make_problem()
        cfg = FixedPointConfig(tolerance=1e-30, max_iters=2, max_rank=10,
                               cross=CrossConfig(max_rank=10, tolerance=1e-9))
        rho_inf2 = CachedDensity(rho_inf.fn, grid)
        s_and = solve_step(rho0, rho_inf, grid, 50.0, 0.1, cfg,
                           rng=np.random.default_rng(4))
        s_pic = oc.reference_picard_solve(rho0, rho_inf2, grid, 50.0, 0.1, cfg,
                                          q=1.0, rng=np.random.default_rng(4),
                                          gauge=True)
        assert len(s_and.residual_history) == 2
        assert s_and.residual_history == s_pic.residual_history

    def test_anderson_beats_picard(self):
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        target = Gaussian(mean=[0.6, -0.3], var=0.5)
        init = GaussianInitial.standard(2)
        cfg = FixedPointConfig(tolerance=1e-6, max_iters=2000, max_rank=8,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))
        counts = {}
        for method, solve in (("picard", oc.reference_picard_solve),
                              ("anderson", solve_step)):
            rho_inf = CachedDensity(target.density, grid)
            state = solve(init.tt(grid), rho_inf, grid, 1e3, 1e-2, cfg,
                          rng=np.random.default_rng(1))
            assert state.converged
            counts[method] = state.iters
        assert counts["anderson"] <= counts["picard"] / 3

    def test_anderson_beats_gauged_picard(self):
        # the gauge alone removes the slow scale mode; Anderson must still
        # pay off on what is left, at a short step where the cycle
        # contracts slowly
        grid = Grid.regular(-5.0, 5.0, 24, d=2)
        target = Gaussian(mean=[0.6, -0.3], var=0.5)
        init = GaussianInitial.standard(2)
        cfg = FixedPointConfig(tolerance=1e-6, max_iters=2000, max_rank=8,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))

        def iterations(solve, **kwargs):
            rho_inf = CachedDensity(target.density, grid)
            state = solve(init.tt(grid), rho_inf, grid, 10.0, 1e-2, cfg,
                          rng=np.random.default_rng(1), **kwargs)
            assert state.converged
            return state.iters

        assert iterations(solve_step) <= iterations(oc.reference_picard_solve,
                                                    gauge=True) / 1.4

    def test_telemetry_stream(self):
        grid, rho0, rho_inf, _ = make_problem()
        records = []
        cfg = FixedPointConfig(tolerance=1e-4, max_iters=50, max_rank=8,
                               cross=CrossConfig(max_rank=8, tolerance=1e-8))
        solve_step(rho0, rho_inf, grid, 50.0, 0.1, cfg, telemetry=records.append)
        assert len(records) >= 3
        first = records[0]
        assert {"iter", "residual", "ranks", "log_scale", "unique_calls",
                "total_calls"} <= set(first)
        assert first["total_calls"] >= first["unique_calls"]

    def test_rejects_bad_step_parameters(self):
        grid, rho0, rho_inf, _ = make_problem()
        cfg = FixedPointConfig(max_iters=1)
        with pytest.raises(ValueError, match="positive"):
            solve_step(rho0, rho_inf, grid, -1.0, 0.1, cfg)


class TestCacheTransparency:
    def test_cache_on_off_identical_iterates(self):
        grid, rho0, _, _ = make_problem()
        mix = GaussianMixture.random(2, 3, var=0.4, half_width=1.5,
                                     rng=np.random.default_rng(11))
        kw = dict(tolerance=1e-6, max_iters=40, max_rank=8,
                  cross=CrossConfig(max_rank=8, tolerance=1e-8))
        rho_on = CachedDensity(mix.density, grid)
        rho_off = CachedDensity(mix.density, grid)
        rho_off.enabled = False
        s_on = solve_step(rho0, rho_on, grid, 50.0, 0.1, FixedPointConfig(**kw),
                          rng=np.random.default_rng(2))
        s_off = solve_step(rho0, rho_off, grid, 50.0, 0.1, FixedPointConfig(**kw),
                           rng=np.random.default_rng(2))
        assert s_on.residual_history == s_off.residual_history
        for a, b in zip(s_on.eta_T.cores, s_off.eta_T.cores):
            assert np.array_equal(a, b)
        assert rho_on.unique_calls <= rho_off.unique_calls
