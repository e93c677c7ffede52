"""Importance-distribution fitting and the self-normalized estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles as oc
from ttjko.cross import CrossConfig
from ttjko.driver import GaussianInitial, Schedule, run
from ttjko.fixed_point import FixedPointConfig
from ttjko.grid import Grid, all_quadrature_weights
from ttjko.importance import (QuantityOfInterest, fit_importance,
                              importance_estimate, sum_of_parameters)
from ttjko.targets import CachedDensity, Gaussian
from ttjko.tt import tt_contract_all, tt_to_full


@pytest.fixture(scope="module")
def posterior2():
    grid = Grid.regular(-6.0, 6.0, 48, d=2)
    target = Gaussian(mean=[0.7, -0.3], var=0.5)
    rho_inf = CachedDensity(target.density, grid)
    cfg = FixedPointConfig(tolerance=1e-7, max_iters=400, max_rank=10,
                           trunc_tol=1e-10,
                           cross=CrossConfig(max_rank=10, tolerance=1e-9))
    model = run(GaussianInitial.standard(2), rho_inf, grid,
                Schedule([(1e3, 1e-2)]), cfg, rng=np.random.default_rng(2))
    assert model.converged
    return {"model": model, "rho_inf": rho_inf, "grid": grid, "config": cfg}


class TestFitImportance:
    def test_zero_posterior_calls(self, posterior2):
        rho_inf = posterior2["rho_inf"]
        before = (rho_inf.unique_calls, rho_inf.total_calls)
        imp = fit_importance(posterior2["model"], sum_of_parameters(),
                             T=1e3, beta=1e-2, config=posterior2["config"],
                             rng=np.random.default_rng(3))
        assert (rho_inf.unique_calls, rho_inf.total_calls) == before
        assert imp.converged
        assert len(imp.steps) == len(posterior2["model"].steps) + 1

    def test_unit_functional_reproduces_density(self, posterior2):
        one = QuantityOfInterest(fn=lambda x: np.ones(x.shape[0]), name="one")
        imp = fit_importance(posterior2["model"], one, T=1e3, beta=1e-2,
                             config=posterior2["config"],
                             rng=np.random.default_rng(4))
        grid = posterior2["grid"]
        w = all_quadrature_weights(grid)
        a = tt_to_full(imp.rho_tt)
        b = tt_to_full(posterior2["model"].rho_tt)
        a = np.maximum(a, 0) / tt_contract_all(imp.rho_tt, w)
        b = np.maximum(b, 0) / tt_contract_all(posterior2["model"].rho_tt, w)
        kl = oc.quadrature_kl(b, np.maximum(a, 1e-300),
                              [np.asarray(v) for v in w])
        assert kl <= 1e-3

    def test_coordinate_functional_matches_dense(self, posterior2):
        qoi = QuantityOfInterest(fn=lambda x: x[:, 0], name="x0")
        imp = fit_importance(posterior2["model"], qoi, T=1e3, beta=1e-2,
                             config=posterior2["config"],
                             rng=np.random.default_rng(5))
        grid = posterior2["grid"]
        w = all_quadrature_weights(grid)
        ww = np.multiply.outer(*w)
        got = np.maximum(tt_to_full(imp.rho_tt), 0)
        got /= (ww * got).sum()
        x0 = grid.axis_nodes(0)
        want = np.abs(x0)[:, None] * tt_to_full(posterior2["model"].rho_tt)
        want = np.maximum(want, 0)
        want /= (ww * want).sum()
        assert (ww * np.abs(got - want)).sum() <= 5e-2

    def test_degenerate_functional_rejected(self, posterior2):
        zero = QuantityOfInterest(fn=lambda x: np.zeros(x.shape[0]), name="zero")
        with pytest.raises(ValueError, match="vanishes"):
            fit_importance(posterior2["model"], zero, T=1e3, beta=1e-2,
                           config=posterior2["config"])

    def test_unconverged_base_rejected(self, posterior2):
        from ttjko.driver import FlowModel
        from ttjko.fixed_point import StepState
        base = posterior2["model"]
        bad_state = StepState(**{**base.steps[0].__dict__, "converged": False,
                                 "residual_history": []})
        bad = FlowModel(grid=base.grid, initial=base.initial, steps=[bad_state],
                        rho_tt=base.rho_tt)
        with pytest.raises(ValueError, match="unconverged"):
            fit_importance(bad, sum_of_parameters(), T=1.0, beta=0.1,
                           config=posterior2["config"])


class TestEstimator:
    def test_constant_functional_exact(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((100, 3))
        qoi = QuantityOfInterest(fn=lambda x: np.full(x.shape[0], 2.5), name="c")
        assert_allclose(importance_estimate(samples, qoi, "optimal"), 2.5)

    def test_consistency_on_analytic_toy(self):
        # F(x) = 2 + sin(x) under N(0,1): E[F] = 2 (sin integrates to zero);
        # draws come exactly from the optimal proposal |F| * phi
        rng = np.random.default_rng(7)
        qoi = QuantityOfInterest(fn=lambda x: 2.0 + np.sin(x[:, 0]), name="toy")

        def draw(n):
            return oc.rejection_sample(
                lambda x: (2.0 + np.sin(x[:, 0])) * np.exp(-x[:, 0] ** 2 / 2),
                [-8.0], [8.0], n, rng)

        errors = [abs(importance_estimate(draw(n), qoi, "optimal") - 2.0)
                  for n in (100, 1000, 10000)]
        assert errors[2] < errors[0]
        assert errors[2] <= 0.02

    def test_true_weights_match_optimal_scale_free(self, posterior2):
        # weights rho_inf / rho_F equal 1/|F| up to a constant, so both
        # self-normalized estimates agree closely on the same sample
        model = posterior2["model"]
        qoi = QuantityOfInterest(fn=lambda x: x[:, 0] + 3.0, name="shifted")
        imp = fit_importance(model, qoi, T=1e3, beta=1e-2,
                             config=posterior2["config"],
                             rng=np.random.default_rng(8))
        from ttjko.sampler import SamplerConfig, sample
        ens = sample(imp, 400, SamplerConfig(), seed=9)
        est_opt = importance_estimate(ens.positions, qoi, "optimal")
        est_true = importance_estimate(
            ens.positions, qoi, "true",
            rho_inf_fn=posterior2["rho_inf"].fn, importance_model=imp)
        assert abs(est_opt - est_true) <= 0.1 * abs(est_opt)

    def test_unknown_mode_rejected(self):
        qoi = sum_of_parameters()
        with pytest.raises(ValueError, match="weight_mode"):
            importance_estimate(np.zeros((3, 2)), qoi, "bogus")

    def test_estimator_invariant_to_density_rescaling(self, posterior2):
        model = posterior2["model"]
        qoi = QuantityOfInterest(fn=lambda x: x[:, 0] + 3.0, name="shifted")
        imp = fit_importance(model, qoi, T=1e3, beta=1e-2,
                             config=posterior2["config"],
                             rng=np.random.default_rng(10))
        from ttjko.sampler import SamplerConfig, sample
        ens = sample(imp, 200, SamplerConfig(), seed=11)
        base_fn = posterior2["rho_inf"].fn
        a = importance_estimate(ens.positions, qoi, "true", rho_inf_fn=base_fn,
                                importance_model=imp)
        b = importance_estimate(ens.positions, qoi, "true",
                                rho_inf_fn=lambda x: 13.0 * base_fn(x),
                                importance_model=imp)
        assert_allclose(a, b, rtol=1e-12)
