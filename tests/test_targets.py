"""Target densities and the cached grid oracle."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles as oc
from ttjko.grid import Grid, quadrature_weights
from ttjko.targets import (CachedDensity, DensityEvalError, DoubleMoon, Gaussian,
                           GaussianMixture, NonconvexPotential, cosine_heat_forward,
                           hyperbolic_posterior, measurement_grid, parabolic_posterior,
                           save_measurements, synthesize_measurements,
                           wave_forward)


class TestCachedDensity:
    def make(self, capacity=None):
        grid = Grid.regular(0.0, 1.0, 5, d=2)
        calls = {"n": 0}

        def fn(x):
            calls["n"] += x.shape[0]
            return np.exp(-np.sum(x**2, axis=1))

        return CachedDensity(fn, grid, capacity=capacity), calls

    def test_repeat_query_served_from_cache(self):
        cd, calls = self.make()
        idx = np.array([[1, 2]])
        v1 = cd.eval_batch(idx)
        v2 = cd.eval_batch(idx)
        assert_allclose(v1, v2)
        assert cd.unique_calls == 1
        assert cd.total_calls == 2
        assert calls["n"] == 1

    def test_first_n_policy_never_evicts(self):
        cd, _ = self.make(capacity=1)
        cd.eval_batch(np.array([[0, 0]]))
        cd.eval_batch(np.array([[1, 1]]))        # not cached: capacity is full
        assert cd.unique_calls == 2
        cd.eval_batch(np.array([[0, 0]]))        # cached
        assert cd.unique_calls == 2
        cd.eval_batch(np.array([[1, 1]]))        # still uncached: pays again
        assert cd.unique_calls == 3
        assert cd.total_calls == 4

    def test_batch_with_duplicates_evaluates_once(self):
        cd, calls = self.make()
        idx = np.array([[2, 2], [2, 2], [1, 0]])
        cd.eval_batch(idx)
        assert cd.unique_calls == 2
        assert cd.total_calls == 3
        assert calls["n"] == 2

    def test_counters_ordering(self):
        cd, _ = self.make()
        rng = np.random.default_rng(0)
        idx = np.stack([rng.integers(0, 5, 60), rng.integers(0, 5, 60)], axis=1)
        cd.eval_batch(idx)
        assert cd.total_calls >= cd.unique_calls

    def test_disabled_cache_same_values(self):
        cd_on, _ = self.make()
        cd_off, _ = self.make(capacity=0)
        rng = np.random.default_rng(1)
        for _ in range(2):
            idx = np.stack([rng.integers(0, 5, 40), rng.integers(0, 5, 40)], axis=1)
            assert_array_equal(cd_on.eval_batch(idx), cd_off.eval_batch(idx))
        assert cd_on.unique_calls < cd_off.unique_calls
        # nothing is stored: a row queried again is paid again
        calls = cd_off.unique_calls
        cd_off.eval_batch(idx[:1])
        assert cd_off.unique_calls == calls + 1

    def test_negative_density_rejected(self):
        grid = Grid.regular(0.0, 1.0, 4, d=1)
        cd = CachedDensity(lambda x: -np.ones(x.shape[0]), grid)
        with pytest.raises(DensityEvalError):
            cd.eval_batch(np.array([[2]]))

    def test_out_of_grid_index_rejected(self):
        cd, _ = self.make()
        with pytest.raises(ValueError, match="grid shape"):
            cd.eval_batch(np.array([[9, 0]]))


class TestSyntheticDensities:
    def test_single_gaussian_component(self):
        g = GaussianMixture(means=np.zeros((1, 2)), var=0.5, weights=np.array([1.0]))
        ref = Gaussian(mean=np.zeros(2), var=0.5)
        x = np.random.default_rng(0).standard_normal((20, 2))
        assert_allclose(g.density(x), ref.density(x), rtol=1e-12)

    def test_mixture_peak_value(self):
        means = np.array([[0.0, 0.0], [50.0, 50.0]])
        g = GaussianMixture(means=means, var=0.3, weights=np.array([0.4, 0.6]))
        peak = g.density(means[:1])[0]
        assert_allclose(peak, 0.4 / (2 * np.pi * 0.3), rtol=1e-8)

    def test_mixture_mass_on_grid(self):
        rng = np.random.default_rng(2)
        g = GaussianMixture.random(2, 3, var=0.4, half_width=1.0, rng=rng)
        grid = Grid.regular(-8.0, 8.0, 200, d=2)
        x = grid.axis_nodes(0)
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        dens = g.density(pts).reshape(200, 200)
        w = quadrature_weights(grid, 0)
        mass = (w[:, None] * w[None, :] * dens).sum()
        assert abs(mass - g.weights.sum()) <= 1e-4

    def test_double_moon_on_shell_peak(self):
        dm = DoubleMoon(dim=3, a=2.0)
        x = np.array([[2.0, 0.0, 0.0]])
        assert_allclose(dm.density(x)[0], 1.0 + np.exp(-2 * 16.0), rtol=1e-12)

    def test_double_moon_symmetry(self):
        dm = DoubleMoon(dim=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 2))
        flipped = x * np.array([-1.0, 1.0])
        assert_allclose(dm.density(x), dm.density(flipped), rtol=1e-12)

    def test_double_moon_modes_by_grid_search(self):
        dm = DoubleMoon(dim=2)
        grid = Grid.regular(-3.0, 3.0, 121, d=2)
        x = grid.axis_nodes(0)
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        dens = dm.density(pts)
        top = pts[np.argsort(dens)[-8:]]
        assert np.all(np.abs(np.linalg.norm(top, axis=1) - 2.0) <= 0.1)
        assert np.all(np.abs(np.abs(top[:, 0]) - 2.0) <= 0.1)

    def test_nonconvex_max_at_anchors(self):
        nc = NonconvexPotential.alternating(4)
        assert_allclose(nc.density(nc.anchors[None, :])[0], 1.0)

    def test_nonconvex_permutation_consistency(self):
        nc = NonconvexPotential(anchors=np.array([0.5, -1.0, 2.0]))
        nc_swapped = NonconvexPotential(anchors=np.array([-1.0, 0.5, 2.0]))
        x = np.array([[0.1, 0.2, 0.3]])
        x_swapped = np.array([[0.2, 0.1, 0.3]])
        assert_allclose(nc.density(x), nc_swapped.density(x_swapped), rtol=1e-12)

    def test_nonconvex_1d_is_laplace(self):
        nc = NonconvexPotential(anchors=np.array([0.0]))
        x = np.linspace(-2, 2, 41)[:, None]
        assert_allclose(nc.density(x), np.exp(-np.abs(x[:, 0])), rtol=1e-12)


class TestMixtureDensity:
    """The points-last density against the ``(M, K, d)`` broadcast."""

    @staticmethod
    def make(d, k, seed):
        rng = np.random.default_rng(seed)
        return GaussianMixture(means=rng.uniform(-1.5, 1.5, size=(k, d)), var=0.5,
                               weights=rng.uniform(0.1, 1.0, size=k)), rng

    @pytest.mark.parametrize("m", [1, 7, 200])
    @pytest.mark.parametrize("d, k", [(1, 1), (1, 7), (2, 3), (6, 3), (7, 1), (7, 7)])
    def test_bitwise_below_eight_coordinates_and_components(self, d, k, m):
        g, rng = self.make(d, k, seed=10 * d + k)
        x = 2.0 * rng.standard_normal((m, d))
        x[::3] *= 60.0                  # far out: the density underflows to 0
        got = g.density(x)
        assert got.tobytes() == oc.reference_mixture_density(g, x).tobytes()
        assert got[0] == 0.0 and got.shape == (m,)

    @pytest.mark.parametrize("d, k", [(8, 3), (16, 1), (3, 8), (6, 9), (8, 8), (16, 9)])
    def test_close_from_eight_coordinates_or_components(self, d, k):
        # a sum of 8 or more contiguous terms adds in blocks of 8, the
        # points-last form in order: the values differ in the last bits
        g, rng = self.make(d, k, seed=10 * d + k)
        x = rng.standard_normal((200, d))
        assert_allclose(g.density(x), oc.reference_mixture_density(g, x),
                        rtol=1e-13, atol=0)

    def test_one_point_as_a_vector(self):
        g, rng = self.make(3, 2, seed=0)
        x = rng.standard_normal(3)
        got = g.density(x)
        assert got.shape == (1,)
        assert got.tobytes() == oc.reference_mixture_density(g, x[None]).tobytes()

    @pytest.mark.parametrize("bad, match", [
        ({"var": 0.0}, "variance"), ({"var": -1.0}, "variance"),
        ({"var": np.nan}, "variance"), ({"var": np.inf}, "variance"),
        ({"weights": [np.nan, 1.0]}, "weights"), ({"weights": [np.inf, 1.0]}, "weights"),
        ({"weights": [0.0, 1.0]}, "weights"), ({"weights": [-1.0, 1.0]}, "weights"),
        ({"means": [[0.0, np.nan], [1.0, 1.0]]}, "means"),
        ({"means": [[0.0, np.inf], [1.0, 1.0]]}, "means"),
    ])
    def test_rejects_bad_parameters(self, bad, match):
        params = {"means": [[0.0, 0.0], [1.0, 1.0]], "var": 0.5, "weights": [0.5, 0.5]}
        with pytest.raises(ValueError, match=match):
            GaussianMixture(**{**params, **bad})


class TestPosteriors:
    def test_ordered_density_zero_off_cone(self):
        post = hyperbolic_posterior(d=3, seed=0)
        bad = np.array([[1.0, 0.0, 2.0]])
        good = np.array([[-1.0, 0.0, 2.0]])
        assert post.density(bad)[0] == 0.0
        assert post.density(good)[0] > 0.0

    def test_ordered_proportional_on_cone(self):
        post = hyperbolic_posterior(d=3, seed=0)
        unordered = hyperbolic_posterior(d=3, seed=0, ordered=False)
        # same theta_star draw ordering differs; rebuild with matched data
        unordered.theta_star = post.theta_star
        unordered.data = post.data
        pts = np.sort(np.random.default_rng(1).standard_normal((20, 3)), axis=1)
        assert_allclose(post.density(pts), unordered.density(pts), rtol=1e-12)

    def test_zero_noise_maximizes_at_truth(self):
        rng = np.random.default_rng(4)
        theta_star = np.array([-0.5, 0.8])
        t, x = measurement_grid(4, 6, (0.2, 1.0), (-3.0, 3.0))
        data = wave_forward(theta_star[None, :], t, x)[0]     # no noise
        from ttjko.targets import PosteriorTarget
        post = PosteriorTarget(forward=wave_forward, theta_star=theta_star,
                               sigma_meas=0.05, sigma_prior=np.array([2.0, 2.0]),
                               t_meas=t, x_meas=x, data=data)
        v_star = post.potential(theta_star[None, :])[0]
        prior_only = 0.5 * np.sum((theta_star / 2.0) ** 2)
        assert_allclose(v_star, prior_only, atol=1e-12)
        others = theta_star + 0.3 * rng.standard_normal((50, 2))
        assert np.all(post.potential(others) >= v_star - 1e-9)

    def test_parabolic_high_modes_decay(self):
        theta = np.array([[0.7, 0.4, -0.3, 0.2]])
        u = cosine_heat_forward(theta, np.array([5.0]), np.array([0.3]))
        assert_allclose(u[0, 0], 0.7, atol=1e-8)

    def test_parabolic_zero_case(self):
        post = parabolic_posterior(d=3, seed=0)
        post.data = np.zeros_like(post.data)
        val = post.density(np.zeros((1, 3)))[0]
        assert_allclose(val, 1.0)       # zero misfit, zero prior penalty

    def test_linear_gaussian_conjugacy(self):
        # the parabolic posterior is linear-Gaussian: compare its covariance
        # on a fine grid against the closed-form conjugate update
        d = 2
        post = parabolic_posterior(d=d, sigma_meas=0.1, sigma0=1.0, n_t=3, n_x=5,
                                   seed=3)
        t, x = post.t_meas, post.x_meas
        j = np.arange(d)[None, :]
        a_mat = np.exp(-((np.pi * j) ** 2) * t[:, None]) * np.cos(j * np.pi * x[:, None])
        prior_prec = np.diag(1.0 / post.sigma_prior**2)
        prec = prior_prec + a_mat.T @ a_mat / post.sigma_meas**2
        cov_exact = np.linalg.inv(prec)
        mean_exact = cov_exact @ (a_mat.T @ post.data) / post.sigma_meas**2

        grid = Grid.regular(mean_exact - 1.2, mean_exact + 1.2, 160, d=d)
        axes = [grid.axis_nodes(k) for k in range(d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        dens = post.density(pts).reshape(160, 160)
        w = [quadrature_weights(grid, k) for k in range(d)]
        ww = np.multiply.outer(w[0], w[1])
        z = (ww * dens).sum()
        mean_num = np.array([
            (ww * dens * axes[0][:, None]).sum(), (ww * dens * axes[1][None, :]).sum()
        ]) / z
        assert_allclose(mean_num, mean_exact, atol=1e-6)
        cov_num = np.empty((2, 2))
        c0 = axes[0][:, None] - mean_num[0]
        c1 = axes[1][None, :] - mean_num[1]
        cov_num[0, 0] = (ww * dens * c0 * c0).sum() / z
        cov_num[1, 1] = (ww * dens * c1 * c1).sum() / z
        cov_num[0, 1] = cov_num[1, 0] = (ww * dens * c0 * c1).sum() / z
        assert_allclose(cov_num, cov_exact, atol=1e-8)


class TestMeasurements:
    def test_zero_noise_limit(self):
        rng = np.random.default_rng(5)
        theta = np.array([0.3, -0.4])
        t, x = measurement_grid(3, 4, (0.1, 1.0), (-2.0, 2.0))
        exact = wave_forward(theta[None, :], t, x)[0]
        noisy = synthesize_measurements(wave_forward, theta, t, x, 1e-12, rng)
        assert_allclose(noisy, exact, atol=1e-10)

    def test_noise_mean_is_forward_value(self):
        rng = np.random.default_rng(6)
        theta = np.array([0.5])
        t, x = measurement_grid(2, 2, (0.1, 0.5), (-1.0, 1.0))
        draws = np.stack([
            synthesize_measurements(wave_forward, theta, t, x, 0.3, rng)
            for _ in range(4000)
        ])
        exact = wave_forward(theta[None, :], t, x)[0]
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * 0.3 / np.sqrt(4000))

    def test_gap_layout_excludes_interval(self):
        t, x = measurement_grid(1, 10, (0.01, 0.01), (-1.0, 1.0), x_gap=(-0.5, 0.5))
        assert x.size == 10
        assert np.all((x <= -0.5) | (x >= 0.5))

    def test_csv_round_trip(self, tmp_path):
        t = np.array([0.1, 0.2])
        x = np.array([-1.0, 1.0])
        v = np.array([0.5, -0.25])
        path = tmp_path / "meas.csv"
        save_measurements(path, t, x, v)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["t", "x", "value"]
        assert_array_equal(np.array(rows, dtype=float), np.stack([t, x, v], axis=1))
