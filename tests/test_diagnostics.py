"""Sample metrics, interval statistics and the MH baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles as oc
from ttjko import GaussianMixture, diagnostics
from ttjko.diagnostics import (MHConfig, SinkhornConfig, double_ot_protocol,
                               entropic_ot, integrated_autocorr, map_and_hdi,
                               median_sq_distance, metropolis_hastings,
                               wasserstein_1d_sq)


def s2(x, y, epsilon=None, max_iters=300, threshold=1e-5):
    """Debiased entropic OT, OT(x, y) - (OT(x, x) + OT(y, y)) / 2, the
    divergence ``double_ot_protocol`` compares samples by (epsilon
    defaults to 0.01 times the pooled median squared distance)."""
    if epsilon is None:
        epsilon = 0.01 * median_sq_distance(np.concatenate([x, y], axis=0))

    def ot(a, b):
        return entropic_ot(a, b, epsilon, max_iters, threshold)[0]
    return ot(x, y) - 0.5 * (ot(x, x) + ot(y, y))


class TestSinkhorn:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((80, 3))
        assert abs(s2(x, x)) <= 1e-10

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((60, 2)) + 0.4
        assert_allclose(s2(x, y, 0.05), s2(y, x, 0.05), rtol=1e-8)

    def test_nonnegative_on_close_clouds(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            x = rng.standard_normal((50, 2))
            y = rng.standard_normal((50, 2))
            assert s2(x, y, max_iters=3000, threshold=1e-9) >= -1e-9

    def test_two_point_instance_near_exact(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([[0.1, 0.0], [1.2, 0.0]])
        exact = oc.exact_ot_sq(x, y)
        eps = 0.01
        val = s2(x, y, eps, max_iters=5000, threshold=1e-12)
        assert abs(val - exact) <= 10 * eps

    def test_epsilon_extrapolation_to_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2)) + 0.3
        exact = oc.exact_ot_sq(x, y)
        vals = [s2(x, y, e, max_iters=20000, threshold=1e-12) for e in (0.04, 0.02, 0.01)]
        assert abs(vals[-1] - exact) <= 0.05 * max(exact, 0.01)

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError, match="nonempty"):
            double_ot_protocol({"ref": [np.zeros((0, 2)), np.zeros((3, 2))]}, SinkhornConfig())
        with pytest.raises(ValueError, match="dimension"):
            double_ot_protocol({"ref": [np.zeros((3, 2)), np.zeros((3, 3))]}, SinkhornConfig())

    def test_config_rejects_empty_budget_and_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="max_iters"):
            SinkhornConfig(max_iters=0)
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SinkhornConfig(max_iters=300.5)
        for threshold in (0.0, -1e-5):
            with pytest.raises(ValueError, match="threshold"):
                SinkhornConfig(threshold=threshold)

    @pytest.mark.parametrize("name, value", [("threshold", np.nan), ("threshold", np.inf)])
    def test_config_rejects_values_that_are_not_positive_and_finite(self, name, value):
        # a NaN threshold fails every convergence test: each solve would
        # run to max_iters
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SinkhornConfig(**{name: value})


def _median_eps(x, y):
    return 0.01 * float(np.median(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)))


class TestEntropicKernel:
    """The stabilised scaling iteration reproduces the log-domain iterates:
    the value to rtol 1e-10 and the convergence flag exactly."""

    @staticmethod
    def check(x, y, eps, max_iters, threshold):
        got = entropic_ot(x, y, eps, max_iters, threshold)
        want = oc.reference_entropic_ot(x, y, eps, max_iters, threshold)
        assert_allclose(got[0], want[0], rtol=1e-10)
        assert got[1] == want[1]
        return got

    def test_square_d6(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((200, 6))
        y = 0.8 * rng.standard_normal((200, 6)) + 0.3
        eps = _median_eps(x, y)
        assert self.check(x, y, eps, 150, 1e-4)[1] is False
        assert self.check(x, y, eps, 2000, 1e-4)[1] is True

    def test_unequal_sizes(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((70, 3))
        y = rng.standard_normal((110, 3)) - 0.5
        self.check(x, y, _median_eps(x, y), 2000, 1e-6)
        self.check(y, x, _median_eps(x, y), 2000, 1e-6)

    def test_sample_against_itself(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((120, 4))
        self.check(x, x, _median_eps(x, x), 300, 1e-5)

    def test_two_point_small_epsilon(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([[0.1, 0.0], [1.2, 0.0]])
        assert self.check(x, y, 0.01, 5000, 1e-12)[1] is True

    def test_far_outlier_takes_log_domain_fallback(self, monkeypatch):
        # epsilon above the median cost leaves no annealing level, so the
        # first kernel exp(-c / eps) has all-zero rows and columns
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((50, 2)) + 0.5
        x[0] = [200.0, 0.0]
        y[-1] = [0.0, -250.0]
        c = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        eps = 2.0 * float(np.median(c))
        assert np.all(c[0] / eps > 800) and np.all(c[:, -1] / eps > 800)
        fallbacks = []

        def counting(a, axis):
            fallbacks.append(axis)
            return oc._logsumexp(a, axis)

        monkeypatch.setattr(diagnostics, "_logsumexp", counting)
        value, _ = self.check(x, y, eps, 500, 1e-8)
        assert np.isfinite(value)
        assert set(fallbacks) == {0, 1}

    @pytest.mark.parametrize("far_size", [40, 42])
    def test_potential_jump_past_exp_range_reabsorbed(self, far_size):
        # the far point's dual jumps about 710 epsilons in its first
        # half-update, past exp's range, while its kernel product stays
        # normal; the sizes put it in the row and in the column role
        far_point = 30.0
        eps = (far_point - 1.0) ** 2 / 710.5
        near = np.concatenate([np.linspace(-1, 1, 20), np.ones(20)])[:, None]
        far = np.concatenate([np.linspace(-1, 1, far_size - 1), [far_point]])[:, None]
        self.check(near, far, eps, 50, 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
           st.sampled_from([1e-3, 1.0, 1e3]), st.floats(0.005, 2.0),
           st.sampled_from([0.0, 1e3, 4e3]), st.integers(0, 2**32 - 1))
    def test_property_matches_log_domain(self, n, m, d, scale, eps_frac, reach, seed):
        # sizes, scales and far outliers: an outlier whose costs reach
        # past 745 epsilons has an underflowing kernel row or column, which
        # sends half-updates to the log domain.  Costs stay within about
        # 1e4 epsilons, where rounding moves the plan by under 1e-12.
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((n, d))
        y = scale * (rng.standard_normal((m, d)) + 0.5)
        eps = 100 * eps_frac * max(_median_eps(x, y), 1e-3 * scale**2)
        x[0, 0] += np.sqrt(reach * eps)
        y[-1, -1] -= np.sqrt(reach * eps)
        self.check(x, y, eps, 300, 1e-7 * scale**2)

    @pytest.mark.parametrize("x, y, eps", [
        (np.zeros((1, 2)), np.zeros((1, 2)), 0.5),
        (np.zeros((1, 2)), np.ones((1, 2)), 0.01),
        (np.zeros((3, 2)), np.zeros((3, 2)), 0.5),
        (np.zeros((1, 2)), np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 0.1),
    ])
    @pytest.mark.parametrize("threshold_frac", [1e-300, 1e-17])
    def test_exact_fixed_point_converges_below_double_spacing(self, x, y, eps,
                                                              threshold_frac):
        # the updates reach a fixed point bit for bit, so the potentials'
        # change is exactly 0 and beats a threshold below their spacing
        assert self.check(x, y, eps, 200, threshold_frac * eps)[1] is True

    def test_no_fixed_point_below_double_spacing_stays_unconverged(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((5, 2))
        for eps in (0.05, 0.2):
            assert self.check(x, y, eps, 30, 1e-17 * eps)[1] is False

    def test_protocol_matches_log_domain(self, monkeypatch):
        # diag6's protocol at a reduced size: d = 6 mixture reference sets
        # against shifted ones, at the benchmark's Sinkhorn settings
        target = GaussianMixture.random(d=6, k=3, var=0.5, half_width=1.5,
                                        rng=np.random.default_rng(0))
        rng = np.random.default_rng(26)
        groups = {"ref": [target.sample(40, rng) for _ in range(3)],
                  "mcmc": [target.sample(40, rng) + 0.2 for _ in range(3)]}
        config = SinkhornConfig(max_iters=150, threshold=1e-4)
        got = double_ot_protocol(groups, config)
        monkeypatch.setattr(diagnostics, "entropic_ot", oc.reference_entropic_ot)
        want = double_ot_protocol(groups, config)
        scale = np.abs(want.to_ref["mcmc"].values).max()
        assert_allclose(got.within_ref.values, want.within_ref.values,
                        rtol=1e-10, atol=1e-12 * scale)
        assert_allclose(got.to_ref["mcmc"].values, want.to_ref["mcmc"].values,
                        rtol=1e-10, atol=1e-12 * scale)
        assert (got.solves, got.unconverged) == (want.solves, want.unconverged)
        assert 0 < got.unconverged < got.solves


def sliced_sq(x, y, n_projections, rng):
    """Largest projected 1-d W2^2 over random unit directions (the exact
    1-d value for one-dimensional samples)."""
    if x.shape[1] == 1:
        return wasserstein_1d_sq(x[:, 0], y[:, 0])
    dirs = rng.standard_normal((n_projections, x.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return max(wasserstein_1d_sq(x @ theta, y @ theta) for theta in dirs)


class TestSliced:
    def test_identical_samples(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3))
        assert sliced_sq(x, x, 32, rng) <= 1e-12

    def test_one_dimensional_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 1))
        y = rng.standard_normal((8, 1))
        got = sliced_sq(x, y, 7, rng)
        xs, ys = np.sort(x[:, 0]), np.sort(y[:, 0])
        assert_allclose(got, np.mean((xs - ys) ** 2), rtol=1e-12)

    def test_translation_lower_bound(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((300, 3))
        c = np.array([1.0, -2.0, 0.5])
        got = sliced_sq(x, x + c, 500, rng)
        assert got >= 0.95 * np.sum(c**2)

    def test_quantile_formula_vs_enumeration(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        exact = oc.exact_ot_sq(a[:, None], b[:, None])
        assert_allclose(wasserstein_1d_sq(a, b), exact, rtol=1e-12)

    def test_unequal_sizes(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.0, 0.5, 1.0])
        # quantile coupling: piecewise-constant inverse CDFs on 6 segments
        expected = (1/3) * 0.0 + (1/6) * 0.25 + (1/6) * 0.25 + (1/3) * 0.0
        assert_allclose(wasserstein_1d_sq(a, b), expected, rtol=1e-12)


class TestDoubleOT:
    def test_separated_groups_ordered(self):
        rng = np.random.default_rng(8)
        refs = [rng.standard_normal((60, 2)) for _ in range(4)]
        near = [rng.standard_normal((60, 2)) for _ in range(3)]
        far = [rng.standard_normal((60, 2)) + 5.0 for _ in range(3)]
        report = double_ot_protocol({"ref": refs, "near": near, "far": far}, SinkhornConfig())
        assert report.to_ref["far"].mean > report.to_ref["near"].mean
        assert report.double_ot["far"] > report.double_ot["near"]

    def test_matched_method_near_self_scale(self):
        rng = np.random.default_rng(9)
        refs = [rng.standard_normal((80, 2)) for _ in range(5)]
        same = [rng.standard_normal((80, 2)) for _ in range(5)]
        report = double_ot_protocol({"ref": refs, "same": same}, SinkhornConfig())
        assert abs(report.to_ref["same"].mean - report.within_ref.mean) \
            <= 3 * (report.within_ref.std + report.to_ref["same"].std + 1e-12)

    def test_reports_unconverged_solves(self):
        rng = np.random.default_rng(24)
        groups = {"ref": [rng.standard_normal((30, 2)) for _ in range(2)],
                  "other": [rng.standard_normal((30, 2)) + 1.0 for _ in range(2)]}
        # 1 + 4 cross solves and one self term per distinct sample
        starved = double_ot_protocol(groups, SinkhornConfig(max_iters=3))
        assert starved.solves == 9
        assert starved.unconverged == 9
        assert starved.to_dict()["solves"] == 9
        assert starved.to_dict()["unconverged"] == 9
        ample = double_ot_protocol(groups, SinkhornConfig(max_iters=5000, threshold=1e-4))
        assert (ample.solves, ample.unconverged) == (9, 0)

    def test_single_point_samples(self):
        # one point per pooled sample leaves no pairwise distance for the
        # epsilon, which falls back to 0.01 times 1.0
        report = double_ot_protocol({"ref": [np.zeros((1, 2)), np.ones((1, 2))]},
                                    SinkhornConfig())
        assert report.epsilon == 0.01
        assert_allclose(report.within_ref.values, [2.0], rtol=1e-12)
        assert median_sq_distance(np.zeros((1, 3))) == 1.0

    def test_requires_two_samples_per_label(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="at least 2"):
            double_ot_protocol({"ref": [rng.standard_normal((10, 2))]}, SinkhornConfig())


class TestMapHdi:
    def test_standard_normal_interval(self):
        x = np.linspace(-6, 6, 601)
        dens = np.exp(-x**2 / 2)
        map_val, (lo, hi) = map_and_hdi(dens, x)
        assert abs(map_val) <= 0.02
        # central 89% of N(0,1) is +-1.598; the discrete interval overshoots
        # the mass and the leftmost tie rule skews one endpoint by a node
        h = x[1] - x[0]
        assert abs(lo + 1.598) <= 3 * h
        assert abs(hi - 1.598) <= 3 * h

    def test_single_node_spike(self):
        x = np.linspace(0, 1, 11)
        dens = np.zeros(11)
        dens[4] = 5.0
        map_val, (lo, hi) = map_and_hdi(dens, x)
        assert map_val == pytest.approx(x[4])
        assert (lo, hi) == (pytest.approx(x[3]), pytest.approx(x[5]))

    def test_uniform_returns_leftmost(self):
        x = np.linspace(0, 1, 101)
        dens = np.ones(101)
        _, (lo, hi) = map_and_hdi(dens, x)
        assert lo == pytest.approx(0.0)
        assert hi <= 0.90 + 0.02

    def test_interval_contains_map_when_unimodal(self):
        x = np.linspace(-4, 4, 201)
        dens = np.exp(-((x - 0.7) ** 2))
        map_val, (lo, hi) = map_and_hdi(dens, x)
        assert lo <= map_val <= hi

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="zero mass"):
            map_and_hdi(np.zeros(5), np.linspace(0, 1, 5))


class TestMetropolisHastings:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(11)
        cfg = MHConfig(n_chains=64, n_steps=4000, proposal_std=2.4, burn_in=0.25)
        res = metropolis_hastings(lambda x: np.exp(-0.5 * x[:, 0] ** 2), 1, cfg, rng)
        flat = res.chains.reshape(-1)
        assert abs(flat.var() - 1.0) <= 0.05
        assert abs(flat.mean()) <= 0.05

    def test_call_accounting_exact(self):
        rng = np.random.default_rng(12)
        counter = {"n": 0}

        def density(x):
            counter["n"] += x.shape[0]
            return np.exp(-0.5 * np.sum(x**2, axis=1))

        cfg = MHConfig(n_chains=7, n_steps=50, proposal_std=1.0, burn_in=0.0)
        res = metropolis_hastings(density, 2, cfg, rng)
        assert res.n_calls == 7 * 50
        # initial-state evaluation is outside the budget convention
        assert counter["n"] == 7 * (50 + 1)

    def test_autotune_lands_in_band(self):
        rng = np.random.default_rng(13)
        cfg = MHConfig(n_chains=32, n_steps=800, proposal_std=40.0, burn_in=0.2,
                       auto_tune=True)
        res = metropolis_hastings(lambda x: np.exp(-0.5 * np.sum(x**2, axis=1)),
                                  3, cfg, rng)
        assert 0.13 <= res.acceptance_rate <= 0.38
        assert res.proposal_std < 40.0

    def test_detailed_balance_three_states(self):
        # random walk over a 3-level stepped density: stationary transition
        # counts between levels must be symmetric
        levels = np.array([1.0, 0.6, 0.3])

        def density(x):
            bins = np.clip(np.floor(x[:, 0]).astype(int), 0, 2)
            inside = (x[:, 0] >= 0) & (x[:, 0] < 3)
            return np.where(inside, levels[bins], 0.0)

        rng = np.random.default_rng(14)
        cfg = MHConfig(n_chains=100, n_steps=3000, proposal_std=0.8, burn_in=0.3,
                       init_std=0.25)
        res = metropolis_hastings(density, 1, cfg, rng)
        states = np.clip(np.floor(res.chains[:, :, 0]).astype(int), 0, 2)
        counts = np.zeros((3, 3))
        for i, j in zip(states[:, :-1].ravel(), states[:, 1:].ravel()):
            counts[i, j] += 1
        total = counts.sum()
        for i in range(3):
            for j in range(i + 1, 3):
                fwd, bwd = counts[i, j] / total, counts[j, i] / total
                tol = 4 * np.sqrt(max(fwd, bwd) / total) + 1e-4
                assert abs(fwd - bwd) <= tol, (i, j, fwd, bwd)

    @pytest.mark.parametrize("field, value", [
        ("n_chains", 0), ("n_chains", 2.5), ("n_steps", 0), ("n_steps", 100.5),
        ("thin", 0), ("thin", 1.5),
    ])
    def test_config_counts_are_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            MHConfig(**{field: value})

    @pytest.mark.parametrize("burn_in", [-0.1, 1.0, float("nan")])
    def test_config_burn_in_leaves_a_kept_state(self, burn_in):
        with pytest.raises(ValueError, match=r"burn_in must lie in \[0, 1\)"):
            MHConfig(burn_in=burn_in)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["proposal_std", "init_std"])
    def test_config_scales_are_positive_and_finite(self, name, value):
        # proposal_std=nan would reject every move without a word
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            MHConfig(**{name: value})

    def test_zero_density_everywhere_rejected(self):
        rng = np.random.default_rng(15)
        cfg = MHConfig(n_chains=4, n_steps=10, proposal_std=1.0)
        with pytest.raises(ValueError, match="zero at every"):
            metropolis_hastings(lambda x: np.zeros(x.shape[0]), 2, cfg, rng)


def _mixture(d, k=2):
    return GaussianMixture.random(d, k, var=0.5, half_width=1.5,
                                  rng=np.random.default_rng(d)).density


def _half_space(x):
    """Standard normal log-density on x_0 > 0, -inf elsewhere."""
    return np.where(x[:, 0] > 0, -0.5 * np.sum(x**2, axis=1), -np.inf)


def _read_only(x):
    out = -0.5 * np.sum(x**2, axis=1)
    out.flags.writeable = False
    return out


def _flat(x):
    return np.broadcast_to(0.0, x.shape[:1])


class TestMetropolisHastingsMatchesReference:
    """The in-place chain against the list-and-stack loop, bitwise."""

    @staticmethod
    def check(d, cfg, seed, log_density=None):
        density = _mixture(d)
        res = metropolis_hastings(density, d, cfg, np.random.default_rng(seed),
                                  log_density=log_density)
        ref = oc.reference_metropolis_hastings(density, d, cfg, np.random.default_rng(seed),
                                               log_density=log_density)
        assert res.chains.shape == ref["chains"].shape
        assert res.chains.tobytes() == ref["chains"].tobytes()
        for name in ("acceptance_rate", "n_calls", "proposal_std", "tau"):
            assert getattr(res, name) == ref[name], name
        return res

    @pytest.mark.parametrize("burn_in", [0.0, 0.3])
    @pytest.mark.parametrize("thin", [1, 3])
    def test_thinning_and_burn_in(self, thin, burn_in):
        cfg = MHConfig(n_chains=20, n_steps=101, proposal_std=0.7, burn_in=burn_in,
                       thin=thin)
        res = self.check(3, cfg, seed=20)
        assert res.chains.shape[1] == len(range(int(burn_in * 101), 101, thin))

    def test_auto_tune(self):
        cfg = MHConfig(n_chains=30, n_steps=300, proposal_std=8.0, burn_in=0.3,
                       thin=5, auto_tune=True)
        res = self.check(6, cfg, seed=21)
        assert res.proposal_std != 8.0

    def test_one_coordinate(self):
        cfg = MHConfig(n_chains=16, n_steps=200, proposal_std=1.5, thin=2)
        self.check(1, cfg, seed=22)

    def test_chains_that_start_outside_the_support(self):
        cfg = MHConfig(n_chains=16, n_steps=150, proposal_std=0.8, burn_in=0.0)
        rng = np.random.default_rng(23)
        assert np.isneginf(_half_space(rng.standard_normal((16, 2)))).any()
        res = self.check(2, cfg, seed=23, log_density=_half_space)
        assert np.all(res.chains[:, -1, 0] > 0)

    @pytest.mark.parametrize("log_density", [_read_only, _flat],
                             ids=["read-only", "broadcast"])
    def test_log_density_returns_a_read_only_array(self, log_density):
        cfg = MHConfig(n_chains=12, n_steps=80, proposal_std=1.0, burn_in=0.0)
        self.check(2, cfg, seed=24, log_density=log_density)

    def test_tau_is_computed_on_first_read(self, monkeypatch):
        calls = []

        def counted(traces):
            calls.append(traces.shape)
            return integrated_autocorr(traces)

        monkeypatch.setattr(diagnostics, "integrated_autocorr", counted)
        cfg = MHConfig(n_chains=16, n_steps=300, proposal_std=4.0, auto_tune=True)
        res = metropolis_hastings(_mixture(4), 4, cfg, np.random.default_rng(25))
        assert calls == []
        tau = res.tau
        assert res.tau == tau and len(calls) == 4


class TestAutocorr:
    def test_iid_chain_tau_near_one(self):
        rng = np.random.default_rng(16)
        traces = rng.standard_normal((8, 4000))
        assert integrated_autocorr(traces) <= 1.5

    def test_ar1_chain_matches_theory(self):
        rng = np.random.default_rng(17)
        phi = 0.9
        n = 60000
        chains = np.empty((4, n))
        for c in range(4):
            x = 0.0
            noise = rng.standard_normal(n)
            for i in range(n):
                x = phi * x + noise[i]
                chains[c, i] = x
        tau = integrated_autocorr(chains)
        expected = (1 + phi) / (1 - phi)      # = 19
        assert abs(tau - expected) <= 0.3 * expected
