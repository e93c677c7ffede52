"""Hot-path kernels: block evaluation through TT interfaces, the
array-keyed density cache, maxvol, the sampler's single-pass drift and
off-grid interpolation, each against a plain reference."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles as oc
from ttjko.cross import (VALIDATION_SIZE, CrossConfig, _block_indices, maxvol,
                         tt_cross, validation_indices)
from ttjko.fixed_point import StepState
from ttjko.grid import Grid, interpolate_batch
from ttjko.heat import HeatPropagator
from ttjko.sampler import SamplerConfig, StepDynamics
from ttjko.targets import CachedDensity, DensityEvalError
from ttjko.tt import (TTTensor, tt_block_eval, tt_chain_step, tt_eval, tt_random,
                      tt_right_interface)


def _left_interface(t, prefixes):
    """Products of the first k cores at (M, k) prefixes, one chain step per core."""
    v = np.ones((prefixes.shape[0], 1))
    for k in range(prefixes.shape[1]):
        v = tt_chain_step(v, t.cores[k], prefixes[:, k])
    return v


def _right_interface(t, suffixes):
    """tt_right_interface, with the empty suffix set as the rank-1 ones."""
    return tt_right_interface(t, suffixes) if suffixes.shape[1] else np.ones((1, 1))


def _random_sets(shape, n, rng, nl=3, nr=4):
    left = np.stack([rng.integers(0, m, nl) for m in shape[:n]], axis=1) \
        if n else np.zeros((1, 0), dtype=np.intp)
    right = np.stack([rng.integers(0, m, nr) for m in shape[n + 1:]], axis=1) \
        if n < len(shape) - 1 else np.zeros((1, 0), dtype=np.intp)
    return left.astype(np.intp), right.astype(np.intp)


class TestBlockEval:
    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_matches_pointwise_eval_on_every_block(self, d, rank):
        rng = np.random.default_rng(10 * d + rank)
        shape = (5, 7, 4, 6, 5, 3)[:d]
        t = tt_random(shape, rank, rng)
        for n in range(d):           # includes the edge blocks n = 0 and n = d-1
            left, right = _random_sets(shape, n, rng)
            got = tt_block_eval(t, n, _left_interface(t, left),
                                _right_interface(t, right))
            ref = tt_eval(t, _block_indices(left, shape[n], right))
            assert got.shape == ref.shape
            assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_right_interface_extends_by_one_chain_step(self):
        rng = np.random.default_rng(3)
        shape = (4, 5, 6, 3)
        t = tt_random(shape, 3, rng)
        suffixes = np.stack([rng.integers(0, m, 5) for m in shape[2:]], axis=1)
        mode = rng.integers(0, shape[1], 5)
        grown = tt_chain_step(tt_right_interface(t, suffixes),
                              t.cores[1].transpose(2, 1, 0), mode)
        ref = tt_right_interface(t, np.concatenate([mode[:, None], suffixes], axis=1))
        assert_allclose(grown, ref, rtol=1e-14)
        full = np.concatenate([rng.integers(0, 4, 5)[:, None], mode[:, None], suffixes], axis=1)
        assert_allclose(tt_chain_step(grown, t.cores[0].transpose(2, 1, 0), full[:, 0])[:, 0],
                        tt_eval(t, full), rtol=1e-13)


class TestCrossFactors:
    def test_factor_oracle_matches_pointwise_oracle(self):
        rng = np.random.default_rng(4)
        shape = (6, 5, 7, 4)
        a = tt_random(shape, 2, rng)
        b = tt_random(shape, 2, rng)
        cfg = CrossConfig(max_rank=6, tolerance=1e-10)

        def pointwise(idx):
            return tt_eval(a, idx) * tt_eval(b, idx)

        def composed(idx, a_vals, b_vals):
            assert a_vals.shape == b_vals.shape == (idx.shape[0],)
            return a_vals * b_vals

        t1, info1 = tt_cross(pointwise, shape, cfg, rng=np.random.default_rng(5))
        t2, info2 = tt_cross(composed, shape, cfg, rng=np.random.default_rng(5),
                             factors=(a, b))
        probe = validation_indices(shape, cfg, np.random.default_rng(6))
        ref = pointwise(probe)
        assert info2.converged
        assert info2.n_calls == info1.n_calls
        assert_allclose(tt_eval(t2, probe), ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())

    def test_single_axis_with_factor(self):
        a = tt_random((6,), 1, np.random.default_rng(7))
        t, info = tt_cross(lambda idx, v: 2.0 * v, (6,), CrossConfig(),
                           factors=(a,))
        assert_allclose(tt_eval(t, np.arange(6)[:, None]),
                        2.0 * tt_eval(a, np.arange(6)[:, None]), rtol=1e-14)

    def test_factor_shape_checked(self):
        a = tt_random((5, 5), 1, np.random.default_rng(8))
        with pytest.raises(ValueError, match="factor shape"):
            tt_cross(lambda idx, v: v, (5, 6), CrossConfig(), factors=(a,))

    def test_validation_indices_draws_like_inline_sampling(self):
        shape = (9, 7, 8)
        cfg = CrossConfig(max_rank=3)
        got = validation_indices(shape, cfg, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        n_val = min(VALIDATION_SIZE, 4 * 3 * 9 * 3**2, 9 * 7 * 8)
        ref = np.stack([rng.integers(0, m, size=n_val) for m in shape], axis=1)
        assert_array_equal(got, ref)


def _density(x):
    return 1.0 + np.sum(x * np.arange(1, x.shape[1] + 1), axis=1)


class TestArrayKeyedCache:
    def make(self, grid, capacity=None):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return _density(x)

        return CachedDensity(fn, grid, capacity=capacity), seen

    def test_duplicates_inside_a_batch(self):
        grid = Grid.regular(0.0, 4.0, 5, d=3)
        cd, seen = self.make(grid)
        idx = np.array([[1, 2, 3], [0, 0, 0], [1, 2, 3], [4, 4, 4], [0, 0, 0], [1, 2, 3]])
        vals = cd.eval_batch(idx)
        assert cd.unique_calls == 3
        assert cd.total_calls == 6
        assert_array_equal(seen[0], grid.points(idx[[0, 1, 3]]))   # first occurrences
        assert_array_equal(vals, _density(grid.points(idx)))
        cd.eval_batch(idx[::-1])
        assert cd.unique_calls == 3
        assert cd.total_calls == 12
        assert len(seen) == 1

    def test_capacity_keeps_first_distinct_in_occurrence_order(self):
        grid = Grid.regular(0.0, 4.0, 5, d=2)
        cd, _ = self.make(grid, capacity=2)
        cd.eval_batch(np.array([[3, 3], [1, 0], [3, 3], [2, 4], [0, 1]]))
        assert cd.unique_calls == 4
        assert cd.cache_size == 2
        cd.eval_batch(np.array([[1, 0], [3, 3]]))      # stored: free
        assert cd.unique_calls == 4
        cd.eval_batch(np.array([[2, 4], [0, 1]]))      # past capacity: paid again
        assert cd.unique_calls == 6
        assert cd.total_calls == 9

    def test_disabled_cache_counts_every_row(self):
        grid = Grid.regular(0.0, 4.0, 5, d=2)
        cd, _ = self.make(grid)
        cd.enabled = False
        idx = np.array([[1, 1], [1, 1], [2, 3]])
        vals = cd.eval_batch(idx)
        cd.eval_batch(idx)
        assert cd.unique_calls == 6
        assert cd.total_calls == 6
        assert cd.cache_size == 0
        assert_array_equal(vals, _density(grid.points(idx)))

    def test_wrapped_key_collision_is_a_miss(self):
        # axis k has weight 2^k, so axis 64 has weight 2^64 = 0 (mod 2^64)
        grid = Grid.regular(0.0, 1.0, 2, d=65)
        cd, _ = self.make(grid)
        idx = np.zeros((2, 65), dtype=np.intp)
        idx[1, 64] = 1
        first = cd.eval_batch(idx)
        assert first[0] != first[1]
        assert cd.unique_calls == 2
        again = cd.eval_batch(idx[::-1])
        assert_array_equal(again, first[::-1])
        assert cd.cache_size == 1
        assert cd.unique_calls == 3       # the colliding index is never stored

    def test_bounds_and_bad_values_rejected(self):
        grid = Grid.regular(0.0, 1.0, 4, d=2)
        cd, _ = self.make(grid)
        with pytest.raises(ValueError, match="outside"):
            cd.eval_batch(np.array([[0, -1]]))
        with pytest.raises(ValueError, match="outside"):
            cd.eval_batch(np.array([[4, 0]]))
        bad = CachedDensity(lambda x: np.full(x.shape[0], np.nan), grid)
        with pytest.raises(DensityEvalError):
            bad.eval_batch(np.array([[1, 2]]))


class TestMaxvol:
    def test_pivots_match_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            r = int(rng.integers(1, 9))
            n = int(rng.integers(r + 1, 12 * r + 2))
            a = rng.standard_normal((n, r))
            if trial % 2:                   # orthonormal columns, as the cross feeds
                a = np.linalg.svd(a, full_matrices=False)[0]
            assert_array_equal(maxvol(a), oc.reference_maxvol(a))


def _positive_tt(shape, rank, rng):
    return TTTensor([np.abs(c) + 0.05 for c in tt_random(shape, rank, rng).cores])


def _drift_case(d, eta_rank, hat_rank, seed):
    """StepDynamics on a random positive TT pair, with the per-node reference
    stacks of both potentials."""
    rng = np.random.default_rng(seed)
    grid = Grid.regular(-2.0, [3.0, 2.5, 4.0, 3.0, 2.0, 3.5][:d],
                        [5, 7, 6, 4, 8, 5][:d])
    state = StepState(eta_T=_positive_tt(grid.shape, eta_rank, rng), eta_0=None,
                      eta_hat_0=_positive_tt(grid.shape, hat_rank, rng), eta_hat_T=None,
                      T=1.5, beta=0.3, converged=True, iters=1)
    dyn = StepDynamics(state, grid, SamplerConfig(n_time_nodes=8))
    eta = oc.reference_stacks([HeatPropagator(grid, state.beta * (state.T - t))
                               .apply(state.eta_T) for t in dyn.tau], grid)
    hat = oc.reference_stacks([HeatPropagator(grid, state.beta * t)
                               .apply(state.eta_hat_0) for t in dyn.tau], grid)
    return dyn, eta, hat, rng


def _drift_points(dyn, m, rng):
    """m >= 5 points and times that hit every edge case the kernel guards:
    points clamped from outside the box, points on the upper and lower
    faces, and t = 0, T, an interior node and values outside [0, T]."""
    g = dyn.grid
    width = g.upper - g.lower
    x = rng.uniform(g.lower - 0.2 * width, g.upper + 0.2 * width, (m, g.d))
    x[1::5] = np.where(rng.random((len(x[1::5]), g.d)) < 0.5, g.upper, x[1::5])
    x[2::5, -1] = g.lower[-1]
    t = rng.uniform(0.0, dyn.T, m)
    t[:5] = [0.0, dyn.T, dyn.tau[3], -0.4, dyn.T + 0.7]
    return t, x


def _reference_drifts(dyn, eta, hat, t, x):
    ref_eta = oc.reference_log_grad(eta, dyn.tau, dyn.T, dyn.grid, t, x)
    ref_hat = oc.reference_log_grad(hat, dyn.tau, dyn.T, dyn.grid, t, x)
    return {"ode_drift": dyn.beta * (ref_eta - ref_hat),
            "sde_drift": 2.0 * dyn.beta * ref_eta,
            "grad_log_eta": ref_eta, "grad_log_eta_hat": ref_hat}


class TestDriftKernel:
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("ranks", [(3, 2), (1, 1), (2, 3)])
    @pytest.mark.parametrize("m", [1, 257])
    def test_bitwise_equal_to_per_node_reference(self, d, ranks, m):
        dyn, eta, hat, rng = _drift_case(d, *ranks, seed=100 * d + 10 * ranks[0] + m)
        t, x = _drift_points(dyn, max(m, 5), rng)
        batches = [(t[i:i + 1], x[i:i + 1]) for i in range(5)] if m == 1 else [(t, x)]
        for t, x in batches:
            for name, ref in _reference_drifts(dyn, eta, hat, t, x).items():
                got = getattr(dyn, name)(t, x)
                assert got.shape == (m, d) and got.flags.c_contiguous
                assert_array_equal(got, ref, err_msg=name)

    def test_rows_independent_of_batch(self):
        dyn, _, _, rng = _drift_case(6, 3, 2, seed=7)
        t, x = _drift_points(dyn, 257, rng)
        full = dyn.ode_drift(t, x)
        rows = np.concatenate([dyn.ode_drift(t[i:i + 1], x[i:i + 1]) for i in range(257)])
        assert_array_equal(full, rows)

    def test_rank_nine_within_summation_order(self):
        # numpy sums rank axes of 8 or more pairwise in the reference, in
        # order here: equal up to the reordering of the sums
        dyn, eta, hat, rng = _drift_case(3, 9, 4, seed=9)
        t, x = _drift_points(dyn, 257, rng)
        for name, ref in _reference_drifts(dyn, eta, hat, t, x).items():
            assert_allclose(getattr(dyn, name)(t, x), ref, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(ref)), err_msg=name)


class TestInterpolateKernel:
    @pytest.mark.parametrize("d", [1, 2, 6, 16])
    @pytest.mark.parametrize("rank", [1, 3, 9])
    def test_matches_row_wise_reference(self, d, rank):
        rng = np.random.default_rng(10 * d + rank)
        grid = Grid.regular(rng.uniform(-3.0, -1.0, d), rng.uniform(1.0, 3.0, d),
                            rng.integers(2, 8, d))
        t = _positive_tt(grid.shape, rank, rng)
        width = grid.upper - grid.lower
        x = rng.uniform(grid.lower - 0.2 * width, grid.upper + 0.2 * width, (60, d))
        x[:10] = rng.uniform(grid.lower, grid.upper, (10, d))      # inside
        x[10:15] = grid.upper                                      # upper face
        x[15:20] = grid.lower                                      # lower face
        x[20:25, 0] = grid.upper[0]
        x[25:30, -1] = grid.lower[-1]
        got, clamped = interpolate_batch(t, grid, x)
        ref, ref_clamped = oc.reference_interpolate_batch(t, grid, x)
        assert got.shape == ref.shape == (60,)
        assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert_array_equal(clamped, ref_clamped)
        assert not clamped[:20].any() and clamped[30:].any()
