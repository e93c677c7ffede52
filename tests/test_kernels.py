"""Hot-path kernels: block evaluation through TT interfaces, the
array-keyed density cache, maxvol, the sampler's single-pass drift and
off-grid interpolation, each against a plain reference."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles as oc
from oracles import tt_random
from ttjko import cross as cross_module
from ttjko.cross import (VALIDATION_SIZE, CrossConfig, _block_indices, _right_sets_from_guess,
                         maxvol, tt_cross, validation_indices)
from ttjko.fixed_point import StepState
from ttjko.grid import Grid, interpolate_batch
from ttjko.heat import HeatPropagator
from ttjko.sampler import SamplerConfig, StepDynamics
from ttjko.targets import CachedDensity, DensityEvalError
from ttjko.tt import (TTTensor, _partial_products, rank_step, tt_block_eval, tt_chain_step,
                      tt_eval, tt_right_interface)


def _left_interface(t, prefixes):
    """Products of the first k cores at (M, k) prefixes, ranks first, one
    chain step per core."""
    v = np.ones((1, prefixes.shape[0]))
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
        assert_array_equal(grown, ref)
        full = np.concatenate([rng.integers(0, 4, 5)[:, None], mode[:, None], suffixes], axis=1)
        assert_allclose(tt_chain_step(grown, t.cores[0].transpose(2, 1, 0), full[:, 0])[0],
                        tt_eval(t, full), rtol=1e-13)


def _mixed_rank_tt(shape, ranks, rng):
    """Random TT with the given inner ranks."""
    ranks = (1,) + tuple(ranks) + (1,)
    return TTTensor([rng.standard_normal((ranks[n], m, ranks[n + 1]))
                     for n, m in enumerate(shape)], copy=False)


def _grid_indices(shape, m, rng):
    return np.stack([rng.integers(0, n, m) for n in shape], axis=1).astype(np.intp)


class TestChainKernel:
    """The ranks-first chain at grid indices against the rows-first
    batched-matmul chain it replaced."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_the_batched_matmul_chain(self, rank):
        rng = np.random.default_rng(40 + rank)
        shape = (7, 5, 9, 6, 8)
        t = oc.tt_random(shape, rank, rng)
        idx = _grid_indices(shape, 300, rng)
        for k in range(1, len(shape) + 1):
            ref = oc.reference_partial_products(t.cores[:k], idx[:, :k])
            got = _partial_products(t.cores[:k], idx[:, :k])
            assert got.shape == ref.T.shape
            assert_allclose(got, ref.T, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
        mirrored = [c.transpose(2, 1, 0) for c in t.cores[::-1]]
        ref = oc.reference_partial_products(mirrored[:3], idx[:, :1:-1])
        assert_allclose(tt_right_interface(t, idx[:, 2:]), ref.T,
                        rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_mixed_ranks_match_the_batched_matmul_chain(self):
        rng = np.random.default_rng(45)
        shape = (6, 7, 5, 8, 4)
        t = _mixed_rank_tt(shape, (4, 1, 3, 2), rng)
        idx = _grid_indices(shape, 200, rng)
        ref = oc.reference_partial_products(t.cores, idx)[:, 0]
        assert_allclose(tt_eval(t, idx), ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_unit_ranks_are_bitwise_the_batched_matmul_chain(self):
        rng = np.random.default_rng(46)
        shape = (30,) * 16
        t = oc.tt_random(shape, 1, rng)
        idx = _grid_indices(shape, 500, rng)
        assert_array_equal(tt_eval(t, idx), oc.reference_partial_products(t.cores, idx)[:, 0])
        mirrored = [c.transpose(2, 1, 0) for c in t.cores[::-1]]
        assert_array_equal(tt_right_interface(t, idx[:, 4:]),
                           oc.reference_partial_products(mirrored[:12], idx[:, :3:-1]).T)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_row_permutation_permutes_the_results_bitwise(self, rank):
        rng = np.random.default_rng(47 + rank)
        shape = (7, 5, 9, 6)
        t = oc.tt_random(shape, rank, rng)
        idx = _grid_indices(shape, 257, rng)
        perm = rng.permutation(len(idx))
        assert_array_equal(tt_eval(t, idx[perm]), tt_eval(t, idx)[perm])
        assert_array_equal(tt_right_interface(t, idx[perm, 1:]),
                           tt_right_interface(t, idx[:, 1:])[:, perm])
        v = rng.standard_normal((rank, len(idx)))
        assert_array_equal(tt_chain_step(v[:, perm], t.cores[1], idx[perm, 1]),
                           tt_chain_step(v, t.cores[1], idx[:, 1])[:, perm])

    @pytest.mark.parametrize("r1", [1, 2, 5, 12])
    @pytest.mark.parametrize("m", [1, 64])
    def test_step_adds_the_rank_products_in_order(self, r1, m):
        rng = np.random.default_rng(50 + r1)
        v = rng.standard_normal((r1, m)) * 10.0 ** rng.integers(-8, 8, (r1, m))
        slab = rng.standard_normal((r1, 3, m))
        for s in (slab, slab[:, :1], slab[:, 0]):   # -> (r2, M), (1, M), (M,)
            ref = v[0] * s[0]
            for a in range(1, r1):
                ref = ref + v[a] * s[a]
            assert_array_equal(rank_step(v, s), ref)

    def test_one_entry_batch_adds_in_rank_order_too(self):
        # numpy's sum over the rank axis adds pairwise when the batch is one
        # entry and the rank 8 or more: 1 + 11 * 1.1e-16 would not round to 1
        v = np.array([1.0] + [1.1e-16] * 11)[:, None]
        assert rank_step(v, np.ones((12, 1, 1)))[0, 0] == 1.0
        assert rank_step(v, np.ones((12, 1, 5)))[0, 0] == 1.0

    def test_guessed_cross_starts_from_nested_interfaces(self, monkeypatch):
        """A cross with a guess builds its first right interfaces one chain
        step per bond and factor, bitwise the interfaces of its nested sets."""
        rng = np.random.default_rng(55)
        shape = (6, 5, 7, 4, 5)
        d = len(shape)
        factors = (oc.tt_random(shape, 2, rng), oc.tt_random(shape, 3, rng))
        guess = oc.tt_random(shape, 3, rng)
        cfg = CrossConfig(max_rank=4)
        steps = []

        def spy(v, core, col):
            steps.append(tt_chain_step(v, core, col))
            return steps[-1]

        def no_interface(*args):
            raise AssertionError("interfaces rebuilt from scratch")

        class Started(Exception):
            pass

        calls = []

        def oracle(idx, a_vals, b_vals):
            calls.append(len(idx))
            if len(calls) == 2:           # the first block, after the validation set
                raise Started
            return a_vals * b_vals

        monkeypatch.setattr(cross_module, "tt_chain_step", spy)
        monkeypatch.setattr(cross_module, "tt_right_interface", no_interface)
        with pytest.raises(Started):
            tt_cross(oracle, shape, cfg, initial_guess=guess, factors=factors,
                     rng=np.random.default_rng(56))
        assert len(steps) == (d - 1) * len(factors)
        right, _ = _right_sets_from_guess(guess, cfg.max_rank)
        for j, n in enumerate(range(d - 1, 0, -1)):
            for k, t in enumerate(factors):
                assert_array_equal(steps[j * len(factors) + k], tt_right_interface(t, right[n]))

    @pytest.mark.parametrize("max_rank", [1, 4])
    def test_cold_cross_grows_its_first_right_sets(self, monkeypatch, max_rank):
        """A cross with no guess draws its first right sets by the growth a
        stalled sweep runs: min(2, cap) distinct random suffixes on every
        bond, in ascending order, with one interface per bond and factor."""
        rng = np.random.default_rng(57)
        shape = (6, 5, 7, 4, 5)
        d = len(shape)
        factors = (oc.tt_random(shape, 2, rng), oc.tt_random(shape, 3, rng))
        built = []

        def spy(t, rows):
            built.append((t, rows))
            return tt_right_interface(t, rows)

        class Started(Exception):
            pass

        blocks = []

        def oracle(idx, a_vals, b_vals):
            blocks.append(idx)
            if len(blocks) == 2:          # the first block, after the validation set
                raise Started
            return a_vals * b_vals

        monkeypatch.setattr(cross_module, "tt_right_interface", spy)
        with pytest.raises(Started):
            tt_cross(oracle, shape, CrossConfig(max_rank=max_rank), factors=factors,
                     rng=np.random.default_rng(58))
        size = min(2, max_rank)
        assert len(built) == (d - 1) * len(factors)
        for j, n in enumerate(range(1, d)):
            for k, t in enumerate(factors):
                got, rows = built[j * len(factors) + k]
                assert got is t
                assert rows.shape == (size, d - n)
                assert len({tuple(r) for r in rows}) == size
                assert np.all((rows >= 0) & (rows < shape[n:]))
        assert_array_equal(np.unique(blocks[1][:, 1:], axis=0), np.unique(built[0][1], axis=0))


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
    def make(self, grid, capacity=None, density=_density):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return density(x)

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
        cd.eval_batch(np.array([[1, 0], [3, 3]]))      # stored: free
        assert cd.unique_calls == 4
        cd.eval_batch(np.array([[2, 4], [0, 1]]))      # past capacity: paid again
        assert cd.unique_calls == 6
        cd.eval_batch(np.array([[0, 1], [1, 0]]))      # and again on every query
        assert cd.unique_calls == 7
        assert cd.total_calls == 11

    @pytest.mark.parametrize("capacity", [2.5, -5, "10"])
    def test_capacity_that_is_not_none_or_a_count_is_rejected(self, capacity):
        # -5 would turn the cache off, 2.5 fail at the first fill
        with pytest.raises(ValueError, match="capacity must be None or an integer >= 0"):
            CachedDensity(_density, Grid.regular(0.0, 4.0, 5, d=2), capacity=capacity)

    def test_zero_capacity_pays_for_every_batch(self):
        grid = Grid.regular(0.0, 4.0, 5, d=2)
        cd, seen = self.make(grid, capacity=0)
        idx = np.array([[1, 1], [1, 1], [2, 3]])
        vals = cd.eval_batch(idx)
        cd.eval_batch(idx)
        assert cd.unique_calls == 4       # each batch evaluates its distinct rows
        assert cd.total_calls == 6
        assert len(seen) == 2
        assert_array_equal(seen[1], grid.points(idx[[0, 2]]))
        assert_array_equal(vals, _density(grid.points(idx)))
        cd.eval_batch(idx[:1])
        assert cd.unique_calls == 5

    def test_rows_equal_mod_2_64_are_distinct_keys(self):
        # the mixed-radix numbers of these rows agree mod 2^64: axis k has
        # weight 2^k, so axis 64 has weight 2^64
        grid = Grid.regular(0.0, 1.0, 2, d=65)
        cd, _ = self.make(grid)
        idx = np.zeros((2, 65), dtype=np.intp)
        idx[1, 64] = 1
        first = cd.eval_batch(idx)
        assert first[0] != first[1]
        again = cd.eval_batch(idx[::-1])
        assert_array_equal(again, first[::-1])
        assert cd.unique_calls == 2         # both rows stored, the second query free

    def test_exact_on_a_grid_past_2_64_points(self):
        # the gaussian_verification grid: 16 axes of 30 nodes, 30^16 > 2^64 points
        grid = Grid.regular(-3.0, 3.0, 30, d=16)
        weights = np.arange(1.0, 17.0)

        def fn(x):
            return 1.0 + np.sum(x**2 * weights, axis=1)

        rng = np.random.default_rng(16)
        rows = rng.integers(0, 30, size=(50, 16))
        idx = rows[rng.integers(0, 50, size=150)]            # with duplicates
        direct = fn(grid.points(idx))
        _, first = np.unique(idx, axis=0, return_index=True)
        first = np.sort(first)                               # first occurrences
        n = first.size
        for capacity in (None, 20):
            cd, seen = self.make(grid, capacity, density=fn)
            assert cd.eval_batch(idx).tobytes() == direct.tobytes()
            assert cd.eval_batch(idx[::-1]).tobytes() == direct[::-1].tobytes()
            assert_array_equal(seen[0], grid.points(idx[first]))
            stored = n if capacity is None else capacity
            assert cd.unique_calls == 2 * n - stored
            cd.eval_batch(idx[first[:stored]])             # the stored rows: free
            assert cd.unique_calls == 2 * n - stored
            assert cd.total_calls == 300 + stored
            if capacity is not None:
                # the rows past capacity are paid again, in the new batch's order
                kept = {tuple(r) for r in idx[first[:capacity]]}
                again = dict.fromkeys(tuple(r) for r in idx[::-1] if tuple(r) not in kept)
                assert_array_equal(seen[1], grid.points(np.array(list(again))))

    def test_no_attribute_beyond_the_declared_ones(self):
        # the cache has one switch, capacity; a stray flag must not pass silently
        cd, _ = self.make(Grid.regular(0.0, 1.0, 3, d=2))
        with pytest.raises(AttributeError):
            cd.enabled = False

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


def _eval_funcs(shape):
    """tt_eval and CachedDensity.eval_batch on one index shape."""
    t = tt_random(shape, 2, np.random.default_rng(12))
    cd = CachedDensity(_density, Grid.regular(0.0, 1.0, shape))
    return [lambda idx: tt_eval(t, idx), cd.eval_batch]


class TestIndexCheck:
    """tt_eval and the density cache share one index check."""

    @pytest.mark.parametrize("idx, match", [
        (np.array([[1, 2], [-1, 0]]), r"row 1, \(-1, 0\)"),
        (np.array([[3, 4], [0, 4], [4, 0]]), r"row 2, \(4, 0\)"),
        (np.array([[0, 5]]), r"row 0, \(0, 5\)"),
        (np.array([[1.7, 0.0]]), "integer dtype"),
        (np.array([[True, False]]), "integer dtype"),
    ], ids=["negative", "N-of-the-smallest-axis", "N", "float", "bool"])
    def test_index_outside_the_shape_or_not_an_integer_is_rejected(self, idx, match):
        for f in _eval_funcs((4, 5)):
            with pytest.raises(ValueError, match=match):
                f(idx)

    def test_largest_entry_past_the_smallest_axis_is_checked_per_axis(self):
        idx = np.array([[3, 4], [0, 4]], dtype=np.uint8)
        for f in _eval_funcs((4, 5)):
            assert f(idx).shape == (2,)


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

    def test_ties_break_in_the_current_row_order(self):
        # the first pivot, row 2, swaps row 0 behind row 1; rows 0 and 1 then
        # tie, and LAPACK takes row 1, the first in the current row order
        a = np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
        assert_array_equal(oc.reference_maxvol(a), [2, 1])
        assert_array_equal(maxvol(a), [2, 1])


def _positive_tt(shape, rank, rng):
    """A random TT with entries above 0.05; ``rank`` is its one inner rank
    or a tuple of its inner ranks, of which the first ``d - 1`` are used."""
    if isinstance(rank, tuple):
        ranks = (1, *rank[:len(shape) - 1], 1)
        cores = [rng.standard_normal((ranks[n], size, ranks[n + 1]))
                 for n, size in enumerate(shape)]
    else:
        cores = tt_random(shape, rank, rng).cores
    return TTTensor([np.abs(c) + 0.05 for c in cores])


# upper box corners (the lower are -2) and node counts of the drift cases
_DRIFT_GRIDS = {
    "mixed": ([3.0, 2.5, 4.0, 3.0, 2.0, 3.5], [5, 7, 6, 4, 8, 5]),   # runs of one axis
    "like": (3.0, 6),                                   # one spacing for every run
    "spacings": ([3.0, 2.5, 4.0, 3.0, 2.0, 3.5], 6),    # a stack of factors per run
}


def _drift_case(d, eta_rank, hat_rank, seed, grid="mixed"):
    """StepDynamics on a random positive TT pair."""
    rng = np.random.default_rng(seed)
    upper, nodes = (np.broadcast_to(v, (6,))[:d] for v in _DRIFT_GRIDS[grid])
    grid = Grid.regular(-2.0, upper, nodes)
    state = StepState(eta_T=_positive_tt(grid.shape, eta_rank, rng),
                      eta_hat_0=_positive_tt(grid.shape, hat_rank, rng), eta_hat_T=None,
                      T=1.5, beta=0.3, converged=True, iters=1)
    return StepDynamics(state, grid, SamplerConfig(n_time_nodes=8)), rng


def _drift_points(dyn, m, rng):
    """m >= 5 points and 6 times that hit every edge case the kernel guards:
    points clamped from outside the box, points on the upper and lower
    faces, and t = 0, T, an interior node and values outside [0, T], all
    times the sampler evaluates, and last a random time, which it does not."""
    g = dyn.grid
    width = g.upper - g.lower
    x = rng.uniform(g.lower - 0.2 * width, g.upper + 0.2 * width, (m, g.d))
    x[1::5] = np.where(rng.random((len(x[1::5]), g.d)) < 0.5, g.upper, x[1::5])
    x[2::5, -1] = g.lower[-1]
    t = [0.0, dyn.T, dyn.tau[3], -0.4, dyn.T + 0.7, rng.uniform(0.0, dyn.T)]
    return t, x


def _reference_drifts(dyn, t, x):
    """Both drifts at the one time ``t`` of the batch ``x``."""
    t = min(max(t, 0.0), dyn.T)
    state = dyn.state
    ref_eta = oc.reference_log_grad(state.eta_T, dyn.beta * (dyn.T - t), dyn.grid, x)
    ref_hat = oc.reference_log_grad(state.eta_hat_0, dyn.beta * t, dyn.grid, x)
    return {"ode_drift": dyn.beta * (ref_eta - ref_hat),
            "sde_drift": 2.0 * dyn.beta * ref_eta}


class TestDriftKernel:
    @pytest.mark.parametrize("d, grid", [(1, "mixed"), (2, "mixed"), (6, "mixed"),
                                         (6, "like"), (6, "spacings")],
                             ids=["1", "2", "6", "6-like", "6-spacings"])
    @pytest.mark.parametrize("ranks", [(3, 2), (1, 1), (2, 3), (2, (1, 1, 2, 2, 2))])
    @pytest.mark.parametrize("m", [1, 257])
    def test_equal_to_the_exact_time_reference(self, d, grid, ranks, m):
        # at a time the sampler evaluates, the heat factors are products
        # of heat_factor's and agree to rounding; at any other time they
        # are heat_factor's own, and the drift is the reference's bit for
        # bit where the tensor train is one block.  Unit ranks on more
        # than one axis make one-axis blocks, each axis's derivative over
        # its own value, which agree with the reference's whole product
        # to rounding.  The 6-axis grids of 6 nodes make runs of like
        # axes longer than one: a unit-rank run of six gathered at once,
        # inner runs of four at ranks 3 and 2, and a run that eta_hat's
        # rank change at the second bond splits
        dyn, rng = _drift_case(d, *ranks, seed=100 * d + 10 * ranks[0] + m, grid=grid)
        runs = {("like", (1, 1)): [(0, 6)], ("spacings", (3, 2)): [(0, 1), (1, 5), (5, 6)],
                ("like", (2, (1, 1, 2, 2, 2))): [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6)]}
        assert dyn._runs == runs.get((grid, ranks), dyn._runs)
        times, x = _drift_points(dyn, max(m, 5), rng)
        rows = [x[i:i + 1] for i in range(5)] if m == 1 else [x]
        for t, x in ((t, x) for t in times for x in rows):
            for name, ref in _reference_drifts(dyn, t, x).items():
                got = getattr(dyn, name)(t, x)
                assert got.shape == (m, d) and got.flags.c_contiguous
                if t == times[-1] and (ranks != (1, 1) or d == 1):
                    assert_array_equal(got, ref, err_msg=name)
                else:
                    assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)),
                                    err_msg=name)

    def test_rank_one_log_gradient_where_the_product_underflows(self):
        # 64 axes of cores near 1e-5: the product of the axes' values is
        # near 1e-320, below the divisor floor, but each axis's
        # log-gradient is its own factor's and stays exact
        rng = np.random.default_rng(64)
        grid = Grid.regular(-2.0, 3.0, 6, d=64)

        def small():
            return TTTensor([1e-5 * (1.0 + rng.random((1, 6, 1))) for _ in range(64)])

        state = StepState(eta_T=small(), eta_hat_0=small(), eta_hat_T=None, T=1.5,
                          beta=0.3, converged=True, iters=1)
        dyn = StepDynamics(state, grid, SamplerConfig(n_time_nodes=8))
        times, x = _drift_points(dyn, 257, rng)
        for t in times:
            s = min(max(t, 0.0), dyn.T)
            ref = np.stack([oc.reference_axis_log_grad(state.eta_T, dyn.beta * (dyn.T - s), grid, x),
                            oc.reference_axis_log_grad(state.eta_hat_0, dyn.beta * s, grid, x)])
            got = dyn._log_grad(2, t, x)                  # (d, 2, m)
            assert_allclose(got, ref.transpose(2, 0, 1), rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(ref)))
            assert_allclose(dyn._log_grad(1, t, x)[:, 0], ref[0].T, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(ref[0])))

    @pytest.mark.parametrize("grid", ["mixed", "like"])
    def test_blocks_between_unit_bonds_inside_higher_ranks(self, grid):
        # both potentials have rank 1 at the bond between axes 1 and 2 and
        # ranks 2 and 3 at every other inner bond, so each is the product
        # of two blocks, axes 0-1 and 2-5; on the like grid axes 3 and 4
        # are one run.  One core of each block is negated: every block's
        # value is negative everywhere, and each potential positive
        dyn, rng = _drift_case(6, (2, 1, 3, 3, 3), (3, 1, 2, 2, 2), seed=61, grid=grid)
        assert dyn._runs == {"mixed": [(n, n + 1) for n in range(6)],
                             "like": [(0, 1), (1, 2), (2, 3), (3, 5), (5, 6)]}[grid]
        negated = [TTTensor([-c if n in (1, 4) else c for n, c in enumerate(t.cores)])
                   for t in (dyn.state.eta_T, dyn.state.eta_hat_0)]
        state = replace(dyn.state, eta_T=negated[0], eta_hat_0=negated[1])
        dyn = StepDynamics(state, dyn.grid, SamplerConfig(n_time_nodes=8))
        times, x = _drift_points(dyn, 257, rng)
        for t in times:
            for name, ref in _reference_drifts(dyn, t, x).items():
                assert_allclose(getattr(dyn, name)(t, x), ref, rtol=1e-12,
                                atol=1e-12 * np.max(np.abs(ref)), err_msg=name)

    def test_one_block_whose_value_rounds_negative(self):
        # eta = P - Q at ranks 2 is one block over all three axes; Q is
        # 1.01 P on each axis's first two nodes and 0 elsewhere, so the
        # value dips slightly below zero in the first cell, as a TT fit of
        # a positive potential can.  The drift divides by the signed
        # value: where it is negative it is the log-gradient of |eta|,
        # that of the negated train, and not a floor-sized step along
        # the gradient
        rng = np.random.default_rng(3)
        grid = Grid.regular(-2.0, 3.0, 6, d=3)
        p = [1.0 + 0.1 * rng.random(6) for _ in range(3)]
        q = [np.where(np.arange(6) < 2, 1.01, 0.0) * pn for pn in p]
        eta = TTTensor([np.stack([p[0], q[0]], axis=-1)[None],
                        np.stack([np.diag([a, -b]) for a, b in zip(p[1], q[1])], axis=1),
                        np.stack([p[2], q[2]])[..., None]])
        negated = TTTensor([-eta.cores[0], *eta.cores[1:]])
        state = StepState(eta_T=eta, eta_hat_0=eta, eta_hat_T=None, T=1.5, beta=0.3,
                          converged=True, iters=1)
        dyn = StepDynamics(state, grid, SamplerConfig(n_time_nodes=8))
        times, x = _drift_points(dyn, 60, rng)
        x = np.concatenate([rng.uniform(-2.0, -1.0, (200, 3)), x])
        negative = 0
        for t in times:
            got = dyn._log_grad(2, t, x)                      # (d, 2, m)
            s = min(max(t, 0.0), dyn.T)
            for q, diffusion in enumerate((dyn.beta * (dyn.T - s), dyn.beta * s)):
                value, _ = interpolate_batch(HeatPropagator(grid, diffusion).apply(eta), grid, x)
                ref = np.where(value[:, None] < 0.0,
                               oc.reference_log_grad(negated, diffusion, grid, x),
                               oc.reference_log_grad(eta, diffusion, grid, x))
                # away from the zero crossing, where the log-gradient is
                # ill-conditioned
                keep = np.abs(value) > 1e-3 * np.abs(value).max()
                negative += np.count_nonzero(keep & (value < 0.0))
                assert_allclose(got[:, q].T[keep], ref[keep], rtol=1e-12,
                                atol=1e-12 * np.max(np.abs(ref[keep])))
        assert negative > 0

    def test_rows_independent_of_batch(self):
        dyn, rng = _drift_case(6, 3, 2, seed=7)
        times, x = _drift_points(dyn, 257, rng)
        for t in times[2:4] + times[-1:]:
            full = dyn.ode_drift(t, x)
            rows = np.concatenate([dyn.ode_drift(t, x[i:i + 1]) for i in range(257)])
            assert_array_equal(full, rows)

    def test_rank_nine_within_summation_order(self):
        # numpy sums rank axes of 8 or more pairwise in the reference, in
        # order here: equal up to the reordering of the sums
        dyn, rng = _drift_case(3, 9, 4, seed=9)
        times, x = _drift_points(dyn, 257, rng)
        for t in times:
            for name, ref in _reference_drifts(dyn, t, x).items():
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
