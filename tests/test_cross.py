"""Cross approximation: exact-rank recovery, adaptivity, call accounting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import tt_random, tt_to_full
from ttjko.cross import CrossConfig, CrossOracleError, maxvol, tt_cross
from ttjko.tt import TTTensor, tt_eval

# documented bound: oracle calls per sweep <= C * d * N * max_rank^2
CALL_BOUND_CONSTANT = 8


class TestMaxvol:
    def test_identity_block(self):
        rng = np.random.default_rng(0)
        a = np.vstack([np.eye(3), 0.1 * rng.standard_normal((5, 3))])
        rows = sorted(maxvol(a))
        assert rows == [0, 1, 2]

    def test_square_input(self):
        assert list(maxvol(np.eye(4))) == [0, 1, 2, 3]

    def test_submatrix_quasi_dominant(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 5))
        rows = maxvol(a)
        b = np.linalg.solve(a[rows].T, a.T).T
        assert np.max(np.abs(b)) <= 1.05 + 1e-9


class TestCrossExactRank:
    def test_rank_one_product(self):
        rng = np.random.default_rng(2)
        u, v, w = (rng.uniform(1, 2, 8) for _ in range(3))
        dense = np.einsum("i,j,k->ijk", u, v, w)

        def f(idx):
            return u[idx[:, 0]] * v[idx[:, 1]] * w[idx[:, 2]]

        t, info = tt_cross(f, (8, 8, 8), CrossConfig(max_rank=2, tolerance=1e-10),
                           rng=rng)
        assert info.converged
        assert np.max(np.abs(tt_to_full(t) - dense)) <= 1e-10

    def test_constant_one_is_rank_one(self):
        rng = np.random.default_rng(3)
        t, info = tt_cross(lambda idx: np.ones(idx.shape[0]), (5, 5, 5),
                           CrossConfig(max_rank=3, tolerance=1e-8), rng=rng)
        assert t.ranks == (1, 1, 1, 1)
        assert_allclose(tt_to_full(t), 1.0)

    def test_sin_sum_is_rank_two(self):
        xs = np.linspace(0.0, 3.0, 24)
        ys = np.linspace(0.0, 3.0, 24)

        def f(idx):
            return np.sin(xs[idx[:, 0]] + ys[idx[:, 1]])

        t, info = tt_cross(f, (24, 24), CrossConfig(max_rank=2, tolerance=1e-10),
                           rng=np.random.default_rng(4))
        dense = np.sin(xs[:, None] + ys[None, :])
        assert np.max(np.abs(tt_to_full(t) - dense)) <= 1e-8

    @pytest.mark.parametrize("true_rank", [2, 3, 4])
    def test_adaptive_recovers_exact_rank(self, true_rank):
        rng = np.random.default_rng(10 + true_rank)
        g = tt_random((7, 7, 7, 7), true_rank, rng)

        t, info = tt_cross(lambda i: tt_eval(g, i), (7, 7, 7, 7),
                           CrossConfig(max_rank=6, tolerance=1e-9), rng=rng)
        assert info.converged
        held_out = np.stack([rng.integers(0, 7, 1500) for _ in range(4)], axis=1)
        ref = tt_eval(g, held_out)
        err = np.linalg.norm(tt_eval(t, held_out) - ref) / np.linalg.norm(ref)
        assert err <= 1e-8

    def test_under_capped_rank_flags_nonconvergence(self):
        rng = np.random.default_rng(20)
        g = tt_random((7, 7, 7), 4, rng)
        t, info = tt_cross(lambda i: tt_eval(g, i), (7, 7, 7),
                           CrossConfig(max_rank=2, tolerance=1e-9), rng=rng)
        assert not info.converged
        assert max(t.ranks) <= 2


class TestCrossBehavior:
    def test_nonfinite_oracle_aborts_with_index(self):
        def f(idx):
            out = np.ones(idx.shape[0])
            out[idx[:, 1] == 2] = np.nan      # a full mode fiber: always probed
            return out

        with pytest.raises(CrossOracleError) as err:
            tt_cross(f, (5, 5), CrossConfig(max_rank=2, tolerance=1e-8),
                     rng=np.random.default_rng(5))
        assert err.value.index[1] == 2

    @pytest.mark.parametrize("max_rank, converged", [(4, True), (2, False)])
    def test_huge_values_keep_their_error(self, max_rank, converged):
        # the validation norm of values near 1e200 overflows float64; the
        # error must still be measured, not read as zero
        rng = np.random.default_rng(21)
        g = tt_random((7, 7, 7), 4, rng)
        t, info = tt_cross(lambda i: 1e200 * tt_eval(g, i), (7, 7, 7),
                           CrossConfig(max_rank=max_rank, tolerance=1e-9), rng=rng)
        assert info.converged is converged
        assert np.isfinite(info.rel_error)
        assert bool(info.rel_error < 1e-9) is converged
        assert info.rel_error > 0.0

    def test_all_zero_truth_is_unconverged(self):
        t, info = tt_cross(lambda i: np.zeros(i.shape[0]), (6, 6, 6),
                           CrossConfig(max_rank=3, tolerance=1e-8),
                           rng=np.random.default_rng(22))
        assert not info.converged
        assert info.rel_error == np.inf
        assert info.sweeps == 1

    def test_reports_oracle_calls(self):
        calls = []

        def f(idx):
            calls.append(idx.shape[0])
            return np.exp(-idx.sum(axis=1).astype(float))

        _, info = tt_cross(f, (6, 6, 6), CrossConfig(max_rank=3, tolerance=1e-8),
                           rng=np.random.default_rng(6))
        assert info.n_calls == sum(calls)

    def test_calls_per_sweep_bound(self):
        d, n, rmax = 4, 10, 4
        rng = np.random.default_rng(7)
        g = tt_random((n,) * d, 3, rng)
        _, info = tt_cross(lambda i: tt_eval(g, i), (n,) * d,
                           CrossConfig(max_rank=rmax, tolerance=1e-9), rng=rng)
        per_sweep = info.n_calls / info.sweeps
        assert per_sweep <= CALL_BOUND_CONSTANT * d * n * rmax**2

    def test_initial_guess_shape_checked(self):
        rng = np.random.default_rng(8)
        guess = tt_random((5, 5), 2, rng)
        with pytest.raises(ValueError, match="initial guess"):
            tt_cross(lambda i: np.ones(i.shape[0]), (6, 6),
                     CrossConfig(max_rank=2, tolerance=1e-8),
                     initial_guess=guess, rng=rng)

    def test_warm_start_converges_fast(self):
        rng = np.random.default_rng(9)
        g = tt_random((8, 8, 8), 3, rng)
        cfg = CrossConfig(max_rank=5, tolerance=1e-9)
        t1, info1 = tt_cross(lambda i: tt_eval(g, i), (8, 8, 8), cfg, rng=rng)
        t2, info2 = tt_cross(lambda i: tt_eval(g, i), (8, 8, 8), cfg,
                             initial_guess=t1, rng=rng)
        assert info2.converged
        assert info2.sweeps <= info1.sweeps

    @pytest.mark.parametrize("with_factor", [False, True])
    def test_single_axis(self, with_factor):
        """The general sweep is exact for d = 1."""
        vals = np.arange(1.0, 7.0)
        rows = []

        def f(idx, *factor_values):
            rows.append(idx.shape[0])
            return factor_values[0] if with_factor else vals[idx[:, 0]]

        factors = (TTTensor([vals.reshape(1, -1, 1)]),) if with_factor else ()
        t, info = tt_cross(f, (6,), CrossConfig(max_rank=3, tolerance=1e-8),
                           rng=np.random.default_rng(10), factors=factors)
        assert_array_equal(tt_to_full(t), vals)
        assert info.converged and info.rel_error == 0.0
        assert info.n_calls == sum(rows)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_rank"):
            CrossConfig(max_rank=0)
        with pytest.raises(ValueError, match="tolerance"):
            CrossConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="max_sweeps"):
            CrossConfig(max_sweeps=0)

    @pytest.mark.parametrize("field", ["max_rank", "max_sweeps"])
    def test_config_counts_are_integers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CrossConfig(**{field: 2.7})
        assert getattr(CrossConfig(**{field: np.int64(3)}), field) == 3
