"""Tensor-train algebra against dense materializations."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ttjko.tt
from oracles import reference_grid_sample, tt_from_full, tt_norm, tt_random, tt_to_full
from ttjko.tt import (TTTensor, tt_axpy, tt_contract_all, tt_eval, tt_inner, tt_load,
                      tt_marginal, tt_ones, tt_rank_one, tt_round, tt_sample, tt_save)


def random_dense(rng, shape):
    return rng.standard_normal(shape)


class TestConstruction:
    def test_boundary_rank_left(self):
        with pytest.raises(ValueError, match="leading rank 1"):
            TTTensor([np.zeros((2, 4, 1))])

    def test_boundary_rank_right(self):
        with pytest.raises(ValueError, match="trailing rank 1"):
            TTTensor([np.zeros((1, 4, 2))])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            TTTensor([np.zeros((1, 4, 2)), np.zeros((3, 4, 1))])

    def test_cores_are_immutable(self):
        t = tt_ones((3, 3))
        with pytest.raises(ValueError):
            t.cores[0][0, 0, 0] = 2.0

    def test_element_access_matches_core_product(self):
        rng = np.random.default_rng(0)
        t = tt_random((4, 5, 6), 3, rng)
        dense = tt_to_full(t)
        for idx in [(0, 0, 0), (3, 4, 5), (1, 2, 3)]:
            vec = t.cores[0][:, idx[0], :]
            for n in range(1, 3):
                vec = vec @ t.cores[n][:, idx[n], :]
            assert_allclose(vec[0, 0], dense[idx], rtol=1e-12)


class TestFromFull:
    def test_separable_tensor_is_rank_one(self):
        rng = np.random.default_rng(1)
        a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        dense = np.einsum("i,j,k->ijk", a, b, c)
        t = tt_from_full(dense, 1e-12)
        assert t.ranks == (1, 1, 1, 1)

    def test_zeros_tensor_rank_one(self):
        t = tt_from_full(np.zeros((4, 4, 4)), 0.0)
        assert t.ranks == (1, 1, 1, 1)
        assert_allclose(tt_to_full(t), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        dense = random_dense(rng, (8, 8, 8))
        t = tt_from_full(dense, 1e-12)
        err = np.linalg.norm(tt_to_full(t) - dense) / np.linalg.norm(dense)
        assert err <= 1e-10

    def test_rejects_nonfinite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            tt_from_full(bad)


class TestToFull:
    def test_rank_one_ones(self):
        assert_allclose(tt_to_full(tt_ones((3, 3))), np.ones((3, 3)))

    def test_single_axis(self):
        v = np.arange(5.0)
        t = tt_rank_one([v])
        assert_allclose(tt_to_full(t), v)

    def test_size_cap(self):
        t = tt_ones((100, 100, 100, 100))
        with pytest.raises(ValueError, match="cap"):
            tt_to_full(t, size_cap=10**6)


class TestRound:
    def test_exact_rank_preserved(self):
        rng = np.random.default_rng(3)
        t = tt_random((6, 6, 6), 2, rng)
        r = tt_round(t, 0.0, max_rank=2)
        assert_allclose(tt_to_full(r), tt_to_full(t), rtol=1e-12, atol=1e-12)

    def test_best_rank_one_matches_svd(self):
        rng = np.random.default_rng(4)
        a = tt_rank_one([rng.standard_normal(7), rng.standard_normal(9)])
        b = tt_rank_one([rng.standard_normal(7), rng.standard_normal(9)])
        s = tt_axpy(1.0, a, b)
        truncated = tt_round(s, 0.0, max_rank=1)
        dense = tt_to_full(s)
        u, sv, vt = np.linalg.svd(dense)
        best = sv[0] * np.outer(u[:, 0], vt[0])
        err_tt = np.linalg.norm(tt_to_full(truncated) - dense)
        err_svd = np.linalg.norm(best - dense)
        assert_allclose(err_tt, err_svd, rtol=1e-10)

    def test_unbound_round_preserves_values(self):
        rng = np.random.default_rng(5)
        t = tt_random((5, 5, 5, 5), 4, rng)
        r = tt_round(t, 1e-14, t.max_rank)
        rel = np.linalg.norm(tt_to_full(r) - tt_to_full(t)) / tt_norm(t)
        assert rel <= 1e-12

    def test_never_increases_ranks(self):
        rng = np.random.default_rng(6)
        t = tt_random((5, 5, 5), 4, rng)
        r = tt_round(t, 0.5, t.max_rank)
        assert all(a <= b for a, b in zip(r.ranks, t.ranks))


class TestAxpyInner:
    def test_axpy_zero_coefficient(self):
        rng = np.random.default_rng(7)
        x = tt_random((4, 4), 2, rng)
        y = tt_random((4, 4), 3, rng)
        assert_allclose(tt_to_full(tt_axpy(0.0, x, y)), tt_to_full(y), atol=1e-13)

    def test_self_cancellation(self):
        rng = np.random.default_rng(8)
        y = tt_random((4, 5, 6), 3, rng)
        z = tt_axpy(-1.0, y, y)
        assert tt_norm(z) <= 1e-12 * tt_norm(y)

    def test_axpy_matches_dense(self):
        rng = np.random.default_rng(9)
        x = tt_random((4, 5), 2, rng)
        y = tt_random((4, 5), 3, rng)
        assert_allclose(tt_to_full(tt_axpy(2.5, x, y)),
                        2.5 * tt_to_full(x) + tt_to_full(y), atol=1e-12)

    def test_axpy_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            tt_axpy(1.0, tt_ones((3, 3)), tt_ones((3, 4)))

    def test_inner_is_norm_squared(self):
        rng = np.random.default_rng(10)
        x = tt_random((5, 5, 5), 3, rng)
        assert tt_inner(x, x) >= 0
        assert_allclose(tt_inner(x, x), np.sum(tt_to_full(x) ** 2), rtol=1e-12)

    def test_inner_ones(self):
        assert_allclose(tt_inner(tt_ones((5, 5)), tt_ones((5, 5))), 25.0)

    def test_inner_matches_dense_dot(self):
        rng = np.random.default_rng(11)
        x = tt_random((4, 6, 5), 3, rng)
        y = tt_random((4, 6, 5), 2, rng)
        assert_allclose(tt_inner(x, y), np.vdot(tt_to_full(x), tt_to_full(y)),
                        rtol=1e-12)


class TestContractMarginal:
    def test_uniform_weights_sum(self):
        t = tt_ones((2, 3))
        assert_allclose(tt_contract_all(t, [np.ones(2), np.ones(3)]), 6.0)

    def test_one_hot_weights_pick_element(self):
        rng = np.random.default_rng(12)
        t = tt_random((4, 4, 4), 2, rng)
        dense = tt_to_full(t)
        w = [np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]]
        assert_allclose(tt_contract_all(t, w), dense[1, 2, 3], rtol=1e-12)

    def test_normal_mass(self):
        x = np.linspace(-6, 6, 400)
        h = x[1] - x[0]
        t = tt_rank_one([np.exp(-x**2 / 2) / np.sqrt(2 * np.pi)])
        mass = tt_contract_all(t, [np.full(400, h)])
        assert abs(mass - 1.0) <= 1e-6

    def test_keep_all_axes_identity(self):
        rng = np.random.default_rng(13)
        t = tt_random((3, 4, 5), 2, rng)
        m = tt_marginal(t, [0, 1, 2], [np.ones(3), np.ones(4), np.ones(5)])
        assert_allclose(tt_to_full(m), tt_to_full(t), atol=1e-12)

    def test_marginal_matches_dense(self):
        rng = np.random.default_rng(14)
        t = tt_random((3, 4, 5), 3, rng)
        w = [rng.uniform(0.5, 1.5, s) for s in (3, 4, 5)]
        m = tt_marginal(t, [1], w)
        dense = np.einsum("ijk,i,k->j", tt_to_full(t), w[0], w[2])
        assert_allclose(tt_to_full(m), dense, rtol=1e-12)

    def test_separable_factor_recovery(self):
        f = np.array([1.0, 2.0, 3.0])
        g = np.array([0.5, 1.5])
        t = tt_rank_one([f, g])
        w = [np.ones(3), np.ones(2)]
        m = tt_marginal(t, [0], w)
        assert_allclose(tt_to_full(m), f * g.sum(), rtol=1e-12)

    def test_empty_keep_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            tt_marginal(tt_ones((3, 3)), [], [np.ones(3)] * 2)


class TestEval:
    def test_batch_matches_dense(self):
        rng = np.random.default_rng(15)
        t = tt_random((5, 6, 7), 3, rng)
        dense = tt_to_full(t)
        idx = np.stack([rng.integers(0, s, 40) for s in (5, 6, 7)], axis=1)
        assert_allclose(tt_eval(t, idx), dense[idx[:, 0], idx[:, 1], idx[:, 2]],
                        rtol=1e-12)


class TestSample:
    SHAPE = (5, 6, 7)

    def uniforms(self, rng, n):
        u = rng.random((n, 3))
        u[0], u[1] = 0.0, 1.0 - 2.0**-53       # both ends of the inverse CDFs
        return u

    def weights(self, rng):
        return [rng.uniform(0.5, 1.5, n) for n in self.SHAPE]

    def test_rank_two_matches_dense_inverse_cdf(self):
        rng = np.random.default_rng(31)
        t = TTTensor([np.abs(c) for c in tt_random(self.SHAPE, 2, rng).cores])
        w = self.weights(rng)
        u = self.uniforms(rng, 400)
        got = tt_sample(t, w, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, reference_grid_sample(tt_to_full(t), w, u))

    def test_negative_entries_are_clipped(self, monkeypatch):
        # two Gaussian bumps less 1e-3: the tails are small and negative
        rng = np.random.default_rng(32)
        bumps = [tt_rank_one([np.exp(-(np.arange(n) - c) ** 2) for n in self.SHAPE])
                 for c in (1.0, 4.0)]
        t = tt_axpy(-1e-3, tt_ones(self.SHAPE), tt_axpy(1.0, bumps[0], bumps[1]))
        dense = tt_to_full(t)
        assert (dense < 0).mean() > 0.5
        w = self.weights(rng)
        u = self.uniforms(rng, 400)
        ref = reference_grid_sample(dense, w, u)
        assert np.array_equal(tt_sample(t, w, u), ref)
        assert np.all(dense[tuple(ref.T)] > 0)
        # rows are drawn block by block
        monkeypatch.setattr(ttjko.tt, "_SAMPLE_BLOCK", 7)
        assert np.array_equal(tt_sample(t, w, u), ref)

    def test_conditional_without_mass_raises(self):
        t = tt_axpy(-1.0, tt_ones(self.SHAPE), tt_rank_one(
            [np.eye(1, n, 2).ravel() for n in self.SHAPE]))     # -1 but one +0 entry
        with pytest.raises(ValueError, match="no positive mass"):
            tt_sample(t, [np.ones(n) for n in self.SHAPE], np.full((3, 3), 0.5))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        t = tt_random((4, 5, 6), 3, rng)
        path = tmp_path / "x.tt"
        tt_save(t, path)
        t2 = tt_load(path)
        assert t2.shape == t.shape and t2.ranks == t.ranks
        for a, b in zip(t.cores, t2.cores):
            assert np.array_equal(a, b)

    def test_header_layout(self, tmp_path):
        t = tt_ones((3, 2))
        path = tmp_path / "h.tt"
        tt_save(t, path)
        raw = path.read_bytes()
        assert raw[:4] == b"TTJK"
        assert int.from_bytes(raw[4:8], "little") == 1          # version
        assert int.from_bytes(raw[8:12], "little") == 2         # d
        sizes = np.frombuffer(raw[12:28], dtype="<u8")
        assert list(sizes) == [3, 2]
        ranks = np.frombuffer(raw[28:52], dtype="<u8")
        assert list(ranks) == [1, 1, 1]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            tt_load(path)


def _model_tensors(model):
    return [model.rho_tt] + [getattr(s, name) for s in model.steps
                             for name in ("eta_T", "eta_hat_0", "eta_hat_T")]


class TestCopy:
    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_tensor(self, clone):
        t = tt_random((3, 4, 5), 2, np.random.default_rng(0))
        c = clone(t)
        assert isinstance(c, TTTensor) and c is not t
        for a, b in zip(t.cores, c.cores):
            np.testing.assert_array_equal(a, b)
            assert not b.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            c.cores = ()

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_fitted_model(self, gauss2, clone):
        model = gauss2["model"]
        c = clone(model)
        pairs = list(zip(_model_tensors(model), _model_tensors(c)))
        assert len(pairs) == 1 + 3 * len(model.steps)
        for t, u in pairs:
            assert u is not t and len(u.cores) == len(t.cores)
            for a, b in zip(t.cores, u.cores):
                np.testing.assert_array_equal(a, b)
                assert a.tobytes() == b.tobytes()
                assert not b.flags.writeable
        # the grid's cached constants are rebuilt, read-only and bitwise
        g = c.grid
        assert g is not model.grid
        assert g.spacings.tobytes() == model.grid.spacings.tobytes()
        assert g.spacings.tobytes() == ((g.upper - g.lower) / (g.nodes - 1)).tobytes()
        assert not any(a.flags.writeable for a in (g.lower, g.upper, g.nodes, g.spacings))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 6), st.integers(1, 5), st.integers(0, 10**6))
def test_property_round_trip(d, n, r, seed):
    """tt_to_full(tt_from_full(x)) recovers x within tolerance."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n,) * d)
    t = tt_from_full(dense, 1e-13)
    assert np.linalg.norm(tt_to_full(t) - dense) <= 1e-10 * max(np.linalg.norm(dense), 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 8), st.integers(1, 5), st.integers(0, 10**6))
def test_property_inner_matches_dense(d, n, r, seed):
    rng = np.random.default_rng(seed)
    x = tt_random((n,) * d, r, rng)
    y = tt_random((n,) * d, r, rng)
    dense = np.vdot(tt_to_full(x), tt_to_full(y))
    scale = tt_norm(x) * tt_norm(y)
    assert abs(tt_inner(x, y) - dense) <= 1e-12 * max(scale, 1.0)
