"""Tensor-train representation and the linear algebra the solver builds on.

A tensor ``A[i_1, ..., i_d]`` is stored as a chain of order-3 cores
``G_n`` of shape ``(r_{n-1}, N_n, r_n)`` with boundary ranks
``r_0 = r_d = 1``; an element is the product of the corresponding core
slices.  Storage is ``O(d N r^2)``.  All functions here are exact (no
approximation) except :func:`tt_round`, which truncates by SVD with a
relative Frobenius tolerance.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_MAGIC = b"TTJK"
_FORMAT_VERSION = 1


class TTTensor:
    """Immutable tensor in train format.

    Cores are copied on construction and marked read-only, so instances
    are safe to share between threads.
    """

    __slots__ = ("cores",)

    def __init__(self, cores: Sequence[np.ndarray], copy: bool = True):
        if len(cores) == 0:
            raise ValueError("core list cannot be empty")
        prepared = []
        for n, core in enumerate(cores):
            arr = np.array(core, dtype=float, copy=copy)
            if arr.ndim != 3:
                raise ValueError(f"core {n} must be 3-dimensional, got shape {arr.shape}")
            prepared.append(arr)
        if prepared[0].shape[0] != 1:
            raise ValueError(f"first core must have leading rank 1, got {prepared[0].shape[0]}")
        if prepared[-1].shape[2] != 1:
            raise ValueError(f"last core must have trailing rank 1, got {prepared[-1].shape[2]}")
        for n in range(len(prepared) - 1):
            if prepared[n].shape[2] != prepared[n + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {n} and {n + 1}: "
                    f"{prepared[n].shape[2]} != {prepared[n + 1].shape[0]}"
                )
        for arr in prepared:
            arr.flags.writeable = False
        object.__setattr__(self, "cores", tuple(prepared))

    def __setattr__(self, name, value):
        raise AttributeError("TTTensor is immutable")

    def __reduce__(self):
        # rebuild through __init__, which copies the cores and marks them read-only
        return (TTTensor, (self.cores,))

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def shape(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    @property
    def size(self) -> int:
        return int(np.prod([float(n) for n in self.shape]))

    def __repr__(self):
        return f"TTTensor(shape={self.shape}, ranks={self.ranks})"


def tt_ones(shape: Sequence[int]) -> TTTensor:
    """Rank-1 tensor of ones."""
    return TTTensor([np.ones((1, int(n), 1)) for n in shape], copy=False)


def tt_rank_one(vectors: Sequence[np.ndarray]) -> TTTensor:
    """Separable tensor ``v_1 (x) v_2 (x) ... (x) v_d``."""
    return TTTensor([np.asarray(v, dtype=float).reshape(1, -1, 1) for v in vectors])


def tt_scale(t: TTTensor, a: float) -> TTTensor:
    cores = [c.copy() for c in t.cores]
    cores[0] = cores[0] * float(a)
    return TTTensor(cores, copy=False)


def _chop(s: np.ndarray, delta: float, max_rank: int) -> int:
    """Smallest kept rank so the dropped singular-value tail is below delta,
    at most ``max_rank``."""
    if s.size == 0 or s[0] <= 0.0:
        r = 1
    elif delta <= 0.0:
        r = int(np.count_nonzero(s > 0))
    else:
        scaled = s / s[0]          # normalized to avoid overflow in squares
        tail = np.sqrt(np.cumsum(scaled[::-1] ** 2))[::-1]
        keep = np.nonzero(tail > delta / s[0])[0]
        r = int(keep[-1] + 1) if keep.size else 0
    return min(max(r, 1), int(max_rank))


def tt_chain_step(v: np.ndarray, core: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row-wise ``v[m] @ core[:, col[m], :]``, shape ``(M, r1) -> (M, r2)``."""
    slab = core[:, col, :].transpose(1, 0, 2)   # (M, r1, r2)
    return np.matmul(v[:, None, :], slab)[:, 0, :]


def _partial_products(cores: Sequence[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Row-wise products of core slices, ``(M, k)`` indices -> ``(M, r_k)``.

    ``cores`` is a nonempty chain with leading rank 1; row ``m`` of the
    result is ``G_0[0, idx[m, 0], :] @ G_1[:, idx[m, 1], :] @ ...``.
    """
    v = cores[0][0, idx[:, 0], :]
    for n in range(1, len(cores)):
        v = tt_chain_step(v, cores[n], idx[:, n])
    return v


def checked_indices(indices: np.ndarray, shape: tuple) -> np.ndarray:
    """``indices`` as an ``(M, d)`` ``intp`` array of multi-indices into
    ``shape``; a 1-d ``indices`` is one multi-index.

    Raises ``ValueError`` unless the dtype is an integer one (``bool`` is
    not) and every row lies in the shape, ``0 <= i_k < shape[k]``; the
    message names the first row that does not.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"multi-indices must have an integer dtype, not {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim == 1:
        idx = idx[None, :]
    if idx.ndim != 2 or idx.shape[1] != len(shape):
        raise ValueError(f"expected multi-indices of length {len(shape)}, got shape {idx.shape}")
    # negative entries read as huge unsigned values, so one test covers
    # both bounds; the per-axis test runs only if the largest entry fails
    # the smallest axis
    uidx = idx.view(np.uint64)
    if uidx.max(initial=0) >= min(shape):
        outside = (uidx >= np.asarray(shape, dtype=np.uint64)).any(axis=1)
        if outside.any():
            row = int(outside.argmax())
            raise ValueError(f"multi-index row {row}, {tuple(idx[row].tolist())}, "
                             f"lies outside the grid shape {shape}")
    return idx


def tt_eval(t: TTTensor, indices: np.ndarray) -> np.ndarray:
    """Evaluate elements at a batch of multi-indices, shape (M, d) -> (M,).

    The indices are checked by :func:`checked_indices`.
    """
    return _partial_products(t.cores, checked_indices(indices, t.shape))[:, 0]


def tt_right_interface(t: TTTensor, suffixes: np.ndarray) -> np.ndarray:
    """Products of the last k >= 1 cores at ``(M, k)`` suffixes, shape ``(M, r_{d-k})``.

    The chain runs from the last core inward over the transposed cores
    ``G.transpose(2, 1, 0)``; prepending mode value ``i`` to a suffix is
    one :func:`tt_chain_step` with core ``d-k-1`` transposed that way.
    """
    suffixes = np.asarray(suffixes, dtype=np.intp)
    k = suffixes.shape[1]
    mirrored = [c.transpose(2, 1, 0) for c in t.cores[::-1][:k]]
    return _partial_products(mirrored, suffixes[:, ::-1])


def tt_block_eval(t: TTTensor, n: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elements on the block ``prefixes x (all of mode n) x suffixes``.

    ``left`` holds the products of the first n cores at the ``nl``
    prefixes, shape ``(nl, r_n)``, built from ``np.ones((nl, 1))`` by one
    :func:`tt_chain_step` per core; ``right`` is :func:`tt_right_interface`
    on the ``nr`` suffixes.  The ``nl * N_n * nr`` values are ordered with
    the suffix fastest.
    """
    r1, N, r2 = t.cores[n].shape
    return ((left @ t.cores[n].reshape(r1, N * r2)).reshape(-1, r2) @ right.T).reshape(-1)


def tt_axpy(a: float, x: TTTensor, y: TTTensor) -> TTTensor:
    """Exact linear combination ``a*x + y``; ranks add, caller rounds."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    d = x.d
    if d == 1:
        return TTTensor([a * x.cores[0] + y.cores[0]], copy=False)
    cores = []
    for n in range(d):
        xc, yc = x.cores[n], y.cores[n]
        rx1, N, rx2 = xc.shape
        ry1, _, ry2 = yc.shape
        if n == 0:
            block = np.concatenate([a * xc, yc], axis=2)
        elif n == d - 1:
            block = np.concatenate([xc, yc], axis=0)
        else:
            block = np.zeros((rx1 + ry1, N, rx2 + ry2))
            block[:rx1, :, :rx2] = xc
            block[rx1:, :, rx2:] = yc
        cores.append(block)
    return TTTensor(cores, copy=False)


def tt_inner(x: TTTensor, y: TTTensor) -> float:
    """Euclidean inner product sum_alpha x_alpha * y_alpha."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    m = np.ones((1, 1))
    for xc, yc in zip(x.cores, y.cores):
        # m[a, b] carries the partial contraction over processed axes
        rx1, n, rx2 = xc.shape
        ry1, _, ry2 = yc.shape
        t = (m.T @ xc.reshape(rx1, n * rx2)).reshape(ry1 * n, rx2)
        m = t.T @ yc.reshape(ry1 * n, ry2)
    return float(m[0, 0])


def tt_round(t: TTTensor, tolerance: float, max_rank: int) -> TTTensor:
    """SVD re-compression; never increases ranks.

    With an unbinding ``max_rank`` (``t.max_rank`` binds nothing) the
    relative Frobenius error is at most ``tolerance``.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    d = t.d
    if d == 1:
        return TTTensor(t.cores)
    cores = [c.copy() for c in t.cores]
    # right-to-left orthogonalization: leaves the norm in cores[0]
    for n in range(d - 1, 0, -1):
        r1, N, r2 = cores[n].shape
        q, r = np.linalg.qr(cores[n].reshape(r1, N * r2).T)
        rq = q.shape[1]
        cores[n] = q.T.reshape(rq, N, r2)
        prev = cores[n - 1]
        p1, pN, _ = prev.shape
        cores[n - 1] = (prev.reshape(p1 * pN, r1) @ r.T).reshape(p1, pN, rq)
    norm = np.linalg.norm(cores[0])
    delta = tolerance * norm / np.sqrt(d - 1)
    # left-to-right truncation sweep
    for n in range(d - 1):
        r1, N, r2 = cores[n].shape
        u, s, vt = np.linalg.svd(cores[n].reshape(r1 * N, r2), full_matrices=False)
        r_new = _chop(s, delta, max_rank)
        cores[n] = u[:, :r_new].reshape(r1, N, r_new)
        carry = s[:r_new, None] * vt[:r_new]
        nxt = cores[n + 1]
        n1, nN, n2 = nxt.shape
        cores[n + 1] = (carry @ nxt.reshape(n1, nN * n2)).reshape(r_new, nN, n2)
    return TTTensor(cores, copy=False)


def tt_contract_all(t: TTTensor, axis_weights: Sequence[np.ndarray]) -> float:
    """Weighted full contraction sum_alpha t_alpha * prod_n w[n][alpha_n].

    With quadrature weights this is the grid integral.
    """
    if len(axis_weights) != t.d:
        raise ValueError(f"expected {t.d} weight vectors, got {len(axis_weights)}")
    v = np.ones(1)
    for n, core in enumerate(t.cores):
        w = np.asarray(axis_weights[n], dtype=float)
        if w.shape != (core.shape[1],):
            raise ValueError(f"weight vector {n} has length {w.size}, expected {core.shape[1]}")
        v = v @ np.einsum("aib,i->ab", core, w, optimize=True)
    return float(v[0])


def tt_marginal(t: TTTensor, keep_axes: Sequence[int],
                axis_weights: Sequence[np.ndarray]) -> TTTensor:
    """Contract out all axes not in ``keep_axes`` with the given weights."""
    keep = sorted(set(int(k) for k in keep_axes))
    if not keep:
        raise ValueError("keep_axes must be nonempty")
    if keep[0] < 0 or keep[-1] >= t.d:
        raise ValueError(f"keep_axes out of range for d={t.d}")
    if len(axis_weights) != t.d:
        raise ValueError(f"expected {t.d} weight vectors, got {len(axis_weights)}")
    keep_set = set(keep)
    out_cores: list[np.ndarray] = []
    pending = np.ones((1, 1))
    for n, core in enumerate(t.cores):
        if n in keep_set:
            out_cores.append(np.einsum("ab,bic->aic", pending, core, optimize=True))
            pending = np.eye(core.shape[2])
        else:
            w = np.asarray(axis_weights[n], dtype=float)
            if w.shape != (core.shape[1],):
                raise ValueError(f"weight vector {n} has length {w.size}, expected {core.shape[1]}")
            pending = pending @ np.einsum("aib,i->ab", core, w, optimize=True)
    # fold any trailing contracted axes into the last kept core
    out_cores[-1] = np.einsum("aic,cb->aib", out_cores[-1], pending, optimize=True)
    return TTTensor(out_cores, copy=False)


def tt_save(t: TTTensor, path) -> None:
    """Write binary format: magic, version, d, mode sizes, ranks, f64 cores.

    Core ``n`` is laid out with the middle (mode) index fastest.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, t.d))
        fh.write(np.asarray(t.shape, dtype="<u8").tobytes())
        fh.write(np.asarray(t.ranks, dtype="<u8").tobytes())
        for core in t.cores:
            fh.write(np.ascontiguousarray(core.transpose(0, 2, 1), dtype="<f8").tobytes())


def tt_load(path) -> TTTensor:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, d = struct.unpack("<II", fh.read(8))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        shape = np.frombuffer(fh.read(8 * d), dtype="<u8").astype(int)
        ranks = np.frombuffer(fh.read(8 * (d + 1)), dtype="<u8").astype(int)
        cores = []
        for n in range(d):
            r1, N, r2 = int(ranks[n]), int(shape[n]), int(ranks[n + 1])
            buf = np.frombuffer(fh.read(8 * r1 * N * r2), dtype="<f8")
            cores.append(buf.reshape(r1, r2, N).transpose(0, 2, 1))
    return TTTensor(cores)
