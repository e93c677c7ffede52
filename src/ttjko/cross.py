"""Cross approximation: build a TT from pointwise evaluations of an index oracle.

The oracle is a callable ``f(indices, *factor_values) -> values``.
``indices`` is an ``(M, d)`` integer array and the result holds ``(M,)``
floats, finite at every multi-index.  ``factor_values`` carries one
``(M,)`` array per TT in the ``factors`` argument of :func:`tt_cross`:
that TT's elements at ``indices``.  An oracle composed from TTs thus
never evaluates them itself.  Cross blocks are Cartesian products
``prefixes x (all of mode n) x suffixes``, so there a factor is
contracted through its interface matrices on the prefixes and suffixes
(:func:`~ttjko.tt.tt_block_eval`) instead of element by element; on
validation sets it is evaluated by :func:`~ttjko.tt.tt_eval`.  With no
factors the oracle is called as ``f(indices)``.

Pivots are chosen by maxvol row selection on orthogonalized unfoldings;
ranks can grow DMRG-style when progress on a fixed validation index set
stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf

from .tt import TTTensor, tt_block_eval, tt_chain_step, tt_eval, tt_right_interface

# block singular values below this relative threshold are discarded so that
# maxvol always sees a full-column-rank matrix
_RANK_EPS = 1e-14

#: maxvol stops swapping rows once no entry of the coefficient matrix
#: exceeds this in magnitude
MAXVOL_TOL = 1.05

#: largest validation set a cross measures its error on
VALIDATION_SIZE = 1000


class CrossOracleError(ValueError):
    """Oracle returned a non-finite value; carries the offending index."""

    def __init__(self, index):
        self.index = tuple(int(i) for i in index)
        super().__init__(f"oracle returned a non-finite value at index {self.index}")


@dataclass
class CrossConfig:
    max_rank: int = 10
    tolerance: float = 1e-6          # relative Frobenius target on validation indices
    max_sweeps: int = 10
    rank_adaptive: bool = True       # start small, grow +2 per stalled sweep

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class CrossInfo:
    n_calls: int = 0
    sweeps: int = 0
    converged: bool = False
    rel_error: float = np.inf        # on the validation index set
    ranks: tuple = ()
    history: list = field(default_factory=list)


def maxvol(a: np.ndarray, tol: float = MAXVOL_TOL, max_iters: int = 200) -> np.ndarray:
    """Indices of a quasi-dominant r x r submatrix of a tall n x r matrix."""
    a = np.asarray(a, dtype=float)
    n, r = a.shape
    if n < r:
        raise ValueError(f"need n >= r, got {a.shape}")
    if n == r:
        return np.arange(n)
    _, piv, _ = dgetrf(a)
    ind = np.arange(n)
    for k, p in enumerate(piv[:r].tolist()):
        if p != k:
            ind[k], ind[p] = ind[p], ind[k]
    ind = ind[:r].copy()
    try:
        b = np.linalg.solve(a[ind].T, a.T).T
    except np.linalg.LinAlgError:
        b = np.linalg.lstsq(a[ind].T, a.T, rcond=None)[0].T
    for _ in range(max_iters):
        flat = np.argmax(np.abs(b))
        i, j = np.unravel_index(flat, b.shape)
        if abs(b[i, j]) <= tol:
            break
        bj = b[:, j].copy()
        bi = b[i, :].copy()
        bi[j] -= 1.0
        b -= np.outer(bj, bi) / b[i, j]
        ind[j] = i
    return ind


def _orth_columns(a: np.ndarray, max_rank: int) -> np.ndarray:
    """Orthonormal basis of the numerically significant column space."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :1]
    r = int(np.count_nonzero(s > _RANK_EPS * s[0]))
    r = max(min(r, max_rank), 1)
    return u[:, :r]


def _block_indices(left: np.ndarray, n_mode: int, right: np.ndarray) -> np.ndarray:
    """All multi-indices (prefix, i, suffix), row-major with suffix fastest."""
    nl, lp = left.shape
    nr, ls = right.shape
    d = lp + 1 + ls
    out = np.empty((nl, n_mode, nr, d), dtype=np.intp)
    out[..., :lp] = left[:, None, None, :]
    out[..., lp] = np.arange(n_mode, dtype=np.intp)[None, :, None]
    out[..., lp + 1:] = right[None, None, :, :]
    return out.reshape(-1, d)


def _eval_oracle(f, idx: np.ndarray, info: CrossInfo, factor_values) -> np.ndarray:
    vals = np.asarray(f(idx, *factor_values), dtype=float).reshape(-1)
    info.n_calls += idx.shape[0]
    if not np.all(np.isfinite(vals)):
        bad = int(np.nonzero(~np.isfinite(vals))[0][0])
        raise CrossOracleError(idx[bad])
    return vals


def _random_suffixes(shape, start: int, count: int, rng: np.random.Generator,
                     existing: np.ndarray | None = None) -> np.ndarray:
    """Distinct random suffix multi-indices over modes start..d-1."""
    tail = [int(n) for n in shape[start:]]
    rows = [] if existing is None else [existing]
    seen = set() if existing is None else {tuple(r) for r in existing}
    attempts = 0
    while sum(len(r) for r in rows) < count + (0 if existing is None else len(existing)):
        cand = tuple(int(rng.integers(0, n)) for n in tail)
        attempts += 1
        if cand in seen and attempts < 50 * count:
            continue
        seen.add(cand)
        rows.append(np.asarray(cand, dtype=np.intp)[None, :])
        if attempts >= 50 * count and len(seen) >= int(np.prod([min(n, 4) for n in tail])):
            break
    return np.concatenate(rows, axis=0) if rows else np.zeros((1, len(tail)), dtype=np.intp)


def _right_sets_from_guess(guess: TTTensor, max_rank: int) -> list:
    """Nested right index sets extracted from an existing TT (no oracle calls)."""
    d = guess.d
    shape = guess.shape
    right = [None] * (d + 1)
    right[d] = np.zeros((1, 0), dtype=np.intp)
    carry = np.ones((1, 1))
    for n in range(d - 1, 0, -1):
        core = np.einsum("aib,bc->aic", guess.cores[n], carry, optimize=True)
        r1, N, rc = core.shape
        mat = core.reshape(r1, N * rc).T          # rows ordered (i, suffix slot)
        q = _orth_columns(mat, max_rank)
        rows = maxvol(q)
        i_sel, j_sel = np.divmod(rows, rc if rc else 1)
        right[n] = np.concatenate(
            [i_sel[:, None].astype(np.intp), right[n + 1][j_sel]], axis=1
        )
        carry = mat[rows].T                        # (r1, r_sel) interface
    return right


def validation_indices(shape, cross_cfg: CrossConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniform random multi-indices on which a cross measures its error."""
    shape = [int(n) for n in shape]
    # capped so validation probes never dominate the O(d N r^2) sweep cost
    n_val = int(min(
        VALIDATION_SIZE,
        4 * len(shape) * max(shape) * cross_cfg.max_rank**2,
        np.prod([float(m) for m in shape]),
    ))
    return np.stack(
        [rng.integers(0, n, size=n_val) for n in shape], axis=1
    ).astype(np.intp)


def tt_cross(f, mode_sizes, config: CrossConfig,
             initial_guess: TTTensor | None = None,
             rng: np.random.Generator | None = None,
             validation: np.ndarray | None = None,
             factors=()) -> tuple[TTTensor, CrossInfo]:
    """Reconstruct a TT from an index oracle.

    Returns the approximation together with a :class:`CrossInfo` holding
    the oracle-call count and the convergence flag.  Convergence is the
    relative error against oracle values on a validation index set,
    evaluated once per call; a caller running many related crosses can
    pass a fixed ``validation`` set so those probes stay cacheable.
    Sweeps stop early once the error stalls with no rank growth left.
    ``factors`` are TTs whose elements are passed to the oracle after
    the indices (see the module docstring).
    """
    shape = [int(n) for n in mode_sizes]
    d = len(shape)
    if rng is None:
        rng = np.random.default_rng(0)
    info = CrossInfo()
    factors = tuple(factors)
    for t in factors:
        if tuple(t.shape) != tuple(shape):
            raise ValueError("factor shape does not match mode_sizes")

    if d == 1:
        idx = np.arange(shape[0], dtype=np.intp)[:, None]
        vals = _eval_oracle(f, idx, info, [tt_eval(t, idx) for t in factors])
        info.converged = True
        info.sweeps = 1
        info.rel_error = 0.0
        tt = TTTensor([vals.reshape(1, -1, 1)], copy=False)
        info.ranks = tt.ranks
        return tt, info

    start_rank = 2 if config.rank_adaptive else config.max_rank
    start_rank = min(start_rank, config.max_rank)
    if initial_guess is not None:
        if tuple(initial_guess.shape) != tuple(shape):
            raise ValueError("initial guess shape does not match mode_sizes")
        right = _right_sets_from_guess(initial_guess, config.max_rank)
        if not config.rank_adaptive:
            # fixed-rank mode starts at max_rank even from a thinner guess
            for n in range(d - 1, 0, -1):
                cap = int(min(config.max_rank, np.prod([float(m) for m in shape[n:]]),
                              np.prod([float(m) for m in shape[:n]])))
                if right[n].shape[0] < cap:
                    right[n] = _random_suffixes(shape, n, cap - right[n].shape[0],
                                                rng, existing=right[n])
    else:
        right = [None] * (d + 1)
        right[d] = np.zeros((1, 0), dtype=np.intp)
        for n in range(d - 1, 0, -1):
            cap = min(start_rank, int(np.prod([float(m) for m in shape[n:]])))
            right[n] = _random_suffixes(shape, n, cap, rng)

    if validation is None:
        validation = validation_indices(shape, config, rng)
    else:
        validation = np.asarray(validation, dtype=np.intp)
    val_truth = _eval_oracle(f, validation, info,
                             [tt_eval(t, validation) for t in factors])
    # the relative error needs a truth of positive, representable norm;
    # a norm that over- or underflows is taken on the truth scaled by its peak
    val_peak = float(np.max(np.abs(val_truth), initial=0.0))
    with np.errstate(over="ignore"):
        val_scale = np.linalg.norm(val_truth)

    left = [None] * (d + 1)
    left[0] = np.zeros((1, 0), dtype=np.intp)
    one = np.ones((1, 1))
    # interface matrices of factor k on the index sets, both (set size,
    # factors[k].ranks[n]): lface[k][n] on the prefixes left[n], rface[k][n]
    # on the suffixes right[n]; each new set extends them by one chain step
    lface = [[one] + [None] * d for _ in factors]
    rface = [[None] * d + [one] for _ in factors]
    for k, t in enumerate(factors):
        for n in range(1, d):
            rface[k][n] = tt_right_interface(t, right[n])

    def block_values(n):
        idx = _block_indices(left[n], shape[n], right[n + 1])
        fvals = [tt_block_eval(t, n, lface[k][n], rface[k][n + 1])
                 for k, t in enumerate(factors)]
        return _eval_oracle(f, idx, info, fvals)

    cores: list = [None] * d
    prev_error = np.inf

    for sweep in range(config.max_sweeps):
        # left-to-right: rebuild left sets, interpolative cores
        for n in range(d - 1):
            vals = block_values(n)
            block = vals.reshape(left[n].shape[0] * shape[n], right[n + 1].shape[0])
            q = _orth_columns(block, config.max_rank)
            rows = maxvol(q)
            core = np.linalg.solve(q[rows].T, q.T).T
            cores[n] = core.reshape(left[n].shape[0], shape[n], q.shape[1])
            a_sel, i_sel = np.divmod(rows, shape[n])
            left[n + 1] = np.concatenate(
                [left[n][a_sel], i_sel[:, None].astype(np.intp)], axis=1
            )
            for k, t in enumerate(factors):
                lface[k][n + 1] = tt_chain_step(lface[k][n][a_sel], t.cores[n], i_sel)
        vals = block_values(d - 1)
        cores[d - 1] = vals.reshape(left[d - 1].shape[0], shape[d - 1], 1)

        # right-to-left: rebuild right sets
        for n in range(d - 1, 0, -1):
            vals = block_values(n)
            block = vals.reshape(left[n].shape[0], shape[n] * right[n + 1].shape[0])
            q = _orth_columns(block.T, config.max_rank)
            rows = maxvol(q)
            core = np.linalg.solve(q[rows].T, q.T)   # (r_sel, N*nr)
            cores[n] = core.reshape(q.shape[1], shape[n], right[n + 1].shape[0])
            i_sel, b_sel = np.divmod(rows, right[n + 1].shape[0])
            right[n] = np.concatenate(
                [i_sel[:, None].astype(np.intp), right[n + 1][b_sel]], axis=1
            )
            for k, t in enumerate(factors):
                rface[k][n] = tt_chain_step(rface[k][n + 1][b_sel],
                                            t.cores[n].transpose(2, 1, 0), i_sel)
        vals = block_values(0)
        cores[0] = vals.reshape(1, shape[0], right[1].shape[0])

        tt = TTTensor(cores)
        info.sweeps = sweep + 1
        val_now = tt_eval(tt, validation)
        with np.errstate(invalid="ignore", over="ignore"):
            if val_peak == 0.0:
                error = np.inf
            elif np.isfinite(val_scale) and val_scale > 0:
                error = np.linalg.norm(val_now - val_truth) / val_scale
            else:
                error = (np.linalg.norm(val_now / val_peak - val_truth / val_peak)
                         / np.linalg.norm(val_truth / val_peak))
        if not np.isfinite(error):
            error = np.inf
        info.rel_error = error
        info.history.append(error)
        if error < config.tolerance:
            info.converged = True
            break
        if val_peak == 0.0:
            break            # an all-zero truth shows no error, so no convergence
        stalled = error > 0.7 * prev_error
        prev_error = min(prev_error, error)
        if stalled:
            grown = False
            if config.rank_adaptive:
                for n in range(1, d):
                    cap = int(min(
                        config.max_rank,
                        np.prod([float(m) for m in shape[n:]]),
                        np.prod([float(m) for m in shape[:n]]),
                    ))
                    grow = cap - right[n].shape[0]
                    if grow > 0:
                        right[n] = _random_suffixes(
                            shape, n, min(2, grow), rng, existing=right[n]
                        )
                        for k, t in enumerate(factors):
                            rface[k][n] = tt_right_interface(t, right[n])
                        grown = True
            if not grown:
                break        # stable at the rank cap: return best effort

    info.ranks = tt.ranks
    return tt, info
