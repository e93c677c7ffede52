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

The interface matrices are ranks first, ``(rank, set size)``.  Index
sets are nested: each new prefix is a prefix of the previous set
followed by a mode value, and each new suffix a mode value followed by
a suffix of the next set, so every interface is one
:func:`~ttjko.tt.tt_chain_step` from its neighbour's.

Pivots are chosen by maxvol row selection on orthogonalized unfoldings.
Ranks are adaptive and capped by ``CrossConfig.max_rank``.  The right
index sets start as the nested sets of an initial guess, whose first
interfaces cost one chain step per bond and factor, O(d) in all.
Without a guess they start empty and are grown once before the first
sweep.  Growth adds up to two random suffixes to every bond below its
cap; it also runs whenever a sweep stalls on the validation index set,
until every bond reaches the cap.  Random suffixes are the one kind of
set not nested in its neighbour, and only their interfaces are
evaluated from scratch, by :func:`~ttjko.tt.tt_right_interface`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tt import (TTTensor, is_count, tt_block_eval, tt_chain_step, tt_eval,
                 tt_right_interface)

# block singular values below this relative threshold are discarded so that
# maxvol always sees a full-column-rank matrix
_RANK_EPS = 1e-14

#: maxvol stops swapping rows once no entry of the coefficient matrix
#: exceeds this in magnitude, or after MAXVOL_ITERS swaps
MAXVOL_TOL = 1.05
MAXVOL_ITERS = 200

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
    tolerance: float = 1e-7          # relative Frobenius target on validation indices
    max_sweeps: int = 6

    def __post_init__(self):
        if not is_count(self.max_rank, 1):
            raise ValueError("max_rank must be an integer >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if not is_count(self.max_sweeps, 1):
            raise ValueError("max_sweeps must be an integer >= 1")


@dataclass
class CrossInfo:
    n_calls: int = 0
    sweeps: int = 0
    converged: bool = False
    rel_error: float = np.inf        # on the validation index set


def _pivot_rows(a: np.ndarray) -> np.ndarray:
    """The r rows that partial-pivoting elimination over the columns of a
    tall n x r ``a`` moves to the top, in pivot order (``dgetrf``'s pivots).

    Each step takes the first largest residual in the current row order,
    as LAPACK's ``idamax`` does, and scales by the reciprocal pivot, as
    ``dgetf2`` does.  The residual columns still to eliminate are kept as
    the rows of ``w`` and no row of the matrix is moved: ``order`` holds
    the current row order.
    """
    n, r = a.shape
    order = np.arange(n)
    w = a.T
    for k in range(r):
        col = w[0]
        p = k + int(np.abs(col[order[k:]]).argmax())
        row = order[p]
        order[p] = order[k]
        order[k] = row
        pivot = col[row]
        w = w[1:]
        if k + 1 < r and pivot != 0.0:    # a zero column leaves nothing to eliminate
            w = w - w[:, row, None] * (col * (1.0 / pivot))
    return order[:r]


def maxvol(a: np.ndarray) -> np.ndarray:
    """Indices of a quasi-dominant r x r submatrix of a tall n x r matrix.

    Starts from the pivot rows of partial-pivoting elimination and swaps
    one row at a time (at most ``MAXVOL_ITERS``) while some entry of
    ``a @ inv(a[rows])`` exceeds ``MAXVOL_TOL`` in magnitude.  For r = 1
    the first pivot, ``argmax |a|``, is already dominant and is returned
    as is.
    """
    a = np.asarray(a, dtype=float)
    n, r = a.shape
    if n < r:
        raise ValueError(f"need n >= r, got {a.shape}")
    if n == r:
        return np.arange(n)
    if r == 1:
        return np.array([int(np.abs(a[:, 0]).argmax())])
    ind = _pivot_rows(a)
    try:
        b = a @ np.linalg.inv(a[ind])
    except np.linalg.LinAlgError:
        b = np.linalg.lstsq(a[ind].T, a.T, rcond=None)[0].T
    for _ in range(MAXVOL_ITERS):
        i, j = divmod(int(np.abs(b).argmax()), r)
        if abs(b[i, j]) <= MAXVOL_TOL:
            break
        bi = b[i].copy()
        bi[j] -= 1.0
        b -= np.outer(b[:, j], bi) / b[i, j]
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
                     existing: np.ndarray) -> np.ndarray:
    """``existing`` followed by up to ``count`` random suffix multi-indices
    over modes start..d-1, each distinct from the rows before it while
    fewer than 50 * ``count`` draws have been made."""
    tail = [int(n) for n in shape[start:]]
    rows = [existing]
    seen = {tuple(r) for r in existing}
    attempts = 0
    while len(rows) <= count:
        cand = tuple(int(rng.integers(0, n)) for n in tail)
        attempts += 1
        if cand in seen and attempts < 50 * count:
            continue
        seen.add(cand)
        rows.append(np.asarray(cand, dtype=np.intp)[None, :])
        if attempts >= 50 * count and len(seen) >= int(np.prod([min(n, 4) for n in tail])):
            break
    return np.concatenate(rows, axis=0)


def _right_sets_from_guess(guess: TTTensor, max_rank: int) -> tuple[list, list]:
    """Nested right index sets extracted from an existing TT (no oracle calls).

    Returns ``(right, picks)``: suffix ``m`` of ``right[n]`` is the mode
    value ``right[n][m, 0]`` followed by suffix ``picks[n][m]`` of
    ``right[n + 1]``.
    """
    d = guess.d
    right = [None] * (d + 1)
    picks = [None] * (d + 1)
    right[d] = np.zeros((1, 0), dtype=np.intp)
    carry = np.ones((1, 1))
    for n in range(d - 1, 0, -1):
        r1, N, _ = guess.cores[n].shape
        core = guess.cores[n].reshape(r1 * N, -1) @ carry      # (r1 N, rc)
        rc = core.shape[1]
        mat = core.reshape(r1, N * rc).T          # rows ordered (i, suffix slot)
        q = _orth_columns(mat, max_rank)
        rows = maxvol(q)
        i_sel, picks[n] = np.divmod(rows, rc if rc else 1)
        right[n] = np.concatenate(
            [i_sel[:, None].astype(np.intp), right[n + 1][picks[n]]], axis=1
        )
        carry = mat[rows].T                        # (r1, r_sel) interface
    return right, picks


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

    if initial_guess is not None:
        if tuple(initial_guess.shape) != tuple(shape):
            raise ValueError("initial guess shape does not match mode_sizes")
        right, picks = _right_sets_from_guess(initial_guess, config.max_rank)
    else:
        right = [np.zeros((0, d - n), dtype=np.intp) for n in range(d)]
        right.append(np.zeros((1, 0), dtype=np.intp))

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
    # interface matrices of factor k on the index sets, ranks first, both
    # (factors[k].ranks[n], set size): lface[k][n] on the prefixes left[n],
    # rface[k][n] on the suffixes right[n]; each new set extends them by
    # one chain step
    lface = [[one] + [None] * d for _ in factors]
    rface = [[None] * d + [one] for _ in factors]

    def extend_right(n, b_sel):
        """Interfaces on right[n], whose suffix m is the mode value
        right[n][m, 0] followed by suffix b_sel[m] of right[n + 1]."""
        for k, t in enumerate(factors):
            rface[k][n] = tt_chain_step(rface[k][n + 1][:, b_sel],
                                        t.cores[n].transpose(2, 1, 0), right[n][:, 0])

    def grow_right() -> bool:
        """Add up to two random suffixes to every right set below its cap;
        whether any set grew."""
        grown = False
        for n in range(1, d):
            cap = int(min(
                config.max_rank,
                np.prod([float(m) for m in shape[n:]]),
                np.prod([float(m) for m in shape[:n]]),
            ))
            grow = min(2, cap - right[n].shape[0])
            if grow > 0:
                right[n] = _random_suffixes(shape, n, grow, rng, right[n])
                for k, t in enumerate(factors):
                    rface[k][n] = tt_right_interface(t, right[n])
                grown = True
        return grown

    if initial_guess is None:
        grow_right()
    else:
        for n in range(d - 1, 0, -1):
            extend_right(n, picks[n])

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
                lface[k][n + 1] = tt_chain_step(lface[k][n][:, a_sel], t.cores[n], i_sel)
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
            extend_right(n, b_sel)
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
        if error < config.tolerance:
            info.converged = True
            break
        if val_peak == 0.0:
            break            # an all-zero truth shows no error, so no convergence
        stalled = error > 0.7 * prev_error
        prev_error = min(prev_error, error)
        if stalled and not grow_right():
            break            # stable at the rank cap: return best effort

    return tt, info
