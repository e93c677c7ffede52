"""Independent brute-force references used only by the tests.

Nothing here touches the production TT/cross code paths: heat steps use
dense eigendecompositions, transport uses assignment enumeration, and
KL values come from quadrature or closed forms.  ``reference_maxvol``
is the original maxvol built on the validating ``scipy.linalg``
wrappers, kept to pin the pivots of the production version.
``reference_log_grad`` is the original per-node sampler drift kernel
(one gather and one reduction per axis, time node and potential), kept
to pin the drift of the production single-pass kernel, and
``reference_integrate_ode`` the Dormand-Prince loop that evaluates all
seven stages every round, kept to pin the positions of the production
loop that reuses its first stage.  ``reference_interpolate_batch`` is
the original row-wise interpolation (one ``matmul`` chain step per
axis), kept to pin the shared off-grid kernel.  ``reference_entropic_ot``
is the original log-domain Sinkhorn (two full-matrix logsumexps per
iteration), kept to pin the values and convergence flags of the
production stabilised scaling iteration.  ``reference_picard_solve`` is
the plain relaxed (Picard) iteration of one proximal step, with or
without the gauge fix, built from the production cycle, kept to
measure the Anderson solver against.  ``reference_truncated_normal`` is
the original inverse-CDF draw of the initial density built on
``scipy.special``, kept to pin the stdlib one.
``reference_metropolis_hastings`` is the original MH loop (a fresh
proposal array per step, a list of kept states stacked at the end and
``tau`` computed at once), kept to pin the chains of the production
loop over preallocated buffers, and ``reference_mixture_density`` the
original ``(M, K, d)`` broadcast mixture density, kept to pin the
points-last one.  ``tt_from_full``, ``tt_to_full``, ``tt_random`` and
``tt_norm`` build and materialize the small TTs the tests compare
against dense arrays; ``tt_from_full`` truncates by the rank rule
``_chop`` of the production ``tt_round``.
"""

import itertools
from dataclasses import replace
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.special

from ttjko.diagnostics import ACCEPTANCE_BAND, MHConfig, integrated_autocorr
from ttjko.tt import TTTensor, _chop, tt_inner

#: refuse to materialize tensors above this many elements
SIZE_CAP = 10**7


def tt_random(shape: Sequence[int], rank: int, rng: np.random.Generator) -> TTTensor:
    """Random TT with inner ranks ``rank`` (clipped near the boundary)."""
    d = len(shape)
    ranks = [1] + [int(rank)] * (d - 1) + [1]
    cores = [rng.standard_normal((ranks[n], int(shape[n]), ranks[n + 1])) for n in range(d)]
    return TTTensor(cores, copy=False)


def tt_from_full(dense: np.ndarray, tolerance: float = 0.0) -> TTTensor:
    """Compress a dense array by successive SVDs (TT-SVD).

    The round-trip relative Frobenius error is at most ``tolerance``.
    """
    a = np.asarray(dense, dtype=float)
    if a.ndim == 0:
        raise ValueError("input must have at least one axis")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    shape = a.shape
    d = len(shape)
    norm = np.linalg.norm(a)
    delta = tolerance * norm / np.sqrt(max(d - 1, 1))
    cores = []
    r_prev = 1
    mat = a.reshape(r_prev * shape[0], -1)
    for n in range(d - 1):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = _chop(s, delta, s.size)
        cores.append(u[:, :r].reshape(r_prev, shape[n], r))
        mat = (s[:r, None] * vt[:r]).reshape(r * shape[n + 1], -1)
        r_prev = r
    cores.append(mat.reshape(r_prev, shape[-1], 1))
    return TTTensor(cores, copy=False)


def tt_to_full(t: TTTensor, size_cap: int = SIZE_CAP) -> np.ndarray:
    """Materialize as a dense array; refuses above ``size_cap`` elements."""
    if t.size > size_cap:
        raise ValueError(
            f"refusing to materialize {t.size} elements (cap {size_cap}); "
            "raise size_cap explicitly if this is intended"
        )
    out = t.cores[0].reshape(t.shape[0], -1)
    for core in t.cores[1:]:
        r1, n, r2 = core.shape
        out = out @ core.reshape(r1, n * r2)
        out = out.reshape(-1, r2)
    return out.reshape(t.shape)


def tt_norm(t: TTTensor) -> float:
    return float(np.sqrt(max(tt_inner(t, t), 0.0)))


def reference_maxvol(a: np.ndarray, tol: float = 1.05, max_iters: int = 200) -> np.ndarray:
    """Rows of a quasi-dominant r x r submatrix of a tall n x r matrix."""
    a = np.asarray(a, dtype=float)
    n, r = a.shape
    if n == r:
        return np.arange(n)
    _, piv = scipy.linalg.lu_factor(a, check_finite=False)
    ind = np.arange(n)
    for k in range(r):
        p = piv[k]
        if p != k:
            ind[[k, p]] = ind[[p, k]]
    ind = ind[:r].copy()
    try:
        b = scipy.linalg.solve(a[ind].T, a.T, check_finite=False).T
    except scipy.linalg.LinAlgError:
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


def reference_truncated_normal(mean, std, lower, upper, u: np.ndarray) -> np.ndarray:
    """Map (n, d) uniforms to draws of N(mean, std^2) truncated to [lower, upper]."""
    a = scipy.special.ndtr((lower - mean) / std)
    b = scipy.special.ndtr((upper - mean) / std)
    return mean + std * scipy.special.ndtri(a + u * (b - a))


def reference_stacks(tensors, grid):
    """Per-axis value and finite-difference gradient cores of the time-node
    tensors of one potential, stacked over the nodes: (K, r1, N, r2)."""
    from ttjko.grid import gradient_matrix
    vals, grads = [], []
    for n in range(tensors[0].d):
        stack = np.stack([t.cores[n] for t in tensors])
        vals.append(stack)
        grads.append(np.einsum("ij,kajb->kaib", gradient_matrix(grid, n), stack,
                               optimize=True))
    return vals, grads


def _reference_field_at_node(stacks, node_idx, cell, w):
    """Value and gradient of one potential at one time node per particle."""
    val_cores, grad_cores = stacks
    d = len(val_cores)
    m = node_idx.shape[0]
    slabs_v, slabs_g = [], []
    for n in range(d):
        lo = val_cores[n][node_idx, :, cell[:, n], :]
        hi = val_cores[n][node_idx, :, cell[:, n] + 1, :]
        slabs_v.append(lo + w[:, n][:, None, None] * (hi - lo))
        lo = grad_cores[n][node_idx, :, cell[:, n], :]
        hi = grad_cores[n][node_idx, :, cell[:, n] + 1, :]
        slabs_g.append(lo + w[:, n][:, None, None] * (hi - lo))
    # multiply+sum (not matmul): the reduction pattern then depends only
    # on the rank axis, so results are bitwise independent of batch size
    prefix = [np.ones((m, 1))]
    for n in range(d):
        prefix.append(np.sum(prefix[-1][:, :, None] * slabs_v[n], axis=1))
    suffix = [np.ones((m, 1))]
    for n in range(d - 1, -1, -1):
        suffix.append(np.sum(slabs_v[n] * suffix[-1][:, None, :], axis=2))
    suffix = suffix[::-1]
    value = prefix[d][:, 0]
    grad = np.empty((m, d))
    for n in range(d):
        mid = np.sum(prefix[n][:, :, None] * slabs_g[n], axis=1)
        grad[:, n] = np.sum(mid * suffix[n + 1], axis=1)
    return value, grad


def reference_log_grad(stacks, tau, T, grid, t, x, floor=1e-300):
    """grad log of one potential at (t, x), linear in time between the
    nodes ``tau`` and multilinear in space; ``stacks`` from
    ``reference_stacks``."""
    t = np.minimum(np.maximum(t, 0.0), T)
    k = np.searchsorted(tau, t, side="right") - 1
    k = np.clip(k, 0, tau.size - 2)
    lam = (t - tau[k]) / (tau[k + 1] - tau[k])
    xc = np.clip(x, grid.lower, grid.upper)
    pos = (xc - grid.lower) / grid.spacings
    cell = np.minimum(pos.astype(np.intp), np.asarray(grid.nodes) - 2)
    w = pos - cell
    v0, g0 = _reference_field_at_node(stacks, k, cell, w)
    v1, g1 = _reference_field_at_node(stacks, k + 1, cell, w)
    value = v0 + lam * (v1 - v0)
    grad = g0 + lam[:, None] * (g1 - g0)
    return grad / np.maximum(value, floor)[:, None]


def _reference_cell_weights(grid, x):
    """Cell indices and barycentric weights of (possibly clamped) points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    clamped = np.any((x < grid.lower) | (x > grid.upper), axis=1)
    xc = grid.clamp(x)
    h = grid.spacings
    pos = (xc - grid.lower) / h
    cell = np.minimum(pos.astype(np.intp), np.asarray(grid.nodes) - 2)
    w = pos - cell
    return cell, w, clamped


def reference_interpolate_batch(t, grid, x):
    """Multilinear interpolation at points (M, d), one row-wise chain step
    per axis; returns ``(values, clamped)``."""
    if tuple(t.shape) != grid.shape:
        raise ValueError(f"tensor shape {t.shape} does not match grid {grid.shape}")
    for core in t.cores:
        if not np.all(np.isfinite(core)):
            raise ValueError("tensor cores contain non-finite values")
    cell, w, clamped = _reference_cell_weights(grid, x)
    v = None
    for n, core in enumerate(t.cores):
        lo = core[:, cell[:, n], :]
        hi = core[:, cell[:, n] + 1, :]
        slab = lo + w[:, n][None, :, None] * (hi - lo)
        if v is None:
            v = slab[0].copy()          # (M, r)
        else:
            v = np.matmul(v[:, None, :], slab.transpose(1, 0, 2))[:, 0, :]
    return v[:, 0], clamped


def reference_integrate_ode(dyn, x, t0, t1, config, rescue_noise):
    """Per-particle adaptive Dormand-Prince integration of ``dyn.ode_drift``,
    seven drift evaluations per round, with the sampler's rule that every
    step ends at or before the next time node; returns (rescued, unfinished)."""
    from ttjko.sampler import (_DOPRI_A, _DOPRI_B4, _DOPRI_B5, _MIN_FACTOR,
                               MAX_ODE_ROUNDS, MIN_STEP_FRACTION, _integrate_em,
                               _stop_at_nodes)
    m, d = x.shape
    span = t1 - t0
    if span <= 0:
        return np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    t = np.full(m, t0)
    h = np.full(m, span / 16.0)
    active = np.ones(m, dtype=bool)
    rescued = np.zeros(m, dtype=bool)
    for _ in range(MAX_ODE_ROUNDS):
        if not np.any(active):
            break
        ids = np.nonzero(active)[0]
        xs = x[ids]
        ts = t[ids]
        hs, times, on_node = _stop_at_nodes(dyn.tau, ts, np.minimum(h[ids], t1 - ts))
        k = np.empty((7, ids.size, d))

        def combine(coeffs, stages):
            acc = np.zeros((ids.size, d))
            for c, ks in zip(coeffs, stages):
                if c != 0.0:
                    acc = acc + c * ks
            return acc

        for s in range(7):
            xi = xs.copy()
            if s > 0:
                xi = xs + hs[:, None] * combine(_DOPRI_A[s], k[:s])
            k[s] = dyn.ode_drift(times[s], xi)
        x5 = xs + hs[:, None] * combine(_DOPRI_B5, k)
        x4 = xs + hs[:, None] * combine(_DOPRI_B4, k)
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xs), np.abs(x5))
        err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2, axis=1))
        accept = err <= 1.0
        ts_new = np.where(accept, times[6], ts)
        xs = np.where(accept[:, None], x5, xs)
        with np.errstate(divide="ignore"):
            factor = 0.9 * err ** (-0.2)
        factor = np.clip(np.where(np.isfinite(factor), factor, 5.0), _MIN_FACTOR, 5.0)
        # a step that ended on a node shrinks the next one no more than a
        # rejection could
        hs_next = np.where(accept & on_node,
                           np.maximum(hs * factor, _MIN_FACTOR * h[ids]), hs * factor)
        x[ids] = xs
        t[ids] = ts_new
        h[ids] = hs_next
        done = ts_new >= t1 * (1.0 - 1e-14) - 1e-300
        under = hs_next < MIN_STEP_FRACTION * span
        for j in np.nonzero(under & ~done)[0]:
            pid = ids[j]
            x[pid] = _integrate_em(dyn, x[pid:pid + 1], t[pid], t1, config.n_em_steps,
                                   rescue_noise(pid)[None])[0]
            rescued[pid] = True
        active[ids] = ~(done | under)
    return rescued, active.copy()


def reference_picard_solve(rho_prev, rho_inf, grid, T, beta, config, q=1.0,
                           rng=None, gauge=False):
    """Relaxed Picard iteration ``x <- q G(x) + (1 - q) x`` of one proximal
    step's cycle G, with ``solve_step``'s validation set, warm starts,
    relative residual, truncation and stopping rule; returns the
    ``StepState``.  With ``gauge`` it fixes the scale as ``solve_step``
    does: after each residual, ``G(x)`` is divided by its least-squares
    scale ``s`` against ``x`` and the log-scale moves by
    ``ln(s) (1 + 2 beta)``; without it (the paper's iteration) the
    log-scale stays 0."""
    from ttjko.cross import validation_indices
    from ttjko.fixed_point import StepState, cycle
    from ttjko.tt import tt_axpy, tt_inner, tt_ones, tt_round, tt_scale
    if rng is None:
        rng = np.random.default_rng(0)
    x = tt_ones(grid.shape)
    validation = validation_indices(grid.shape, config.cross, rng)
    history = []
    converged = False
    log_scale = 0.0
    result = last_finite = None
    for _ in range(config.max_iters):
        result = cycle(x, rho_prev, rho_inf, grid, T, beta, config, warm=result,
                       rng=rng, validation=validation, log_scale=log_scale)
        g = result.eta_new
        with np.errstate(over="ignore", invalid="ignore"):
            r = tt_axpy(-1.0, x, g)
            r_norm_sq = max(tt_inner(r, r), 0.0)
            x_norm_sq = max(tt_inner(x, x), 0.0)
            g_dot_x = tt_inner(g, x)
        x_norm = np.sqrt(x_norm_sq)
        residual = np.sqrt(r_norm_sq) / x_norm if x_norm > 0 else np.inf
        history.append(residual)
        if not np.isfinite(residual):
            break
        last_finite = (result, log_scale)
        if residual < config.tolerance:
            converged = True
            break
        if gauge:
            s = g_dot_x / x_norm_sq
            log_scale += float(np.log(s)) * (1.0 + 2.0 * beta)
            g = tt_scale(g, 1.0 / s)
        if gauge and q == 1.0:
            x_next = g                  # solve_step's plain step, bit for bit
        else:
            x_next = tt_axpy(q, g, tt_scale(x, 1.0 - q))
        x = tt_round(x_next, config.trunc_tol, config.cross.max_rank)
    if last_finite is not None:
        result, log_scale = last_finite
    return StepState(
        eta_T=result.eta_new, eta_hat_0=result.eta_hat_0,
        eta_hat_T=result.eta_hat_T, T=float(T), beta=float(beta),
        converged=converged, iters=len(history), residual_history=history,
        log_scale=log_scale,
    )


def dense_heat_factor(n: int, h: float, s: float) -> np.ndarray:
    """exp(s * D) for the no-flux second-difference matrix, via eigh."""
    d_mat = np.zeros((n, n))
    idx = np.arange(n)
    d_mat[idx, idx] = -2.0
    d_mat[idx[:-1], idx[:-1] + 1] = 1.0
    d_mat[idx[1:], idx[1:] - 1] = 1.0
    d_mat[0, 0] = d_mat[-1, -1] = -1.0
    d_mat /= h**2
    w, v = np.linalg.eigh(d_mat)
    return (v * np.exp(s * w)) @ v.T


def dense_heat_apply(field: np.ndarray, spacings, s: float) -> np.ndarray:
    """Apply the separable heat semigroup to a dense grid function."""
    if field.size > SIZE_CAP:
        raise ValueError("dense field too large")
    out = field
    for axis in range(field.ndim):
        e = dense_heat_factor(field.shape[axis], float(spacings[axis]), s)
        out = np.moveaxis(np.tensordot(e, out, axes=(1, axis)), 0, axis)
    return out


def dense_cycle(eta: np.ndarray, rho_prev: np.ndarray, rho_inf: np.ndarray,
                spacings, T: float, beta: float) -> dict:
    """All four stages of one fixed-point pass, densely, for d <= 2."""
    if eta.ndim > 2:
        raise ValueError("dense cycle oracle is limited to d <= 2")
    s = beta * T
    eta_0 = dense_heat_apply(eta, spacings, s)
    eta_hat_0 = rho_prev / eta_0
    eta_hat_T = dense_heat_apply(eta_hat_0, spacings, s)
    gamma = 1.0 / (1.0 + 2.0 * beta)
    eta_new = (rho_inf / eta_hat_T) ** gamma
    return {
        "eta_0": eta_0, "eta_hat_0": eta_hat_0, "eta_hat_T": eta_hat_T,
        "eta_new": eta_new,
    }


def dense_picard(eta0: np.ndarray, rho_prev: np.ndarray, rho_inf: np.ndarray,
                 spacings, T: float, beta: float, n_iters: int, q: float = 1.0):
    """Relaxed Picard iterates of the dense cycle; returns every iterate."""
    eta = eta0
    iterates = []
    for _ in range(n_iters):
        stages = dense_cycle(eta, rho_prev, rho_inf, spacings, T, beta)
        eta = q * stages["eta_new"] + (1.0 - q) * eta
        iterates.append(eta)
    return iterates


def exact_ot_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared 2-Wasserstein between equal-size point sets by
    enumerating assignments (at most 10 points per side)."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ValueError("equal sizes required")
    if n > 10:
        raise ValueError("enumeration oracle capped at 10 points")
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[range(n), perm].sum())
    return best / n


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xx = (x**2).sum(axis=1)[:, None]
    yy = (y**2).sum(axis=1)[None, :]
    return np.maximum(xx + yy - 2.0 * x @ y.T, 0.0)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def reference_entropic_ot(x: np.ndarray, y: np.ndarray, epsilon: float,
                          max_iters: int = 2000, threshold: float = 1e-6):
    """Entropic transport cost between uniform empirical measures.

    Returns the primal objective (quadratic cost plus epsilon times the
    KL of the plan to the product measure) and a convergence flag.
    Log-domain iterations with epsilon annealing, so small epsilon is
    both safe and affordable.
    """
    # canonical argument order: the cost is symmetric, but the alternating
    # dual updates are not at finite convergence, so fix the roles by content
    swap = (y.shape[0], y.tobytes()) < (x.shape[0], x.tobytes())
    if swap:
        x, y = y, x
    n, m = x.shape[0], y.shape[0]
    c = _sq_dists(x, y)
    log_mu = -np.log(n)
    log_nu = -np.log(m)
    f = np.zeros(n)
    g = np.zeros(m)

    def update(eps):
        nonlocal f, g
        f_new = -eps * (_logsumexp((g[None, :] - c) / eps + log_nu, axis=1))
        g_new = -eps * (_logsumexp((f_new[:, None] - c) / eps + log_mu, axis=0))
        delta = max(np.max(np.abs(f_new - f)), np.max(np.abs(g_new - g)))
        f, g = f_new, g_new
        return delta

    # annealed regularization: a couple of updates per level keeps the duals
    # warm all the way down, then polish at the target epsilon
    start = max(float(np.median(c)), epsilon)
    n_levels = max(int(np.ceil(np.log(start / epsilon) / np.log(1.0 / 0.7))), 0)
    used = 0
    for eps in start * 0.7 ** np.arange(n_levels):
        for _ in range(2):
            update(eps)
            used += 1
    converged = False
    while used < max_iters:
        used += 1
        if update(epsilon) < threshold:
            converged = True
            break
    log_pi = (f[:, None] + g[None, :] - c) / epsilon + log_mu + log_nu
    pi = np.exp(log_pi)
    cost = float((pi * c).sum())
    kl = float((pi * (log_pi - log_mu - log_nu)).sum())
    return cost + epsilon * kl, converged


def reference_mixture_density(mixture, x: np.ndarray) -> np.ndarray:
    """Gaussian mixture density by one ``(M, K, d)`` broadcast, summed
    along its last axes."""
    x = np.atleast_2d(x)
    norm = (2.0 * np.pi * mixture.var) ** (mixture.dim / 2.0)
    sq = ((x[:, None, :] - mixture.means[None, :, :]) ** 2).sum(axis=2)
    return (mixture.weights * np.exp(-0.5 * sq / mixture.var)).sum(axis=1) / norm


def reference_metropolis_hastings(density, d: int, config, rng: np.random.Generator,
                                  log_density=None) -> dict:
    """Random-walk MH that keeps a list of state copies, stacks them and
    computes ``tau`` at once; its pilot runs for ``auto_tune`` are its own."""
    if log_density is None:
        def log_density(x):
            with np.errstate(divide="ignore"):
                return np.log(np.asarray(density(x), dtype=float))

    cfg = config
    if cfg.auto_tune:
        cfg = _reference_tune_proposal(density, d, cfg, rng, log_density)

    x = cfg.init_std * rng.standard_normal((cfg.n_chains, d))
    logp = np.asarray(log_density(x), dtype=float)
    if np.all(np.isneginf(logp)):
        raise ValueError("target density is zero at every initial point")
    keep_from = int(cfg.burn_in * cfg.n_steps)
    kept = []
    accepted = 0
    with np.errstate(invalid="ignore"):
        for step in range(cfg.n_steps):
            prop = x + cfg.proposal_std * rng.standard_normal((cfg.n_chains, d))
            logp_prop = np.asarray(log_density(prop), dtype=float)
            logu = np.log(rng.uniform(size=cfg.n_chains))
            accept = logu < (logp_prop - logp)
            x = np.where(accept[:, None], prop, x)
            logp = np.where(accept, logp_prop, logp)
            accepted += int(accept.sum())
            if step >= keep_from and (step - keep_from) % cfg.thin == 0:
                kept.append(x.copy())
    chains = np.stack(kept, axis=1)
    taus = [cfg.thin * integrated_autocorr(chains[:, :, j]) for j in range(d)]
    return {
        "chains": chains,
        "acceptance_rate": accepted / (cfg.n_chains * cfg.n_steps),
        "tau": float(max(taus)),
        "n_calls": cfg.n_chains * cfg.n_steps,
        "proposal_std": cfg.proposal_std,
    }


def _reference_tune_proposal(density, d, config, rng, log_density):
    lo_band, hi_band = ACCEPTANCE_BAND
    std = config.proposal_std
    lo, hi = None, None
    pilot = MHConfig(
        n_chains=min(config.n_chains, 64), n_steps=200, proposal_std=std,
        burn_in=0.0, init_std=config.init_std,
    )
    for _ in range(24):
        pilot.proposal_std = std
        rate = reference_metropolis_hastings(density, d, pilot, rng,
                                             log_density=log_density)["acceptance_rate"]
        if lo_band <= rate <= hi_band:
            break
        if rate > hi_band:
            lo = std
            std = std * 2.0 if hi is None else 0.5 * (std + hi)
        else:
            hi = std
            std = std * 0.5 if lo is None else 0.5 * (std + lo)
    return replace(config, proposal_std=std, auto_tune=False)


def gaussian_kl(m1, v1, m2, v2) -> float:
    """KL(N(m1, diag v1) || N(m2, diag v2)) in closed form."""
    m1, v1 = np.atleast_1d(np.asarray(m1, float)), np.atleast_1d(np.asarray(v1, float))
    m2, v2 = np.atleast_1d(np.asarray(m2, float)), np.atleast_1d(np.asarray(v2, float))
    return float(0.5 * np.sum(v1 / v2 + (m2 - m1) ** 2 / v2 - 1.0 + np.log(v2 / v1)))


def quadrature_kl(p: np.ndarray, q: np.ndarray, weight_vectors) -> float:
    """KL between two nonnegative grid functions after normalizing each."""
    w = weight_vectors[0]
    for v in weight_vectors[1:]:
        w = np.multiply.outer(w, v)
    zp = (p * w).sum()
    zq = (q * w).sum()
    pn = p / zp
    qn = q / zq
    mask = pn > 0
    return float((w[mask] * pn[mask] * np.log(pn[mask] / qn[mask])).sum())


def gaussian_grid(grid_axes, mean, var) -> np.ndarray:
    """Dense normalized diagonal Gaussian on a tensor grid."""
    mean = np.atleast_1d(np.asarray(mean, float))
    var = np.broadcast_to(np.asarray(var, float), mean.shape)
    parts = []
    for k, axis in enumerate(grid_axes):
        z = (axis - mean[k]) ** 2 / var[k]
        parts.append(np.exp(-0.5 * z) / np.sqrt(2 * np.pi * var[k]))
    out = parts[0]
    for p in parts[1:]:
        out = np.multiply.outer(out, p)
    return out


def rejection_sample(density, lower, upper, n: int, rng: np.random.Generator,
                     bound: float | None = None) -> np.ndarray:
    """Exact draws from an unnormalized bounded density on a box."""
    lower = np.atleast_1d(np.asarray(lower, float))
    upper = np.atleast_1d(np.asarray(upper, float))
    d = lower.size
    if bound is None:
        probe = rng.uniform(lower, upper, size=(200000, d))
        bound = 1.5 * float(np.max(density(probe)))
    out = []
    got = 0
    while got < n:
        x = rng.uniform(lower, upper, size=(4096, d))
        u = rng.uniform(0.0, bound, size=4096)
        vals = density(x)
        if np.any(vals > bound):
            raise ValueError("density exceeds the stated bound")
        acc = x[u < vals]
        out.append(acc)
        got += acc.shape[0]
    return np.concatenate(out, axis=0)[:n]
