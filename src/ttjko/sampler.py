"""Sampling a fitted model by integrating the induced particle dynamics.

Per proximal step, each particle follows the deterministic drift
``beta * grad(log eta - log eta_hat)`` over the first ``(1 - eps) T`` of
the step and the stochastic dynamics ``2 beta * grad(log eta)`` with
diffusion ``sqrt(2 beta)`` over the final ``eps T`` (fixed-step
Euler-Maruyama).  The short noisy tail dislodges particles that the
pure drift would leave stuck in low-probability regions.

The time-dependent potentials are materialized on a geometric time
sub-grid (one semigroup application per node, rank-preserving) and
linearly interpolated in time; off-grid space evaluation is multilinear
through the TT cores.  Particles are fully independent: per-particle
adaptive step control and per-particle RNG streams derived from the
master seed by counter splitting, so results are bitwise reproducible
and independent of batch composition.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import FlowModel
from .fixed_point import StepState
from .grid import Grid, gradient_matrix
from .heat import HeatPropagator

_DOPRI_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DOPRI_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DOPRI_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DOPRI_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                      -92097 / 339200, 187 / 2100, 1 / 40])

_VALUE_FLOOR = 1e-300


@dataclass
class SamplerConfig:
    epsilon_sde: float = 0.01       # fraction of each step integrated stochastically
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    n_em_steps: int = 20
    n_time_nodes: int = 32
    max_ode_rounds: int = 20000
    min_step_fraction: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.epsilon_sde <= 1.0:
            raise ValueError("epsilon_sde must lie in [0, 1]")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.n_em_steps < 1:
            raise ValueError("n_em_steps must be >= 1")


@dataclass
class Ensemble:
    positions: np.ndarray
    clamped: np.ndarray
    rescued: np.ndarray
    unfinished: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.unfinished is None:
            self.unfinished = np.zeros(self.positions.shape[0], dtype=bool)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def save(self, path) -> None:
        path = Path(path)
        d = self.positions.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{k}" for k in range(d)])
            for row in self.positions:
                writer.writerow([repr(float(v)) for v in row])
        sidecar = dict(self.meta)
        sidecar["n_clamped"] = int(self.clamped.sum())
        sidecar["n_rescued"] = int(self.rescued.sum())
        sidecar["n_unfinished"] = int(self.unfinished.sum())
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)


def _time_fractions(n_nodes: int, edge: float = 1e-4) -> np.ndarray:
    """Fractions of [0, 1] geometrically clustered toward both endpoints,
    where the semigroup-propagated potentials vary fastest."""
    half = max(n_nodes // 2, 3)
    left = np.geomspace(edge, 0.5, half)
    fracs = np.concatenate([[0.0], left, 1.0 - left[::-1], [1.0]])
    return np.unique(fracs)


class StepDynamics:
    """Drift evaluator for one proximal step.

    Precomputes, on the time sub-grid, the forward-propagated terminal
    potential and the propagated initial dual potential together with
    their finite-difference gradients (one differentiated core per
    axis), then evaluates values and log-gradients at arbitrary
    (t, position) batches.
    """

    def __init__(self, state: StepState, grid: Grid, config: SamplerConfig):
        self.state = state
        self.grid = grid
        self.beta = state.beta
        self.T = state.T
        self.tau = _time_fractions(config.n_time_nodes) * state.T
        diff = [gradient_matrix(grid, k) for k in range(grid.d)]
        eta_nodes = []
        hat_nodes = []
        for t in self.tau:
            eta_nodes.append(HeatPropagator(grid, self.beta * (self.T - t))
                             .apply(state.eta_T))
            hat_nodes.append(HeatPropagator(grid, self.beta * t)
                             .apply(state.eta_hat_0))
        self._eta = self._stack(eta_nodes, diff)
        self._hat = self._stack(hat_nodes, diff)

    @staticmethod
    def _stack(tensors, diff):
        d = tensors[0].d
        vals, grads = [], []
        for n in range(d):
            stack = np.stack([t.cores[n] for t in tensors])        # (K, r1, N, r2)
            vals.append(stack)
            grads.append(np.einsum("ij,kajb->kaib", diff[n], stack, optimize=True))
        return vals, grads

    def _cells(self, x):
        g = self.grid
        xc = np.clip(x, g.lower, g.upper)
        pos = (xc - g.lower) / g.spacings
        cell = np.minimum(pos.astype(np.intp), np.asarray(g.nodes) - 2)
        return cell, pos - cell

    def _field_at_node(self, stacks, node_idx, cell, w):
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

    def _log_grad(self, stacks, t, x):
        t = np.minimum(np.maximum(t, 0.0), self.T)
        k = np.searchsorted(self.tau, t, side="right") - 1
        k = np.clip(k, 0, self.tau.size - 2)
        lam = (t - self.tau[k]) / (self.tau[k + 1] - self.tau[k])
        cell, w = self._cells(x)
        v0, g0 = self._field_at_node(stacks, k, cell, w)
        v1, g1 = self._field_at_node(stacks, k + 1, cell, w)
        value = v0 + lam * (v1 - v0)
        grad = g0 + lam[:, None] * (g1 - g0)
        return grad / np.maximum(value, _VALUE_FLOOR)[:, None]

    def grad_log_eta(self, t, x):
        return self._log_grad(self._eta, np.asarray(t, dtype=float),
                              np.atleast_2d(x))

    def grad_log_eta_hat(self, t, x):
        return self._log_grad(self._hat, np.asarray(t, dtype=float),
                              np.atleast_2d(x))

    def ode_drift(self, t, x) -> np.ndarray:
        """Deterministic transport velocity beta * grad(log eta - log eta_hat)."""
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(x)
        if t.ndim == 0:
            t = np.full(x.shape[0], float(t))
        return self.beta * (self._log_grad(self._eta, t, x)
                            - self._log_grad(self._hat, t, x))

    def sde_drift(self, t, x) -> np.ndarray:
        """Drift of the stochastic dynamics, 2 beta * grad log eta."""
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(x)
        if t.ndim == 0:
            t = np.full(x.shape[0], float(t))
        return 2.0 * self.beta * self._log_grad(self._eta, t, x)

    @property
    def diffusion(self) -> float:
        return float(np.sqrt(2.0 * self.beta))


def _reflect(x: np.ndarray, grid: Grid) -> np.ndarray:
    width = grid.upper - grid.lower
    y = np.mod(x - grid.lower, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return grid.lower + y


def _integrate_ode(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
                   config: SamplerConfig, rescue_noise):
    """Per-particle adaptive Dormand-Prince integration of the drift ODE.

    Every particle carries its own time and step size; particles whose
    step size underflows are handed to ``rescue_noise`` (an
    Euler-Maruyama fallback on the remaining window) and flagged.
    Particles still short of ``t1`` when the round budget runs out are
    left where they are and flagged unfinished.
    """
    m, d = x.shape
    span = t1 - t0
    if span <= 0:
        return np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    t = np.full(m, t0)
    h = np.full(m, span / 16.0)
    active = np.ones(m, dtype=bool)
    rescued = np.zeros(m, dtype=bool)

    for _ in range(config.max_ode_rounds):
        if not np.any(active):
            break
        ids = np.nonzero(active)[0]
        xs = x[ids]
        ts = t[ids]
        hs = np.minimum(h[ids], t1 - ts)
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
            k[s] = dyn.ode_drift(ts + _DOPRI_C[s] * hs, xi)
        x5 = xs + hs[:, None] * combine(_DOPRI_B5, k)
        x4 = xs + hs[:, None] * combine(_DOPRI_B4, k)
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xs), np.abs(x5))
        err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2, axis=1))
        accept = err <= 1.0
        ts_new = np.where(accept, ts + hs, ts)
        xs = np.where(accept[:, None], x5, xs)
        with np.errstate(divide="ignore"):
            factor = 0.9 * err ** (-0.2)
        factor = np.clip(np.where(np.isfinite(factor), factor, 5.0), 0.2, 5.0)
        hs_next = hs * factor

        x[ids] = xs
        t[ids] = ts_new
        h[ids] = hs_next
        done = ts_new >= t1 * (1.0 - 1e-14) - 1e-300
        under = hs_next < config.min_step_fraction * span
        for j in np.nonzero(under & ~done)[0]:
            pid = ids[j]
            x[pid] = _em_single(dyn, x[pid], t[pid], t1, config.n_em_steps,
                                rescue_noise(pid))
            rescued[pid] = True
        active[ids] = ~(done | under)
    return rescued, active.copy()


def _em_single(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
               n_steps: int, noise: np.ndarray) -> np.ndarray:
    x = x[None, :].copy()
    dt = (t1 - t0) / n_steps
    amp = dyn.diffusion * np.sqrt(dt)
    for j in range(n_steps):
        x = x + dt * dyn.sde_drift(np.array([t0 + j * dt]), x) + amp * noise[j][None, :]
        x = _reflect(x, dyn.grid)
    return x[0]


def _integrate_em(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
                  n_steps: int, noise: np.ndarray) -> np.ndarray:
    """Shared-clock Euler-Maruyama with reflecting box faces."""
    dt = (t1 - t0) / n_steps
    amp = dyn.diffusion * np.sqrt(dt)
    t = np.full(x.shape[0], t0)
    for j in range(n_steps):
        x = x + dt * dyn.sde_drift(t, x) + amp * noise[:, j]
        x = _reflect(x, dyn.grid)
        t = t + dt
    return x


def sample(model: FlowModel, n: int, config: SamplerConfig | None = None,
           seed: int = 0, force: bool = False) -> Ensemble:
    """Draw an ensemble of approximate samples from the fitted model.

    Initial positions are exact draws from the model's truncated
    Gaussian initial density; each proximal step is then integrated per
    particle.  Identical (model, n, config, seed) produce bitwise
    identical ensembles.
    """
    if config is None:
        config = SamplerConfig()
    if not model.converged and not force:
        raise ValueError("model has unconverged steps; pass force=True to sample anyway")
    grid = model.grid
    d = grid.d
    n_steps = len(model.steps)

    gens = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i in range(n)]
    uniforms = np.stack([g.uniform(size=d) for g in gens]) if n else np.zeros((0, d))
    em_noise = np.stack([
        g.standard_normal((n_steps, config.n_em_steps, d)) for g in gens
    ]) if n else np.zeros((0, n_steps, config.n_em_steps, d))

    x = model.initial.sample_from_uniforms(uniforms, grid) if n else np.zeros((0, d))
    rescued = np.zeros(n, dtype=bool)
    unfinished = np.zeros(n, dtype=bool)
    for k, state in enumerate(model.steps):
        dyn = StepDynamics(state, grid, config)
        t_switch = (1.0 - config.epsilon_sde) * state.T
        if t_switch > 0 and n:
            def rescue_noise(pid):
                return gens[pid].standard_normal((config.n_em_steps, d))

            resc, unfin = _integrate_ode(dyn, x, 0.0, t_switch, config, rescue_noise)
            rescued |= resc
            unfinished |= unfin
        if config.epsilon_sde > 0 and n:
            x = _integrate_em(dyn, x, t_switch, state.T, config.n_em_steps,
                              em_noise[:, k])

    clamped = np.any((x < grid.lower) | (x > grid.upper), axis=1) if n else np.zeros(0, bool)
    x = grid.clamp(x) if n else x
    return Ensemble(
        positions=x, clamped=clamped, rescued=rescued, unfinished=unfinished,
        meta={"n": n, "seed": seed, "epsilon_sde": config.epsilon_sde,
              "n_em_steps": config.n_em_steps, "rel_tol": config.rel_tol,
              "abs_tol": config.abs_tol, "steps": n_steps},
    )
