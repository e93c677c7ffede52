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
through the TT cores.  Both potentials, their gradients and all time
nodes live in one node table per axis, so a drift evaluation is a
single pass over the axes that contracts both potentials at both
neighbouring time nodes at once, or at the one node its time sits on
(``StepDynamics``); the contraction is the grid module's off-grid
kernel, ``grid.multilinear``.

The drift is therefore smooth in time only between two nodes: its time
derivative jumps at every node.  The ODE is integrated with
``RK4_STEPS`` classical Runge-Kutta steps per node interval, every
interval ending exactly on its node, so that all four stages of a step
see one smooth piece of the drift.  All particles share one time, so
every drift call carries the whole batch and the cost is fixed:
``4 * RK4_STEPS`` drift rows per node interval per particle.  The first
stage of each interval, and the last of each interval that ends on a
node, sit on a node and contract that node alone.

The time nodes, not the integrator, set the sampler's error.  On the
shipped fits, positions from the 32-interval sub-grid lie 2e-2 to 8e-2
(mean per particle) from those of a 256-interval one, while two RK4
steps per interval keep the integrator's own error below a fifth of
that, mean and max; one step per interval does not.

Particles are fully independent: per-particle RNG streams derived from
the master seed by counter splitting, and every reduction of the drift
kernel runs over a rank axis of one row, so results are bitwise
reproducible and independent of batch composition.  ``sample`` runs all
particles as one batch in the calling process, and records per proximal
step the RK4 steps each particle took and the drift rows evaluated in
``Ensemble.meta["trace"]``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import FlowModel
from .fixed_point import StepState
from .grid import Grid, gradient_matrix, multilinear, scratch_size
from .heat import HeatPropagator
from .tt import is_count

_VALUE_FLOOR = 1e-300

#: classical RK4 steps per time-node interval of the ODE window
RK4_STEPS = 2
# the time sub-grid's first interior node, as a fraction of the step
_TIME_EDGE = 1e-4


@dataclass
class SamplerConfig:
    epsilon_sde: float = 0.01       # fraction of each step integrated stochastically
    n_em_steps: int = 20
    # the time sub-grid has n_time_nodes + 1 nodes, n_time_nodes intervals
    n_time_nodes: int = 32

    def __post_init__(self):
        if not 0.0 <= self.epsilon_sde <= 1.0:
            raise ValueError("epsilon_sde must lie in [0, 1]")
        if not is_count(self.n_em_steps, 1):
            raise ValueError("n_em_steps must be an integer >= 1")
        n = self.n_time_nodes
        if not is_count(n, 6) or n % 2:
            raise ValueError("n_time_nodes must be an even integer >= 6 "
                             "(the time sub-grid has n_time_nodes + 1 nodes)")


@dataclass
class Ensemble:
    """Sampled positions, clamped into the grid box, with the particles
    that left it flagged.  ``rescued`` and ``unfinished`` remain for
    callers that count failed particles, and are all False: the
    fixed-step integrator neither hands a particle to another integrator
    nor stops short of a step's end."""

    positions: np.ndarray
    clamped: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def rescued(self) -> np.ndarray:
        return np.zeros_like(self.clamped)

    @property
    def unfinished(self) -> np.ndarray:
        return np.zeros_like(self.clamped)

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
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)


def _time_fractions(n_intervals: int) -> np.ndarray:
    """``n_intervals + 1`` fractions of [0, 1] (``n_intervals`` even)
    geometrically clustered toward both endpoints (from ``_TIME_EDGE``),
    where the semigroup-propagated potentials vary fastest."""
    half = n_intervals // 2
    left = np.geomspace(_TIME_EDGE, 0.5, half)
    fracs = np.concatenate([[0.0], left, 1.0 - left[::-1], [1.0]])
    return np.unique(fracs)


class StepDynamics:
    """Drift evaluator for one proximal step.

    Materializes, on the time sub-grid, the forward-propagated terminal
    potential ``eta`` and the propagated initial dual potential
    ``eta_hat`` with their finite-difference gradients (one
    differentiated core per axis), and keeps them as one node table per
    axis of shape ``(2 value/grad, r1, r2, 2 potentials, K*N)``: the
    potential of smaller rank is zero-padded to the common rank, and
    column ``k*N + i`` holds time node k at grid node i.

    A drift evaluation is one ``grid.multilinear`` pass over the axes,
    for both potentials (``ode_drift``) or for ``eta`` alone through
    exact-rank views of the tables (``sde_drift``), at both neighbouring
    time nodes at once, except at a time on a node: there the
    interpolation weight is 0, the interpolated field is that node's bit
    for bit, and only its columns are contracted.  The kernel checks its
    gather; the evaluator sizes its scratch once, on the first call, for
    both potentials at two time nodes (``grid.scratch_size``), and keeps
    the one scratch the kernel hands back, shared by both drifts.  This
    class keeps the time bookkeeping:
    the node search (one time per call, shared by the whole batch), the
    table columns of the time nodes, and the time interpolation of the
    two node fields, done only after the contraction (a product of
    time-interpolated cores would not be the time-interpolated product).
    Every reduction runs over a rank axis in order, so each row's result
    depends on nothing but that row.
    """

    def __init__(self, state: StepState, grid: Grid, config: SamplerConfig):
        self.state = state
        self.grid = grid
        self.beta = state.beta
        self.T = state.T
        self.tau = _time_fractions(config.n_time_nodes) * state.T
        eta_nodes = [HeatPropagator(grid, self.beta * (self.T - t)).apply(state.eta_T)
                     for t in self.tau]
        hat_nodes = [HeatPropagator(grid, self.beta * t).apply(state.eta_hat_0)
                     for t in self.tau]
        self._tables = [self._node_table(n, eta_nodes, hat_nodes)
                        for n in range(grid.d)]
        self._offsets = np.array([[[0, 1], [size, size + 1]]
                                  for size in grid.nodes])[..., None]     # (d, 2, 2, 1)
        # exact-rank views of eta alone, for the stochastic drift
        self._eta = [tab[:, :a.shape[0], :a.shape[2], :1]
                     for tab, a in zip(self._tables, state.eta_T.cores)]
        self._scratch = None        # grid.multilinear's, sized by the first call

    def _node_table(self, n, eta_nodes, hat_nodes):
        diff = gradient_matrix(self.grid, n)
        potentials = [np.stack([t.cores[n] for t in nodes])          # (K, r1, N, r2)
                      for nodes in (eta_nodes, hat_nodes)]
        r1 = max(p.shape[1] for p in potentials)
        r2 = max(p.shape[3] for p in potentials)
        table = np.zeros((2, r1, r2, 2, self.tau.size * int(self.grid.nodes[n])))
        for j, stack in enumerate(potentials):
            grad = np.einsum("ij,kajb->kaib", diff, stack, optimize=True)
            _, a, _, b = stack.shape
            for v, cores in enumerate((stack, grad)):
                table[v, :a, :b, j] = cores.transpose(1, 3, 0, 2).reshape(a, b, -1)
        return table

    def _log_grad(self, tables, t, x):
        """grad log of each potential in ``tables`` at time ``t`` (one
        scalar for the whole batch) and points ``x``: (d, P, m)."""
        x = np.atleast_2d(x)
        t = min(max(float(t), 0.0), self.T)
        k = min(int(np.searchsorted(self.tau, t, side="right")) - 1, self.tau.size - 2)
        lam = (t - self.tau[k]) / (self.tau[k + 1] - self.tau[k])
        cell, w = self.grid.cells(x)
        # table columns of the lower/upper grid corner at nodes k and k+1,
        # or at node k alone when t is on it: v0 + 0 (v1 - v0) is v0 (up to
        # the sign of a zero)
        offsets = self._offsets if lam else self._offsets[:, :1]
        cols = (k * self.grid.nodes + cell).T[:, None, None, :] + offsets
        if self._scratch is None:
            # sized at once for the two-node layout, which every later
            # call of this batch size fits in
            n_cols = self._offsets[0].size * x.shape[0]
            self._scratch = np.empty(scratch_size(self._tables, n_cols))
        value, grad, self._scratch = multilinear(     # (P, K, m), (d, P, K, m)
            tables, cols, w.T.copy(), self._scratch)
        if lam:
            value = value[:, 0] + lam * (value[:, 1] - value[:, 0])
            grad = grad[:, :, 0] + lam * (grad[:, :, 1] - grad[:, :, 0])
        else:
            value, grad = value[:, 0], grad[:, :, 0]
        return grad / np.maximum(value, _VALUE_FLOOR)

    def ode_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        """Deterministic transport velocity beta * grad(log eta - log eta_hat)."""
        g = self._log_grad(self._tables, t, x)
        return (self.beta * (g[:, 0] - g[:, 1])).T.copy()

    def sde_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        """Drift of the stochastic dynamics, 2 beta * grad log eta."""
        return (2.0 * self.beta * self._log_grad(self._eta, t, x)[:, 0]).T.copy()

    @property
    def diffusion(self) -> float:
        return float(np.sqrt(2.0 * self.beta))


def _reflect(x: np.ndarray, grid: Grid) -> np.ndarray:
    width = grid.upper - grid.lower
    y = np.mod(x - grid.lower, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return grid.lower + y


def _integrate_ode(dyn: StepDynamics, x: np.ndarray, t_end: float):
    """Classical RK4 integration of the drift ODE from time 0 to ``t_end``.

    The window is cut at the time nodes ``dyn.tau`` below ``t_end``, and
    each interval takes ``RK4_STEPS`` equal steps, the last of which ends
    exactly on the interval's upper node (on ``t_end`` for the last
    interval).  The drift interpolates the potentials linearly in time
    between the nodes, so every stage of a step sees one smooth piece of
    it.  All particles share each step's scalar time, so every drift call
    carries the whole batch.  There is no error test: the time nodes, not
    this integrator, set the sampler's error (module docstring).

    Returns the new positions and the step's trace: the RK4 steps each
    particle took and the drift rows evaluated.
    """
    starts = dyn.tau[dyn.tau < t_end]
    ends = np.append(starts[1:], t_end)
    n_steps = RK4_STEPS
    for a, b in zip(starts, ends):
        for j in range(n_steps):
            t0 = a + (b - a) * j / n_steps
            t1 = b if j == n_steps - 1 else a + (b - a) * (j + 1) / n_steps
            h = t1 - t0
            tm = t0 + 0.5 * h
            k1 = dyn.ode_drift(t0, x)
            k2 = dyn.ode_drift(tm, x + (0.5 * h) * k1)
            k3 = dyn.ode_drift(tm, x + (0.5 * h) * k2)
            k4 = dyn.ode_drift(t1, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    steps = n_steps * starts.size
    return x, {"ode_steps": steps, "drift_rows": 4 * steps * x.shape[0]}


def _integrate_em(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
                  n_steps: int, noise: np.ndarray) -> np.ndarray:
    """Euler-Maruyama with reflecting box faces from ``t0`` to ``t1`` in
    ``n_steps`` equal steps; ``noise`` is ``(m, n_steps, d)``."""
    dt = (t1 - t0) / n_steps
    amp = dyn.diffusion * np.sqrt(dt)
    t = t0
    for j in range(n_steps):
        x = x + dt * dyn.sde_drift(t, x) + amp * noise[:, j]
        x = _reflect(x, dyn.grid)
        t = t + dt
    return x


def sample(model: FlowModel, n: int, config: SamplerConfig | None = None,
           seed: int = 0, force: bool = False) -> Ensemble:
    """Draw an ensemble of approximate samples from the fitted model.

    Initial positions are exact draws from the model's truncated
    Gaussian initial density; each proximal step then moves all particles
    together, by fixed RK4 steps on the drift ODE and fixed
    Euler-Maruyama steps on the stochastic tail.  Particle ``i`` draws
    from ``SeedSequence(entropy=seed, spawn_key=(i,))``, so identical
    (model, n, config, seed) produce bitwise identical ensembles, and
    particle ``i`` ends in the same place whatever ``n > i`` is.
    """
    if not is_count(n, 0):
        raise ValueError(f"n must be an integer >= 0, not {n!r}")
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
    trace = []
    for k, state in enumerate(model.steps):
        dyn = StepDynamics(state, grid, config)
        t_switch = (1.0 - config.epsilon_sde) * state.T
        x, step_trace = _integrate_ode(dyn, x, t_switch)
        trace.append(step_trace)
        if config.epsilon_sde > 0:
            x = _integrate_em(dyn, x, t_switch, state.T, config.n_em_steps,
                              em_noise[:, k])
    return Ensemble(
        positions=grid.clamp(x), clamped=grid.outside(x),
        meta={"n": n, "seed": seed, "epsilon_sde": config.epsilon_sde,
              "n_em_steps": config.n_em_steps, "steps": len(model.steps), "trace": trace},
    )
