"""Sampling a fitted model by integrating the induced particle dynamics.

Per proximal step, each particle follows the deterministic drift
``beta * grad(log eta - log eta_hat)`` over the first ``(1 - eps) T`` of
the step and the stochastic dynamics ``2 beta * grad(log eta)`` with
diffusion ``sqrt(2 beta)`` over the final ``eps T`` (fixed-step
Euler-Maruyama).  The short noisy tail dislodges particles that the
pure drift would leave stuck in low-probability regions.

The time-dependent potentials are the heat semigroup applied to the
step's stored tensors, ``eta(t) = exp(beta (T - t) L) eta_T`` and
``eta_hat(t) = exp(beta t L) eta_hat_0``, and it factors per axis
(``heat``).  A drift evaluation builds both potentials' value and
gradient cores at its exact time, and the grid module's off-grid
kernel, ``grid.multilinear``, returns their log-gradients in a single
pass over the axes (``StepDynamics``).  Nothing is interpolated in time.
The cores are built and gathered a run of like axes at a time: the
consecutive axes with the same node count and, per potential, the same
ranks share one table, and one batched product per potential builds
its cores.  Where both potentials have rank 1 at a bond, each is the
product of the blocks on either side, and the kernel takes each
block's log-gradient over that block's value alone: on a rank-1 fit,
each axis's derivative over its own value.  No product over all the
axes is formed, so the drift does not underflow however many axes
there are.

The ODE is integrated with ``RK4_STEPS`` classical Runge-Kutta steps per
interval of a geometric time sub-grid (``n_time_nodes`` intervals,
clustered toward both ends of the step, where the potentials vary
fastest).  All particles share one time, so every drift call carries
the whole batch and the cost is fixed: ``4 * RK4_STEPS`` drift rows per
interval per particle.  The drift being exact in time, the RK4 steps
alone set the sampler's error: on the shipped fits (seed 1, 400
particles) positions lie at most 1.2e-3 to 1.8e-3 from those of 512
intervals of 4 steps each, and one step per interval gives 2.2e-3 to
6.0e-3.

Particles are fully independent: per-particle RNG streams derived from
the master seed by counter splitting, and every reduction of the drift
kernel runs over a rank axis of one row, so results are bitwise
reproducible and independent of batch composition.  ``sample`` runs all
particles as one batch in the calling process.  It records in
``Ensemble.meta`` how the positions were integrated (``n_time_nodes``,
``rk4_steps``, ``epsilon_sde`` and ``n_em_steps``) and, per proximal
step, the RK4 steps each particle took and the drift rows evaluated
(``"trace"``).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from pathlib import Path

import numpy as np

from .driver import FlowModel
from .fixed_point import StepState
from .grid import Grid, gradient_matrix, laplacian_1d, multilinear
from .heat import heat_factor
from .tt import is_count

#: classical RK4 steps per time-node interval of the ODE window
RK4_STEPS = 2
# the time sub-grid's first interior node, as a fraction of the step
_TIME_EDGE = 1e-4


@dataclass
class SamplerConfig:
    epsilon_sde: float = 0.01       # fraction of each step integrated stochastically
    n_em_steps: int = 20
    # the RK4 intervals of the ODE window: the time sub-grid has
    # n_time_nodes + 1 nodes, n_time_nodes intervals
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


def _intervals(tau: np.ndarray, t_end: float):
    """The time-node intervals ``(a, b)`` of ``[0, t_end]``, the last cut at ``t_end``."""
    starts = tau[tau < t_end]
    return zip(starts, np.append(starts[1:], t_end))


def _stage_factors(laps: dict, beta: float, pieces: list) -> dict:
    """Heat factors at every time of a tiling of [0, T] by intervals
    ``(a, b, m)``, each cut into ``m`` equal pieces at
    ``np.linspace(a, b, m + 1)``.

    Maps the time ``j`` of an interval to ``(interval, (m - j, j))``,
    where ``interval`` holds, per axis kind of ``laps``, ``(step, eta_end,
    hat_start)``: the factor of one piece, ``exp(beta (T - b) L)`` and
    ``exp(beta a L)``.  ``eta``'s factor at the time is ``eta_end
    step**(m - j)`` and ``eta_hat``'s ``hat_start step**j``.  A time that
    ends one interval and starts the next is filed under the next.  The
    end factors are products of the pieces' factors, so one
    ``heat_factor`` call per interval and kind gives them all, and every
    factor is entrywise nonnegative.
    """
    intervals = [{} for _ in pieces]
    for kind, lap in laps.items():
        steps = [heat_factor(lap, beta * (b - a) / m) for a, b, m in pieces]
        spans = [np.linalg.matrix_power(step, m) for step, (_, _, m) in zip(steps, pieces)]
        hat = accumulate(spans[:-1], np.matmul, initial=np.eye(len(lap)))
        eta = list(accumulate(spans[:0:-1], np.matmul, initial=np.eye(len(lap))))
        for interval, step, eta_end, hat_start in zip(intervals, steps, eta[::-1], hat):
            interval[kind] = (step, eta_end, hat_start)
    return {t: (interval, (m - j, j)) for (a, b, m), interval in zip(pieces, intervals)
            for j, t in enumerate(np.linspace(a, b, m + 1))}


def _stacked(mats: list) -> np.ndarray:
    """The one matrix of a run of axes that share it, else the run's stack
    ``(g, N, N)``; a batched product takes either, with the same BLAS call
    per axis as one axis's product."""
    return mats[0] if all(m is mats[0] for m in mats) else np.stack(mats)


class StepDynamics:
    """Drift evaluator for one proximal step.

    A drift call at time ``t`` contracts ``eta(t) = exp(beta (T - t) L)
    eta_T`` (and, for ``ode_drift``, ``eta_hat(t) = exp(beta t L)
    eta_hat_0``) at that exact time.  Each axis's value cores are its heat
    factor times the step tensor's core, its gradient cores the difference
    matrix times those.  The axes fall into runs of consecutive axes with
    the same node count and, per potential, the same ranks, and each run
    keeps one table, ``(2 value/grad, r1, r2, P potentials, g axes, N)``,
    the potential of smaller rank zero-padded to the common rank.  At a
    new time a run's cores are one batched ``matmul`` per potential for
    the values and one for the gradients, over the run's ``(g, N, r1
    r2)`` modes, with the run's one factor when its axes share a spacing
    and the stack of their factors when they do not; numpy makes the same
    BLAS call per axis as a single axis's product, so the cores are those
    of one product per axis, bit for bit.  The tables are rebuilt in
    place and only when the time changes: k2 and k3 of an RK4 step share
    the midpoint, and one step's end is the next step's start.  A drift
    evaluation is one ``grid.multilinear`` pass over the runs, which
    returns the log-gradients ``(d, P, m)`` themselves, block by block
    between the bonds where the tables have rank 1, each divided by its
    own block's value with a floor that keeps the value's sign (the cores
    of a fit may all be negative); the evaluator keeps the one scratch
    the kernel hands back.

    The heat factors come from ``heat.heat_factor`` and products of its
    factors, never from an eigenbasis, so no value of a potential rounds
    below zero.  ``sample`` evaluates the drift at the equal pieces of a
    tiling of [0, T]: two per RK4 step in each time-node interval up to
    ``t_switch``, then one per Euler-Maruyama step.  Each distinct axis
    (node count and spacing) takes one ``heat_factor`` call per interval,
    for its piece, and reaches every time of the tiling as a product of
    pieces' factors (``_stage_factors``).  Any other time ``t`` is the
    start of the tiling ``[0, t], [t, T]``, whose factors are
    ``heat_factor``'s own at ``t``, bit for bit.  Every reduction of the
    contraction runs over a rank axis in order, so each row's result
    depends on nothing but that row.
    """

    def __init__(self, state: StepState, grid: Grid, config: SamplerConfig):
        self.state = state
        self.grid = grid
        self.beta = state.beta
        self.T = state.T
        self.tau = _time_fractions(config.n_time_nodes) * state.T
        self.t_switch = (1.0 - config.epsilon_sde) * state.T
        # the RK4 intervals, then the Euler-Maruyama window (empty for
        # epsilon_sde = 0)
        pieces = [(a, b, 2 * RK4_STEPS) for a, b in _intervals(self.tau, self.t_switch)]
        pieces.append((self.t_switch, self.T, config.n_em_steps))
        self._kinds = list(zip(grid.nodes.tolist(), grid.spacings.tolist()))
        self._laps = {kind: laplacian_1d(grid, n) for n, kind in enumerate(self._kinds)}
        diffs = {kind: gradient_matrix(grid, n) for n, kind in enumerate(self._kinds)}
        self._stages = _stage_factors(self._laps, self.beta, pieces)
        # the runs of consecutive axes with equal node counts and, per
        # potential, equal ranks
        cores = (state.eta_T.cores, state.eta_hat_0.cores)
        keys = [(size, *(c.shape[::2] for c in axis)) for size, axis in zip(grid.shape, zip(*cores))]
        ends = list(accumulate((len(list(run)) for _, run in groupby(keys)), initial=0))
        self._runs = list(zip(ends[:-1], ends[1:]))
        # per run, each potential's cores with their grid axis leading, as
        # the factors multiply them, (g, N, r1 r2), and their ranks; and the
        # run's difference matrix
        self._modes = [[(np.stack([c.transpose(1, 0, 2).reshape(c.shape[1], -1)
                                   for c in t[a:b]]), *t[a].shape[::2])
                        for a, b in self._runs] for t in cores]
        self._diffs = [_stacked([diffs[kind] for kind in self._kinds[a:b]])
                       for a, b in self._runs]
        # per count p of potentials, one table per run at their larger ranks
        self._tables = {p: [np.zeros((2, max(ms[k][1] for ms in self._modes[:p]),
                                      max(ms[k][2] for ms in self._modes[:p]), p, b - a,
                                      grid.shape[a]))
                            for k, (a, b) in enumerate(self._runs)] for p in (1, 2)}
        self._built = {1: None, 2: None}        # the time each table set holds
        self._scratch = None                    # grid.multilinear's

    def _log_grad(self, p, t, x):
        """grad log of ``eta`` (and ``eta_hat`` for ``p = 2``) at time ``t``
        (one scalar for the whole batch) and points ``x``: (d, p, m), as
        ``grid.multilinear`` returns it."""
        x = np.atleast_2d(x)
        t = min(max(float(t), 0.0), self.T)
        tables = self._tables[p]
        if self._built[p] != t:
            # a time sample does not evaluate starts the second interval of
            # the tiling [0, t], [t, T]
            interval, powers = self._stages.get(t) or _stage_factors(
                self._laps, self.beta, [(0.0, t, 1), (t, self.T, 1)])[t]
            factors = {kind: [end @ np.linalg.matrix_power(step, k)
                              for end, k in zip(ends[:p], powers)]
                       for kind, (step, *ends) in interval.items()}
            for k, ((a, b), diff, table) in enumerate(zip(self._runs, self._diffs, tables)):
                for q in range(p):
                    modes, r1, r2 = self._modes[q][k]
                    value = _stacked([factors[kind][q] for kind in self._kinds[a:b]]) @ modes
                    for i, cores in enumerate((value, diff @ value)):     # (g, N, r1 r2)
                        table[i, :r1, :r2, q] = cores.transpose(2, 0, 1).reshape(r1, r2, b - a, -1)
            self._built[p] = t
        cell, w = self.grid.cells(x)
        grad, self._scratch = multilinear(tables, cell.T, w.T.copy(), self._scratch)
        return grad

    def ode_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        """Deterministic transport velocity beta * grad(log eta - log eta_hat)."""
        g = self._log_grad(2, t, x)
        return (self.beta * (g[:, 0] - g[:, 1])).T.copy()

    def sde_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        """Drift of the stochastic dynamics, 2 beta * grad log eta."""
        return (2.0 * self.beta * self._log_grad(1, t, x)[:, 0]).T.copy()

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
    interval).  The stage times are ``np.linspace``'s over the interval,
    the times whose heat factors ``StepDynamics`` composes when ``t_end``
    is its ``t_switch``.  All particles share each step's scalar time, so
    every drift call carries the whole batch.  There is no error test;
    the module docstring gives the error of the fixed steps.

    Returns the new positions and the step's trace: the RK4 steps each
    particle took and the drift rows evaluated.
    """
    steps = 0
    for a, b in _intervals(dyn.tau, t_end):
        # a step's start, midpoint and end cut the interval into 2 RK4_STEPS pieces
        times = np.linspace(a, b, 2 * RK4_STEPS + 1)
        for j in range(0, 2 * RK4_STEPS, 2):
            t0, tm, t1 = times[j:j + 3]
            h = t1 - t0
            k1 = dyn.ode_drift(t0, x)
            k2 = dyn.ode_drift(tm, x + (0.5 * h) * k1)
            k3 = dyn.ode_drift(tm, x + (0.5 * h) * k2)
            k4 = dyn.ode_drift(t1, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        steps += RK4_STEPS
    return x, {"ode_steps": steps, "drift_rows": 4 * steps * x.shape[0]}


def _integrate_em(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
                  n_steps: int, noise: np.ndarray) -> np.ndarray:
    """Euler-Maruyama with reflecting box faces from ``t0`` to ``t1`` in
    ``n_steps`` equal steps, at ``np.linspace``'s times; ``noise`` is
    ``(m, n_steps, d)``."""
    dt = (t1 - t0) / n_steps
    amp = dyn.diffusion * np.sqrt(dt)
    for j, t in enumerate(np.linspace(t0, t1, n_steps + 1)[:-1]):
        x = x + dt * dyn.sde_drift(t, x) + amp * noise[:, j]
        x = _reflect(x, dyn.grid)
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
        x, step_trace = _integrate_ode(dyn, x, dyn.t_switch)
        trace.append(step_trace)
        if config.epsilon_sde > 0:
            x = _integrate_em(dyn, x, dyn.t_switch, state.T, config.n_em_steps,
                              em_noise[:, k])
    return Ensemble(
        positions=grid.clamp(x), clamped=grid.outside(x),
        meta={"n": n, "seed": seed, "epsilon_sde": config.epsilon_sde,
              "n_em_steps": config.n_em_steps, "n_time_nodes": config.n_time_nodes,
              "rk4_steps": RK4_STEPS, "steps": len(model.steps), "trace": trace},
    )
