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
neighbouring time nodes at once (``StepDynamics``); the contraction is
the grid module's off-grid kernel, ``grid.multilinear``.

The drift is therefore smooth in time only between two nodes: its time
derivative jumps at every node.  The Dormand-Prince integrator ends a
step on the next node instead of crossing it (node stops), so that all
seven stages of a step see one smooth piece of the drift; a step that
straddled a node would fail its embedded error estimate there and be
rejected (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6, on
integrating through known discontinuities).  The integrator reuses the
last stage of an accepted step, and the first stage of a rejected one,
as the next step's first stage.  Particles whose steps underflow are
rescued onto the tail's Euler-Maruyama integrator, all those of one
round in one call from their own start times.

The time nodes, not the integrator, set the sampler's error.  On the
shipped fits, positions from the 32-interval sub-grid lie 2e-2 to 8e-2
(mean per particle) from those of a 256-interval one, while the default
``rel_tol = 1e-4`` keeps the integrator's own error 30 to 200 times
smaller than that; a tighter tolerance costs two to three times the drift
rows and moves no particle measurably closer.

Particles are fully independent: per-particle adaptive step control and
per-particle RNG streams derived from the master seed by counter
splitting, and every reduction of the drift kernel runs over a rank axis
of one row, so results are bitwise reproducible and independent of
batch composition.  ``sample`` runs all particles as one batch in the
calling process, and records per proximal step the ODE rounds,
accepted and rejected steps, accepted steps that ended on a time node,
drift rows evaluated, the smallest proposed step and the rescued and
unfinished counts in ``Ensemble.meta["trace"]``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import FlowModel
from .fixed_point import StepState
from .grid import Grid, gradient_matrix, multilinear
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
# the step controller's largest shrink per round
_MIN_FACTOR = 0.2

#: round budget of one step's adaptive ODE integration
MAX_ODE_ROUNDS = 20000
#: a particle whose step falls below this fraction of the window is rescued
MIN_STEP_FRACTION = 1e-12
# the time sub-grid's first interior node, as a fraction of the step
_TIME_EDGE = 1e-4

# per-step ODE counters of the sampler trace, before any round
_NO_ODE_TRACE = {"ode_rounds": 0, "accepted": 0, "rejected": 0, "node_stops": 0,
                 "drift_rows": 0, "min_step": 0.0}


@dataclass
class SamplerConfig:
    epsilon_sde: float = 0.01       # fraction of each step integrated stochastically
    rel_tol: float = 1e-4
    abs_tol: float = 1e-8
    n_em_steps: int = 20
    # the time sub-grid has n_time_nodes + 1 nodes, n_time_nodes intervals
    n_time_nodes: int = 32

    def __post_init__(self):
        if not 0.0 <= self.epsilon_sde <= 1.0:
            raise ValueError("epsilon_sde must lie in [0, 1]")
        # NaN fails both comparisons
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not isinstance(self.n_em_steps, (int, np.integer)) or self.n_em_steps < 1:
            raise ValueError("n_em_steps must be an integer >= 1")
        n = self.n_time_nodes
        if not isinstance(n, (int, np.integer)) or n < 6 or n % 2:
            raise ValueError("n_time_nodes must be an even integer >= 6 "
                             "(the time sub-grid has n_time_nodes + 1 nodes)")


@dataclass
class Ensemble:
    positions: np.ndarray
    clamped: np.ndarray
    rescued: np.ndarray
    unfinished: np.ndarray
    meta: dict = field(default_factory=dict)

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
    time nodes at once.  The kernel sizes and checks its gather; the
    evaluator keeps the one scratch it hands back, shared by both drifts.
    This class keeps the time bookkeeping: the node search, the table
    columns of each time node, and the time interpolation of the two
    node fields, done only after the contraction (a product of
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
        self._scratch = None        # grid.multilinear's, grown to the largest batch

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
        """grad log of each potential in ``tables`` at (t, x): (d, P, m)."""
        x = np.atleast_2d(x)
        t = np.minimum(np.maximum(t, 0.0), self.T)
        if t.ndim == 0:
            t = np.full(x.shape[0], t)
        k = np.searchsorted(self.tau, t, side="right") - 1
        k = np.clip(k, 0, self.tau.size - 2)
        lam = (t - self.tau[k]) / (self.tau[k + 1] - self.tau[k])
        cell, w = self.grid.cells(x)
        # table columns of the lower/upper grid corner at nodes k and k+1
        cols = (k[:, None] * self.grid.nodes + cell).T[:, None, None, :] + self._offsets
        value, grad, self._scratch = multilinear(     # (P, 2, m), (d, P, 2, m)
            tables, cols, w.T.copy(), self._scratch)
        value = value[:, 0] + lam * (value[:, 1] - value[:, 0])
        grad = grad[:, :, 0] + lam * (grad[:, :, 1] - grad[:, :, 0])
        return grad / np.maximum(value, _VALUE_FLOOR)

    def ode_drift(self, t, x) -> np.ndarray:
        """Deterministic transport velocity beta * grad(log eta - log eta_hat)."""
        g = self._log_grad(self._tables, t, x)
        return (self.beta * (g[:, 0] - g[:, 1])).T.copy()

    def sde_drift(self, t, x) -> np.ndarray:
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


def _stop_at_nodes(tau: np.ndarray, ts: np.ndarray, hs: np.ndarray):
    """Shorten each step ``(ts, ts + hs)`` that would pass the next time
    node ``tau_j > ts`` so that it ends on that node (every ``ts`` lies
    below the last node).

    Returns the steps, the seven Dormand-Prince stage times of each
    (``(7, m)``; the last two are the step's end, exactly ``tau_j`` for a
    step that ends on a node) and the mask of steps that end on a node.
    Every stage time lies in the step's one node interval
    ``[tau_{j-1}, tau_j]``.
    """
    node = tau[np.searchsorted(tau, ts, side="right")]
    ends = ts + hs
    on_node = ends >= node
    hs = np.where(on_node, node - ts, hs)
    times = ts + _DOPRI_C[:, None] * hs
    times[5:] = np.where(on_node, node, ends)
    return hs, times, on_node


def _combine(coeffs, stages, xs, hs, out, tmp):
    """``out = xs + hs * sum(c * k)`` over the nonzero coefficients, in place."""
    out.fill(0.0)
    for c, ks in zip(coeffs, stages):
        if c != 0.0:
            np.multiply(ks, c, out=tmp)
            out += tmp
    out *= hs[:, None]
    out += xs
    return out


def _integrate_ode(dyn: StepDynamics, x: np.ndarray, t0: float, t1: float,
                   config: SamplerConfig, rescue_noise):
    """Per-particle adaptive Dormand-Prince integration of the drift ODE.

    Every particle carries its own time and step size; a particle whose
    step size underflows is rescued (flagged, and run from its own time
    to ``t1`` by ``_integrate_em`` with the noise ``rescue_noise(pid)``;
    one call takes all the particles a round rescues).
    Particles still short of ``t1`` when the round budget runs out are
    left where they are and flagged unfinished.

    The drift interpolates the potentials linearly in time between the
    nodes ``dyn.tau``, so its time derivative jumps at each node.  A step
    whose stages straddle a node sees that jump, and its embedded error
    estimate fails there.  So no step crosses a node: a step that would
    pass the next node is shortened to end on it (``_stop_at_nodes``),
    and when it is accepted the particle's time becomes the node itself,
    not ``t + h``, which could fall an ulp short and force a step of one
    ulp.  The next step is the controller's usual proposal from the step
    taken, but a stop never shrinks it below what a rejection of the
    unshortened step could (``_MIN_FACTOR`` of it): a sliver of a step
    that takes a particle just below a node onto it says nothing about
    the step size, so it must not make the particle look stuck and be
    rescued.

    The first stage of a round reuses a drift already evaluated at the
    same point (first same as last): after an accepted step the seventh
    stage, whose point (step end, ``x5``) is the new time and position
    bit for bit, and after a rejected step the round's own first stage.
    Only the first round evaluates all seven stages.

    Returns the rescued and unfinished flags and the step's trace: ODE
    rounds, accepted and rejected steps, accepted steps that ended on a
    time node, drift rows evaluated, and the smallest step size the
    controller proposed to a particle that still had time left (0.0 when
    the window is empty).
    """
    m, d = x.shape
    span = t1 - t0
    trace = dict(_NO_ODE_TRACE)
    if span <= 0:
        return np.zeros(m, dtype=bool), np.zeros(m, dtype=bool), trace
    t = np.full(m, t0)
    h = np.full(m, span / 16.0)
    active = np.ones(m, dtype=bool)
    rescued = np.zeros(m, dtype=bool)
    k_first = np.empty((m, d))          # drift at each particle's (t, x), once known
    min_step = span / 16.0

    for rnd in range(MAX_ODE_ROUNDS):
        if not np.any(active):
            break
        ids = np.nonzero(active)[0]
        xs = x[ids]
        ts = t[ids]
        hs, times, on_node = _stop_at_nodes(dyn.tau, ts, np.minimum(h[ids], t1 - ts))
        k = np.empty((7, ids.size, d))
        xi, x5, tmp = np.empty((3, ids.size, d))

        if rnd == 0:
            k[0] = dyn.ode_drift(times[0], xs)
        else:
            k[0] = k_first[ids]
        for s in range(1, 7):
            k[s] = dyn.ode_drift(times[s], _combine(_DOPRI_A[s], k[:s], xs, hs, xi, tmp))
        _combine(_DOPRI_B5, k, xs, hs, x5, tmp)
        x4 = _combine(_DOPRI_B4, k, xs, hs, xi, tmp)
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xs), np.abs(x5))
        with np.errstate(over="ignore"):             # an infinite error is rejected
            err = np.sqrt(np.mean(((x5 - x4) / scale) ** 2, axis=1))
        accept = err <= 1.0
        ts_new = np.where(accept, times[6], ts)
        xs = np.where(accept[:, None], x5, xs)
        k_first[ids] = np.where(accept[:, None], k[6], k[0])
        with np.errstate(divide="ignore"):
            factor = 0.9 * err ** (-0.2)              # inf at err == 0, 0 at err == inf
        # a NaN error (a non-finite drift) is no evidence for a step size:
        # the step is rejected and shrunk as far as one round allows
        factor = np.clip(np.where(np.isnan(factor), 0.0, factor), _MIN_FACTOR, 5.0)
        hs_next = hs * factor
        stopped = accept & on_node
        hs_next = np.where(stopped, np.maximum(hs_next, _MIN_FACTOR * h[ids]), hs_next)

        x[ids] = xs
        t[ids] = ts_new
        h[ids] = hs_next
        done = ts_new >= t1 * (1.0 - 1e-14) - 1e-300
        under = hs_next < MIN_STEP_FRACTION * span
        stuck = ids[under & ~done]
        if stuck.size:
            x[stuck] = _integrate_em(dyn, x[stuck], t[stuck], t1, config.n_em_steps,
                                     np.stack([rescue_noise(pid) for pid in stuck]))
            rescued[stuck] = True
        active[ids] = ~(done | under)

        n_accepted = int(np.count_nonzero(accept))
        trace["ode_rounds"] += 1
        trace["accepted"] += n_accepted
        trace["rejected"] += ids.size - n_accepted
        trace["node_stops"] += int(np.count_nonzero(stopped))
        trace["drift_rows"] += (7 if rnd == 0 else 6) * ids.size
        if not np.all(done):
            min_step = min(min_step, float(np.min(hs_next[~done])))
    trace["min_step"] = min_step
    return rescued, active.copy(), trace


def _integrate_em(dyn: StepDynamics, x: np.ndarray, t0, t1: float,
                  n_steps: int, noise: np.ndarray) -> np.ndarray:
    """Euler-Maruyama with reflecting box faces from ``t0`` (one time, or
    one per row) to ``t1`` in ``n_steps`` equal steps per row; ``noise``
    is ``(m, n_steps, d)``.  Each row's result is that of a call on its
    row alone."""
    t = np.full(x.shape[0], t0, dtype=float)
    dt = (t1 - t) / n_steps
    amp = dyn.diffusion * np.sqrt(dt)[:, None]
    for j in range(n_steps):
        x = x + dt[:, None] * dyn.sde_drift(t, x) + amp * noise[:, j]
        x = _reflect(x, dyn.grid)
        t = t + dt
    return x


def sample(model: FlowModel, n: int, config: SamplerConfig | None = None,
           seed: int = 0, force: bool = False) -> Ensemble:
    """Draw an ensemble of approximate samples from the fitted model.

    Initial positions are exact draws from the model's truncated
    Gaussian initial density; each proximal step is then integrated per
    particle.  Particle ``i`` draws from
    ``SeedSequence(entropy=seed, spawn_key=(i,))``, so identical (model,
    n, config, seed) produce bitwise identical ensembles, and particle
    ``i`` ends in the same place whatever ``n > i`` is.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
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
    rescued = np.zeros(n, dtype=bool)
    unfinished = np.zeros(n, dtype=bool)
    trace = []
    for k, state in enumerate(model.steps):
        dyn = StepDynamics(state, grid, config)
        t_switch = (1.0 - config.epsilon_sde) * state.T
        step_trace = {**_NO_ODE_TRACE, "rescued": 0, "unfinished": 0}
        if t_switch > 0 and n:
            def rescue_noise(pid):
                return gens[pid].standard_normal((config.n_em_steps, d))

            resc, unfin, ode_trace = _integrate_ode(dyn, x, 0.0, t_switch, config,
                                                    rescue_noise)
            rescued |= resc
            unfinished |= unfin
            step_trace.update(ode_trace, rescued=int(resc.sum()),
                              unfinished=int(unfin.sum()))
        trace.append(step_trace)
        if config.epsilon_sde > 0 and n:
            x = _integrate_em(dyn, x, t_switch, state.T, config.n_em_steps,
                              em_noise[:, k])
    return Ensemble(
        positions=grid.clamp(x), clamped=grid.outside(x), rescued=rescued, unfinished=unfinished,
        meta={"n": n, "seed": seed, "epsilon_sde": config.epsilon_sde,
              "n_em_steps": config.n_em_steps, "rel_tol": config.rel_tol,
              "abs_tol": config.abs_tol, "steps": len(model.steps), "trace": trace},
    )
