"""Outer proximal loop over a (T, beta) schedule; produces a FlowModel.

The model carries the grid, the initial density (a truncated diagonal
Gaussian, exactly sampleable), one :class:`StepState` per proximal step
and the final fitted density.  KL to the target is tracked after every
step from the fitted potentials alone, with zero additional target
evaluations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .cross import CrossConfig, tt_cross
from .fixed_point import FixedPointConfig, StepState, solve_step
from .grid import Grid, all_quadrature_weights
from .tt import (TTTensor, tt_contract_all, tt_load, tt_marginal, tt_rank_one,
                 tt_round, tt_save, tt_scale)
from .tt import tt_eval  # noqa: F401  (kept as driver.tt_eval; perfbench/layers.py wraps it)

_MODEL_META = "model.json"


@dataclass
class Schedule:
    """Proximal step parameters: a list of (T, beta) pairs."""

    steps: list

    def __post_init__(self):
        cleaned = []
        for T, beta in self.steps:
            if T <= 0 or beta <= 0:
                raise ValueError("schedule entries need T > 0 and beta > 0")
            cleaned.append((float(T), float(beta)))
        self.steps = cleaned

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


@dataclass
class GaussianInitial:
    """Diagonal Gaussian truncated to the grid box: rank-1 on the grid,
    exactly sampleable by per-axis inverse CDF."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.broadcast_to(
            np.asarray(self.std, dtype=float), self.mean.shape
        ).copy()
        if np.any(self.std <= 0):
            raise ValueError("std must be positive")

    @classmethod
    def standard(cls, d: int) -> "GaussianInitial":
        return cls(mean=np.zeros(d), std=np.ones(d))

    def tt(self, grid: Grid) -> TTTensor:
        vecs = []
        for k in range(grid.d):
            x = grid.axis_nodes(k)
            z = (x - self.mean[k]) / self.std[k]
            vecs.append(np.exp(-0.5 * z**2) / (self.std[k] * np.sqrt(2 * np.pi)))
        return tt_rank_one(vecs)

    def sample_from_uniforms(self, u: np.ndarray, grid: Grid) -> np.ndarray:
        """Map (n, d) uniforms to exact draws truncated to the box."""
        u = np.atleast_2d(u)
        a = ndtr((grid.lower - self.mean) / self.std)
        b = ndtr((grid.upper - self.mean) / self.std)
        return self.mean + self.std * ndtri(a + u * (b - a))

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianInitial":
        return cls(mean=np.asarray(data["mean"]), std=np.asarray(data["std"]))


@dataclass
class FlowModel:
    grid: Grid
    initial: GaussianInitial
    steps: list              # of StepState
    rho_tt: TTTensor
    kl_history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.steps)

    def save(self, path) -> None:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        meta = {
            "grid": self.grid.to_dict(),
            "initial": self.initial.to_dict(),
            "kl_history": [float(v) for v in self.kl_history],
            "steps": [
                {
                    "T": s.T, "beta": s.beta, "converged": s.converged,
                    "iters": s.iters, "log_scale": s.log_scale,
                    "residual_history": [float(r) for r in s.residual_history],
                }
                for s in self.steps
            ],
        }
        with open(path / _MODEL_META, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        tt_save(self.rho_tt, path / "rho_tt.tt")
        for k, s in enumerate(self.steps):
            for name in ("eta_T", "eta_0", "eta_hat_0", "eta_hat_T"):
                tt_save(getattr(s, name), path / f"step_{k:03d}.{name}.tt")

    @classmethod
    def load(cls, path) -> "FlowModel":
        path = Path(path)
        with open(path / _MODEL_META) as fh:
            meta = json.load(fh)
        grid = Grid.from_dict(meta["grid"])
        initial = GaussianInitial.from_dict(meta["initial"])
        steps = []
        for k, sm in enumerate(meta["steps"]):
            tensors = {
                name: tt_load(path / f"step_{k:03d}.{name}.tt")
                for name in ("eta_T", "eta_0", "eta_hat_0", "eta_hat_T")
            }
            steps.append(StepState(
                T=sm["T"], beta=sm["beta"], converged=sm["converged"],
                iters=sm["iters"], residual_history=sm["residual_history"],
                log_scale=sm.get("log_scale", 0.0), **tensors,
            ))
        rho_tt = tt_load(path / "rho_tt.tt")
        return cls(grid=grid, initial=initial, steps=steps, rho_tt=rho_tt,
                   kl_history=meta["kl_history"])


def product_density(state: StepState, grid: Grid, cross_cfg: CrossConfig,
                    trunc_tol: float, max_rank: int,
                    rng: np.random.Generator) -> TTTensor:
    """Next density eta_T * eta_hat_T via cross over the product oracle.

    Pivot sets are seeded from eta_T: it is the sharper factor (eta_hat_T
    has been smoothed twice), so its mass marks where the product lives.
    """

    def oracle(idx, eta_T_vals, eta_hat_T_vals):
        return eta_T_vals * eta_hat_T_vals

    dens, _ = tt_cross(oracle, grid.shape, cross_cfg, initial_guess=state.eta_T,
                       rng=rng, factors=(state.eta_T, state.eta_hat_T))
    return tt_round(dens, trunc_tol, max_rank)


def run(initial: GaussianInitial, rho_inf, grid: Grid, schedule: Schedule,
        config: FixedPointConfig, rng: np.random.Generator | None = None,
        telemetry=None) -> FlowModel:
    """Sequentially solve every proximal step of the schedule, starting
    from the initial density on the grid.

    Warm-starts each step's fixed point from the previous step's
    terminal potential and log-scale.  Unconverged steps are kept and
    flagged; the sampler refuses such models unless forced.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    rho0 = initial.tt(grid)

    mass0 = tt_contract_all(rho0, all_quadrature_weights(grid))
    if not (np.isfinite(mass0) and mass0 > 0):
        raise ValueError("initial density must have positive finite mass")

    rho_k = rho0
    eta_warm = None
    log_scale = 0.0
    steps: list[StepState] = []
    kl_history: list[float] = []
    model = FlowModel(grid=grid, initial=initial, steps=steps, rho_tt=rho_k,
                      kl_history=kl_history)
    for k, (T, beta) in enumerate(schedule):
        def emit(record, _k=k):
            record["step"] = _k
            telemetry(record)

        state = solve_step(
            rho_k, rho_inf, grid, T, beta, config, eta_init=eta_warm,
            rng=rng, telemetry=None if telemetry is None else emit,
            log_scale=log_scale,
        )
        steps.append(state)
        rho_k = product_density(state, grid, config.cross, config.trunc_tol,
                                config.max_rank, rng)
        mass = tt_contract_all(rho_k, all_quadrature_weights(grid))
        if not (np.isfinite(mass) and mass > 0):
            raise RuntimeError(f"step {k}: fitted density has invalid mass {mass}")
        model.rho_tt = rho_k
        eta_warm = state.eta_T
        log_scale = state.log_scale
        if state.converged:
            try:
                kl_history.append(kl_estimate(model))
            except ValueError:
                # rank-limited intermediate fits can lose pointwise positivity
                # of the potential; the tracked KL is informational only
                kl_history.append(float("nan"))
        else:
            kl_history.append(float("nan"))
    return model


def kl_estimate(model: FlowModel, cross_tol: float = 1e-10) -> float:
    """KL of the normalized fitted density against the normalized target.

    Uses the converged terminal identity: the density ratio to the
    target equals ``eta_T^(-2 beta)``, so both the divergence integrand
    and the target's grid mass are available from the model itself —
    no target evaluations.  The returned value is exact only up to the
    fixed-point residual and is flagged approximate in that sense.
    """
    if not model.steps:
        raise ValueError("model has no proximal steps")
    state = model.steps[-1]
    if not state.converged:
        raise ValueError("last step did not converge; KL estimate undefined")
    beta = state.beta
    grid = model.grid
    weights = all_quadrature_weights(grid)
    rho = model.rho_tt
    rank_cap = max(2 * max(rho.max_rank, state.eta_T.max_rank) + 2, 6)
    cfg = CrossConfig(max_rank=rank_cap, tolerance=cross_tol, max_sweeps=12)
    rng = np.random.default_rng(7)

    def log_eta(idx, vals, rho_vals):
        """log eta_T where the density carries mass; sign flips from rounding
        noise at negligible-mass points contribute (essentially) zero."""
        bad = vals <= 0
        if np.any(bad):
            peak = float(np.max(rho_vals)) if rho_vals.size else 0.0
            serious = bad & (rho_vals > 1e-4 * peak)
            if np.any(serious):
                row = int(np.nonzero(serious)[0][0])
                raise ValueError(
                    f"eta_T is nonpositive at index {tuple(np.atleast_2d(idx)[row])}; "
                    "log undefined"
                )
        return np.log(np.maximum(vals, np.finfo(float).tiny))

    def weighted_log(idx, eta_vals, rho_vals):
        return log_eta(idx, eta_vals, rho_vals) * rho_vals

    def weighted_ratio(idx, eta_vals, rho_vals):
        return np.exp(2.0 * beta * log_eta(idx, eta_vals, rho_vals)) * rho_vals

    factors = (state.eta_T, rho)
    num, _ = tt_cross(weighted_log, grid.shape, cfg, initial_guess=rho, rng=rng,
                      factors=factors)
    mass_target, _ = tt_cross(weighted_ratio, grid.shape, cfg, initial_guess=rho,
                              rng=rng, factors=factors)
    z_rho = tt_contract_all(rho, weights)
    z_inf = tt_contract_all(mass_target, weights)
    mean_log_eta = tt_contract_all(num, weights) / z_rho
    return float(-2.0 * beta * mean_log_eta + np.log(z_inf / z_rho))


def marginals(model: FlowModel, axes) -> TTTensor:
    """Quadrature-weighted marginal of the fitted density, unit mass."""
    grid = model.grid
    weights = all_quadrature_weights(grid)
    marg = tt_marginal(model.rho_tt, axes, weights)
    kept = sorted(set(int(a) for a in axes))
    kept_weights = [weights[a] for a in kept]
    mass = tt_contract_all(marg, kept_weights)
    if mass <= 0:
        raise ValueError(f"marginal has nonpositive mass {mass}")
    return tt_scale(marg, 1.0 / mass)


def marginal_1d(model: FlowModel, axis: int) -> np.ndarray:
    """Dense normalized 1-d marginal on the axis nodes."""
    marg = marginals(model, [axis])
    return marg.cores[0][0, :, 0].copy()
