"""Outer proximal loop over a (T, beta) schedule; produces a FlowModel.

The model carries the grid, the initial density (a truncated diagonal
Gaussian, exactly sampleable), one :class:`StepState` per proximal step
and the final fitted density.  KL to the target is estimated after every
step, with a Monte Carlo standard error, from exact grid draws of the
fitted density and the fitted potentials alone: zero target evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .cross import tt_cross
from .fixed_point import FixedPointConfig, StepState, solve_step
from .grid import Grid, all_quadrature_weights
from .tt import (TTTensor, tt_contract_all, tt_eval, tt_load, tt_marginal, tt_rank_one,
                 tt_round, tt_sample, tt_save, tt_scale)

#: the metadata file of a saved model directory
MODEL_META = "model.json"
_SQRT1_2 = math.sqrt(0.5)
_INV_CDF = NormalDist().inv_cdf
#: the potentials saved per step (older model directories also hold an
#: unread ``eta_0``)
_STEP_TENSORS = ("eta_T", "eta_hat_0", "eta_hat_T")
#: grid draws of the fitted density per KL estimate
KL_SAMPLES = 4096


@dataclass
class Schedule:
    """Proximal step parameters: a list of (T, beta) pairs."""

    steps: list

    def __post_init__(self):
        cleaned = []
        for T, beta in self.steps:
            if not (T > 0 and beta > 0):       # NaN fails both
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
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        # NaN fails both comparisons
        if not np.all((self.std > 0) & (self.std < np.inf)):
            raise ValueError("std must be positive and finite")

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
        """Map (n, d) uniforms to exact draws truncated to the box.

        Per axis, u maps linearly onto [Phi(lower), Phi(upper)] of the
        standardized box and back through Phi^-1, with Phi from
        ``math.erfc`` and Phi^-1 from ``statistics.NormalDist.inv_cdf``.
        Draws are clipped into the box.  A probability that rounds to 0 or
        1, which needs a box edge beyond about 38.5 sd below or 8.3 sd
        above the mean, has the quantile -inf or +inf and so gives the
        box edge.
        """
        u = np.atleast_2d(u)
        a = _normal_cdf((grid.lower - self.mean) / self.std)
        b = _normal_cdf((grid.upper - self.mean) / self.std)
        p = a + u * (b - a)
        z = [_normal_quantile(v) for v in p.ravel().tolist()]
        x = self.mean + self.std * np.reshape(z, p.shape)
        return np.clip(x, grid.lower, grid.upper)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianInitial":
        return cls(mean=np.asarray(data["mean"]), std=np.asarray(data["std"]))


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, as ``0.5 * erfc(-z / sqrt(2))``."""
    return np.array([0.5 * math.erfc(-v * _SQRT1_2) for v in z.tolist()])


def _normal_quantile(p: float) -> float:
    """Standard normal quantile; -inf at p <= 0 and +inf at p >= 1."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return _INV_CDF(p)


@dataclass
class FlowModel:
    grid: Grid
    initial: GaussianInitial
    steps: list              # of StepState
    rho_tt: TTTensor
    kl_history: list = field(default_factory=list)
    kl_stderr: list = field(default_factory=list)     # parallel to kl_history

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
            "kl_stderr": [float(v) for v in self.kl_stderr],
            "steps": [
                {
                    "T": s.T, "beta": s.beta, "converged": s.converged,
                    "iters": s.iters, "log_scale": s.log_scale,
                    "residual_history": [float(r) for r in s.residual_history],
                }
                for s in self.steps
            ],
        }
        with open(path / MODEL_META, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        tt_save(self.rho_tt, path / "rho_tt.tt")
        for k, s in enumerate(self.steps):
            for name in _STEP_TENSORS:
                tt_save(getattr(s, name), path / f"step_{k:03d}.{name}.tt")

    @classmethod
    def load(cls, path) -> "FlowModel":
        path = Path(path)
        with open(path / MODEL_META) as fh:
            meta = json.load(fh)
        grid = Grid.from_dict(meta["grid"])
        initial = GaussianInitial.from_dict(meta["initial"])
        steps = []
        for k, sm in enumerate(meta["steps"]):
            tensors = {
                name: tt_load(path / f"step_{k:03d}.{name}.tt")
                for name in _STEP_TENSORS
            }
            steps.append(StepState(
                T=sm["T"], beta=sm["beta"], converged=sm["converged"],
                iters=sm["iters"], residual_history=sm["residual_history"],
                log_scale=sm.get("log_scale", 0.0), **tensors,
            ))
        rho_tt = tt_load(path / "rho_tt.tt")
        kl_history = meta["kl_history"]
        # models saved before the standard error was tracked read it as NaN
        kl_stderr = meta.get("kl_stderr", [math.nan] * len(kl_history))
        return cls(grid=grid, initial=initial, steps=steps, rho_tt=rho_tt,
                   kl_history=kl_history, kl_stderr=kl_stderr)


def product_density(state: StepState, grid: Grid, config: FixedPointConfig,
                    rng: np.random.Generator) -> TTTensor:
    """Next density eta_T * eta_hat_T via cross over the product oracle,
    built and rounded as the step's fixed point was (``config``).

    Pivot sets are seeded from eta_T: it is the sharper factor (eta_hat_T
    has been smoothed twice), so its mass marks where the product lives.
    """

    def oracle(idx, eta_T_vals, eta_hat_T_vals):
        return eta_T_vals * eta_hat_T_vals

    dens, _ = tt_cross(oracle, grid.shape, config.cross, initial_guess=state.eta_T,
                       rng=rng, factors=(state.eta_T, state.eta_hat_T))
    return tt_round(dens, config.trunc_tol, config.cross.max_rank)


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

    model = FlowModel(grid=grid, initial=initial, steps=[], rho_tt=rho0)
    eta_warm = None
    log_scale = 0.0
    for k, (T, beta) in enumerate(schedule):
        def emit(record, _k=k):
            record["step"] = _k
            telemetry(record)

        state = append_step(model, rho_inf, T, beta, config, rng, eta_init=eta_warm,
                            telemetry=None if telemetry is None else emit,
                            log_scale=log_scale)
        eta_warm = state.eta_T
        log_scale = state.log_scale
    return model


def append_step(model: FlowModel, rho_inf, T: float, beta: float,
                config: FixedPointConfig, rng: np.random.Generator,
                **solve_kwargs) -> StepState:
    """Solve one proximal step from ``model.rho_tt`` toward ``rho_inf``
    and append it to ``model``: the step's state, its product density
    (which must have positive finite mass) and its KL with standard
    error, both NaN for an unconverged step or one whose KL estimate
    fails.  ``solve_kwargs`` go to ``solve_step``.  Returns the step's
    state.
    """
    k = len(model.steps)
    state = solve_step(model.rho_tt, rho_inf, model.grid, T, beta, config, rng=rng,
                       **solve_kwargs)
    model.steps.append(state)
    rho = product_density(state, model.grid, config, rng)
    mass = tt_contract_all(rho, all_quadrature_weights(model.grid))
    if not (np.isfinite(mass) and mass > 0):
        raise RuntimeError(f"step {k}: fitted density has invalid mass {mass}")
    model.rho_tt = rho
    kl = se = float("nan")
    if state.converged:
        try:
            kl, se = kl_estimate(model)
        except ValueError:
            # rank-limited intermediate fits can lose pointwise positivity of
            # the potential or of the density; the fit itself does not use the
            # estimate, so its step stands without one
            pass
    model.kl_history.append(kl)
    model.kl_stderr.append(se)
    return state


def kl_estimate(model: FlowModel) -> tuple[float, float]:
    """KL of the normalized fitted density against the normalized target,
    and its Monte Carlo standard error: :func:`kl_from_uniforms` on
    ``KL_SAMPLES`` uniforms from ``default_rng(7)``.  Deterministic for a
    given model; draws nothing from the fit's generator."""
    u = np.random.default_rng(7).random((KL_SAMPLES, model.grid.d))
    return kl_from_uniforms(model, u)


def kl_from_uniforms(model: FlowModel, u: np.ndarray) -> tuple[float, float]:
    """KL(ρ‖π) of the model's last step, and its standard error, from the
    grid draws :func:`tt_sample` makes of ``u``.

    A converged step satisfies the terminal identity ``π ∝ ρ η_T^(2β)``
    on the grid, so with ``X = 2β log η_T``,
    ``KL = -E_ρ[X] + log E_ρ[e^X] = log E_ρ[e^(X - E_ρ X)]``: no target
    evaluations.  The estimate replaces ``E_ρ`` by the mean over exact
    draws from the grid law ``ρ·w`` (``w`` the trapezoid weights), so by
    Jensen it is never negative.  The standard error is the delta
    method's, ``sd(e^(X-X̄)/mean(e^(X-X̄)) - (X-X̄)) / sqrt(n)``.  The
    value is exact only up to the fixed-point residual of the identity.

    Where ``η_T <= 0`` (rounding noise) at a draw whose density is below
    1e-4 of the draws' peak, the draw is left out; anywhere else it raises
    ``ValueError``, as does a step that has not converged.
    """
    if not model.steps:
        raise ValueError("model has no proximal steps")
    state = model.steps[-1]
    if not state.converged:
        raise ValueError("last step did not converge; KL estimate undefined")
    idx = tt_sample(model.rho_tt, all_quadrature_weights(model.grid), u)
    eta = tt_eval(state.eta_T, idx)
    bad = eta <= 0
    if np.any(bad):
        rho = tt_eval(model.rho_tt, idx)
        serious = bad & (rho > 1e-4 * rho.max())
        if np.any(serious):
            row = int(serious.argmax())
            raise ValueError(f"eta_T is nonpositive at index {tuple(idx[row].tolist())}; "
                             "log undefined")
        eta = eta[~bad]
    x = 2.0 * state.beta * np.log(eta)
    x -= x.mean()
    ratio = np.exp(x)
    mean_ratio = ratio.mean()
    se = np.std(ratio / mean_ratio - x, ddof=1) / math.sqrt(x.size)
    return float(np.log(mean_ratio)), float(se)


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
