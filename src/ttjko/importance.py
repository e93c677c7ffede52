"""Reusing a fitted model as the importance distribution for a quantity of interest.

One extra proximal step is run with the fitted density as both the
initial condition and the backbone of the target ``|F| * rho_fit`` —
every oracle value comes from the existing TT model and the cheap
functional F, so the expensive posterior is never touched.  The
resulting model approximates the variance-optimal importance
distribution ``|F| * posterior`` through the surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driver import FlowModel, kl_estimate, product_density
from .fixed_point import FixedPointConfig, solve_step
from .grid import Grid, interpolate_batch
from .sampler import SamplerConfig, sample
from .tt import tt_eval


@dataclass
class QuantityOfInterest:
    """Cheap functional of the parameters; must not call the forward model."""

    fn: object
    name: str = "F"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(x)), dtype=float).reshape(-1)


def sum_of_parameters() -> QuantityOfInterest:
    """The case-study functional: the cosine series at the origin, which is
    simply the sum of the coefficients."""
    return QuantityOfInterest(fn=lambda x: x.sum(axis=1), name="sum_of_parameters")


class _SurrogateTarget:
    """Index oracle |F(x_alpha)| * rho_fit(alpha); counts no posterior calls."""

    def __init__(self, model: FlowModel, qoi: QuantityOfInterest):
        self.model = model
        self.qoi = qoi

    def eval_batch(self, indices: np.ndarray) -> np.ndarray:
        idx = np.atleast_2d(np.asarray(indices, dtype=np.intp))
        points = self.model.grid.points(idx)
        return np.abs(self.qoi(points)) * tt_eval(self.model.rho_tt, idx)


def fit_importance(model: FlowModel, qoi: QuantityOfInterest, T: float, beta: float,
                   config: FixedPointConfig,
                   rng: np.random.Generator | None = None) -> FlowModel:
    """One proximal step from the fitted density toward |F| times it.

    Returns a new model that chains the original steps with the
    importance step, so exact initial sampling is preserved.  Raises if
    F vanishes on the whole grid (degenerate target).
    """
    if not model.converged:
        raise ValueError("base model has unconverged steps")
    if rng is None:
        rng = np.random.default_rng(0)
    grid = model.grid
    probe_idx = np.stack(
        [rng.integers(0, grid.nodes[k], size=1024) for k in range(grid.d)], axis=1
    )
    if np.max(np.abs(qoi(grid.points(probe_idx)))) == 0.0:
        raise ValueError("quantity of interest vanishes on the grid; degenerate target")

    target = _SurrogateTarget(model, qoi)
    state = solve_step(model.rho_tt, target, grid, T, beta, config,
                       eta_init=None, rng=rng)
    rho_f = product_density(state, grid, config.cross, config.trunc_tol,
                            config.max_rank, rng)
    out = FlowModel(
        grid=grid, initial=model.initial, steps=list(model.steps) + [state],
        rho_tt=rho_f, kl_history=list(model.kl_history),
    )
    if state.converged:
        out.kl_history.append(kl_estimate(out))
    return out


def importance_estimate(samples: np.ndarray, qoi: QuantityOfInterest,
                        weight_mode: str = "optimal", rho_inf_fn=None,
                        importance_model: FlowModel | None = None,
                        cap_quantile: float = 0.999) -> float:
    """Self-normalized estimate of E[F] from importance-distribution samples.

    ``optimal`` weights are 1/|F| (zero posterior calls), capped at the
    given quantile of the sample's weights because the optimal-weight
    formula is singular where F vanishes.  ``true`` weights are
    posterior / fitted-importance-density and cost one posterior call
    per sample.  Self-normalization makes the estimate invariant to
    rescaling either density, and biased.
    """
    x = np.atleast_2d(samples)
    fvals = qoi(x)
    if weight_mode == "optimal":
        denom = np.abs(fvals)
        floor = np.finfo(float).tiny
        w = 1.0 / np.maximum(denom, floor)
        cap = np.quantile(w, cap_quantile)
        w = np.minimum(w, cap)
    elif weight_mode == "true":
        if rho_inf_fn is None or importance_model is None:
            raise ValueError("true weights need the target oracle and the fitted model")
        rho_f, _ = interpolate_batch(importance_model.rho_tt, importance_model.grid, x)
        w = np.asarray(rho_inf_fn(x), dtype=float) / np.maximum(rho_f, np.finfo(float).tiny)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    return float((w * fvals).sum() / w.sum())


@dataclass
class EstimatorComparison:
    plain: np.ndarray
    weighted: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def plain_std(self) -> float:
        return float(self.plain.std(ddof=1))

    @property
    def weighted_std(self) -> float:
        return float(self.weighted.std(ddof=1))


def compare_estimators(posterior_model: FlowModel, importance_model: FlowModel,
                       qoi: QuantityOfInterest, n: int, repeats: int, seed: int = 0,
                       sampler_config: SamplerConfig | None = None) -> EstimatorComparison:
    """Spread of the plain posterior mean of F versus the importance estimator.

    Each trial draws fresh samples from both models; the particle
    batches for all trials are integrated jointly (particles are
    independent), then split.
    """
    if sampler_config is None:
        sampler_config = SamplerConfig()
    post = sample(posterior_model, n * repeats, sampler_config, seed=seed)
    imp = sample(importance_model, n * repeats, sampler_config, seed=seed + 1)
    plain = np.empty(repeats)
    weighted = np.empty(repeats)
    for r in range(repeats):
        block = slice(r * n, (r + 1) * n)
        plain[r] = float(qoi(post.positions[block]).mean())
        weighted[r] = importance_estimate(imp.positions[block], qoi, "optimal")
    return EstimatorComparison(
        plain=plain, weighted=weighted,
        meta={"n": n, "repeats": repeats, "seed": seed, "qoi": qoi.name},
    )
