"""Reusing a fitted model as the importance distribution for a quantity of interest.

One extra proximal step is run with the fitted density as both the
initial condition and the backbone of the target ``|F| * rho_fit`` —
every oracle value comes from the existing TT model and the cheap
functional F, so the expensive posterior is never touched.  The
resulting model approximates the variance-optimal importance
distribution ``|F| * posterior`` through the surrogate.  Its samples are
weighted by 1/|F| (:func:`importance_estimate`), which calls no
posterior either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driver import FlowModel, append_step
from .fixed_point import FixedPointConfig
from .sampler import SamplerConfig, sample
from .tt import tt_eval

#: the quantile of a sample's 1/|F| weights that caps them
WEIGHT_CAP_QUANTILE = 0.999


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
        # rho_tt's rounding noise below 0 would reach the terminal stage's
        # ratio ** gamma as a NaN
        return np.abs(self.qoi(points)) * np.maximum(tt_eval(self.model.rho_tt, idx), 0.0)


def fit_importance(model: FlowModel, qoi: QuantityOfInterest, T: float, beta: float,
                   config: FixedPointConfig,
                   rng: np.random.Generator | None = None) -> FlowModel:
    """One proximal step from the fitted density toward |F| times it.

    Returns a new model that chains the original steps with the
    importance step, so exact initial sampling is preserved; the step is
    appended as ``driver.run`` appends its steps (``append_step``).
    Raises if F vanishes on the whole grid (degenerate target).
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

    out = FlowModel(grid=grid, initial=model.initial, steps=list(model.steps),
                    rho_tt=model.rho_tt, kl_history=list(model.kl_history),
                    kl_stderr=list(model.kl_stderr))
    append_step(out, _SurrogateTarget(model, qoi), T, beta, config, rng)
    return out


def importance_estimate(samples: np.ndarray, qoi: QuantityOfInterest) -> float:
    """Self-normalized estimate of E[F] from samples of the importance
    distribution ``|F| * posterior``.

    The weights are the posterior over that distribution, 1/|F| up to a
    constant, so the estimate takes no posterior call.  They are capped
    at the ``WEIGHT_CAP_QUANTILE`` quantile of the sample's weights,
    because 1/|F| is singular where F vanishes.  Self-normalization
    cancels the unknown normalizing constants, and biases the estimate.
    """
    fvals = qoi(np.atleast_2d(samples))
    w = 1.0 / np.maximum(np.abs(fvals), np.finfo(float).tiny)
    w = np.minimum(w, np.quantile(w, WEIGHT_CAP_QUANTILE))
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
    independent), then split.  Both models are sampled with
    ``sampler_config`` (``None``: :func:`~ttjko.sampler.sample`'s default).
    """
    post = sample(posterior_model, n * repeats, sampler_config, seed=seed)
    imp = sample(importance_model, n * repeats, sampler_config, seed=seed + 1)
    plain = np.empty(repeats)
    weighted = np.empty(repeats)
    for r in range(repeats):
        block = slice(r * n, (r + 1) * n)
        plain[r] = float(qoi(post.positions[block]).mean())
        weighted[r] = importance_estimate(imp.positions[block], qoi)
    return EstimatorComparison(
        plain=plain, weighted=weighted,
        meta={"n": n, "repeats": repeats, "seed": seed, "qoi": qoi.name},
    )
