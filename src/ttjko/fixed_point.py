"""One entropic proximal step solved as a fixed-point problem over TT iterates.

The cycle maps a terminal potential ``eta`` through four stages: heat
propagation back to the initial time, division into the current density,
heat propagation forward, and the terminal update
``eta_new = (exp(-l) rho_inf / eta_hat)^(1 / (1 + 2 beta))`` — the only
stage that queries the target density.  Both division stages are
realized by cross approximation of the composed index oracles, never
densely.  One rank cap, ``config.cross.max_rank``, bounds both crosses
and every rounding of a step.

The cycle map G is homogeneous of degree ``gamma = 1 / (1 + 2 beta)`` in
both ``eta`` and the target's scale, so the fixed point's overall scale
(the gauge ``(c eta, eta_hat / c)`` of the Schrödinger system) is a mode
that plain iteration contracts only at rate ``1 - 2 beta``.  The solver
fixes it in closed form instead: after each cycle it takes the
least-squares scale ``s`` of ``G(x)`` against ``x``, moves the log-scale
``l`` by ``ln(s) / gamma`` and divides ``G(x)`` by ``s``, which is the
cycle's output under the new ``l``.  A converged state thus satisfies
``eta_T^(1+2 beta) eta_hat_T = exp(-l) rho_inf`` with O(1) potentials,
whatever the target's normalization.  A terminal cross with no positive
overlap with the iterate leaves no scale to fix; the solver raises on
that iteration, naming the cross's error and sweeps.  Iteration is
Anderson acceleration with a two-residual window, for which the line
search has a closed form; the plain step is its fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cross import CrossConfig, CrossInfo, tt_cross, validation_indices
from .grid import Grid, all_quadrature_weights
from .heat import HeatPropagator
from .tt import (TTTensor, is_count, tt_axpy, tt_eval, tt_inner, tt_ones, tt_round,
                 tt_sample, tt_scale)

#: hard floor for guarded divisions (spec'd; negatives fall below it too)
DIVISION_FLOOR = 1e-300


class DivisionFloorError(RuntimeError):
    """A denominator lost positivity at a point that carries real mass."""

    def __init__(self, index):
        self.index = tuple(int(i) for i in index)
        super().__init__(
            f"denominator below {DIVISION_FLOOR} at a significant index {self.index}"
        )


@dataclass
class FixedPointConfig:
    tolerance: float = 1e-5
    max_iters: int = 1000
    trunc_tol: float = 1e-8
    cross: CrossConfig = field(default_factory=CrossConfig)   # its max_rank caps every rounding too

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if not is_count(self.max_iters, 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not self.trunc_tol >= 0:
            raise ValueError("trunc_tol must be >= 0")


@dataclass
class StepState:
    """Converged potentials of one proximal step; everything sampling needs.

    ``log_scale`` is the gauge ``l`` of the fixed point: the potentials
    satisfy the terminal identity against ``exp(-l) rho_inf``.  An
    ungauged fit is the ``l = 0`` fixed point.
    """

    eta_T: TTTensor
    eta_hat_0: TTTensor
    eta_hat_T: TTTensor
    T: float
    beta: float
    converged: bool
    iters: int
    residual_history: list = field(default_factory=list)
    log_scale: float = 0.0


def guarded_ratio(num: np.ndarray, den: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Division with the positivity guard.

    Denominators below the floor (including sign flips from rounding
    noise or a transient over-extrapolated iterate) yield a zero ratio;
    the true fields are nonnegative, so one pass of the cycle restores
    positivity at such points.  Only a systematic breakdown raises: the
    majority of the batch's significant numerator mass (judged against
    the batch's largest numerator) with dead denominators.  Final state
    quality is separately gated by the mass and terminal-identity checks.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    bad = den < DIVISION_FLOOR
    if np.any(bad):
        scale = float(num.max()) if num.size else 0.0
        significant = num > max(1e-9 * scale, 1e-250)
        sig_mass = num[significant].sum()
        dead_mass = num[bad & significant].sum()
        if sig_mass > 0 and dead_mass > 0.5 * sig_mass:
            row = int(np.nonzero(bad & significant)[0][0])
            raise DivisionFloorError(np.atleast_2d(indices)[row])
    out = num / np.where(bad, 1.0, den)
    out[bad] = 0.0
    return out


def anderson_alpha(r_norm_sq: float, r_old_norm_sq: float, cross: float) -> float | None:
    """Closed-form minimizer of || a*r + (1-a)*r_old ||^2 over a, with
    ``cross`` = <r, r_old>; ``None`` unless || r - r_old ||^2 exceeds
    1e-28 || r ||^2 (the residuals are numerically identical)."""
    diff_sq = r_norm_sq - 2.0 * cross + r_old_norm_sq
    if not diff_sq > 1e-28 * r_norm_sq:
        return None
    return (r_old_norm_sq - cross) / diff_sq


@dataclass
class CycleResult:
    eta_new: TTTensor
    eta_hat_0: TTTensor
    eta_hat_T: TTTensor
    terminal_info: CrossInfo     # the terminal stage's cross


def cycle(eta: TTTensor, rho_prev: TTTensor, rho_inf, grid: Grid, T: float,
          beta: float, config: FixedPointConfig, warm: CycleResult | None = None,
          rng: np.random.Generator | None = None,
          validation: np.ndarray | None = None, log_scale: float = 0.0) -> CycleResult:
    """One pass around the four-stage fixed-point cycle.

    ``rho_inf`` is anything with an ``eval_batch(indices)`` method (the
    cached posterior oracle in production); the terminal stage divides
    ``exp(-log_scale) * rho_inf``.  Both crosses run with ``config.cross``
    and are rounded to ``config.trunc_tol`` under its rank cap.  ``warm``
    carries the previous pass, whose tensors seed the cross index sets; a
    fixed ``validation`` set keeps the cross convergence probes cacheable
    across iterations.
    """
    prop = HeatPropagator(grid, beta * T)
    eta_0 = prop.apply(eta)

    def initial_oracle(idx, rho_vals, eta_0_vals):
        return guarded_ratio(rho_vals, eta_0_vals, idx)

    # a cold start seeds both crosses' pivot sets from the current density,
    # so their first sweeps explore index regions that actually carry mass;
    # eta_hat_T is nearly flat on the box after a long heat flow, and its
    # pivots would miss a target whose support is a small part of the box
    eta_hat_0, _ = tt_cross(
        initial_oracle, grid.shape, config.cross,
        initial_guess=rho_prev if warm is None else warm.eta_hat_0,
        rng=rng, validation=validation, factors=(rho_prev, eta_0),
    )
    eta_hat_0 = tt_round(eta_hat_0, config.trunc_tol, config.cross.max_rank)
    eta_hat_T = prop.apply(eta_hat_0)

    gamma = 1.0 / (1.0 + 2.0 * beta)
    target_scale = np.exp(-log_scale)

    def terminal_oracle(idx, eta_hat_T_vals):
        ratio = guarded_ratio(target_scale * rho_inf.eval_batch(idx), eta_hat_T_vals, idx)
        return ratio**gamma

    eta_new, info = tt_cross(
        terminal_oracle, grid.shape, config.cross,
        initial_guess=rho_prev if warm is None else warm.eta_new,
        rng=rng, validation=validation, factors=(eta_hat_T,),
    )
    eta_new = tt_round(eta_new, config.trunc_tol, config.cross.max_rank)
    return CycleResult(
        eta_new=eta_new, eta_hat_0=eta_hat_0, eta_hat_T=eta_hat_T, terminal_info=info,
    )


def solve_step(rho_prev: TTTensor, rho_inf, grid: Grid, T: float, beta: float,
               config: FixedPointConfig, eta_init: TTTensor | None = None,
               rng: np.random.Generator | None = None, telemetry=None,
               log_scale: float = 0.0) -> StepState:
    """Iterate the gauged cycle to the fixed point of one proximal step.

    ``log_scale`` is the gauge the iteration starts from (a warm start
    passes the previous step's).  Residuals are relative Frobenius norms
    of ``G(x) - x`` before the gauge update, computed by TT inner
    products.  ``telemetry``, when given, receives one dict per
    iteration.  Non-convergence within ``max_iters`` returns a state
    flagged ``converged=False``; a cycle output with no positive overlap
    with its input raises ``RuntimeError`` on that iteration.
    """
    if T <= 0 or beta <= 0:
        raise ValueError("step size T and regularization beta must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    x = eta_init if eta_init is not None else tt_ones(grid.shape)
    gamma = 1.0 / (1.0 + 2.0 * beta)
    log_scale = float(log_scale)

    # one validation set per solve so cross probes hit the density cache
    validation = validation_indices(grid.shape, config.cross, rng)

    history: list[float] = []
    converged = False
    prev = None          # (x, G(x)) of the previous iteration
    result = None
    last_finite = None   # (cycle result, its log-scale)
    iters = 0

    for m in range(config.max_iters):
        result = cycle(
            x, rho_prev, rho_inf, grid, T, beta, config, warm=result, rng=rng,
            validation=validation, log_scale=log_scale,
        )
        g = result.eta_new
        with np.errstate(over="ignore", invalid="ignore"):
            r = tt_axpy(-1.0, x, g)                 # residual g - x
            r_norm_sq = max(tt_inner(r, r), 0.0)
            x_norm_sq = max(tt_inner(x, x), 0.0)
            g_dot_x = tt_inner(g, x)
        x_norm = np.sqrt(x_norm_sq)
        residual = np.sqrt(r_norm_sq) / x_norm if x_norm > 0 else np.inf
        history.append(residual)
        iters = m + 1
        if telemetry is not None:
            telemetry({
                "iter": iters, "residual": residual, "ranks": list(g.ranks),
                "log_scale": log_scale,
                "unique_calls": getattr(rho_inf, "unique_calls", None),
                "total_calls": getattr(rho_inf, "total_calls", None),
            })
        if not np.isfinite(residual):
            break        # iterate left the representable range
        last_finite = (result, log_scale)
        if residual < config.tolerance:
            converged = True
            break

        # gauge: G's output under log-scale l + ln(s)/gamma is G(x)/s, and
        # s = <G(x), x>/<x, x> leaves no scalar mode in the residual
        s = g_dot_x / x_norm_sq
        if not (np.isfinite(s) and s > 0):
            info = result.terminal_info
            raise RuntimeError(
                f"iteration {iters}: the terminal stage's cross has no positive "
                f"overlap with the iterate (<G(x), x> = {g_dot_x:.3g}); that cross "
                f"ended with rel_error {info.rel_error:.3g} after {info.sweeps} "
                f"sweeps (converged={info.converged})"
            )
        log_scale += float(np.log(s)) / gamma
        g = tt_scale(g, 1.0 / s)
        r = tt_axpy(-1.0, x, g)
        r_norm_sq = max(tt_inner(r, r), 0.0)

        x_next = g
        # extrapolate unless the residual genuinely grew; reject candidates
        # the extrapolation drove grossly negative (the true iterates are
        # nonnegative) and fall back to the plain step
        if prev is not None:
            x_old, g_old = prev
            g_old = tt_scale(g_old, 1.0 / s)
            r_old = tt_axpy(-1.0, x_old, g_old)
            r_old_sq = max(tt_inner(r_old, r_old), 0.0)
            if r_norm_sq <= 1.5 * r_old_sq:
                alpha = anderson_alpha(r_norm_sq, r_old_sq, tt_inner(r_old, r))
                if alpha is not None:
                    cand = tt_axpy(alpha, g, tt_scale(g_old, 1.0 - alpha))
                    probe = tt_eval(cand, validation)
                    if probe.min() >= -0.03 * np.max(np.abs(probe)):
                        x_next = cand
        prev = (x, g)
        x = tt_round(x_next, config.trunc_tol, config.cross.max_rank)

    # report the last usable pass with the log-scale its cycle ran under
    if last_finite is not None:
        result, log_scale = last_finite
    return StepState(
        eta_T=result.eta_new, eta_hat_0=result.eta_hat_0,
        eta_hat_T=result.eta_hat_T, T=float(T), beta=float(beta),
        converged=converged, iters=iters, residual_history=history,
        log_scale=log_scale,
    )


def certificate_indices(rho_tt: TTTensor, grid: Grid, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Random grid indices drawn exactly from the model's grid law
    ``rho_tt * w`` (:func:`~ttjko.tt.tt_sample`, trapezoid weights ``w``).

    Used to spot-check pointwise identities where the model carries
    mass; uniform indices in high dimension land almost surely in
    regions of negligible density.
    """
    return tt_sample(rho_tt, all_quadrature_weights(grid), rng.random((n, grid.d)))


def terminal_identity_error(state: StepState, rho_inf, indices: np.ndarray) -> float:
    """Max relative error of ``eta_T^(1+2 beta) * eta_hat_T = exp(-l) rho_inf``."""
    lhs = tt_eval(state.eta_T, indices) ** (1.0 + 2.0 * state.beta)
    lhs = lhs * tt_eval(state.eta_hat_T, indices)
    rhs = np.exp(-state.log_scale) * rho_inf.eval_batch(indices)
    ref = np.maximum(np.abs(rhs), np.finfo(float).tiny)
    return float(np.max(np.abs(lhs - rhs) / ref))

