"""Where the traced run wraps ttjko's layers, and the per-layer metrics it reports.

Each site is a public entry point replaced at the place its caller looks
it up, so ``tt_eval`` is wrapped three times (as ``cross``,
``fixed_point`` and ``driver`` see it) under one span name.  The stage
calls themselves (``driver.run``, ``sampler.sample``,
``metropolis_hastings``, ``double_ot_protocol``) are spanned by the
workloads, not patched.
"""

from __future__ import annotations

import numpy as np

from ttjko import cross, diagnostics, driver, fixed_point, heat, sampler, targets

#: span names of the stage calls a workload makes itself
SOLVE_SPANS = ("driver.run", "diagnostics.mh")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def rows(pos, name):
    """Counter of the batch size of argument ``pos`` (or keyword ``name``)."""
    def count(args, kwargs, out):
        a = np.asarray(_arg(args, kwargs, pos, name))
        return {"points": 1 if a.ndim < 2 else a.shape[0]}
    return count


def _cross_counts(args, kwargs, out):
    info = out[1]
    return {"points": info.n_calls, "sweeps": info.sweeps,
            "unconverged": int(not info.converged)}


def _ot_counts(args, kwargs, out):
    return {"unconverged": int(not out[1])}


def sites():
    """(owner, attribute, span name, counter) for every patched entry point."""
    eval_points = rows(1, "indices")
    return [
        (driver, "solve_step", "fixed_point.solve_step", None),
        (driver, "product_density", "driver.product_density", None),
        (driver, "kl_estimate", "driver.kl_estimate", None),
        (driver, "tt_cross", "cross.tt_cross", _cross_counts),
        (driver, "tt_eval", "tt.tt_eval", eval_points),
        (driver, "tt_round", "tt.tt_round", None),
        (fixed_point, "cycle", "fixed_point.cycle", None),
        (fixed_point, "tt_cross", "cross.tt_cross", _cross_counts),
        (fixed_point, "tt_eval", "tt.tt_eval", eval_points),
        (fixed_point, "tt_round", "tt.tt_round", None),
        (cross, "maxvol", "cross.maxvol", None),
        (cross, "tt_eval", "tt.tt_eval", eval_points),
        (heat.HeatPropagator, "apply", "heat.apply", None),
        (targets.CachedDensity, "eval_batch", "targets.lookup", rows(1, "indices")),
        (sampler.StepDynamics, "__init__", "sampler.dynamics_init", None),
        (sampler.StepDynamics, "ode_drift", "sampler.ode_drift", rows(2, "x")),
        (sampler.StepDynamics, "sde_drift", "sampler.sde_drift", rows(2, "x")),
        (diagnostics, "entropic_ot", "diagnostics.entropic_ot", _ot_counts),
    ]


def metrics(summary: dict, body_s: float, quality: dict) -> dict:
    """Per-layer metric values, keyed as in BENCHMARK.json's ``per_layer``.

    Times are shares (%) of the traced workload body (solve plus
    evaluate stage), so a layer a workload never enters reads 0 rather
    than a constant time.  ``summary`` is :meth:`Tracer.summary`.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def pct(name, key="time_s"):
        return 100.0 * get(name, key) / body_s

    lookups = get("targets.lookup", "points")
    misses = get("targets.density", "points")
    out = dict(quality)
    out.update({
        "cross.tt_cross.calls": get("cross.tt_cross", "calls"),
        "cross.tt_cross.points": get("cross.tt_cross", "points"),
        "cross.tt_cross.sweeps": get("cross.tt_cross", "sweeps"),
        "cross.tt_cross.unconverged": get("cross.tt_cross", "unconverged"),
        "cross.tt_cross.time_pct": pct("cross.tt_cross"),
        "cross.maxvol.calls": get("cross.maxvol", "calls"),
        "cross.maxvol.time_pct": pct("cross.maxvol"),
        "tt.tt_eval.calls": get("tt.tt_eval", "calls"),
        "tt.tt_eval.points": get("tt.tt_eval", "points"),
        "tt.tt_eval.time_pct": pct("tt.tt_eval"),
        "tt.tt_round.calls": get("tt.tt_round", "calls"),
        "tt.tt_round.time_pct": pct("tt.tt_round"),
        "targets.lookup.calls": get("targets.lookup", "calls"),
        "targets.lookup.points": lookups,
        "targets.lookup.self_pct": pct("targets.lookup", "self_s"),
        "targets.lookup.hit_pct": 100.0 * (1.0 - misses / lookups) if lookups else 0.0,
        "targets.density.calls": get("targets.density", "calls"),
        "targets.density.points": misses,
        "targets.density.time_pct": pct("targets.density"),
        "fixed_point.cycle.calls": get("fixed_point.cycle", "calls"),
        "fixed_point.cycle.self_pct": pct("fixed_point.cycle", "self_s"),
        "fixed_point.solve_step.self_pct": pct("fixed_point.solve_step", "self_s"),
        "heat.apply.calls": get("heat.apply", "calls"),
        "heat.apply.time_pct": pct("heat.apply"),
        "driver.kl_estimate.time_pct": pct("driver.kl_estimate"),
        "driver.product_density.time_pct": pct("driver.product_density"),
        "sampler.dynamics_init.calls": get("sampler.dynamics_init", "calls"),
        "sampler.dynamics_init.time_pct": pct("sampler.dynamics_init"),
        "sampler.ode_drift.calls": get("sampler.ode_drift", "calls"),
        "sampler.ode_drift.points": get("sampler.ode_drift", "points"),
        "sampler.ode_drift.time_pct": pct("sampler.ode_drift"),
        "sampler.sde_drift.calls": get("sampler.sde_drift", "calls"),
        "sampler.sde_drift.points": get("sampler.sde_drift", "points"),
        "sampler.sde_drift.time_pct": pct("sampler.sde_drift"),
        "diagnostics.entropic_ot.calls": get("diagnostics.entropic_ot", "calls"),
        "diagnostics.entropic_ot.unconverged": get("diagnostics.entropic_ot", "unconverged"),
        "diagnostics.entropic_ot.time_pct": pct("diagnostics.entropic_ot"),
        "diagnostics.mh.density_points": get("diagnostics.mh.density", "points"),
        "diagnostics.mh.time_pct": pct("diagnostics.mh"),
    })
    return out
