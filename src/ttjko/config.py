"""Strict run-configuration schema for the command-line front end.

Configs are plain JSON; unknown keys anywhere are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cross import CrossConfig
from .diagnostics import MHConfig, SinkhornConfig
from .driver import GaussianInitial, Schedule
from .fixed_point import FixedPointConfig
from .grid import Grid
from .sampler import SamplerConfig
from .targets import (DoubleMoon, Gaussian, GaussianMixture, NonconvexPotential,
                      hyperbolic_posterior, parabolic_posterior)


class ConfigError(ValueError):
    pass


def _require_keys(d: dict, allowed: set, required: set, path: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} at {path}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} at {path}")


_TARGET_SCHEMAS = {
    "gaussian": ({"type", "mean", "var", "seed", "d", "mean_half_width"}, set()),
    "gaussian_mixture": ({"type", "d", "n_components", "var", "half_width", "seed"},
                         {"d", "n_components", "var"}),
    "double_moon": ({"type", "d", "a"}, {"d"}),
    "nonconvex": ({"type", "d"}, {"d"}),
    "hyperbolic": ({"type", "d", "sigma_meas", "sigma_prior", "n_t", "n_x",
                    "t_range", "x_range", "ordered", "seed"}, {"d"}),
    "parabolic": ({"type", "d", "sigma_meas", "sigma0", "n_t", "n_x",
                   "t_range", "x_range", "gap", "seed"}, {"d"}),
}


def build_target(spec: dict):
    if "type" not in spec:
        raise ConfigError("target.type is required")
    kind = spec["type"]
    if kind not in _TARGET_SCHEMAS:
        raise ConfigError(f"unknown target type {kind!r}")
    allowed, required = _TARGET_SCHEMAS[kind]
    _require_keys(spec, allowed, required, "target")
    if kind == "gaussian":
        if "mean" in spec:
            mean = np.asarray(spec["mean"], dtype=float)
        else:
            d = int(spec.get("d", 2))
            half = float(spec.get("mean_half_width", 1.5))
            mean = np.random.default_rng(spec.get("seed", 0)).uniform(-half, half, size=d)
        return Gaussian(mean=mean, var=np.asarray(spec.get("var", 0.5)))
    if kind == "gaussian_mixture":
        return GaussianMixture.random(
            d=int(spec["d"]), k=int(spec["n_components"]), var=float(spec["var"]),
            half_width=float(spec.get("half_width", 1.5)),
            rng=np.random.default_rng(spec.get("seed", 0)),
        )
    if kind == "double_moon":
        return DoubleMoon(dim=int(spec["d"]), a=float(spec.get("a", 2.0)))
    if kind == "nonconvex":
        return NonconvexPotential.alternating(int(spec["d"]))
    if kind == "hyperbolic":
        return hyperbolic_posterior(
            d=int(spec["d"]), sigma_meas=float(spec.get("sigma_meas", 0.1)),
            sigma_prior=float(spec.get("sigma_prior", 1.5)),
            n_t=int(spec.get("n_t", 5)), n_x=int(spec.get("n_x", 10)),
            t_range=tuple(spec.get("t_range", (0.2, 2.0))),
            x_range=tuple(spec.get("x_range", (-4.0, 4.0))),
            ordered=bool(spec.get("ordered", True)), seed=int(spec.get("seed", 0)),
        )
    if kind == "parabolic":
        return parabolic_posterior(
            d=int(spec["d"]), sigma_meas=float(spec.get("sigma_meas", 0.05)),
            sigma0=float(spec.get("sigma0", 1.5)),
            n_t=int(spec.get("n_t", 5)), n_x=int(spec.get("n_x", 10)),
            t_range=tuple(spec.get("t_range", (0.005, 0.05))),
            x_range=tuple(spec.get("x_range", (-1.0, 1.0))),
            gap=tuple(spec["gap"]) if spec.get("gap") else None,
            seed=int(spec.get("seed", 0)),
        )
    raise AssertionError(kind)


def build_grid(spec: dict, d: int) -> Grid:
    _require_keys(spec, {"lower", "upper", "nodes"}, {"lower", "upper", "nodes"}, "grid")
    return Grid.regular(spec["lower"], spec["upper"], spec["nodes"], d=d)


def build_fixed_point(spec: dict) -> FixedPointConfig:
    allowed = {"tolerance", "max_iters", "truncation", "cross"}
    _require_keys(spec, allowed, set(), "fixed_point")
    trunc = spec.get("truncation", {})
    _require_keys(trunc, {"tolerance", "max_rank"}, set(), "fixed_point.truncation")
    cross_spec = spec.get("cross", {})
    _require_keys(cross_spec, {"max_rank", "tolerance", "max_sweeps", "rank_adaptive"},
                  set(), "fixed_point.cross")
    max_rank = int(trunc.get("max_rank", 10))
    cross = CrossConfig(
        max_rank=int(cross_spec.get("max_rank", max_rank)),
        tolerance=float(cross_spec.get("tolerance", 1e-7)),
        max_sweeps=int(cross_spec.get("max_sweeps", 6)),
        rank_adaptive=bool(cross_spec.get("rank_adaptive", True)),
    )
    return FixedPointConfig(
        tolerance=float(spec.get("tolerance", 1e-5)),
        max_iters=int(spec.get("max_iters", 1000)),
        trunc_tol=float(trunc.get("tolerance", 1e-8)),
        max_rank=max_rank,
        cross=cross,
    )


def build_sampler(spec: dict) -> SamplerConfig:
    allowed = {"epsilon_sde", "rel_tol", "abs_tol", "n_em_steps", "n_time_nodes"}
    _require_keys(spec, allowed, set(), "sampler")
    return SamplerConfig(**{k: spec[k] for k in spec})


def build_diagnostics(spec: dict) -> dict:
    allowed = {"sinkhorn", "mh", "n_sample_sets", "sample_size"}
    _require_keys(spec, allowed, set(), "diagnostics")
    sink_spec = spec.get("sinkhorn", {})
    _require_keys(sink_spec, {"epsilon", "max_iters", "threshold"}, set(),
                  "diagnostics.sinkhorn")
    mh_spec = spec.get("mh", {})
    _require_keys(mh_spec, {"n_chains", "n_steps", "proposal_std", "burn_in",
                            "thin", "init_std", "auto_tune"}, set(), "diagnostics.mh")
    return {
        "sinkhorn": SinkhornConfig(
            epsilon=sink_spec.get("epsilon"),
            max_iters=int(sink_spec.get("max_iters", 300)),
            threshold=float(sink_spec.get("threshold", 1e-5)),
        ),
        "mh": MHConfig(
            n_chains=int(mh_spec.get("n_chains", 400)),
            n_steps=int(mh_spec.get("n_steps", 10000)),
            proposal_std=float(mh_spec.get("proposal_std", 0.5)),
            burn_in=float(mh_spec.get("burn_in", 0.3)),
            thin=int(mh_spec.get("thin", 1)),
            init_std=float(mh_spec.get("init_std", 1.0)),
            auto_tune=bool(mh_spec.get("auto_tune", True)),
        ),
        "n_sample_sets": int(spec.get("n_sample_sets", 20)),
        "sample_size": int(spec.get("sample_size", 400)),
    }


@dataclass
class RunConfig:
    target: object
    grid: Grid
    schedule: Schedule
    fixed_point: FixedPointConfig
    sampler: SamplerConfig
    diagnostics: dict
    initial: GaussianInitial
    seeds: dict
    cache_capacity: int | None
    output: Path
    importance: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)


_TOP_KEYS = {"target", "grid", "schedule", "fixed_point", "sampler", "diagnostics",
             "initial", "seeds", "cache_capacity", "output", "importance", "verify"}


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, _TOP_KEYS, {"target", "grid", "schedule"}, "<top>")
    target = build_target(raw["target"])
    d = target.dim
    grid = build_grid(raw["grid"], d)

    sched_raw = raw["schedule"]
    if not isinstance(sched_raw, list) or not all(isinstance(s, dict) for s in sched_raw):
        raise ConfigError("schedule must be a list of {T, beta} objects")
    steps = []
    for k, s in enumerate(sched_raw):
        _require_keys(s, {"T", "beta"}, {"T", "beta"}, f"schedule[{k}]")
        steps.append((float(s["T"]), float(s["beta"])))

    seeds_raw = raw.get("seeds", {})
    _require_keys(seeds_raw, {"model", "sampling", "mcmc", "reference"}, set(), "seeds")
    seeds = {
        "model": int(seeds_raw.get("model", 0)),
        "sampling": int(seeds_raw.get("sampling", 1)),
        "mcmc": int(seeds_raw.get("mcmc", 2)),
        "reference": int(seeds_raw.get("reference", 3)),
    }

    init_raw = raw.get("initial", {})
    _require_keys(init_raw, {"mean", "std"}, set(), "initial")
    mean = np.broadcast_to(np.asarray(init_raw.get("mean", 0.0), dtype=float), (d,))
    std = np.broadcast_to(np.asarray(init_raw.get("std", 1.0), dtype=float), (d,))
    initial = GaussianInitial(mean=mean.copy(), std=std.copy())

    imp_raw = raw.get("importance", {})
    _require_keys(imp_raw, {"T", "beta", "n", "repeats"}, set(), "importance")
    ver_raw = raw.get("verify", {})
    _require_keys(ver_raw, {"betas", "Ts", "max_iters"}, set(), "verify")

    return RunConfig(
        target=target,
        grid=grid,
        schedule=Schedule(steps),
        fixed_point=build_fixed_point(raw.get("fixed_point", {})),
        sampler=build_sampler(raw.get("sampler", {})),
        diagnostics=build_diagnostics(raw.get("diagnostics", {})),
        initial=initial,
        seeds=seeds,
        cache_capacity=raw.get("cache_capacity"),
        output=Path(raw.get("output", "runs/out")),
        importance=imp_raw,
        verify=ver_raw,
        echo=raw,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    return parse_config(raw)
