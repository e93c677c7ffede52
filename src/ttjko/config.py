"""Strict run-configuration schema for the command-line front end.

Configs are plain JSON, and each section is built by the constructor
that owns it.  A section's schema is that constructor's signature: the
section may give any parameter, must give those without a default, and
only the keys it gives are passed on.  So ``config.py`` restates no
default: a setting the file omits takes its constructor's default, in
the CLI and the library alike.  Where a section's JSON keys differ from
its library constructor's (three targets, the initial density) or no
library constructor exists (the seeds, the diagnostics counts, the
importance and verify experiments, the output directory), a small
adapter below is the constructor, and its signature holds that section's
defaults.  The scalar top-level keys ``cache_capacity`` and ``output``
are built the same way, as one-key sections.  Unknown keys anywhere are rejected so
typos fail loudly; an unknown or missing key, or any value the
constructor rejects, is a :class:`ConfigError` naming the section.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cross import CrossConfig
from .diagnostics import MHConfig, SinkhornConfig
from .driver import GaussianInitial, Schedule
from .fixed_point import FixedPointConfig
from .grid import Grid
from .sampler import SamplerConfig
from .targets import (CachedDensity, DoubleMoon, Gaussian, GaussianMixture,
                      NonconvexPotential, hyperbolic_posterior, parabolic_posterior)
from .tt import is_count


class ConfigError(ValueError):
    pass


def _require_keys(spec, allowed: set, required: set, section: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} at {section}")
    missing = required - set(spec)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} at {section}")


def _build(section: str, ctor, spec, **fixed):
    """``ctor(**spec, **fixed)``, with the keys of ``spec`` checked against
    the parameters of ``ctor`` that ``fixed`` leaves open; a ``TypeError``
    or ``ValueError`` of the constructor becomes a ConfigError naming
    ``section``."""
    params = inspect.signature(ctor).parameters
    _require_keys(spec, set(params) - set(fixed),
                  {name for name, p in params.items() if p.default is p.empty} - set(fixed),
                  section)
    try:
        return ctor(**spec, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _gaussian(d=2, var=0.5, mean=None, mean_half_width=1.5, seed=0) -> Gaussian:
    """A Gaussian with diagonal variance ``var``; without a ``mean``, its mean
    is drawn by ``seed`` uniformly from ``[-mean_half_width, mean_half_width]^d``."""
    if mean is None:
        mean = np.random.default_rng(seed).uniform(-mean_half_width, mean_half_width,
                                                   size=d)
    return Gaussian(mean=mean, var=var)


def _gaussian_mixture(d, n_components, var, half_width=1.5, seed=0) -> GaussianMixture:
    return GaussianMixture.random(d=d, k=n_components, var=var, half_width=half_width,
                                  rng=np.random.default_rng(seed))


def _double_moon(d, a=DoubleMoon.a) -> DoubleMoon:
    return DoubleMoon(dim=d, a=a)


#: the constructor of each ``target.type``, given the section's other keys
TARGETS = {"gaussian": _gaussian, "gaussian_mixture": _gaussian_mixture,
           "double_moon": _double_moon, "nonconvex": NonconvexPotential.alternating,
           "hyperbolic": hyperbolic_posterior, "parabolic": parabolic_posterior}


def build_target(spec: dict):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("target.type is required")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in TARGETS:
        raise ConfigError(f"unknown target type {kind!r}")
    return _build("target", TARGETS[kind], {k: v for k, v in spec.items() if k != "type"})


def build_fixed_point(spec: dict) -> FixedPointConfig:
    """The ``fixed_point`` section; its key ``truncation.tolerance`` is the
    parameter ``trunc_tol``."""
    if not isinstance(spec, dict):
        raise ConfigError("fixed_point must be a JSON object")
    trunc = spec.get("truncation", {})
    _require_keys(trunc, {"tolerance"}, set(), "fixed_point.truncation")
    kwargs = {k: v for k, v in spec.items() if k != "truncation"}
    if "cross" in kwargs:
        kwargs["cross"] = _build("fixed_point.cross", CrossConfig, kwargs["cross"])
    return _build("fixed_point", FixedPointConfig, kwargs,
                  trunc_tol=trunc.get("tolerance", FixedPointConfig.trunc_tol))


def _check_counts(least: int, **counts) -> None:
    for name, n in counts.items():
        if not is_count(n, least):
            raise ValueError(f"{name} must be an integer >= {least}")


def _diagnostics(sinkhorn: SinkhornConfig, mh: MHConfig, n_sample_sets=20,
                 sample_size=400) -> dict:
    """The benchmark's solvers and its ``n_sample_sets`` sets of ``sample_size``
    samples per method."""
    _check_counts(1, n_sample_sets=n_sample_sets, sample_size=sample_size)
    return {"sinkhorn": sinkhorn, "mh": mh, "n_sample_sets": n_sample_sets,
            "sample_size": sample_size}


def build_diagnostics(spec: dict) -> dict:
    """The ``diagnostics`` section; its ``sinkhorn`` and ``mh`` keys are sections
    of their own."""
    if not isinstance(spec, dict):
        raise ConfigError("diagnostics must be a JSON object")
    counts = {k: v for k, v in spec.items() if k not in ("sinkhorn", "mh")}
    return _build("diagnostics", _diagnostics, counts,
                  sinkhorn=_build("diagnostics.sinkhorn", SinkhornConfig,
                                  spec.get("sinkhorn", {})),
                  mh=_build("diagnostics.mh", MHConfig, spec.get("mh", {})))


def _initial(d, mean=0.0, std=1.0) -> GaussianInitial:
    """The initial density; a scalar ``mean`` or ``std`` holds on every axis."""
    return GaussianInitial(mean=np.full(d, mean, dtype=float), std=std)


def _seeds(model=0, sampling=1, mcmc=2, reference=3) -> dict:
    """Base seeds of the fit, the sampler, the short MH chain and the reference sets."""
    seeds = {"model": model, "sampling": sampling, "mcmc": mcmc, "reference": reference}
    _check_counts(0, **seeds)
    return seeds


def seeds_from(base: int) -> dict:
    """The seeds ``--seed base`` sets: each default seed plus ``base``."""
    return _build("seeds", _seeds, {name: base + seed for name, seed in _seeds().items()})


def _importance(T=1e3, beta=1e-2, n=400, repeats=10) -> dict:
    """The importance experiment: one proximal step ``(T, beta)`` toward ``|F|``
    times the fit, then ``repeats`` trials of ``n`` samples of each estimator
    (their spread is a sample std, so it needs two)."""
    ((T, beta),) = Schedule([(T, beta)])
    _check_counts(1, n=n)
    _check_counts(2, repeats=repeats)
    return {"T": T, "beta": beta, "n": n, "repeats": repeats}


def _verify(fixed_point: FixedPointConfig, betas=(1e-1, 1e-2, 1e-3, 1e-4),
            Ts=(1e2, 1e3, 1e4, 1e5), max_iters=None) -> dict:
    """The verification sweep: one single-step fit per ``(betas[k], Ts[k])``,
    each with the fit's ``fixed_point`` config, whose ``max_iters`` this may
    override."""
    if len(betas) != len(Ts):
        raise ValueError("betas and Ts must be lists of one length")
    if max_iters is not None:
        fixed_point = replace(fixed_point, max_iters=max_iters)
    return {"sweep": [Schedule([(T, beta)]) for beta, T in zip(betas, Ts)],
            "fixed_point": fixed_point}


def _output(output="runs/out") -> Path:
    """The output directory."""
    if not isinstance(output, str):
        raise TypeError(f"output must be a path string, not {output!r}")
    return Path(output)


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
    importance: dict
    verify: dict
    echo: dict = field(default_factory=dict)


_TOP_KEYS = {f.name for f in fields(RunConfig)} - {"echo"}


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, _TOP_KEYS, {"target", "grid", "schedule"}, "<top>")
    target = build_target(raw["target"])
    d = target.dim
    grid = _build("grid", Grid.regular, raw["grid"], d=d)
    fixed_point = build_fixed_point(raw.get("fixed_point", {}))

    if not isinstance(raw["schedule"], list):
        raise ConfigError("schedule must be a list of {T, beta} objects")
    steps = [_build(f"schedule[{k}]", lambda T, beta: (T, beta), s)
             for k, s in enumerate(raw["schedule"])]

    def scalar(key, param):
        """The top-level ``key`` as a section whose one key is ``param``."""
        return {param: raw[key]} if key in raw else {}

    return RunConfig(
        target=target,
        grid=grid,
        schedule=_build("schedule", Schedule, {"steps": steps}),
        fixed_point=fixed_point,
        sampler=_build("sampler", SamplerConfig, raw.get("sampler", {})),
        diagnostics=build_diagnostics(raw.get("diagnostics", {})),
        initial=_build("initial", _initial, raw.get("initial", {}), d=d),
        seeds=_build("seeds", _seeds, raw.get("seeds", {})),
        # checked by the cache it configures, as the fit builds it
        cache_capacity=_build("cache_capacity", CachedDensity,
                              scalar("cache_capacity", "capacity"), fn=None, grid=grid).capacity,
        output=_build("output", _output, scalar("output", "output")),
        importance=_build("importance", _importance, raw.get("importance", {})),
        verify=_build("verify", _verify, raw.get("verify", {}), fixed_point=fixed_point),
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
    return parse_config(raw)
