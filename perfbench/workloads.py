"""The benchmark's workloads, driven only through ttjko's public API.

Each workload has a set-up (config, target, grid and inputs, built
from the workload seed) and a repetition of two timed stages:

* ``solve``: the call that builds a sampler of the target, which is the
  TT fit (``driver.run``) or the Metropolis-Hastings chain;
* ``evaluate``: the call that uses it, which is ``sampler.sample`` of
  the fit or ``double_ot_protocol`` on the chain's sample sets.

A repetition checks its outputs and counts failed operations against
the operations attempted.  Its ``outputs`` must repeat exactly between
repetitions and between traced and untraced runs of one seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ttjko import (CachedDensity, GaussianMixture, MHConfig, SinkhornConfig,
                   double_ot_protocol, marginal_1d, metropolis_hastings, run,
                   sample, tt_contract_all)
from ttjko.config import load_config
from ttjko.grid import all_quadrature_weights

from layers import rows

ROOT = Path(__file__).resolve().parent.parent


def seeds_for(seed: int) -> dict:
    """Config seeds for a workload seed, as ``ttjko --seed`` sets them."""
    return {"model": seed, "sampling": seed + 1, "mcmc": seed + 2,
            "reference": seed + 3}


@dataclass
class Rep:
    solve_s: float
    evaluate_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)     # compared exactly
    quality: dict = field(default_factory=dict)     # per-layer result values


#: per-layer result values of a workload without a (successful) fit
NO_FIT = {"fit.iters": 0, "fit.unique_calls": 0, "fit.total_calls": 0,
          "fit.kl": 0.0, "sample.w1": 0.0}


def _span(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def w1_to_density(samples: np.ndarray, nodes: np.ndarray, density: np.ndarray,
                  refine: int = 64) -> float:
    """1-d Wasserstein-1 distance between the empirical law of ``samples``
    and the density that interpolates ``density`` linearly between the
    ``nodes`` (normalized to unit mass).

    Integrates ``|F - G|`` of the two CDFs by the midpoint rule on a grid
    ``refine`` times finer than the nodes.
    """
    x = np.linspace(nodes[0], nodes[-1], (len(nodes) - 1) * refine + 1)
    p = np.interp(x, nodes, density)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(x))])
    cdf /= cdf[-1]
    mid = 0.5 * (x[1:] + x[:-1])
    model_cdf = np.interp(mid, x, cdf)
    emp_cdf = np.searchsorted(np.sort(samples), mid, side="right") / samples.size
    return float(np.sum(np.abs(model_cdf - emp_cdf) * np.diff(x)))


@dataclass
class FitWorkload:
    """Fit a shipped config, then sample ``n_particles`` from the fit."""

    config: str
    n_particles: int = 400

    def setup(self, seed: int):
        cfg = load_config(ROOT / self.config)
        cfg.seeds = seeds_for(seed)
        return cfg

    def run(self, cfg, tracer=None) -> Rep:
        n = self.n_particles
        density = cfg.target.density
        if tracer is not None:
            density = tracer.wrap("targets.density", density, rows(0, "x"))
        rho_inf = CachedDensity(density, cfg.grid, capacity=cfg.cache_capacity)
        rng = np.random.default_rng(cfg.seeds["model"])
        t0 = time.perf_counter()
        try:
            model = _span(tracer, "driver.run", run, cfg.initial, rho_inf, cfg.grid,
                          cfg.schedule, cfg.fixed_point, rng=rng)
        except Exception as exc:         # a fit that raises is a failed operation
            return Rep(time.perf_counter() - t0, 0.0, 1 + n, 1 + n,
                       [f"fit raised {type(exc).__name__}: {exc}"], quality=NO_FIT)
        t1 = time.perf_counter()
        ens = _span(tracer, "sampler.sample", sample, model, n, cfg.sampler,
                    seed=cfg.seeds["sampling"], force=True)
        t2 = time.perf_counter()

        problems = []
        kl = float(model.kl_history[-1])
        mass = tt_contract_all(model.rho_tt, all_quadrature_weights(cfg.grid))
        if not model.converged:
            problems.append("fit did not converge")
        if not np.isfinite(kl):
            problems.append(f"KL is {kl}")
        if not (np.isfinite(mass) and mass > 0):
            problems.append(f"fitted mass is {mass}")
        x = ens.positions
        if x.shape != (n, cfg.grid.d) or not np.all(np.isfinite(x)):
            problems.append("samples are not finite")
        elif np.any((x < cfg.grid.lower) | (x > cfg.grid.upper)):
            problems.append("samples leave the grid box")
        flagged = ens.rescued | ens.unfinished | ens.clamped
        try:
            w1 = max(w1_to_density(x[:, k], cfg.grid.axis_nodes(k),
                                   marginal_1d(model, k))
                     for k in range(cfg.grid.d))
        except ValueError as exc:        # a marginal without mass
            problems.append(f"marginal: {exc}")
            w1 = 0.0
        iters = sum(s.iters for s in model.steps)
        return Rep(
            solve_s=t1 - t0, evaluate_s=t2 - t1, attempted=1 + n,
            failed=int(not model.converged) + int(flagged.sum()),
            problems=problems,
            outputs={"fit_iters": iters, "unique_calls": rho_inf.unique_calls,
                     "total_calls": rho_inf.total_calls, "kl": kl,
                     "positions": _digest(x)},
            quality={"fit.iters": iters, "fit.unique_calls": rho_inf.unique_calls,
                     "fit.total_calls": rho_inf.total_calls, "fit.kl": kl,
                     "sample.w1": w1},
        )


@dataclass
class DiagWorkload:
    """The paper's sample-quality protocol without a fit: exact reference
    sets from a fixed d=6 Gaussian mixture against sets taken from an
    auto-tuned Metropolis-Hastings chain, compared by double OT."""

    n_sets: int = 5
    set_size: int = 200
    mh_steps: int = 10000

    def setup(self, seed: int):
        seeds = seeds_for(seed)
        target = GaussianMixture.random(d=6, k=3, var=0.5, half_width=1.5,
                                        rng=np.random.default_rng(0))
        ref_rng = np.random.default_rng(seeds["reference"])
        refs = [target.sample(self.set_size, ref_rng) for _ in range(self.n_sets)]
        return {"target": target, "refs": refs, "seeds": seeds}

    def run(self, state, tracer=None) -> Rep:
        target = state["target"]
        density = target.density
        if tracer is not None:
            density = tracer.wrap("diagnostics.mh.density", density, rows(0, "x"))
        mh_cfg = MHConfig(n_chains=self.set_size, n_steps=self.mh_steps,
                          proposal_std=0.5, burn_in=0.3, thin=10, auto_tune=True)
        rng = np.random.default_rng(state["seeds"]["mcmc"])
        t0 = time.perf_counter()
        chain = _span(tracer, "diagnostics.mh", metropolis_hastings, density,
                      target.dim, mh_cfg, rng)
        kept = chain.chains.shape[1]
        picks = np.linspace(0, kept - 1, self.n_sets).round().astype(int)
        sets = [chain.chains[:, i, :] for i in picks]
        t1 = time.perf_counter()
        report = _span(tracer, "diagnostics.double_ot", double_ot_protocol,
                       {"ref": state["refs"], "mcmc": sets},
                       SinkhornConfig(max_iters=150, threshold=1e-4))
        t2 = time.perf_counter()

        values = np.concatenate([report.within_ref.values,
                                 report.to_ref["mcmc"].values,
                                 [report.double_ot["mcmc"]]])
        bad_values = int(np.count_nonzero(~np.isfinite(values)))
        bad_chains = int(np.count_nonzero(~np.all(np.isfinite(chain.chains), axis=(1, 2))))
        problems = []
        if bad_values:
            problems.append(f"{bad_values} Sinkhorn or double-OT values are not finite")
        if bad_chains:
            problems.append(f"{bad_chains} MH chains hold non-finite states")
        return Rep(
            solve_s=t1 - t0, evaluate_s=t2 - t1,
            attempted=values.size + self.set_size, failed=bad_values + bad_chains,
            problems=problems,
            outputs={"chains": _digest(chain.chains), "values": _digest(values)},
            quality=NO_FIT,
        )


WORKLOADS = {
    "moon6": FitWorkload("configs/double_moon_d6.json"),
    "gauss16": FitWorkload("configs/gaussian_verification.json"),
    "diag6": DiagWorkload(),
}
