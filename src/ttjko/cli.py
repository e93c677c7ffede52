"""Batch command-line entry point.

Subcommands: fit, sample, benchmark, invert, importance, verify.  Every
command takes a JSON config as its positional argument, is deterministic
under fixed seeds, and emits CSV tables with a JSON sidecar echoing the
full configuration.  Exit codes: 0 ok, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .config import ConfigError, RunConfig, load_config, seeds_from
from .driver import MODEL_META, FlowModel, marginal_1d, run
from .importance import compare_estimators, fit_importance, sum_of_parameters
from .sampler import sample
from .targets import CachedDensity, GaussianMixture, PosteriorTarget, save_measurements


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_sidecar(path, cfg: RunConfig, extra=None):
    payload = {"config": cfg.echo}
    if extra:
        payload.update(extra)
    with open(Path(path).with_suffix(".json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)


def _telemetry_writer(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w")

    def emit(record):
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    return emit, fh


def _cached_target(cfg: RunConfig) -> CachedDensity:
    return CachedDensity(cfg.target.density, cfg.grid, capacity=cfg.cache_capacity)


def _fit_model(cfg: RunConfig, out: Path):
    rho_inf = _cached_target(cfg)
    emit, fh = _telemetry_writer(out / "telemetry.jsonl")
    try:
        model = run(cfg.initial, rho_inf, cfg.grid, cfg.schedule, cfg.fixed_point,
                    rng=np.random.default_rng(cfg.seeds["model"]), telemetry=emit)
    finally:
        fh.close()
    return model, rho_inf


def cmd_fit(cfg: RunConfig, out: Path) -> int:
    model, rho_inf = _fit_model(cfg, out)
    model.save(out / "model")
    if isinstance(cfg.target, PosteriorTarget):
        save_measurements(out / "measurements.csv", cfg.target.t_meas,
                          cfg.target.x_meas, cfg.target.data)
    summary = {
        "converged": model.converged,
        "kl_history": model.kl_history,
        "kl_stderr": model.kl_stderr,
        "unique_calls": rho_inf.unique_calls,
        "total_calls": rho_inf.total_calls,
        "ranks": [list(s.eta_T.ranks) for s in model.steps],
        "iters": [s.iters for s in model.steps],
        "log_scale": [s.log_scale for s in model.steps],
    }
    with open(out / "fit.json", "w") as fh:
        json.dump({"config": cfg.echo, "summary": summary}, fh, indent=2,
                  sort_keys=True, default=str)
    kl = ", ".join(f"{v:.4g} ± {se:.2g}" for v, se in zip(model.kl_history, model.kl_stderr))
    print(f"fit: converged={model.converged} KL=[{kl}] "
          f"unique={rho_inf.unique_calls} total={rho_inf.total_calls}")
    return 0


def cmd_sample(cfg: RunConfig, out: Path, model_dir: Path, n: int) -> int:
    model = FlowModel.load(model_dir)
    ens = sample(model, n, cfg.sampler, seed=cfg.seeds["sampling"])
    ens.meta["model_dir"] = str(model_dir)
    ens.save(out / "ensemble.csv")
    print(f"wrote {n} samples to {out / 'ensemble.csv'}")
    return 0


def _log_density(target):
    """MH log-density override: minus the potential of an unordered
    posterior (no underflow for concentrated targets), else None."""
    if isinstance(target, PosteriorTarget) and not target.ordered:
        return lambda x: -target.potential(x)
    return None


def _reference_samples(cfg: RunConfig, n_sets: int, n: int):
    """Reference ensembles: exact draws for mixtures, a long MH chain
    (states spaced by the autocorrelation time) otherwise."""
    rng = np.random.default_rng(cfg.seeds["reference"])
    target = cfg.target
    if isinstance(target, GaussianMixture):
        return [target.sample(n, rng) for _ in range(n_sets)], None
    mh_cfg = cfg.diagnostics["mh"]
    cfg_long = dataclasses.replace(mh_cfg, n_chains=n)
    log_density = _log_density(target)
    result = None
    for _ in range(3):
        result = dg.metropolis_hastings(target.density, target.dim, cfg_long, rng,
                                        log_density=log_density)
        if cfg_long.n_steps > 50 * result.tau:
            break
        cfg_long = dataclasses.replace(cfg_long, n_steps=int(np.ceil(60 * result.tau)),
                                       auto_tune=False, proposal_std=result.proposal_std)
    else:
        raise RuntimeError(
            f"reference chain never exceeded 50 autocorrelation times "
            f"(tau ~ {result.tau:.1f}); raise diagnostics.mh.n_steps"
        )
    return result.states(n_sets, result.tau), result


def cmd_benchmark(cfg: RunConfig, out: Path) -> int:
    n_sets = cfg.diagnostics["n_sample_sets"]
    n = cfg.diagnostics["sample_size"]
    model, rho_inf = _fit_model(cfg, out)
    if not model.converged:
        raise RuntimeError("fit did not converge; benchmark aborted")
    ens = sample(model, n * n_sets, cfg.sampler, seed=cfg.seeds["sampling"])
    tt_sets = [ens.positions[i * n:(i + 1) * n] for i in range(n_sets)]

    refs, _ = _reference_samples(cfg, n_sets, n)

    # short chain at the TT method's unique-call budget
    rng = np.random.default_rng(cfg.seeds["mcmc"])
    mh_cfg = cfg.diagnostics["mh"]
    short_steps = max(rho_inf.unique_calls // n, 2)
    target = cfg.target
    short = dg.metropolis_hastings(
        target.density, target.dim,
        dataclasses.replace(mh_cfg, n_chains=n, n_steps=short_steps, burn_in=0.0, thin=1),
        rng, log_density=_log_density(target))
    stride = max(short.chains.shape[1] // n_sets, 1)
    mcmc_sets = [short.chains[:, -(1 + i * stride), :] for i in range(n_sets)][::-1]

    report = dg.double_ot_protocol(
        {"ref": refs, "tt": tt_sets, "mcmc": mcmc_sets}, cfg.diagnostics["sinkhorn"])

    name = cfg.echo["target"]["type"]
    r_max = max(max(s.eta_T.ranks) for s in model.steps)
    row = [name, cfg.target.dim, r_max, rho_inf.unique_calls, rho_inf.total_calls,
           f"{report.within_ref.mean:.4g} +- {report.within_ref.std:.2g}",
           f"{report.to_ref['tt'].mean:.4g} +- {report.to_ref['tt'].std:.2g}",
           f"{report.to_ref['mcmc'].mean:.4g} +- {report.to_ref['mcmc'].std:.2g}",
           f"{report.double_ot['tt']:.3g}", f"{report.double_ot['mcmc']:.3g}"]
    _write_csv(out / "benchmark.csv",
               ["distribution", "d", "r_max", "unique", "total",
                "s2_ref_ref", "s2_ref_tt", "s2_ref_mcmc", "double_ot_tt",
                "double_ot_mcmc"], [row])
    _write_sidecar(out / "benchmark.csv", cfg, {"report": report.to_dict()})
    print("benchmark:", row)
    if report.unconverged:
        print(f"benchmark: {report.unconverged} of {report.solves} Sinkhorn solves "
              "stopped at max_iters unconverged")
    return 0


def _mcmc_marginal_hdi(samples: np.ndarray, nodes: np.ndarray):
    """MAP/HDI of a 1-d sample via a histogram on the grid cells."""
    h = nodes[1] - nodes[0]
    edges = np.concatenate([nodes - h / 2, [nodes[-1] + h / 2]])
    counts, _ = np.histogram(samples, bins=edges)
    dens = counts / max(counts.sum() * h, 1e-300)
    return dg.map_and_hdi(dens, nodes)


def cmd_invert(cfg: RunConfig, out: Path) -> int:
    model, rho_inf = _fit_model(cfg, out)
    model.save(out / "model")
    if not model.converged:
        raise RuntimeError("posterior fit did not converge; invert aborted")
    refs, _ = _reference_samples(cfg, 8, cfg.diagnostics["sample_size"])
    pool = np.concatenate(refs, axis=0)

    rows = []
    d = cfg.target.dim
    for k in range(d):
        nodes = cfg.grid.axis_nodes(k)
        dens = marginal_1d(model, k)
        tt_map, (tt_lo, tt_hi) = dg.map_and_hdi(dens, nodes)
        mc_map, (mc_lo, mc_hi) = _mcmc_marginal_hdi(pool[:, k], nodes)
        length = max(mc_hi - mc_lo, 1e-12)
        eps_rel = 0.5 * (abs(tt_lo - mc_lo) + abs(tt_hi - mc_hi)) / length
        rows.append([k, f"{cfg.target.theta_star[k]:.4f}",
                     f"{mc_lo:.4f}", f"{mc_map:.4f}", f"{mc_hi:.4f}",
                     f"{tt_lo:.4f}", f"{tt_map:.4f}", f"{tt_hi:.4f}",
                     f"{eps_rel:.3f}"])
    _write_csv(out / "invert.csv",
               ["param", "theta_star", "mcmc_min", "mcmc_map", "mcmc_max",
                "tt_min", "tt_map", "tt_max", "eps_rel"], rows)
    _write_sidecar(out / "invert.csv", cfg, {"kl_history": model.kl_history})
    for row in rows:
        print("invert:", row)
    return 0


def cmd_importance(cfg: RunConfig, out: Path) -> int:
    model, rho_inf = _fit_model(cfg, out)
    if not model.converged:
        raise RuntimeError("posterior fit did not converge")
    qoi = sum_of_parameters()
    imp = cfg.importance
    calls_before = rho_inf.unique_calls
    imp_model = fit_importance(
        model, qoi, T=imp["T"], beta=imp["beta"], config=cfg.fixed_point,
        rng=np.random.default_rng(cfg.seeds["model"] + 1))
    assert rho_inf.unique_calls == calls_before, "importance fit must not call the posterior"
    comp = compare_estimators(
        model, imp_model, qoi, n=imp["n"], repeats=imp["repeats"],
        seed=cfg.seeds["sampling"], sampler_config=cfg.sampler)
    rows = [[k, repr(float(plain)), repr(float(weighted))]
            for k, (plain, weighted) in enumerate(zip(comp.plain, comp.weighted))]
    _write_csv(out / "importance.csv", ["trial", "plain_mean", "importance_estimate"], rows)
    _write_sidecar(out / "importance.csv", cfg, {
        "plain_std": comp.plain_std, "weighted_std": comp.weighted_std,
        "posterior_calls_during_importance_fit": rho_inf.unique_calls - calls_before,
    })
    print(f"importance: plain std={comp.plain_std:.4g} weighted std={comp.weighted_std:.4g}")
    return 0


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    rows = []
    for schedule in cfg.verify["sweep"]:
        ((T, beta),) = schedule
        rho_inf = _cached_target(cfg)
        model = run(cfg.initial, rho_inf, cfg.grid, schedule, cfg.verify["fixed_point"],
                    rng=np.random.default_rng(cfg.seeds["model"]))
        state = model.steps[0]
        rows.append([f"{beta:g}", f"{T:g}", state.converged, state.iters,
                     f"{model.kl_history[-1]:.4g}", f"{model.kl_stderr[-1]:.2g}",
                     rho_inf.unique_calls, rho_inf.total_calls])
        print("verify:", rows[-1])
    _write_csv(out / "verify.csv",
               ["beta", "T", "converged", "n_fp", "kl", "kl_se", "unique", "total"], rows)
    _write_sidecar(out / "verify.csv", cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttjko")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "sample", "benchmark", "invert", "importance", "verify"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seeds")
        p.add_argument("--out", default=None, help="output directory")
        if name == "sample":
            p.add_argument("-n", type=int, default=400)
            p.add_argument("--model", default=None, help="fitted model directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seeds = seeds_from(args.seed)
        if args.command == "invert" and not isinstance(cfg.target, PosteriorTarget):
            raise ConfigError("invert requires a hyperbolic or parabolic target")
        out = Path(args.out) if args.out else cfg.output
        if args.command == "sample":
            if args.n < 0:
                raise ConfigError(f"sample: -n must be >= 0, not {args.n}")
            model_dir = Path(args.model) if args.model else out / "model"
            if not (model_dir / MODEL_META).is_file():
                raise ConfigError(f"sample: no fitted model in {model_dir} "
                                  f"(no {MODEL_META}; run fit first or pass --model)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "fit":
            return cmd_fit(cfg, out)
        if args.command == "sample":
            return cmd_sample(cfg, out, model_dir, args.n)
        if args.command == "benchmark":
            return cmd_benchmark(cfg, out)
        if args.command == "invert":
            return cmd_invert(cfg, out)
        if args.command == "importance":
            return cmd_importance(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
