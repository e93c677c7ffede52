"""Command-line front end: schema strictness, determinism, artifacts."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from ttjko import config
from ttjko.cli import main
from ttjko.config import TARGETS, ConfigError, load_config, parse_config
from ttjko.cross import CrossConfig
from ttjko.diagnostics import MHConfig, SinkhornConfig
from ttjko.driver import Schedule
from ttjko.fixed_point import FixedPointConfig
from ttjko.sampler import SamplerConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_gaussian_config(out, **overrides):
    cfg = {
        "target": {"type": "gaussian", "mean": [0.5, -0.3], "var": 0.5},
        "grid": {"lower": -5.0, "upper": 5.0, "nodes": 24},
        "schedule": [{"T": 1e3, "beta": 1e-2}],
        "fixed_point": {
            "tolerance": 1e-5, "max_iters": 300,
            "truncation": {"tolerance": 1e-8},
            "cross": {"max_rank": 8, "tolerance": 1e-7},
        },
        "sampler": {"epsilon_sde": 0.01, "n_em_steps": 10},
        "seeds": {"model": 1, "sampling": 2, "mcmc": 3, "reference": 4},
        "output": str(out),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigSchema:
    def test_unknown_top_key_rejected(self, tmp_path):
        cfg = tiny_gaussian_config(tmp_path / "o", bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(cfg)

    def test_unknown_nested_key_rejected(self, tmp_path):
        for section, key, value in ((None, "stepsize", 0.1), (None, "method", "picard"),
                                    (None, "q", 1.0), ("truncation", "max_rank", 8),
                                    ("cross", "rank_adaptive", False)):
            cfg = tiny_gaussian_config(tmp_path / "o")
            spec = cfg["fixed_point"] if section is None else cfg["fixed_point"][section]
            spec[key] = value
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config(cfg)

    @pytest.mark.parametrize("name, rank_cap", [
        ("double_moon_d6", 3), ("gaussian_verification", 8),
        ("hyperbolic_d6", 4), ("parabolic_d10", 1),
    ])
    def test_shipped_config_loads(self, name, rank_cap):
        cfg = load_config(CONFIGS / f"{name}.json")
        assert cfg.fixed_point.cross.max_rank == rank_cap

    def test_unknown_target_type(self, tmp_path):
        cfg = tiny_gaussian_config(tmp_path / "o")
        cfg["target"] = {"type": "banana"}
        with pytest.raises(ConfigError, match="banana"):
            parse_config(cfg)

    def test_schedule_shape_checked(self, tmp_path):
        cfg = tiny_gaussian_config(tmp_path / "o")
        cfg["schedule"] = [{"T": 1.0}]
        with pytest.raises(ConfigError, match="beta"):
            parse_config(cfg)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.json")

    def test_exit_code_one_on_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["fit", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


def minimal_config(out):
    return {"target": {"type": "gaussian", "mean": [0.5, -0.3]},
            "grid": {"lower": -5.0, "upper": 5.0, "nodes": 24},
            "schedule": [{"T": 1e3, "beta": 1e-2}],
            "output": str(out)}


#: each section: its path in the config, its constructor, the arguments
#: the parser fills in itself (here at their defaults), and where the
#: parsed config holds it
SECTIONS = {
    "fixed_point.cross": (("fixed_point", "cross"), CrossConfig, {},
                          lambda cfg: cfg.fixed_point.cross),
    "sampler": (("sampler",), SamplerConfig, {}, lambda cfg: cfg.sampler),
    "diagnostics.sinkhorn": (("diagnostics", "sinkhorn"), SinkhornConfig, {},
                             lambda cfg: cfg.diagnostics["sinkhorn"]),
    "diagnostics.mh": (("diagnostics", "mh"), MHConfig, {},
                       lambda cfg: cfg.diagnostics["mh"]),
    "diagnostics": (("diagnostics",), config._diagnostics,
                    {"sinkhorn": SinkhornConfig(), "mh": MHConfig()},
                    lambda cfg: cfg.diagnostics),
    "importance": (("importance",), config._importance, {}, lambda cfg: cfg.importance),
    "verify": (("verify",), config._verify, {"fixed_point": FixedPointConfig()},
               lambda cfg: cfg.verify),
}


def set_section(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg.setdefault(key, {})
    cfg[path[-1]] = value


#: the section an error names, and a config value its constructor rejects
REJECTED = [
    pytest.param("initial", {"initial": {"std": -1.0}}, id="negative-std"),
    pytest.param("initial", {"initial": {"std": float("nan")}}, id="nan-initial-std"),
    pytest.param("initial", {"initial": {"mean": float("inf")}}, id="infinite-initial-mean"),
    pytest.param("grid", {"grid": {"lower": float("nan"), "upper": 5.0, "nodes": 24}},
                 id="nan-grid-lower"),
    pytest.param("grid", {"grid": {"lower": -5.0, "upper": float("inf"), "nodes": 24}},
                 id="infinite-grid-upper"),
    pytest.param("target", {"target": {"type": "gaussian", "mean": [0.5, -0.3],
                                       "var": float("nan")}}, id="nan-target-var"),
    pytest.param("target", {"target": {"type": "gaussian", "mean": [float("nan"), 0.0]}},
                 id="nan-target-mean"),
    pytest.param("grid", {"grid": {"lower": [-5.0] * 3, "upper": 5.0, "nodes": 24}},
                 id="grid-lower-length"),
    pytest.param("schedule", {"schedule": [{"T": -1.0, "beta": 1e-2}]}, id="negative-T"),
    pytest.param("schedule", {"schedule": [{"T": float("nan"), "beta": 1e-2}]}, id="nan-T"),
    pytest.param("schedule", {"schedule": [{"T": 1e3, "beta": float("nan")}]}, id="nan-beta"),
    pytest.param("fixed_point.cross", {"fixed_point": {"cross": {"max_rank": 0}}},
                 id="max-rank-0"),
    pytest.param("target", {"target": {"type": "gaussian_mixture", "d": 2,
                                       "n_components": 2, "var": -0.5}},
                 id="negative-mixture-var"),
    pytest.param("sampler", {"sampler": {"n_time_nodes": 7}}, id="odd-time-nodes"),
    pytest.param("fixed_point.cross", {"fixed_point": {"cross": {"max_rank": 2.7}}},
                 id="float-max-rank"),
    pytest.param("fixed_point.cross", {"fixed_point": {"cross": {"max_sweeps": 2.5}}},
                 id="float-max-sweeps"),
    pytest.param("fixed_point", {"fixed_point": {"max_iters": 0}}, id="max-iters-0"),
    pytest.param("fixed_point", {"fixed_point": {"max_iters": 2.7}}, id="float-max-iters"),
    pytest.param("fixed_point", {"fixed_point": {"truncation": {"tolerance": -1e-8}}},
                 id="negative-trunc-tol"),
    pytest.param("diagnostics.sinkhorn", {"diagnostics": {"sinkhorn": {"max_iters": 9.5}}},
                 id="float-sinkhorn-max-iters"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"n_chains": 1.5}}},
                 id="float-n-chains"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"n_steps": 0}}}, id="n-steps-0"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"thin": 0}}}, id="thin-0"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"burn_in": 1.0}}},
                 id="burn-in-1"),
    pytest.param("target", {"target": {"type": "double_moon", "d": 2.7}}, id="float-d"),
    pytest.param("target", {"target": {"type": "parabolic", "d": 2, "gap": []}},
                 id="empty-gap"),
    pytest.param("target", {"target": {"type": "parabolic", "d": 2,
                                       "sigma_meas": float("nan")}}, id="nan-sigma-meas"),
    pytest.param("target", {"target": {"type": "parabolic", "d": 2,
                                       "sigma0": float("inf")}}, id="infinite-sigma0"),
    pytest.param("target", {"target": {"type": "hyperbolic", "d": 2,
                                       "sigma_prior": float("nan")}}, id="nan-sigma-prior"),
    pytest.param("target", {"target": {"type": "hyperbolic", "d": 2,
                                       "t_range": [float("nan"), 2.0]}}, id="nan-t-range"),
    pytest.param("target", {"target": {"type": "double_moon", "d": 2, "a": float("nan")}},
                 id="nan-moon-a"),
    pytest.param("seeds", {"seeds": {"model": 1.5}}, id="float-seed"),
    pytest.param("verify", {"verify": {"betas": [0.1, 0.01], "Ts": [100.0]}},
                 id="verify-lengths"),
    pytest.param("verify", {"verify": {"max_iters": 0}}, id="verify-max-iters-0"),
    pytest.param("verify", {"verify": {"max_iters": 2.7}}, id="verify-float-max-iters"),
    pytest.param("verify", {"verify": {"betas": ["a"], "Ts": [100.0]}}, id="verify-str-beta"),
    pytest.param("importance", {"importance": {"n": 2.7}}, id="importance-float-n"),
    pytest.param("importance", {"importance": {"n": 0}}, id="importance-n-0"),
    pytest.param("importance", {"importance": {"repeats": 1}}, id="importance-repeats-1"),
    pytest.param("importance", {"importance": {"T": -1}}, id="importance-negative-T"),
    pytest.param("importance", {"importance": {"T": float("nan")}}, id="importance-nan-T"),
    pytest.param("importance", {"importance": {"beta": float("nan")}},
                 id="importance-nan-beta"),
    pytest.param("diagnostics", {"diagnostics": {"n_sample_sets": 1.5}},
                 id="float-n-sample-sets"),
    pytest.param("diagnostics", {"diagnostics": {"sample_size": 0}}, id="sample-size-0"),
    pytest.param("cache_capacity", {"cache_capacity": 2.5}, id="float-cache-capacity"),
    pytest.param("cache_capacity", {"cache_capacity": -5}, id="negative-cache-capacity"),
    pytest.param("grid", {"grid": {"lower": -5.0, "upper": 5.0, "nodes": 16.7}},
                 id="float-grid-nodes"),
    pytest.param("output", {"output": 5}, id="non-string-output"),
    # JSON true is a Python bool, which isinstance counts as an int
    pytest.param("fixed_point", {"fixed_point": {"max_iters": True}}, id="true-max-iters"),
    pytest.param("fixed_point.cross", {"fixed_point": {"cross": {"max_rank": True}}},
                 id="true-max-rank"),
    pytest.param("fixed_point.cross", {"fixed_point": {"cross": {"max_sweeps": True}}},
                 id="true-max-sweeps"),
    pytest.param("sampler", {"sampler": {"n_em_steps": True}}, id="true-n-em-steps"),
    pytest.param("diagnostics.sinkhorn", {"diagnostics": {"sinkhorn": {"max_iters": True}}},
                 id="true-sinkhorn-max-iters"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"thin": True}}}, id="true-thin"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"n_chains": True}}},
                 id="true-n-chains"),
    pytest.param("diagnostics.mh", {"diagnostics": {"mh": {"n_steps": True}}},
                 id="true-n-steps"),
    pytest.param("diagnostics", {"diagnostics": {"n_sample_sets": True}},
                 id="true-n-sample-sets"),
    pytest.param("diagnostics", {"diagnostics": {"sample_size": True}}, id="true-sample-size"),
    pytest.param("importance", {"importance": {"n": True}}, id="true-importance-n"),
    pytest.param("seeds", {"seeds": {"model": True}}, id="true-seed"),
    pytest.param("cache_capacity", {"cache_capacity": True}, id="true-cache-capacity"),
    pytest.param("verify", {"verify": {"max_iters": True}}, id="true-verify-max-iters"),
    pytest.param("target", {"target": {"type": "double_moon", "d": True}}, id="true-d"),
]


class TestConstructorSchema:
    """A section's schema and defaults are its constructor's."""

    def test_omitted_sections_take_the_constructor_defaults(self, tmp_path):
        raw = minimal_config(tmp_path)
        del raw["output"]
        cfg = parse_config(raw)
        assert cfg.fixed_point == FixedPointConfig()
        assert cfg.sampler == SamplerConfig()
        assert cfg.diagnostics == {"sinkhorn": SinkhornConfig(), "mh": MHConfig(),
                                   "n_sample_sets": 20, "sample_size": 400}
        assert cfg.importance == {"T": 1e3, "beta": 1e-2, "n": 400, "repeats": 10}
        assert cfg.verify == {
            "sweep": [Schedule([(T, beta)]) for T, beta in
                      ((1e2, 1e-1), (1e3, 1e-2), (1e4, 1e-3), (1e5, 1e-4))],
            "fixed_point": FixedPointConfig()}
        assert cfg.seeds == {"model": 0, "sampling": 1, "mcmc": 2, "reference": 3}
        assert cfg.cache_capacity is None
        assert cfg.output == Path("runs/out")

    def test_one_default_cross(self, tmp_path):
        cross = CrossConfig(max_rank=10, tolerance=1e-7, max_sweeps=6)
        cli = minimal_config(tmp_path)
        cli["fixed_point"] = {"tolerance": 1e-3}
        assert CrossConfig() == FixedPointConfig().cross == cross
        assert FixedPointConfig(tolerance=1e-3).cross == cross
        assert parse_config(cli).fixed_point.cross == cross

    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_section_takes_exactly_its_constructor_parameters(self, tmp_path, name):
        path, ctor, fixed, parsed = SECTIONS[name]
        every = {key: p.default for key, p in inspect.signature(ctor).parameters.items()
                 if key not in fixed}
        cfg = minimal_config(tmp_path)
        set_section(cfg, path, json.loads(json.dumps(every)))
        assert parsed(parse_config(cfg)) == ctor(**fixed)
        set_section(cfg, path, {**every, "bogus": 1})
        with pytest.raises(ConfigError, match=rf"unknown keys \['bogus'\] at {name}$"):
            parse_config(cfg)

    def test_fixed_point_takes_its_parameters_with_truncation_tolerance(self, tmp_path):
        default = FixedPointConfig()
        cfg = minimal_config(tmp_path)
        cfg["fixed_point"] = {"tolerance": default.tolerance, "max_iters": default.max_iters,
                              "truncation": {"tolerance": default.trunc_tol}, "cross": {}}
        assert parse_config(cfg).fixed_point == default
        cfg["fixed_point"]["trunc_tol"] = 1e-8
        with pytest.raises(ConfigError, match=r"unknown keys \['trunc_tol'\] at fixed_point$"):
            parse_config(cfg)

    @pytest.mark.parametrize("kind, allowed, required", [
        ("gaussian", {"mean", "var", "seed", "d", "mean_half_width"}, set()),
        ("gaussian_mixture", {"d", "n_components", "var", "half_width", "seed"},
         {"d", "n_components", "var"}),
        ("double_moon", {"d", "a"}, {"d"}),
        ("nonconvex", {"d"}, {"d"}),
        ("hyperbolic", {"d", "sigma_meas", "sigma_prior", "n_t", "n_x", "t_range",
                        "x_range", "ordered", "seed"}, {"d"}),
        ("parabolic", {"d", "sigma_meas", "sigma0", "n_t", "n_x", "t_range", "x_range",
                       "gap", "seed"}, {"d"}),
    ])
    def test_target_keys(self, kind, allowed, required):
        params = inspect.signature(TARGETS[kind]).parameters
        assert set(params) == allowed
        assert {k for k, p in params.items() if p.default is p.empty} == required

    @pytest.mark.parametrize("section, overrides", REJECTED)
    def test_rejected_value_is_a_config_error(self, tmp_path, capsys, section, overrides):
        cfg = {**minimal_config(tmp_path / "o"), **overrides}
        assert main(["fit", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_every_top_key_has_a_rejected_value(self):
        """A new top-level key cannot skip its constructor's checks."""
        assert config._TOP_KEYS <= {key for case in REJECTED for key in case.values[1]}

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config(tmp_path / "o"))
        assert main(["fit", path, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seeds: model must be an integer >= 0")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_offsets_the_default_seeds(self, tmp_path):
        assert config.seeds_from(7) == {"model": 7, "sampling": 8, "mcmc": 9,
                                        "reference": 10}


class TestFitCommand:
    def test_fit_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_gaussian_config(out))
        assert main(["fit", path]) == 0
        assert (out / "model" / "model.json").exists()
        assert (out / "model" / "rho_tt.tt").exists()
        assert (out / "telemetry.jsonl").exists()
        summary = json.loads((out / "fit.json").read_text())
        assert summary["summary"]["converged"] is True
        assert summary["summary"]["unique_calls"] > 0
        kl, se = summary["summary"]["kl_history"][0], summary["summary"]["kl_stderr"][0]
        assert 0.0 <= kl and 0.0 < se < np.inf
        assert f"KL=[{kl:.4g} ± {se:.2g}]" in capsys.readouterr().out
        lines = (out / "telemetry.jsonl").read_text().strip().split("\n")
        record = json.loads(lines[0])
        assert {"iter", "residual", "ranks", "step", "log_scale"} <= set(record)
        # the log-scale of a step is the one its last iteration ran under
        last = json.loads(lines[-1])
        assert summary["summary"]["log_scale"] == [last["log_scale"]]

    def test_fit_deterministic_under_seed(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path_a = write_config(tmp_path, tiny_gaussian_config(out_a), "a.json")
        path_b = write_config(tmp_path, tiny_gaussian_config(out_b), "b.json")
        assert main(["fit", path_a]) == 0
        assert main(["fit", path_b]) == 0
        for name in ("rho_tt.tt", "step_000.eta_T.tt"):
            assert (out_a / "model" / name).read_bytes() == \
                (out_b / "model" / name).read_bytes()

    def test_posterior_fit_persists_measurements(self, tmp_path):
        out = tmp_path / "p"
        cfg = {
            "target": {"type": "parabolic", "d": 2, "sigma_meas": 0.05,
                       "sigma0": 1.0, "n_t": 3, "n_x": 5, "seed": 3},
            "grid": {"lower": [-3.0, -1.5], "upper": [3.0, 1.5], "nodes": 24},
            "schedule": [{"T": 1e3, "beta": 1e-2}],
            "fixed_point": {"cross": {"max_rank": 4}},
            "seeds": {"model": 1},
            "initial": {"std": [1.0, 0.5]},
            "output": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["fit", path]) == 0
        assert (out / "measurements.csv").exists()
        header = (out / "measurements.csv").read_text().splitlines()[0]
        assert header == "t,x,value"


class TestSampleCommand:
    def test_sample_zero_rows_keeps_header(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_gaussian_config(out))
        assert main(["fit", path]) == 0
        assert main(["sample", path, "-n", "0"]) == 0
        text = (out / "ensemble.csv").read_text()
        assert text.strip() == "x0,x1"

    def test_sample_deterministic(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_gaussian_config(out))
        assert main(["fit", path]) == 0
        assert main(["sample", path, "-n", "25"]) == 0
        first = (out / "ensemble.csv").read_text()
        assert main(["sample", path, "-n", "25"]) == 0
        assert (out / "ensemble.csv").read_text() == first
        sidecar = json.loads((out / "ensemble.csv.json").read_text())
        assert sidecar["n"] == 25

    @pytest.mark.parametrize("model", [None, "empty"])
    def test_missing_model_is_a_config_error(self, tmp_path, capsys, model):
        # neither <out>/model nor an empty --model directory holds a model
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_gaussian_config(out))
        args = ["sample", path]
        if model:
            (tmp_path / model).mkdir()
            args += ["--model", str(tmp_path / model)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sample: no fitted model")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_negative_count_is_a_config_error(self, tmp_path, capsys):
        fitted = tmp_path / "fitted"
        path = write_config(tmp_path, tiny_gaussian_config(fitted))
        assert main(["fit", path]) == 0
        out = tmp_path / "run"
        assert main(["sample", path, "-n", "-1", "--out", str(out),
                     "--model", str(fitted / "model")]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "config error: sample: -n must be >= 0, not -1"
        assert not out.exists()


class TestVerifyCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "v"
        cfg = tiny_gaussian_config(out, verify={"betas": [0.1], "Ts": [100.0],
                                                "max_iters": 200})
        path = write_config(tmp_path, cfg)
        assert main(["verify", path]) == 0
        lines = (out / "verify.csv").read_text().strip().split("\n")
        assert lines[0] == "beta,T,converged,n_fp,kl,kl_se,unique,total"
        assert len(lines) == 2
        assert json.loads((out / "verify.json").read_text())["config"]


class TestImportanceCommand:
    def test_trials_csv(self, tmp_path):
        out = tmp_path / "imp"
        cfg = tiny_gaussian_config(out, importance={"n": 50, "repeats": 2})
        assert main(["importance", write_config(tmp_path, cfg)]) == 0
        header, *rows = (out / "importance.csv").read_text().strip().split("\n")
        assert header == "trial,plain_mean,importance_estimate"
        assert len(rows) == 2
        for row in rows:
            [float(cell) for cell in row.split(",")]      # plain floats, not np.float64(...)
        sidecar = json.loads((out / "importance.json").read_text())
        assert sidecar["posterior_calls_during_importance_fit"] == 0


class TestBenchmarkCommand:
    def test_row_and_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "b"
        cfg = tiny_gaussian_config(out, diagnostics={
            "mh": {"n_chains": 50, "n_steps": 3000, "auto_tune": True},
            "n_sample_sets": 3, "sample_size": 50,
        })
        path = write_config(tmp_path, cfg)
        assert main(["benchmark", path]) == 0
        first = (out / "benchmark.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == ("distribution,d,r_max,unique,total,s2_ref_ref,s2_ref_tt,"
                            "s2_ref_mcmc,double_ot_tt,double_ot_mcmc")
        assert len(lines) == 2 and lines[1].startswith("gaussian,2,")
        report = json.loads((out / "benchmark.json").read_text())["report"]
        # 3 + 9 + 9 cross pairs and one self term for each of the 9 sets
        assert report["solves"] == 30
        assert 0 <= report["unconverged"] <= 30
        flagged = f"{report['unconverged']} of 30 Sinkhorn solves stopped at max_iters"
        assert (flagged in capsys.readouterr().out) == (report["unconverged"] > 0)
        assert main(["benchmark", path]) == 0
        assert (out / "benchmark.csv").read_bytes() == first


class TestInvertCommand:
    @staticmethod
    def parabolic_config(out, **fixed_point):
        return {
            "target": {"type": "parabolic", "d": 2, "sigma_meas": 0.05,
                       "sigma0": 1.0, "n_t": 3, "n_x": 6, "seed": 5},
            "grid": {"lower": [-3.0, -1.5], "upper": [3.0, 1.5], "nodes": 30},
            "schedule": [{"T": 1e3, "beta": 1e-2}],
            "fixed_point": {"cross": {"max_rank": 4},
                            **fixed_point},
            "sampler": {"epsilon_sde": 0.01, "n_em_steps": 10},
            "diagnostics": {
                "sinkhorn": {"max_iters": 100, "threshold": 1e-4},
                "mh": {"n_chains": 100, "n_steps": 4000, "proposal_std": 0.4,
                       "thin": 5, "auto_tune": True, "init_std": 0.5},
                "sample_size": 200,
            },
            "seeds": {"model": 1, "sampling": 2, "mcmc": 3, "reference": 4},
            "initial": {"std": [1.0, 0.5]},
            "output": str(out),
        }

    def test_row_per_parameter(self, tmp_path):
        out = tmp_path / "inv"
        path = write_config(tmp_path, self.parabolic_config(out))
        assert main(["invert", path]) == 0
        lines = (out / "invert.csv").read_text().strip().split("\n")
        assert len(lines) == 3      # header + one row per parameter
        assert lines[0].startswith("param,theta_star,mcmc_min")
        sidecar = json.loads((out / "invert.json").read_text())
        assert len(sidecar["kl_history"]) == 1
        assert np.isfinite(sidecar["kl_history"][0])
        fit = json.loads((out / "model" / "model.json").read_text())
        assert all(step["converged"] for step in fit["steps"])

    def test_unconverged_fit_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "inv"
        path = write_config(tmp_path, self.parabolic_config(out, max_iters=1))
        assert main(["invert", path]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert not (out / "invert.csv").exists()

    def test_requires_posterior_target(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, tiny_gaussian_config(out))
        assert main(["invert", path]) == 1
        assert not out.exists()
