"""Command-line front end: schema strictness, determinism, artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from ttjko.cli import main
from ttjko.config import ConfigError, load_config, parse_config


def tiny_gaussian_config(out, **overrides):
    cfg = {
        "target": {"type": "gaussian", "mean": [0.5, -0.3], "var": 0.5},
        "grid": {"lower": -5.0, "upper": 5.0, "nodes": 24},
        "schedule": [{"T": 1e3, "beta": 1e-2}],
        "fixed_point": {
            "tolerance": 1e-5, "max_iters": 300,
            "truncation": {"tolerance": 1e-8, "max_rank": 8},
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
        for key, value in (("stepsize", 0.1), ("method", "picard"), ("q", 1.0)):
            cfg = tiny_gaussian_config(tmp_path / "o")
            cfg["fixed_point"][key] = value
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config(cfg)

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
            "fixed_point": {"truncation": {"max_rank": 4},
                            "cross": {"max_rank": 4}},
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


class TestVerifyCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "v"
        cfg = tiny_gaussian_config(out, verify={"betas": [0.1], "Ts": [100.0],
                                                "max_iters": 200})
        path = write_config(tmp_path, cfg)
        assert main(["verify", path]) == 0
        lines = (out / "verify.csv").read_text().strip().split("\n")
        assert lines[0] == "beta,T,converged,n_fp,kl,unique,total"
        assert len(lines) == 2
        assert json.loads((out / "verify.json").read_text())["config"]


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
            "fixed_point": {"truncation": {"max_rank": 4}, "cross": {"max_rank": 4},
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
