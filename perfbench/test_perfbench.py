"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _call_tree(clock):
    """root -> [leaf, mid -> [leaf]], looking callees up on a namespace."""
    ns = types.SimpleNamespace()

    def leaf(x):
        clock.tick(0.5)
        return x

    def mid():
        clock.tick(3.0)
        ns.leaf(np.zeros((3, 2)))
        clock.tick(1.0)

    def root():
        clock.tick(1.0)
        ns.leaf(np.zeros((5, 2)))
        clock.tick(2.0)
        ns.mid()
        clock.tick(1.0)

    ns.leaf, ns.mid, ns.root = leaf, mid, root
    return ns


def test_span_nesting_and_self_time():
    clock = FakeClock()
    ns = _call_tree(clock)
    original_leaf = ns.leaf
    tracer = Tracer(clock=clock)
    sites = [(ns, "leaf", "leaf", layers.rows(0, "x")), (ns, "mid", "mid", None)]
    with tracer.installed(sites):
        tracer.call("root", ns.root)
    assert tracer.names == ["root", "leaf", "mid", "leaf"]
    assert tracer.parents == [-1, 0, 0, 2]
    summary = tracer.summary()
    assert summary["root"] == {"calls": 1, "time_s": 9.0, "self_s": 4.0}
    assert summary["mid"] == {"calls": 1, "time_s": 4.5, "self_s": 4.0}
    assert summary["leaf"] == {"calls": 2, "time_s": 1.0, "self_s": 1.0, "points": 8}
    assert tracer.subtree_self_s("root") == 9.0
    assert tracer.subtree_self_s("mid") == 4.5
    assert tracer.restored and ns.leaf is original_leaf


def test_span_closes_and_restores_when_the_call_raises():
    clock = FakeClock()
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    original = ns.boom
    tracer = Tracer(clock=clock)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([(ns, "boom", "boom", None)]):
            tracer.call("outer", lambda: ns.boom())
    assert tracer.parents == [-1, 0]
    assert ns.boom is original and tracer.restored
    assert tracer.call("after", lambda: 7) == 7
    assert tracer.parents[-1] == -1


def test_seed_mapping_matches_the_cli():
    assert workloads.seeds_for(5) == {"model": 5, "sampling": 6, "mcmc": 7,
                                      "reference": 8}
    cfg = workloads.WORKLOADS["moon6"].setup(11)
    assert cfg.seeds == {"model": 11, "sampling": 12, "mcmc": 13, "reference": 14}


@pytest.mark.parametrize("nodes, density, samples, expected", [
    # uniform on [0, 1] against a point mass at 1/2: 2 * int_0^1/2 x dx
    ([0.0, 1.0], [1.0, 1.0], [0.5], 0.25),
    # uniform on [0, 1] against masses 1/2 at 1/4 and 3/4
    ([0.0, 0.5, 1.0], [2.0, 2.0, 2.0], [0.25, 0.75], 0.125),
    # triangle on [0, 2] against its mode: E|X - 1| = 1/3
    ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [1.0], 1.0 / 3.0),
])
def test_w1_against_hand_computed_cases(nodes, density, samples, expected):
    got = workloads.w1_to_density(np.asarray(samples), np.asarray(nodes),
                                  np.asarray(density))
    assert got == pytest.approx(expected, abs=1e-4)


REDUCED = {
    "moon6": workloads.FitWorkload("configs/double_moon_d6.json", n_particles=8),
    "gauss16": workloads.FitWorkload("configs/gaussian_verification.json",
                                     n_particles=8),
    "diag6": workloads.DiagWorkload(n_sets=2, set_size=30, mh_steps=300),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_workload_traced_matches_untraced(name):
    wl = REDUCED[name]
    state = wl.setup(3)
    if name != "diag6":          # a loose fixed-point tolerance keeps the fit short
        state.fixed_point = dataclasses.replace(state.fixed_point, tolerance=1e-1)
    plain = wl.run(state)
    assert plain.problems == [] and plain.failed == 0 and plain.attempted > 0
    tracer = Tracer()
    with tracer.installed(layers.sites()):
        traced = wl.run(state, tracer)
    assert tracer.restored
    for owner, attr, _, _ in layers.sites():
        assert not hasattr(vars(owner)[attr], "__wrapped__")
    assert traced.outputs == plain.outputs
    problems = []
    values = run.layer_values(plain, traced, tracer, problems)
    assert problems == []
    per_layer = {m["name"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(values) == per_layer
    if name == "diag6":
        assert values["diagnostics.entropic_ot.calls"] > 0
        assert values["cross.tt_cross.calls"] == 0
    else:
        for key in ("cross.maxvol.time_pct", "tt.tt_eval.time_pct",
                    "targets.lookup.self_pct", "sampler.ode_drift.time_pct"):
            assert values[key] > 0, key
        assert values["diagnostics.entropic_ot.calls"] == 0


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_every_end_to_end_metric():
    out = _run_cli(ROOT, "--workload", "diag6", "--seed", "2", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "--workload", "moon6", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
