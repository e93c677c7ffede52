"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload moon6 --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json: the median set-up time of several set-ups (this process
and fresh processes started with ``--setup-only``), the median stage
times of as many repetitions as fit in ``--seconds``, and the peak
memory of this process.  With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced
ones.  The line before the result records the environment and every
raw sample.  Run it from the repository root; BLAS and OpenMP are
pinned to one thread.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the package, build the workload's inputs; (workload, state, seconds)."""
    t0 = time.perf_counter()
    if not (SRC / "ttjko" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ttjko sources under {SRC}")
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    return wl, state, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ttjko").glob("*.py")) + sorted(ROOT.glob("configs/*.json")):
        digest.update(path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=True)
        lines = top.stdout.split()
        commit = lines[1] if Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def repeat(fn, seconds: float, start: float) -> list:
    """Call ``fn`` at least once, and again while the next call is expected
    to end within ``seconds`` of ``start``."""
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(fn())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


def consistency(reps) -> list:
    problems = []
    for rep in reps:
        problems += rep.problems
        if rep.outputs != reps[0].outputs:
            problems.append(f"outputs differ between repetitions: {rep.outputs} "
                            f"vs {reps[0].outputs}")
    return problems


def layer_values(plain, traced, tracer, problems: list) -> dict:
    """Per-layer metrics of one traced repetition and its untraced twin."""
    import layers

    body_s = traced.solve_s + traced.evaluate_s
    values = layers.metrics(tracer.summary(), body_s, traced.quality)
    root = next(n for n in layers.SOLVE_SPANS if n in tracer.names)
    coverage = tracer.subtree_self_s(root) / traced.solve_s
    if abs(coverage - 1.0) > 0.05:
        problems.append(f"self times under {root} cover {coverage:.3f} "
                        "of the traced solve time")
    values.update({
        "trace.body_s": body_s,
        "trace.solve_overhead_pct": 100.0 * (traced.solve_s / plain.solve_s - 1.0),
        "trace.solve_coverage_pct": 100.0 * coverage,
    })
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})   # before numpy loads
    try:
        wl, state, setup_s = set_up(args.workload, args.seed)
    except (FileNotFoundError, ImportError, KeyError) as exc:
        print(f"perfbench: cannot set up {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    from spans import Tracer

    start = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        reps = repeat(lambda: wl.run(state), args.seconds, start)
        problems = consistency(reps)
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r.solve_s for r in reps),
            "evaluate_s": statistics.median(r.evaluate_s for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s"] = setups
    else:
        def pair():
            plain = wl.run(state)
            tracer = Tracer()
            with tracer.installed(layers.sites()):
                traced = wl.run(state, tracer)
            return plain, traced, tracer

        pairs = repeat(pair, args.seconds, start)
        reps = [p[0] for p in pairs] + [p[1] for p in pairs]
        problems = consistency(reps)
        if not all(tracer.restored for _, _, tracer in pairs):
            problems.append("a traced entry point was not restored")
        per_rep = [layer_values(*p, problems) for p in pairs]
        metrics = {name: statistics.median(v[name] for v in per_rep)
                   for name in per_rep[0]}
    record.update({
        "solve_s": [r.solve_s for r in reps], "evaluate_s": [r.evaluate_s for r in reps],
        "problems": problems,
        "env": environment(),
    })
    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps({"perfbench": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
