"""The benchmark harness (``perfbench/``) imports ttjko's public names and
patches its entry points in place, so a rename there breaks
``perfbench/run.py``; this checks both from the package's own tests."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_patched_attributes_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        import workloads  # noqa: F401  (imports layers and the ttjko names it uses)
        layers = sys.modules["layers"]
        # Tracer.patch reads vars(owner)[attr]: an inherited or renamed
        # attribute raises KeyError in a traced run
        missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
                   for owner, attr, _, _ in layers.sites() if attr not in vars(owner)]
        assert missing == []
    finally:
        for name in {"layers", "workloads"} - before:
            sys.modules.pop(name, None)
