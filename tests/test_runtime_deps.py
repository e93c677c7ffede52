"""The package's runtime needs numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

import ttjko


def test_import_loads_no_scipy():
    src = str(Path(ttjko.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, ttjko, ttjko.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
