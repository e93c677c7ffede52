"""Shared fixtures: small fitted models reused across test modules, and a
check that no test leaves a child process behind.

BLAS runs on one thread, as in the benchmark (``perfbench/run.py``): a
BLAS thread pool would keep ``sample`` from forking its workers."""

import os

os.environ.update({var: "1" for var in (          # before numpy loads
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})

import numpy as np
import pytest

from ttjko.cross import CrossConfig
from ttjko.driver import GaussianInitial, Schedule, run
from ttjko.fixed_point import FixedPointConfig
from ttjko.grid import Grid
from ttjko.targets import CachedDensity, Gaussian


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")


GAUSS2_MEAN = np.array([0.8, -0.5])
GAUSS2_VAR = 0.5


@pytest.fixture(scope="session")
def gauss2():
    """Converged single-step fit of a 2-d diagonal Gaussian, plus its pieces."""
    grid = Grid.regular(-6.0, 6.0, 64, d=2)
    target = Gaussian(mean=GAUSS2_MEAN, var=GAUSS2_VAR)
    rho_inf = CachedDensity(target.density, grid)
    config = FixedPointConfig(
        tolerance=1e-8, max_iters=400,
        trunc_tol=1e-11, cross=CrossConfig(max_rank=12, tolerance=1e-10),
    )
    model = run(GaussianInitial.standard(2), rho_inf, grid,
                Schedule([(1e3, 1e-2)]), config, rng=np.random.default_rng(5))
    assert model.converged
    return {"model": model, "grid": grid, "target": target, "rho_inf": rho_inf,
            "config": config}
