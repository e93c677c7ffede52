"""Regression guard for the fit hot path: a reduced double-moon fit.

The pinned numbers were produced by the pointwise implementation
(every TT factor evaluated element by element, maxvol through the
validating scipy wrappers, a dict-keyed density cache).  Faster
evaluation must reproduce its iterations, oracle queries and KL; only
the unique-call count may move a little, because block values differ
from pointwise ones in the last bits and a few maxvol ties then break
the other way.
"""

import numpy as np
import pytest

from ttjko.cross import CrossConfig
from ttjko.driver import GaussianInitial, Schedule, run
from ttjko.fixed_point import FixedPointConfig
from ttjko.grid import Grid
from ttjko.targets import CachedDensity, DoubleMoon

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PINNED_ITERS = 301
PINNED_TOTAL_CALLS = 880360
PINNED_UNIQUE_CALLS = 2004
PINNED_KL = 1.8901085985190136e-4


def test_reduced_double_moon_fit_is_unchanged():
    d = 3
    grid = Grid.regular(-4.5, 4.5, 20, d=d)
    rho_inf = CachedDensity(DoubleMoon(dim=d).density, grid)
    config = FixedPointConfig(
        tolerance=1e-5, max_iters=1500, trunc_tol=1e-8, max_rank=4,
        cross=CrossConfig(max_rank=4, tolerance=1e-7, max_sweeps=6),
    )
    model = run(GaussianInitial.standard(d), rho_inf, grid, Schedule([(1e3, 1e-2)]),
                config, rng=np.random.default_rng(1))
    assert model.converged
    assert model.steps[0].iters == PINNED_ITERS
    assert rho_inf.total_calls == PINNED_TOTAL_CALLS
    assert abs(rho_inf.unique_calls - PINNED_UNIQUE_CALLS) <= 0.05 * PINNED_UNIQUE_CALLS
    assert model.kl_history[-1] == pytest.approx(PINNED_KL, rel=1e-9)
