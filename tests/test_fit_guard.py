"""Regression guard for the fit hot path: a reduced double-moon fit.

The pinned numbers are those of the gauged fixed point (the log-scale
solved in closed form each iteration).  Before it, the same fit needed
301 iterations and 880,360 oracle queries (KL 1.8901e-4), nearly all
spent contracting the overall scale; the gauged solver converges in 3
(KL 1.9341e-4: a different point within the fixed-point tolerance).
Faster evaluation must reproduce the iterations, oracle queries and
KL; only the unique-call count may move a little, because block values
differ from pointwise ones in the last bits and a few maxvol ties then
break the other way.
"""

import numpy as np
import pytest

from ttjko.cross import CrossConfig
from ttjko.driver import GaussianInitial, Schedule, run
from ttjko.fixed_point import FixedPointConfig
from ttjko.grid import Grid
from ttjko.targets import CachedDensity, DoubleMoon


PINNED_ITERS = 3
PINNED_TOTAL_CALLS = 10200
PINNED_UNIQUE_CALLS = 1725
PINNED_KL = 1.9341326310062107e-4


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
