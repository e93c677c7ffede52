"""Exact heat semigroup on the grid, applied core-by-core to TT tensors.

The generator is the Kronecker sum of per-axis second-difference
matrices, so its exponential factorizes into per-axis dense matrices
``E_n = exp(s * D_n)``.  Applying the semigroup to a TT contracts each
core's mode index with the corresponding ``E_n`` and leaves the ranks
unchanged; there is no time stepping.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .grid import Grid, laplacian_1d
from .tt import TTTensor


class HeatPropagator:
    """Per-axis dense exponentials ``exp(s * D_n)`` for one diffusion time s.

    Each factor is symmetric, entrywise nonnegative and row-stochastic
    (rows sum to one), which makes the application mass-conserving and
    positivity-preserving.  Axes with the same node count and spacing
    share one factor, computed by one ``expm``.
    """

    def __init__(self, grid: Grid, s: float):
        if s < 0:
            raise ValueError(
                "diffusion time must be >= 0; the backward equation is realized "
                "by propagating the terminal datum forward"
            )
        self.grid = grid
        self.s = float(s)
        shared = {}
        self.factors = []
        for k, key in enumerate(zip(grid.nodes.tolist(), grid.spacings.tolist())):
            if key not in shared:
                shared[key] = scipy.linalg.expm(self.s * laplacian_1d(grid, k))
            self.factors.append(shared[key])

    def apply(self, t: TTTensor) -> TTTensor:
        if tuple(t.shape) != self.grid.shape:
            raise ValueError(f"tensor shape {t.shape} does not match grid {self.grid.shape}")
        cores = []
        for e, core in zip(self.factors, t.cores):
            r1, n, r2 = core.shape
            mixed = e @ core.transpose(1, 0, 2).reshape(n, r1 * r2)
            cores.append(mixed.reshape(n, r1, r2).transpose(1, 0, 2))
        return TTTensor(cores, copy=False)
