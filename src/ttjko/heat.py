"""Exact heat semigroup on the grid, applied core-by-core to TT tensors.

The generator is the Kronecker sum of per-axis second-difference
matrices, so its exponential factorizes into per-axis dense matrices
``E_n = exp(s * D_n)``.  Applying the semigroup to a TT contracts each
core's mode index with the corresponding ``E_n`` and leaves the ranks
unchanged; there is no time stepping.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, laplacian_1d
from .tt import TTTensor

# 1/k! for the Taylor coefficients; 25 covers every degree heat_factor picks
_INV_FACTORIAL = np.array([1.0 / math.factorial(k) for k in range(25)])


def heat_factor(lap: np.ndarray, s: float) -> np.ndarray:
    """``exp(s * lap)`` for a second-difference matrix ``lap`` and s >= 0,
    with every entry exactly >= 0.

    ``lap`` has nonnegative off-diagonal entries and rows summing to zero
    (:func:`~ttjko.grid.laplacian_1d`).  With ``c`` the largest diagonal
    magnitude, ``A = s * (lap + c I)`` is entrywise nonnegative and
    ``exp(s * lap) = exp(-s c) exp(A)``.  ``A`` is scaled by ``2**-j`` to
    norm at most 1, its exponential summed as a Taylor polynomial whose
    omitted tail is below the unit roundoff (evaluated by
    Paterson-Stockmeyer: powers up to ``b``, then Horner in ``A**b``),
    multiplied by ``exp(-s c 2**-j)`` and squared ``j`` times.  Every
    operation adds or multiplies nonnegative numbers, so no entry can
    round below zero, as the eigenbasis form's can.
    """
    n = lap.shape[0]
    shift = -float(np.min(np.diagonal(lap)))
    a = s * lap
    a.flat[::n + 1] += s * shift
    norm = float(np.max(np.sum(a, axis=1)))     # the infinity norm, as a >= 0
    j = max(math.ceil(math.log2(norm)), 0) if norm > 0 else 0
    a *= 0.5 ** j
    theta = norm * 0.5 ** j
    degree, tail = 0, theta         # tail: theta**(degree+1) / (degree+1)!
    while tail > 2.0 ** -53:
        degree += 1
        tail *= theta / (degree + 1)
    b = math.isqrt(degree) + 1      # blocks use I, A, ..., A**(b-1)
    q = -(-(degree + 1) // b)       # number of blocks
    powers = np.empty((b + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, b + 1):
        np.matmul(powers[k - 1], a, out=powers[k])
    blocks = _INV_FACTORIAL[:q * b].reshape(q, b) @ powers[:b].reshape(b, n * n)
    e = blocks[-1].reshape(n, n)
    for block in blocks[-2::-1]:
        e = powers[b] @ e
        e += block.reshape(n, n)
    e *= math.exp(-s * shift * 0.5 ** j)
    for _ in range(j):
        e = e @ e
    return e


class HeatPropagator:
    """Per-axis dense exponentials ``exp(s * D_n)`` for one diffusion time s.

    Each factor is symmetric, entrywise nonnegative and row-stochastic
    (rows sum to one), which makes the application mass-conserving and
    positivity-preserving.  Axes with the same node count and spacing
    share one factor, computed by one :func:`heat_factor` call.
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
                shared[key] = heat_factor(laplacian_1d(grid, k), self.s)
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
