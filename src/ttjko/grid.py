"""Regular grid on an axis-aligned box: coordinates, quadrature, differences.

Axis ``k`` carries ``N_k`` nodes including both endpoints, so the
spacing is ``h_k = (R_k - L_k) / (N_k - 1)`` and node ``i`` sits at
``L_k + i * h_k``.

Off-grid points are evaluated by one kernel, ``multilinear``: each
axis gathers the two corners of every point's cell (``Grid.cells``,
after clamping into the box) with one ``take``, interpolates them
linearly, and contracts the resulting cores with the ranks leading and
the points last, for the value and, from derivative cores, the
gradient.  ``interpolate_batch`` and the sampler drift both use it;
``tt.tt_eval`` stays the kernel for grid indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tt import TTTensor


@dataclass(frozen=True)
class Grid:
    lower: np.ndarray
    upper: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=int))
        if not (lower.shape == upper.shape == nodes.shape):
            raise ValueError("lower, upper, nodes must have identical lengths")
        if np.any(upper <= lower):
            raise ValueError("upper must exceed lower on every axis")
        if np.any(nodes < 2):
            raise ValueError("need at least 2 nodes per axis")
        for name, arr in (("lower", lower), ("upper", upper), ("nodes", nodes)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def regular(cls, lower, upper, nodes, d: int | None = None) -> "Grid":
        """Build from per-axis values or scalars broadcast to dimension d."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
        if d is None:
            d = max(lower.size, upper.size, nodes.size)
        return cls(
            np.broadcast_to(lower, (d,)).copy(),
            np.broadcast_to(upper, (d,)).copy(),
            np.broadcast_to(nodes, (d,)).copy(),
        )

    @property
    def d(self) -> int:
        return self.lower.size

    @property
    def shape(self) -> tuple:
        return tuple(int(n) for n in self.nodes)

    @property
    def spacings(self) -> np.ndarray:
        return (self.upper - self.lower) / (self.nodes - 1)

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.linspace(self.lower[axis], self.upper[axis], self.nodes[axis])

    def points(self, indices: np.ndarray) -> np.ndarray:
        """Coordinates of grid multi-indices, (M, d) ints -> (M, d) floats."""
        idx = np.asarray(indices, dtype=float)
        return self.lower + idx * self.spacings

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Rows of the points (M, d) that lie outside the box."""
        return np.any((x < self.lower) | (x > self.upper), axis=1)

    def cells(self, x: np.ndarray):
        """Lower-corner cell (M, d) and barycentric weight (M, d) of the
        points (M, d), clamped into the box first."""
        pos = (self.clamp(x) - self.lower) / self.spacings
        cell = np.minimum(pos.astype(np.intp), self.nodes - 2)
        return cell, pos - cell

    def to_dict(self) -> dict:
        return {
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "nodes": self.nodes.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Grid":
        return cls.regular(data["lower"], data["upper"], data["nodes"])


def laplacian_1d(grid: Grid, axis: int) -> np.ndarray:
    """Second-difference matrix with no-flux closure: corner entries are -1.

    Every row sums to zero, so the induced semigroup conserves the
    lattice sum.
    """
    n = int(grid.nodes[axis])
    h = grid.spacings[axis]
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = -2.0
    mat[idx[:-1], idx[:-1] + 1] = 1.0
    mat[idx[1:], idx[1:] - 1] = 1.0
    mat[0, 0] = -1.0
    mat[-1, -1] = -1.0
    return mat / h**2


def quadrature_weights(grid: Grid, axis: int) -> np.ndarray:
    """Trapezoidal weights: h/2 at the endpoints, h inside."""
    n = int(grid.nodes[axis])
    h = grid.spacings[axis]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def all_quadrature_weights(grid: Grid) -> list:
    return [quadrature_weights(grid, k) for k in range(grid.d)]


def gradient_matrix(grid: Grid, axis: int) -> np.ndarray:
    """Central differences inside, one-sided first order at the two boundary nodes."""
    n = int(grid.nodes[axis])
    if n < 3:
        raise ValueError("gradient needs at least 3 nodes per axis")
    h = grid.spacings[axis]
    mat = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    mat[idx, idx + 1] = 0.5 / h
    mat[idx, idx - 1] = -0.5 / h
    mat[0, 0], mat[0, 1] = -1.0 / h, 1.0 / h
    mat[-1, -2], mat[-1, -1] = -1.0 / h, 1.0 / h
    return mat


def _slabs(table, cols, w, out=None):
    """Cores at the points, stacked over the leading table entry (value,
    gradient): ``lo + w (hi - lo)`` of the two corners gathered with one
    take.  (A function of its own so that, without a scratch, the
    gathered corners are freed before the next axis gathers.)

    With a flat scratch ``out`` nothing is allocated: the cores fill the
    head of ``out`` and the gathered corners its tail (a scratch too
    small for both is not used).  ``take`` then runs with ``mode="clip"``
    (with ``"raise"`` it gathers into a temporary and copies), so the
    caller checks ``cols`` in range."""
    shape = table.shape[:-1] + cols.shape
    size = math.prod(shape)
    if out is not None and out.size < size + size // 2:
        out = None
    if out is None:
        c = table.take(cols, axis=-1)
        slabs = np.subtract(c[..., 1, :], c[..., 0, :])
    else:
        c = table.take(cols, axis=-1, mode="clip", out=out[out.size - size:].reshape(shape))
        lo = c[..., 0, :]
        slabs = np.subtract(c[..., 1, :], lo, out=out[:size // 2].reshape(lo.shape))
    slabs *= w
    slabs += c[..., 0, :]
    return slabs


def multilinear(tables, cols, w, out=None):
    """Multilinear TT contraction at off-grid points, batch last.

    ``tables[n]`` holds axis n's cores with the ranks leading and the
    grid columns last, ``(V, r1, r2, *F, C)``: ``V = 1`` for values only,
    ``V = 2`` for values and derivative cores, and ``F`` any batch of
    fields contracted alike.  ``cols[n]`` holds the columns of each
    point's lower and upper corner, ``(*G, 2, m)``, where ``G`` adds
    further field axes, and ``w[n]`` the barycentric weights, ``(m,)``.

    Returns ``(value, grad)`` of shapes ``(*F, *G, m)`` and
    ``(d, *F, *G, m)``; ``grad`` is None for a value-only table.  Every
    reduction runs over one rank axis in order, so each point's result
    depends on nothing but that point.

    ``out``, a flat float64 scratch, takes every axis's gathered corners
    and interpolated cores instead of new arrays, so a caller that
    evaluates many batches allocates them once.  It must hold, for
    ``V = 2``, the value cores of all axes plus one axis's gather and
    cores; the caller must have checked ``cols`` in range.
    """
    prefix = np.ones(1)
    slabs, mids = [], []          # value slabs and prefix . derivative slab per axis
    for n, table in enumerate(tables):
        v, *g = _slabs(table, cols[n], w[n], out)
        if g:
            mids.append((prefix[:, None] * g[0]).sum(axis=0))
            slabs.append(v)
            if out is not None:
                out = out[v.size:]      # keep the value core for the gradient pass
        prefix = (prefix[:, None] * v).sum(axis=0)
    value = prefix[0]
    if not mids:
        return value, None
    grad = np.empty((len(tables),) + value.shape)
    suffix = np.ones(1)
    for n in range(len(tables) - 1, -1, -1):
        grad[n] = (mids[n] * suffix).sum(axis=0)
        suffix = (slabs[n] * suffix).sum(axis=1)
    return value, grad


def interpolate_batch(t: TTTensor, grid: Grid, x: np.ndarray):
    """Multilinear interpolation at points (M, d).

    Returns ``(values, clamped)`` where ``clamped`` flags points that
    fell outside the box and were evaluated at its surface.  One
    ``multilinear`` pass over the axes (cost O(M d r^2)), which covers
    the high-dimensional case as well.
    """
    if tuple(t.shape) != grid.shape:
        raise ValueError(f"tensor shape {t.shape} does not match grid {grid.shape}")
    for core in t.cores:
        if not np.all(np.isfinite(core)):
            raise ValueError("tensor cores contain non-finite values")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != grid.d:
        raise ValueError(f"points of shape {x.shape} do not have the grid's {grid.d} columns")
    cell, w = grid.cells(x)
    tables = [core.transpose(0, 2, 1)[None] for core in t.cores]     # (1, r1, r2, N)
    corners = cell.T[:, None, :] + np.array([[0], [1]])               # (d, 2, M)
    values, _ = multilinear(tables, corners, w.T)
    return values, grid.outside(x)
