"""Regular grid on an axis-aligned box: coordinates, quadrature, differences.

Axis ``k`` carries ``N_k`` nodes including both endpoints, so the
spacing is ``h_k = (R_k - L_k) / (N_k - 1)`` and node ``i`` sits at
``L_k + i * h_k``.  A ``Grid`` computes its spacings and top cell once,
as read-only arrays.

Off-grid points are evaluated by one kernel, ``multilinear``.  Its
cores come in tables of runs of axes with equal node counts and equal
ranks.  It gathers the two corners of every point's cell (``Grid.cells``,
after clamping into the box) with one ``take`` per run of unit ranks,
and one per axis otherwise, interpolates them linearly, and contracts
the resulting cores axis by axis with the ranks leading and the points
last, for the value and, from derivative cores, the gradient.  Every
contraction is ``tt.rank_step``, the step the TT chains at grid indices
(``tt.tt_eval``) run too: the products are added in rank order, and a
contraction over a rank of 1 (every axis of a rank-1 tensor train, and
the outer rank of the first and last axes of any) is taken as its one
term, with no sum.  It sizes its own gather scratch and owns the range
check its clipping gather relies on.  ``interpolate_batch`` (a run per
axis) and the sampler drift (runs of like axes) both run it, the drift
with its two potentials at one time as a batch of two fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tt import TTTensor, rank_step

_CORNERS = np.array([[0], [1]])       # a cell's lower and upper columns


@dataclass(frozen=True)
class Grid:
    lower: np.ndarray
    upper: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        nodes = np.atleast_1d(np.asarray(self.nodes))
        if nodes.dtype.kind not in "iu":
            raise ValueError("nodes must be integers")
        nodes = nodes.astype(int)
        if not (lower.shape == upper.shape == nodes.shape):
            raise ValueError("lower, upper, nodes must have identical lengths")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("lower and upper must be finite")
        if np.any(upper <= lower):
            raise ValueError("upper must exceed lower on every axis")
        if np.any(nodes < 2):
            raise ValueError("need at least 2 nodes per axis")
        # derived constants, computed once: the spacing and the top cell
        spacings = (upper - lower) / (nodes - 1)
        for name, arr in (("lower", lower), ("upper", upper), ("nodes", nodes),
                          ("spacings", spacings), ("_top_cell", nodes - 2)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # rebuilt through the constructor, so that a copy or an unpickled
        # grid has its derived constants and read-only arrays too
        return type(self), (self.lower, self.upper, self.nodes)

    @classmethod
    def regular(cls, lower, upper, nodes, d: int | None = None) -> "Grid":
        """Build from per-axis values or scalars broadcast to dimension d."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        nodes = np.atleast_1d(nodes)
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

    def axis_nodes(self, axis: int) -> np.ndarray:
        return np.linspace(self.lower[axis], self.upper[axis], self.nodes[axis])

    def points(self, indices: np.ndarray) -> np.ndarray:
        """Coordinates of grid multi-indices, (M, d) ints -> (M, d) floats."""
        idx = np.asarray(indices, dtype=float)
        return self.lower + idx * self.spacings

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """The points (M, d) clamped into the box, bitwise ``np.clip``
        without its argument handling."""
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Rows of the points (M, d) that lie outside the box."""
        return np.any((x < self.lower) | (x > self.upper), axis=1)

    def cells(self, x: np.ndarray):
        """Lower-corner cell (M, d) and barycentric weight (M, d) of the
        points (M, d), clamped into the box first."""
        pos = self.clamp(x)
        pos -= self.lower
        pos /= self.spacings
        cell = np.minimum(pos.astype(np.intp), self._top_cell)
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


def multilinear(tables, cells, w, scratch=None):
    """Multilinear TT contraction at off-grid points, batch last.

    ``tables`` cover the axes in order, a run of ``g`` consecutive axes
    with ``C`` grid columns each per table, with the ranks leading and
    the axes and columns last, ``(V, r1, r2, *F, g, C)``: ``V = 1`` for
    values only, ``V = 2`` for values and derivative cores, and ``F`` any
    batch of fields contracted alike.  ``cells``, ``(d, m)``, holds each
    axis's column of every point's lower cell corner (``Grid.cells``,
    transposed), and ``w[n]`` the barycentric weights, ``(m,)``.  The
    lower and upper corners are gathered with one ``take`` along the
    run's flattened ``(g C)`` axis, and the cores formed as ``lo + w (hi
    - lo)``.  A run of unit ranks (``r1 = r2 = 1``) is gathered at once;
    any other run axis by axis, because at rank 3 the rank contractions
    over a whole run's strided cores cost more than the calls that one
    gather saves.  Either way the cores and every product are the same,
    bit for bit.

    Returns ``(value, grad, scratch)``: ``value`` and ``grad`` of shapes
    ``(*F, m)`` and ``(d, *F, m)`` (``grad`` is None for a value-only
    table), and the flat float64 scratch that took every
    axis's gathered corners and cores.  A ``scratch`` that is None or too
    small is replaced, so a caller that passes back what it got allocates
    only when a batch outgrows it.  The gather runs with ``mode="clip"``
    (``"raise"`` gathers into a temporary and copies), so a negative
    cell (that of a NaN coordinate) raises ``IndexError`` here;
    ``Grid.cells`` never gives one past the end.  Every reduction is a
    ``tt.rank_step`` over one rank axis in order, so each point's result
    depends on nothing but that point; a rank axis of length 1 is not
    summed at all, its one term being the sum bit for bit.
    """
    if cells.min(initial=0) < 0:
        raise IndexError("a point maps outside the core tables")
    m = cells.shape[1]
    # one axis's gather per run, and the axes a take gathers: a run of unit
    # ranks all at once, any other axis by axis
    blocks = [table.size // (table.shape[-2] * table.shape[-1]) * 2 * m for table in tables]
    steps = [table.shape[-2] if table.shape[1] * table.shape[2] == 1 else 1 for table in tables]
    # the value cores of every V = 2 run, kept for the gradient pass,
    # then the largest gather at the tail and its cores at the head
    need = (sum(block // 4 * table.shape[-2]
                for block, table in zip(blocks, tables) if len(table) == 2)
            + max(block * step for block, step in zip(blocks, steps)) * 3 // 2)
    if scratch is None or scratch.size < need:
        scratch = np.empty(need)
    # each axis's two corners, as columns of its run's flattened grid axes
    offsets = [k * table.shape[-1] for table in tables for k in range(table.shape[-2])]
    cols = cells[:, None, :] + (np.array(offsets)[:, None, None] + _CORNERS)   # (d, 2, m)
    out = scratch
    prefix = np.ones(1)
    slabs, mids = [], []          # value slabs and prefix . derivative slab per axis
    start = 0
    for table, block, step in zip(tables, blocks, steps):
        *lead, g, n_cols = table.shape
        flat = table.reshape(*lead, g * n_cols)
        size = block * step
        for n in range(start, start + g, step):
            gather = out[out.size - size:].reshape(*lead, step, 2, m)
            c = flat.take(cols[n:n + step], axis=-1, mode="clip", out=gather)
            lo = c[..., 0, :]
            cores = np.subtract(c[..., 1, :], lo, out=out[:size // 2].reshape(lo.shape))
            cores *= w[n:n + step]
            cores += lo
            v, *d = cores
            for j in range(step):
                if d:
                    mids.append(rank_step(prefix, d[0][..., j, :]))
                    slabs.append(v[..., j, :])
                prefix = rank_step(prefix, v[..., j, :])
            if d:
                out = out[v.size:]      # keep the value cores for the gradient pass
        start += g
    value = prefix[0]
    if not mids:
        return value, None, scratch
    grad = np.empty((start,) + value.shape)
    suffix = np.ones(1)
    for n in range(start - 1, -1, -1):
        grad[n] = rank_step(suffix, mids[n])
        suffix = rank_step(suffix, slabs[n].swapaxes(0, 1))
    return value, grad, scratch


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
    bad = np.nonzero(~np.isfinite(x).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"point {bad[0]} is not finite: {x[bad[0]].tolist()}")
    cell, w = grid.cells(x)
    tables = [core.transpose(0, 2, 1)[None, ..., None, :] for core in t.cores]  # (1, r1, r2, 1, N)
    values, _, _ = multilinear(tables, cell.T, w.T)
    return values, grid.outside(x)
