"""Regular grid on an axis-aligned box: coordinates, quadrature, differences.

Axis ``k`` carries ``N_k`` nodes including both endpoints, so the
spacing is ``h_k = (R_k - L_k) / (N_k - 1)`` and node ``i`` sits at
``L_k + i * h_k``.  A ``Grid`` computes its spacings and top cell once,
as read-only arrays.

Off-grid points are evaluated by one kernel, ``multilinear``.  Its
cores come in tables of runs of axes with equal node counts and equal
ranks.  It gathers the two corners of every point's cell (``Grid.cells``,
after clamping into the box) with one ``take`` per run of unit ranks,
and one per axis otherwise, and interpolates them linearly.  From value
cores alone it contracts the value, axis by axis with the ranks leading
and the points last.  From value and derivative cores it returns the
log-gradient, block by block between the bonds of rank 1: a run of unit
ranks is one division of its derivative cores by its value cores, and
any other block a prefix and suffix contraction over its own value.  No
product of the blocks is formed, so the log-gradient of a tensor train
whose value underflows is exact.  A divisor below ``_VALUE_FLOOR`` in
magnitude is taken as the floor with its own sign, so a block of
negative value divides as it is.  Every contraction is
``tt.rank_step``, the step the TT chains at grid indices
(``tt.tt_eval``) run too: the products are added in rank order, and a
contraction over a rank of 1 (the outer rank of a block's first and
last axes) is taken as its one term, with no sum.  It sizes its own
gather scratch and owns the range check its clipping gather relies on.
``interpolate_batch`` (a run per axis, values) and the sampler drift
(runs of like axes, log-gradients) both run it, the drift with its two
potentials at one time as a batch of two fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tt import TTTensor, rank_step

_CORNERS = np.array([[0], [1]])       # a cell's lower and upper columns
# the smallest divisor magnitude of a log-gradient
_VALUE_FLOOR = 1e-300


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


def _floored(value: np.ndarray) -> np.ndarray:
    """``value`` in place, with every entry of magnitude below
    ``_VALUE_FLOOR`` set to the floor with the entry's sign: a divisor
    equal to ``value`` wherever ``|value| >= _VALUE_FLOOR``, and finite
    and of the right sign where a value underflows.  A block value that
    rounds negative therefore gives the log-gradient of its magnitude,
    pointing against the gradient, where a floor of ``+_VALUE_FLOOR``
    would give a step of ``1 / _VALUE_FLOOR`` along it."""
    magnitude = np.abs(value)
    np.maximum(magnitude, _VALUE_FLOOR, out=magnitude)
    return np.copysign(magnitude, value, out=value)


def multilinear(tables, cells, w, scratch=None):
    """Multilinear TT contraction at off-grid points, batch last.

    ``tables`` cover the axes in order, a run of ``g`` consecutive axes
    with ``C`` grid columns each per table, with the ranks leading and
    the axes and columns last, ``(V, r1, r2, *F, g, C)``: ``V = 1`` for
    values, ``V = 2`` for values and derivative cores, and ``F`` any
    batch of fields contracted alike.  ``cells``, ``(d, m)``, holds each
    axis's column of every point's lower cell corner (``Grid.cells``,
    transposed), and ``w[n]`` the barycentric weights, ``(m,)``.  The
    lower and upper corners are gathered with one ``take`` along the
    run's flattened ``(g C)`` axis, and the cores formed as ``lo + w (hi
    - lo)``.  A run of unit ranks (``r1 = r2 = 1``) is gathered at once;
    any other run axis by axis, because at rank 3 the rank contractions
    over a whole run's strided cores cost more than the calls that one
    gather saves.  Either way the cores are the same, bit for bit.

    Returns ``(out, scratch)``.  For ``V = 1``, ``out`` is the value,
    ``(*F, m)``, contracted over every axis.  For ``V = 2`` it is the
    log-gradient, ``(d, *F, m)``: the gradient over the value, taken
    block by block.  The bonds of rank 1 cut the axes into blocks, and
    the tensor train is the product of its blocks, so an axis's
    log-gradient is that of its own block.  A run of unit ranks is a run
    of one-axis blocks: its log-gradient is its derivative cores over its
    value cores, one division for the whole run.  Any other block is
    contracted by prefix and suffix passes, its derivative's chain over
    its value.  A product over many blocks, which can underflow, is never
    formed.  Every division is plain where the divisor's magnitude is at
    least ``_VALUE_FLOOR`` and takes the floor with the divisor's sign
    where it is below (``_floored``), so a negative block or value core
    divides as it is.

    ``scratch`` is the flat float64 array that took every axis's gathered
    corners and cores.  A ``scratch`` that is None or too small is
    replaced, so a caller that passes back what it got allocates only
    when a batch outgrows it.  The gather runs with ``mode="clip"``
    (``"raise"`` gathers into a temporary and copies), so a negative cell
    (that of a NaN coordinate) raises ``IndexError`` here; ``Grid.cells``
    never gives one past the end.  Every reduction is a ``tt.rank_step``
    over one rank axis in order, so each point's result depends on
    nothing but that point; a rank axis of length 1 is not summed at
    all, its one term being the sum bit for bit.
    """
    if cells.min(initial=0) < 0:
        raise IndexError("a point maps outside the core tables")
    d, m = cells.shape
    log = len(tables[0]) == 2
    # the size of one axis's gather per run, whether the run has unit
    # ranks, and the axes a take gathers: a run of unit ranks all at once,
    # any other axis by axis
    gathers = [table.size // (table.shape[-2] * table.shape[-1]) * 2 * m for table in tables]
    units = [table.shape[1] * table.shape[2] == 1 for table in tables]
    steps = [table.shape[-2] if unit else 1 for table, unit in zip(tables, units)]
    # for V = 2 the value cores of the axes of every run not of unit
    # ranks, kept for their block's suffix pass, then the largest gather
    # at the tail and its cores at the head
    need = (sum(gather // 4 * table.shape[-2]
                for gather, table, unit in zip(gathers, tables, units) if log and not unit)
            + max(gather * step for gather, step in zip(gathers, steps)) * 3 // 2)
    if scratch is None or scratch.size < need:
        scratch = np.empty(need)
    # each axis's two corners, as columns of its run's flattened grid axes
    offsets = [k * table.shape[-1] for table in tables for k in range(table.shape[-2])]
    cols = cells[:, None, :] + (np.array(offsets)[:, None, None] + _CORNERS)   # (d, 2, m)
    out = scratch
    grad = np.empty((d, *tables[0].shape[3:-2], m)) if log else None
    prefix = np.ones(1)
    slabs, mids = [], []          # the open block's value slabs and prefix . derivative slabs
    start = 0
    for table, gather, unit, step in zip(tables, gathers, units, steps):
        *lead, g, n_cols = table.shape
        flat = table.reshape(*lead, g * n_cols)
        size = gather * step
        for n in range(start, start + g, step):
            c = flat.take(cols[n:n + step], axis=-1, mode="clip",
                          out=out[out.size - size:].reshape(*lead, step, 2, m))
            lo = c[..., 0, :]
            cores = np.subtract(c[..., 1, :], lo, out=out[:size // 2].reshape(lo.shape))
            cores *= w[n:n + step]
            cores += lo
            if not log:
                for j in range(step):
                    prefix = rank_step(prefix, cores[0][..., j, :])
                continue
            v, dv = cores
            if unit:
                # one-axis blocks, (*F, g, m), written into grad's (g, *F, m)
                np.divide(dv[0, 0], _floored(v[0, 0]), out=np.moveaxis(grad[n:n + g], 0, -2))
                continue
            mids.append(rank_step(prefix, dv[..., 0, :]))
            slabs.append(v[..., 0, :])
            prefix = rank_step(prefix, v[..., 0, :])
            out = out[v.size:]          # keep the value cores for the suffix pass
            if table.shape[2] == 1:     # a unit bond closes the block
                _block_log_grad(grad[n + 1 - len(mids):n + 1], mids, slabs, prefix[0])
                prefix = np.ones(1)
                slabs, mids = [], []
        start += g
    return (grad if log else prefix[0]), scratch


def _block_log_grad(grad, mids, slabs, value):
    """The log-gradient of a block into ``grad``, ``(k, *F, m)``: each
    axis's prefix chain through its derivative slab (``mids``), carried
    through the suffix of value ``slabs``, over the block's ``value``."""
    suffix = np.ones(1)
    for n in range(len(mids) - 1, -1, -1):
        grad[n] = rank_step(suffix, mids[n])
        suffix = rank_step(suffix, slabs[n].swapaxes(0, 1))
    np.divide(grad, _floored(value), out=grad)


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
    values, _ = multilinear(tables, cell.T, w.T)
    return values, grid.outside(x)
