"""Unnormalized target densities and the cached grid-indexed oracle.

Every target exposes a vectorized ``density(x)`` taking ``(M, d)``
points.  :class:`CachedDensity` keys evaluations by grid multi-index
and stores the first ``capacity`` distinct values, so repeated queries
during cross sweeps are free; ``unique_calls`` counts actual oracle
invocations, the cost unit for all budget comparisons.

The cache key of a multi-index ``i`` on a grid with ``N_k`` nodes per
axis is the mixed-radix number ``sum_k i_k * prod_{j<k} N_j`` taken
mod 2^64, one ``uint64`` per index.  It is exact (distinct indices get
distinct keys) while ``prod_k N_k <= 2^64``; larger grids wrap.  The
store keeps the keys sorted, each with the slot of its value and index
row, and a lookup is a hit only if both the key and the row agree (on
an exact grid an equal key implies an equal row).  Two indices that
share a wrapped key are therefore never confused: the one stored first
is cached, the other is evaluated on every query, like an index beyond
``capacity``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


class DensityEvalError(ValueError):
    """Underlying oracle returned a NaN or negative value at an index."""

    def __init__(self, index, value):
        self.index = tuple(int(i) for i in np.atleast_1d(index))
        super().__init__(f"density oracle returned {value!r} at index {self.index}")


def _distinct(keys: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``idx`` in first-occurrence order.

    Returns ``(first, inverse)``: the row where each distinct index
    first occurs, and for every row the position of its index in
    ``first``.  Rows are grouped by key, or by their entries when two
    different rows share a key.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if not np.array_equal(idx[first][inverse], idx):
        _, first, inverse = np.unique(idx, axis=0, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


class CachedDensity:
    """Grid-indexed density oracle with a store-first-N cache.

    ``fn`` maps point coordinates ``(M, d)`` to nonnegative values
    ``(M,)``.  The cache never evicts: once ``capacity`` distinct
    indices are stored, further new indices are evaluated on every
    query (and counted in ``unique_calls`` each time).
    """

    def __init__(self, fn, grid: Grid, capacity: int | None = None):
        self.fn = fn
        self.grid = grid
        self.capacity = capacity
        self.enabled = True
        radix, weight = [], 1
        for n in grid.shape:
            radix.append(weight % 2**64)
            weight *= n
        self._radix = np.array(radix, dtype=np.uint64)
        # keys are injective unless the grid has more than 2^64 points
        self._exact = weight <= 2**64
        self._nodes = np.asarray(grid.nodes, dtype=np.uint64)
        self._min_nodes = self._nodes.min()
        self._keys = np.zeros(0, dtype=np.uint64)      # sorted
        self._slots = np.zeros(0, dtype=np.intp)       # entry of each sorted key
        self._vals = np.zeros(0)                       # entries, in insertion order
        self._rows = np.zeros((0, grid.d), dtype=np.intp)
        self.unique_calls = 0
        self.total_calls = 0

    def eval_batch(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.shape[1] != self.grid.d:
            raise ValueError(f"expected multi-indices of length {self.grid.d}")
        # negative entries read as huge unsigned values, so one test covers
        # both bounds; the per-axis test runs only if the largest entry fails
        # the smallest axis
        uidx = idx.view(np.uint64)
        if uidx.max(initial=0) >= self._min_nodes and (uidx >= self._nodes).any():
            raise ValueError("multi-index outside the grid shape")
        m = idx.shape[0]
        if not self.enabled:
            vals = self._evaluate(idx)
            self.total_calls += m
            self.unique_calls += m
            return vals
        self.total_calls += m

        keys = uidx @ self._radix
        if self._keys.size:
            pos = np.minimum(self._keys.searchsorted(keys), self._keys.size - 1)
            slot = self._slots[pos]
            hit = self._keys[pos] == keys
            if not self._exact:
                hit &= (self._rows[slot] == idx).all(axis=1)
            out = self._vals[slot]
            if hit.all():
                return out
            miss = np.flatnonzero(~hit)
        else:
            out = np.empty(m)
            miss = np.arange(m)
            if m == 0:
                return out
        first, inverse = _distinct(keys[miss], idx[miss])
        new = miss[first]
        vals = self._evaluate(idx[new])
        self.unique_calls += new.size
        out[miss] = vals[inverse]
        self._store(keys[new], vals, idx[new])
        return out

    def _store(self, keys: np.ndarray, vals: np.ndarray, rows: np.ndarray) -> None:
        """Insert new distinct indices in order until ``capacity`` is reached.

        A key held by an earlier index (a wrapped-key collision) keeps
        that index; the later one is not stored.
        """
        size = self._keys.size
        if self.capacity is not None:
            room = max(self.capacity - size, 0)
            keys, vals, rows = keys[:room], vals[:room], rows[:room]
        keys, first = np.unique(keys, return_index=True)
        at = self._keys.searchsorted(keys)
        if size:
            free = self._keys[np.minimum(at, size - 1)] != keys
            keys, first, at = keys[free], first[free], at[free]
        if keys.size == 0:
            return
        if size + keys.size > self._vals.size:
            # entry buffers grow geometrically; only the first `size` are live
            cap = 2 * (size + keys.size)
            self._vals = np.concatenate([self._vals[:size], np.empty(cap - size)])
            self._rows = np.concatenate(
                [self._rows[:size], np.empty((cap - size, self.grid.d), dtype=np.intp)])
        new_slots = np.arange(size, size + keys.size)
        self._vals[new_slots] = vals[first]
        self._rows[new_slots] = rows[first]
        self._keys = np.insert(self._keys, at, keys)
        self._slots = np.insert(self._slots, at, new_slots)

    def _evaluate(self, idx: np.ndarray) -> np.ndarray:
        x = self.grid.points(idx)
        vals = np.asarray(self.fn(x), dtype=float).reshape(-1)
        bad = ~np.isfinite(vals) | (vals < 0)
        if np.any(bad):
            row = int(np.nonzero(bad)[0][0])
            raise DensityEvalError(idx[row], vals[row])
        return vals

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        return self.eval_batch(indices)

    @property
    def cache_size(self) -> int:
        return self._keys.size


# ---------------------------------------------------------------------------
# synthetic targets


@dataclass
class Gaussian:
    mean: np.ndarray
    var: np.ndarray        # diagonal covariance

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.var = np.broadcast_to(
            np.asarray(self.var, dtype=float), self.mean.shape
        ).copy()
        if np.any(self.var <= 0):
            raise ValueError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.mean.size

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        z = (x - self.mean) ** 2 / self.var
        norm = np.prod(2.0 * np.pi * self.var) ** 0.5
        return np.exp(-0.5 * z.sum(axis=1)) / norm


@dataclass
class GaussianMixture:
    means: np.ndarray      # (K, d)
    var: float
    weights: np.ndarray    # (K,)

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.var <= 0:
            raise ValueError("component variance must be positive")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        if self.weights.size != self.means.shape[0]:
            raise ValueError("one weight per component required")

    @classmethod
    def random(cls, d: int, k: int, var: float, half_width: float,
               rng: np.random.Generator) -> "GaussianMixture":
        """Equal weights, means uniform in [-half_width, half_width]^d."""
        means = rng.uniform(-half_width, half_width, size=(k, d))
        return cls(means=means, var=var, weights=np.full(k, 1.0 / k))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        d = self.dim
        norm = (2.0 * np.pi * self.var) ** (d / 2.0)
        sq = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        return (self.weights * np.exp(-0.5 * sq / self.var)).sum(axis=1) / norm

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=n, p=self.weights / self.weights.sum())
        return self.means[comp] + np.sqrt(self.var) * rng.standard_normal((n, self.dim))


@dataclass
class DoubleMoon:
    dim: int
    a: float = 2.0

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        shell = np.exp(-2.0 * (np.linalg.norm(x, axis=1) - self.a) ** 2)
        lobes = np.exp(-2.0 * (x[:, 0] - self.a) ** 2) + np.exp(-2.0 * (x[:, 0] + self.a) ** 2)
        return shell * lobes


@dataclass
class NonconvexPotential:
    anchors: np.ndarray

    def __post_init__(self):
        self.anchors = np.atleast_1d(np.asarray(self.anchors, dtype=float))

    @classmethod
    def alternating(cls, d: int) -> "NonconvexPotential":
        return cls(anchors=np.array([(-1.0) ** (i + 1) for i in range(d)]))

    @property
    def dim(self) -> int:
        return self.anchors.size

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        s = np.sqrt(np.abs(x - self.anchors)).sum(axis=1)
        return np.exp(-(s**2))


# ---------------------------------------------------------------------------
# PDE-constrained posteriors (closed-form forward maps)


def wave_forward(theta: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solution of the wave equation with a sum-of-bumps initial condition.

    theta: (M, d) peak positions; t, x: (P,) matched pairs of
    measurement coordinates.  Returns (M, P).
    """
    theta = np.atleast_2d(theta)
    t = np.asarray(t, dtype=float).reshape(1, -1, 1)
    x = np.asarray(x, dtype=float).reshape(1, -1, 1)
    th = theta[:, None, :]
    left = np.exp(-((x - t - th) ** 2)).sum(axis=2)
    right = np.exp(-((x + t - th) ** 2)).sum(axis=2)
    return 0.5 * (left + right)


def cosine_heat_forward(theta: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Neumann heat solution for a truncated cosine-series initial condition.

    ``u(theta; t, x) = sum_j theta_j exp(-(pi j)^2 t) cos(j pi x)``.
    """
    theta = np.atleast_2d(theta)
    d = theta.shape[1]
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    j = np.arange(d)[None, :]
    basis = np.exp(-((np.pi * j) ** 2) * t) * np.cos(j * np.pi * x)   # (P, d)
    return theta @ basis.T


@dataclass
class PosteriorTarget:
    """Gaussian-likelihood posterior for a closed-form forward map.

    The potential is the misfit over all measurement points plus the
    diagonal Gaussian prior; ``density`` returns ``exp(-V)``.  With
    ``ordered=True`` the density is zero off the ascending cone
    (the hard ordering constraint realized as density zero).
    """

    forward: object
    theta_star: np.ndarray
    sigma_meas: float
    sigma_prior: np.ndarray     # per-coordinate prior std
    t_meas: np.ndarray
    x_meas: np.ndarray
    data: np.ndarray
    ordered: bool = False

    def __post_init__(self):
        self.theta_star = np.atleast_1d(np.asarray(self.theta_star, dtype=float))
        self.sigma_prior = np.broadcast_to(
            np.asarray(self.sigma_prior, dtype=float), self.theta_star.shape
        ).copy()
        self.t_meas = np.asarray(self.t_meas, dtype=float).reshape(-1)
        self.x_meas = np.asarray(self.x_meas, dtype=float).reshape(-1)
        self.data = np.asarray(self.data, dtype=float).reshape(-1)
        if self.sigma_meas <= 0 or np.any(self.sigma_prior <= 0):
            raise ValueError("scale parameters must be positive")

    @property
    def dim(self) -> int:
        return self.theta_star.size

    def potential(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(theta)
        pred = self.forward(theta, self.t_meas, self.x_meas)
        misfit = ((pred - self.data) ** 2).sum(axis=1) / (2.0 * self.sigma_meas**2)
        prior = ((theta / self.sigma_prior) ** 2).sum(axis=1) / 2.0
        return misfit + prior

    def density(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(theta)
        val = np.exp(-self.potential(theta))
        if self.ordered:
            ascending = np.all(np.diff(theta, axis=1) >= 0, axis=1)
            val = np.where(ascending, val, 0.0)
        return val


def measurement_grid(n_t: int, n_x: int, t_range, x_range,
                     x_gap=None) -> tuple[np.ndarray, np.ndarray]:
    """Equidistant (t, x) measurement pairs; with ``x_gap`` the spatial
    points are split evenly outside the excluded interval."""
    t = np.linspace(t_range[0], t_range[1], n_t)
    if x_gap is None:
        x = np.linspace(x_range[0], x_range[1], n_x)
    else:
        half = n_x // 2
        x = np.concatenate([
            np.linspace(x_range[0], x_gap[0], half, endpoint=False),
            np.linspace(x_range[1], x_gap[1], n_x - half, endpoint=False)[::-1],
        ])
    tt, xx = np.meshgrid(t, x, indexing="ij")
    return tt.ravel(), xx.ravel()


def synthesize_measurements(forward, theta_star: np.ndarray, t_meas: np.ndarray,
                            x_meas: np.ndarray, sigma_meas: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Exact forward values plus iid Gaussian noise of std sigma_meas."""
    if sigma_meas <= 0:
        raise ValueError("sigma_meas must be positive")
    clean = forward(np.atleast_2d(theta_star), t_meas, x_meas)[0]
    return clean + sigma_meas * rng.standard_normal(clean.shape)


def hyperbolic_posterior(d: int, sigma_meas: float = 0.1, sigma_prior: float = 1.5,
                         n_t: int = 5, n_x: int = 10, t_range=(0.2, 2.0),
                         x_range=(-4.0, 4.0), ordered: bool = True,
                         seed: int = 0) -> PosteriorTarget:
    """Wave-equation posterior with optional ascending-order constraint.

    The true peak positions are drawn from the prior; with
    ``ordered=True`` they are sorted ascending (the forward map is
    permutation-invariant, so this fixes the labeling the constraint
    selects).
    """
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(0.0, sigma_prior, size=d)
    if ordered:
        theta_star = np.sort(theta_star)
    t_meas, x_meas = measurement_grid(n_t, n_x, t_range, x_range)
    data = synthesize_measurements(wave_forward, theta_star, t_meas, x_meas,
                                   sigma_meas, rng)
    return PosteriorTarget(
        forward=wave_forward, theta_star=theta_star, sigma_meas=sigma_meas,
        sigma_prior=np.full(d, sigma_prior), t_meas=t_meas, x_meas=x_meas,
        data=data, ordered=ordered,
    )


def parabolic_posterior(d: int, sigma_meas: float = 0.05, sigma0: float = 1.5,
                        n_t: int = 5, n_x: int = 10, t_range=(0.005, 0.05),
                        x_range=(-1.0, 1.0), gap=None,
                        seed: int = 0) -> PosteriorTarget:
    """Heat-equation posterior; prior std decays like sigma0 / (k + 1).

    ``gap=(-0.5, 0.5)`` removes sensors from the central interval (the
    importance-sampling case study layout).
    """
    rng = np.random.default_rng(seed)
    sigma_prior = sigma0 / (np.arange(d) + 1.0)
    theta_star = rng.normal(0.0, 1.0, size=d) * sigma_prior
    t_meas, x_meas = measurement_grid(n_t, n_x, t_range, x_range, x_gap=gap)
    data = synthesize_measurements(cosine_heat_forward, theta_star, t_meas, x_meas,
                                   sigma_meas, rng)
    return PosteriorTarget(
        forward=cosine_heat_forward, theta_star=theta_star, sigma_meas=sigma_meas,
        sigma_prior=sigma_prior, t_meas=t_meas, x_meas=x_meas, data=data,
    )


def save_measurements(path, t_meas, x_meas, data) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "value"])
        for t, x, v in zip(t_meas, x_meas, data):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(v))])


def load_measurements(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t, x, v = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["t", "x", "value"]:
            raise ValueError(f"unexpected measurement header {header}")
        for row in reader:
            t.append(float(row[0]))
            x.append(float(row[1]))
            v.append(float(row[2]))
    return np.asarray(t), np.asarray(x), np.asarray(v)
