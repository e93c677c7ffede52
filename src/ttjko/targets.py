"""Unnormalized target densities and the cached grid-indexed oracle.

Every target exposes a vectorized ``density(x)`` taking ``(M, d)``
points.  :class:`CachedDensity` keys evaluations by grid multi-index
and stores the first ``capacity`` distinct values, so repeated queries
during cross sweeps are free; ``unique_calls`` counts actual oracle
invocations, the cost unit for all budget comparisons.

The store is one dict from the bytes of an ``intp`` index row to the
density there.  Distinct rows have distinct bytes, so a lookup is exact
on every grid, however many points it has.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import Grid
from .tt import checked_indices


class DensityEvalError(ValueError):
    """Underlying oracle returned a NaN or negative value at an index."""

    def __init__(self, index, value):
        self.index = tuple(int(i) for i in np.atleast_1d(index))
        super().__init__(f"density oracle returned {value!r} at index {self.index}")


class CachedDensity:
    """Grid-indexed density oracle with a store-first-N cache.

    ``fn`` maps point coordinates ``(M, d)`` to nonnegative values
    ``(M,)``.  Each batch evaluates its uncached rows once, in
    first-occurrence order, and counts them in ``unique_calls``.  The
    cache never evicts: once ``capacity`` distinct indices are stored,
    further new indices are evaluated on every query that holds them,
    so ``capacity=0`` turns the cache off.
    """

    __slots__ = ("fn", "grid", "capacity", "unique_calls", "total_calls",
                 "_shape", "_row_dtype", "_store")

    def __init__(self, fn, grid: Grid, capacity: int | None = None):
        if capacity is not None and (not isinstance(capacity, (int, np.integer))
                                     or capacity < 0):
            raise ValueError("capacity must be None or an integer >= 0")
        self.fn = fn
        self.grid = grid
        self.capacity = capacity
        self._shape = grid.shape
        self._row_dtype = np.dtype((np.void, grid.d * np.dtype(np.intp).itemsize))
        self._store: dict[bytes, float] = {}
        self.unique_calls = 0
        self.total_calls = 0

    def eval_batch(self, indices: np.ndarray) -> np.ndarray:
        """Densities at grid multi-indices, checked by
        :func:`~ttjko.tt.checked_indices`, shape (M, d) -> (M,)."""
        idx = checked_indices(indices, self._shape)
        self.total_calls += idx.shape[0]

        keys = np.ascontiguousarray(idx).view(self._row_dtype).ravel().tolist()
        store = self._store
        vals = [store.get(key) for key in keys]          # None where uncached
        if None in vals:
            first = {}                                   # new key -> its first row
            for i, (key, val) in enumerate(zip(keys, vals)):
                if val is None:
                    first.setdefault(key, i)
            new = dict(zip(first, self._evaluate(idx[list(first.values())]).tolist()))
            self.unique_calls += len(new)
            room = None if self.capacity is None else max(self.capacity - len(store), 0)
            store.update(islice(new.items(), room))
            vals = [new[key] if val is None else val for key, val in zip(keys, vals)]
        return np.array(vals, dtype=float)

    def _evaluate(self, idx: np.ndarray) -> np.ndarray:
        x = self.grid.points(idx)
        vals = np.asarray(self.fn(x), dtype=float).reshape(-1)
        bad = ~np.isfinite(vals) | (vals < 0)
        if np.any(bad):
            row = int(np.nonzero(bad)[0][0])
            raise DensityEvalError(idx[row], vals[row])
        return vals

    @property
    def cache_size(self) -> int:
        return len(self._store)


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
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        # NaN fails both comparisons
        if not np.all((self.var > 0) & (self.var < np.inf)):
            raise ValueError("variances must be positive and finite")

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
        # NaN fails every comparison
        if not 0 < self.var < np.inf:
            raise ValueError("component variance must be positive and finite")
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("mixture weights must be positive and finite")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("mixture means must be finite")
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
        """Mixture density at the rows of ``x``, computed points-last.

        The differences are one ``(d, K, M)`` array, squared in place;
        the squared distances add its ``d`` rows in coordinate order and
        the mixture adds its ``K`` weighted rows in component order.
        ``np.sum`` along a contiguous axis of 8 or more elements adds in
        blocks of 8, so for ``d < 8`` and ``K < 8`` the values are
        bitwise those of ``(w * exp(-0.5 * sq / var)).sum(axis=1)`` on
        the row-major ``(M, K, d)`` form; beyond that they differ from it
        in the last bits.
        """
        x = np.atleast_2d(x)
        norm = (2.0 * np.pi * self.var) ** (self.dim / 2.0)
        diff = np.ascontiguousarray(x.T)[:, None, :] - self.means.T[:, :, None]
        np.square(diff, out=diff)
        terms = np.add.reduce(diff, axis=0)                  # (K, M)
        terms *= -0.5
        terms /= self.var
        np.exp(terms, out=terms)
        terms *= self.weights[:, None]
        return np.add.reduce(terms, axis=0) / norm

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=n, p=self.weights / self.weights.sum())
        return self.means[comp] + np.sqrt(self.var) * rng.standard_normal((n, self.dim))


@dataclass
class DoubleMoon:
    dim: int
    a: float = 2.0

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be an integer >= 1")
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")

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
        # NaN fails both comparisons
        if not (0 < self.sigma_meas < np.inf
                and np.all((0 < self.sigma_prior) & (self.sigma_prior < np.inf))):
            raise ValueError("scale parameters must be positive and finite")
        if not all(np.all(np.isfinite(v)) for v in
                   (self.theta_star, self.t_meas, self.x_meas, self.data)):
            raise ValueError("theta_star, measurement points and data must be finite")

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
    t_lo, t_hi = t_range
    x_lo, x_hi = x_range
    t = np.linspace(t_lo, t_hi, n_t)
    if x_gap is None:
        x = np.linspace(x_lo, x_hi, n_x)
    else:
        gap_lo, gap_hi = x_gap
        half = n_x // 2
        x = np.concatenate([
            np.linspace(x_lo, gap_lo, half, endpoint=False),
            np.linspace(x_hi, gap_hi, n_x - half, endpoint=False)[::-1],
        ])
    tt, xx = np.meshgrid(t, x, indexing="ij")
    return tt.ravel(), xx.ravel()


def synthesize_measurements(forward, theta_star: np.ndarray, t_meas: np.ndarray,
                            x_meas: np.ndarray, sigma_meas: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Exact forward values plus iid Gaussian noise of std sigma_meas."""
    if not 0 < sigma_meas < np.inf:
        raise ValueError("sigma_meas must be positive and finite")
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
    if not 0 < sigma0 < np.inf:
        raise ValueError("sigma0 must be positive and finite")
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
