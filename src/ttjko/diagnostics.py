"""Sample-quality metrics, posterior interval statistics and the MCMC baseline.

The Sinkhorn divergence here is the debiased entropic transport cost
between uniform empirical measures.  Its solve iterates on the scalings
of an absorbed kernel: a half-update is one kernel mat-vec and one
division per point, and one min/max range check of the kernel product
decides when to re-absorb the potentials and when to redo the update in
the log domain.  The "double OT" statistic compares the *distributions*
of divergence values across repeated samples by exact one-dimensional
transport, which separates genuine model error from the finite-sample
noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .tt import is_count


# ---------------------------------------------------------------------------
# entropic OT / Sinkhorn divergence


@dataclass
class SinkhornConfig:
    max_iters: int = 300
    threshold: float = 1e-5          # sup-norm change of the dual potentials

    def __post_init__(self):
        if not is_count(self.max_iters, 1):
            raise ValueError("max_iters must be an integer >= 1")
        # NaN fails every comparison
        if not 0 < self.threshold < np.inf:
            raise ValueError("threshold must be positive and finite")


def median_sq_distance(x: np.ndarray) -> float:
    """Median squared distance between distinct points of ``x`` (or 1.0)."""
    if x.shape[0] < 2:
        return 1.0
    if x.shape[0] > MEDIAN_POOL:
        rng = np.random.default_rng(MEDIAN_SEED)
        x = x[rng.choice(x.shape[0], size=MEDIAN_POOL, replace=False)]
    sq = _sq_dists(x, x)
    off = sq[~np.eye(sq.shape[0], dtype=bool)]
    med = float(np.median(off))
    return med if med > 0 else 1.0


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xx = (x**2).sum(axis=1)[:, None]
    yy = (y**2).sum(axis=1)[None, :]
    return np.maximum(xx + yy - 2.0 * x @ y.T, 0.0)


#: the scaling-domain Sinkhorn absorbs the dual potentials into its kernel
#: once either drifts this many epsilons from the absorbed pair, which
#: keeps every scaling within ``exp(+-ABSORB_BOUND)``
ABSORB_BOUND = 50.0
#: ``median_sq_distance`` subsamples a larger ``x`` to this many points, by this seed
MEDIAN_POOL, MEDIAN_SEED = 512, 0
_TINY = np.finfo(float).tiny


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def _median(a: np.ndarray) -> float:
    """``np.median(a)`` bit for bit, from one partition instead of two."""
    flat = a.ravel()
    k = flat.size // 2
    part = np.partition(flat, k)
    if flat.size % 2:
        return float(part[k])
    return 0.5 * (float(part[:k].max()) + float(part[k]))


def entropic_ot(x: np.ndarray, y: np.ndarray, epsilon: float,
                max_iters: int, threshold: float):
    """Entropic transport cost between uniform empirical measures.

    Returns the primal objective (quadratic cost plus epsilon times the
    KL of the plan to the product measure) and a convergence flag
    (``SinkhornConfig`` holds the defaults of ``max_iters`` and ``threshold``).
    Epsilon annealing makes small epsilon both safe and affordable.

    The iterates are those of the log-domain updates of the dual
    potentials ``f, g``, held as the pair ``f_bar, g_bar`` last absorbed
    into the kernel ``K = exp((f_bar + g_bar - c) / eps)`` (one buffer,
    rebuilt in place) and the scalings ``u = exp((f - f_bar) / eps)``,
    ``v = exp((g - g_bar) / eps)``.  A half-update is ``u = m / (K v)``,
    then ``v = n / (u^T K)``: one kernel mat-vec and one division per
    point.  The min and max of the kernel product ``s`` decide the rest.
    A product that under- or overflows redoes the half-update in the log
    domain.  One outside ``[m e^-B, m e^B]`` (``B = ABSORB_BOUND``) would
    move the potential more than ``B`` epsilons from its absorbed value,
    so the new potential ``f_bar - eps (log s - log m)`` is absorbed into
    the kernel, taken from ``log s`` because ``m / s`` may overflow.  The
    convergence test reads the potentials' sup-norm change as ``eps``
    times the largest ``|log|`` of the new scalings over the old ones,
    which is exactly 0 at a fixed point of the updates.  The potentials
    ``f_bar + eps log u``, ``g_bar + eps log v`` are formed only to absorb
    them, when epsilon changes and for the primal value.
    """
    # canonical argument order: the cost is symmetric, but the alternating
    # dual updates are not at finite convergence, so fix the roles by content
    swap = (y.shape[0], y.tobytes()) < (x.shape[0], x.tobytes())
    if swap:
        x, y = y, x
    n, m = x.shape[0], y.shape[0]
    c = _sq_dists(x, y)
    log_mu = -np.log(n)
    log_nu = -np.log(m)
    kernel = np.empty((n, m))
    u, v = np.ones(n), np.ones(m)
    s_f, s_g = np.empty(n), np.empty(m)
    f_bar, g_bar, kernel_eps = np.zeros(n), np.zeros(m), None
    # kernel products outside these bounds re-absorb the potentials
    f_range = (m * math.exp(-ABSORB_BOUND), m * math.exp(ABSORB_BOUND))
    g_range = (n * math.exp(-ABSORB_BOUND), n * math.exp(ABSORB_BOUND))

    def potentials():
        return f_bar + kernel_eps * np.log(u), g_bar + kernel_eps * np.log(v)

    def absorb(eps, f_abs, g_abs):
        nonlocal f_bar, g_bar, kernel_eps
        f_bar, g_bar, kernel_eps = f_abs, g_abs, eps
        np.add.outer(f_abs, g_abs, out=kernel)
        np.subtract(kernel, c, out=kernel)
        np.divide(kernel, eps, out=kernel)
        np.exp(kernel, out=kernel)
        u.fill(1.0)
        v.fill(1.0)

    def rescale(a, s, size, eps, tol):
        """``a = size / s``, overwriting both; whether that moved the
        potential of ``a`` by less than ``tol`` in sup norm (False without
        a ``tol``)."""
        np.divide(size, s, out=s)
        still = False
        if tol is not None:
            r = s / a
            still = eps * math.log(r.max()) < tol and -eps * math.log(r.min()) < tol
        a[...] = s
        return still

    def update(eps, tol=None):
        """One update at ``eps``; whether it moved both potentials by less
        than ``tol`` in sup norm (False without a ``tol``)."""
        if eps != kernel_eps:
            absorb(eps, *potentials())
        s = np.dot(kernel, v, out=s_f)
        lo, hi = s.min(), s.max()
        if f_range[0] <= lo and hi <= f_range[1]:
            still = rescale(u, s, m, eps, tol)
        else:
            f, g = potentials()
            if _TINY <= lo and hi < np.inf:
                f_new = f_bar - eps * (np.log(s) + log_nu)
            else:
                f_new = -eps * _logsumexp((g[None, :] - c) / eps + log_nu, axis=1)
            absorb(eps, f_new, g)
            still = tol is not None and np.abs(f_new - f).max() < tol
        tol = tol if still else None      # a moved f already fails the test
        s = np.dot(u, kernel, out=s_g)
        lo, hi = s.min(), s.max()
        if g_range[0] <= lo and hi <= g_range[1]:
            still = rescale(v, s, n, eps, tol)
        else:
            f, g = potentials()
            if _TINY <= lo and hi < np.inf:
                g_new = g_bar - eps * (np.log(s) + log_mu)
            else:
                g_new = -eps * _logsumexp((f[:, None] - c) / eps + log_mu, axis=0)
            absorb(eps, f, g_new)
            still = tol is not None and np.abs(g_new - g).max() < tol
        return still

    # annealed regularization: a couple of updates per level keeps the duals
    # warm all the way down, then polish at the target epsilon
    start = max(_median(c), epsilon)
    n_levels = max(int(np.ceil(np.log(start / epsilon) / np.log(1.0 / 0.7))), 0)
    absorb(start, f_bar, g_bar)
    used = 0
    for eps in start * 0.7 ** np.arange(n_levels):
        for _ in range(2):
            update(eps)
            used += 1
    converged = False
    while used < max_iters:
        used += 1
        if update(epsilon, threshold):
            converged = True
            break
    f, g = potentials()
    log_pi = (f[:, None] + g[None, :] - c) / epsilon + log_mu + log_nu
    pi = np.exp(log_pi)
    cost = float((pi * c).sum())
    kl = float((pi * (log_pi - log_mu - log_nu)).sum())
    return cost + epsilon * kl, converged


# ---------------------------------------------------------------------------
# double-OT comparison protocol


def wasserstein_1d_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Exact squared 2-Wasserstein distance between 1-d empirical measures
    (quantile-function formula, arbitrary sizes)."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    qs = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    qs = np.concatenate([[0.0], qs, [1.0]])
    mids = 0.5 * (qs[:-1] + qs[1:])
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sum((qs[1:] - qs[:-1]) * (a[ia] - b[ib]) ** 2))


@dataclass
class PairStats:
    mean: float
    std: float
    values: np.ndarray


@dataclass
class DoubleOTReport:
    epsilon: float
    within_ref: PairStats
    to_ref: dict = field(default_factory=dict)       # label -> PairStats
    double_ot: dict = field(default_factory=dict)    # label -> float
    solves: int = 0              # entropic_ot calls behind the values
    unconverged: int = 0         # of those, the ones that hit max_iters

    def to_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "solves": self.solves,
            "unconverged": self.unconverged,
            "ref_to_ref": {"mean": self.within_ref.mean, "std": self.within_ref.std},
        }
        for label, stats in self.to_ref.items():
            out[f"ref_to_{label}"] = {"mean": stats.mean, "std": stats.std}
        out["double_ot"] = dict(self.double_ot)
        return out


def double_ot_protocol(groups: dict, config: SinkhornConfig) -> DoubleOTReport:
    """Pairwise Sinkhorn divergences within/between labeled sample groups.

    All pairs share one epsilon, 0.01 times the median squared distance
    of the pooled first sample of each label, so values are comparable.
    The scalar per label other than ``"ref"`` is the exact 1-d OT
    distance between the ref-ref and ref-label divergence-value
    distributions.  The report counts the ``entropic_ot`` solves behind
    the values and how many of them stopped at ``max_iters``.
    """
    if "ref" not in groups:
        raise ValueError("missing reference label 'ref'")
    dims = set()
    for label, samples in groups.items():
        if len(samples) < 2:
            raise ValueError(f"need at least 2 samples per label, {label!r} has {len(samples)}")
        for sample in samples:
            if sample.shape[0] == 0:
                raise ValueError(f"samples must be nonempty, {label!r} has an empty one")
            dims.add(sample.shape[1])
    if len(dims) > 1:
        raise ValueError(f"samples must share the dimension, got {sorted(dims)}")
    pool = np.concatenate([groups[lab][0] for lab in sorted(groups)], axis=0)
    eps = 0.01 * median_sq_distance(pool)

    refs = groups["ref"]
    self_cost: dict = {}
    flags: list = []

    def solve(a, b):
        value, converged = entropic_ot(a, b, eps, config.max_iters, config.threshold)
        flags.append(converged)
        return value

    def self_term(sample):
        key = id(sample)
        if key not in self_cost:
            self_cost[key] = solve(sample, sample)
        return self_cost[key]

    def s2(a, b):
        return solve(a, b) - 0.5 * (self_term(a) + self_term(b))

    ref_vals = np.array([
        s2(refs[i], refs[j])
        for i in range(len(refs)) for j in range(i + 1, len(refs))
    ])
    report = DoubleOTReport(
        epsilon=eps,
        within_ref=PairStats(float(ref_vals.mean()), float(ref_vals.std()), ref_vals),
    )
    for label in sorted(groups):
        if label == "ref":
            continue
        vals = np.array([s2(r, s) for r in refs for s in groups[label]])
        report.to_ref[label] = PairStats(float(vals.mean()), float(vals.std()), vals)
        report.double_ot[label] = wasserstein_1d_sq(ref_vals, vals)
    report.solves = len(flags)
    report.unconverged = flags.count(False)
    return report


# ---------------------------------------------------------------------------
# MAP and highest-density interval


#: probability mass of the highest-density intervals ``map_and_hdi`` reports
HDI_MASS = 0.89


def map_and_hdi(density: np.ndarray, nodes: np.ndarray):
    """MAP node and the shortest contiguous node interval holding ``HDI_MASS``.

    Interval masses are subinterval trapezoid sums; ties resolve to the
    leftmost interval.  Returns ``(map_value, (lo, hi))``.
    """
    rho = np.asarray(density, dtype=float)
    x = np.asarray(nodes, dtype=float)
    if rho.ndim != 1 or rho.shape != x.shape:
        raise ValueError("density and nodes must be matching 1-d arrays")
    if np.any(rho < 0):
        raise ValueError("density must be nonnegative")
    h = x[1] - x[0]
    total = np.trapezoid(rho, dx=h)
    if total <= 0:
        raise ValueError("density has zero mass")
    target = HDI_MASS * total
    csum = np.concatenate([[0.0], np.cumsum(rho)])

    def interval_mass(i, j):
        return h * (csum[j + 1] - csum[i] - 0.5 * rho[i] - 0.5 * rho[j])

    n = rho.size
    map_idx = int(np.argmax(rho))
    best = None
    j = 0
    for i in range(n):
        j = max(j, i)
        while j < n - 1 and interval_mass(i, j) < target:
            j += 1
        if interval_mass(i, j) >= target:
            width = x[j] - x[i]
            if best is None or width < best[0] - 1e-15 * max(abs(width), 1.0):
                best = (width, i, j)
        else:
            break
    if best is None:
        best = (x[-1] - x[0], 0, n - 1)
    _, lo, hi = best
    return float(x[map_idx]), (float(x[lo]), float(x[hi]))


# ---------------------------------------------------------------------------
# Metropolis-Hastings baseline


#: pilot acceptance rates the auto-tuned proposal scale must land between
ACCEPTANCE_BAND = (0.2, 0.3)
#: Sokal's window: ``integrated_autocorr`` sums the lags below this many taus
AUTOCORR_WINDOW = 5.0


@dataclass
class MHConfig:
    n_chains: int = 400
    n_steps: int = 10000
    proposal_std: float = 0.5
    burn_in: float = 0.3
    thin: int = 1
    init_std: float = 1.0
    auto_tune: bool = False

    def __post_init__(self):
        # NaN fails every comparison
        for name in ("proposal_std", "init_std"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("n_chains", "n_steps", "thin"):
            n = getattr(self, name)
            if not is_count(n, 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError("burn_in must lie in [0, 1)")


@dataclass
class MHResult:
    chains: np.ndarray            # (n_chains, n_kept, d) thinned, post burn-in
    acceptance_rate: float
    n_calls: int                  # posterior evaluations: n_chains * n_steps
    proposal_std: float
    thin: int

    @cached_property
    def tau(self) -> float:
        """Integrated autocorrelation time in unthinned steps: the largest
        over coordinates of the thinned trace's, times ``thin``."""
        return float(max(self.thin * integrated_autocorr(self.chains[:, :, j])
                         for j in range(self.chains.shape[2])))

    def states(self, n_states: int, spacing_steps: float) -> list:
        """Last ``n_states`` ensemble snapshots, at least ``spacing_steps``
        unthinned steps apart."""
        kept = self.chains.shape[1]
        stride = max(int(np.ceil(spacing_steps / self.thin)), 1)
        idx = kept - 1 - stride * np.arange(n_states)
        if np.any(idx < 0):
            raise ValueError("chain too short for the requested spacing")
        return [self.chains[:, int(i), :] for i in idx[::-1]]


def integrated_autocorr(traces: np.ndarray) -> float:
    """Self-consistent windowed autocorrelation time of (n_chains, n_steps)."""
    traces = np.atleast_2d(traces)
    n = traces.shape[1]
    centered = traces - traces.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, n=size, axis=1)
    acf = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n].real
    acf = acf.mean(axis=0)
    if acf[0] <= 0:
        return 1.0
    rho = acf / acf[0]
    tau = 2.0 * np.cumsum(rho) - 1.0
    window = np.arange(n) < AUTOCORR_WINDOW * tau
    m = int(np.argmin(window)) if not window.all() else n - 1
    return float(max(tau[m], 1.0))


def metropolis_hastings(density, d: int, config: MHConfig,
                        rng: np.random.Generator,
                        log_density=None) -> MHResult:
    """Random-walk MH with isotropic Gaussian proposals, vectorized over chains.

    ``density`` must be finite on the support of the proposals; a
    ``log_density`` override avoids underflow for concentrated targets.
    The reported call count follows the budget convention of one call
    per proposal (n_chains * n_steps).

    The chains are a function of ``rng``'s stream, drawn in this order:
    the pilot runs of ``auto_tune``, then ``standard_normal((n_chains,
    d))`` for the initial states, then per step one
    ``standard_normal((n_chains, d))`` for the proposal and one uniform
    vector of length ``n_chains`` for the accept test.  The loop updates
    preallocated buffers in place: every step passes ``log_density`` the
    same proposal array, so it must not keep its argument.  The result's
    ``tau`` is computed from the kept states on first read.
    """
    if log_density is None:
        def log_density(x):
            with np.errstate(divide="ignore"):
                return np.log(np.asarray(density(x), dtype=float))

    cfg = config
    if cfg.auto_tune:
        cfg = _tune_proposal(density, d, cfg, rng, log_density)

    n = cfg.n_chains
    x = cfg.init_std * rng.standard_normal((n, d))
    logp = np.empty(n)
    logp[...] = log_density(x)          # an owned copy: x and logp update in place
    if np.all(np.isneginf(logp)):
        raise ValueError("target density is zero at every initial point")
    keep_from = int(cfg.burn_in * cfg.n_steps)
    chains = np.empty((n, len(range(keep_from, cfg.n_steps, cfg.thin)), d))
    prop = np.empty((n, d))
    logu = np.empty(n)
    accept = np.empty(n, dtype=bool)
    accepted = 0
    # a chain outside the support compares -inf - -inf = NaN: a reject
    with np.errstate(invalid="ignore"):
        for step in range(cfg.n_steps):
            rng.standard_normal(out=prop)
            prop *= cfg.proposal_std
            prop += x
            logp_prop = np.asarray(log_density(prop), dtype=float)
            np.log(rng.random(out=logu), out=logu)
            np.less(logu, logp_prop - logp, out=accept)
            np.copyto(x, prop, where=accept[:, None])
            np.copyto(logp, logp_prop, where=accept)
            accepted += np.count_nonzero(accept)
            kept, off = divmod(step - keep_from, cfg.thin)
            if kept >= 0 and off == 0:
                chains[:, kept] = x
    return MHResult(
        chains=chains,
        acceptance_rate=accepted / (n * cfg.n_steps),
        n_calls=n * cfg.n_steps,
        proposal_std=cfg.proposal_std,
        thin=cfg.thin,
    )


def _tune_proposal(density, d: int, config: MHConfig, rng: np.random.Generator,
                   log_density) -> MHConfig:
    """Bisect the proposal scale until pilot acceptance lands in the band."""
    lo_band, hi_band = ACCEPTANCE_BAND
    std = config.proposal_std
    lo, hi = None, None
    pilot = MHConfig(
        n_chains=min(config.n_chains, 64), n_steps=200, proposal_std=std,
        burn_in=0.0, init_std=config.init_std,
    )
    for _ in range(24):
        pilot.proposal_std = std
        res = metropolis_hastings(density, d, pilot, rng, log_density=log_density)
        rate = res.acceptance_rate
        if lo_band <= rate <= hi_band:
            break
        if rate > hi_band:      # too timid, enlarge steps
            lo = std
            std = std * 2.0 if hi is None else 0.5 * (std + hi)
        else:
            hi = std
            std = std * 0.5 if lo is None else 0.5 * (std + lo)
    return replace(config, proposal_std=std, auto_tune=False)
