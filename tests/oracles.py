"""Independent brute-force references used only by the tests.

Nothing here touches the production TT/cross code paths: heat steps use
dense eigendecompositions, transport uses assignment enumeration, and
KL values come from quadrature or closed forms.  ``reference_maxvol``
is the original maxvol built on the validating ``scipy.linalg``
wrappers, kept to pin the pivots of the production version.
"""

import itertools

import numpy as np
import scipy.linalg

SIZE_CAP = 10**7


def reference_maxvol(a: np.ndarray, tol: float = 1.05, max_iters: int = 200) -> np.ndarray:
    """Rows of a quasi-dominant r x r submatrix of a tall n x r matrix."""
    a = np.asarray(a, dtype=float)
    n, r = a.shape
    if n == r:
        return np.arange(n)
    _, piv = scipy.linalg.lu_factor(a, check_finite=False)
    ind = np.arange(n)
    for k in range(r):
        p = piv[k]
        if p != k:
            ind[[k, p]] = ind[[p, k]]
    ind = ind[:r].copy()
    try:
        b = scipy.linalg.solve(a[ind].T, a.T, check_finite=False).T
    except scipy.linalg.LinAlgError:
        b = np.linalg.lstsq(a[ind].T, a.T, rcond=None)[0].T
    for _ in range(max_iters):
        flat = np.argmax(np.abs(b))
        i, j = np.unravel_index(flat, b.shape)
        if abs(b[i, j]) <= tol:
            break
        bj = b[:, j].copy()
        bi = b[i, :].copy()
        bi[j] -= 1.0
        b -= np.outer(bj, bi) / b[i, j]
        ind[j] = i
    return ind


def dense_heat_factor(n: int, h: float, s: float) -> np.ndarray:
    """exp(s * D) for the no-flux second-difference matrix, via eigh."""
    d_mat = np.zeros((n, n))
    idx = np.arange(n)
    d_mat[idx, idx] = -2.0
    d_mat[idx[:-1], idx[:-1] + 1] = 1.0
    d_mat[idx[1:], idx[1:] - 1] = 1.0
    d_mat[0, 0] = d_mat[-1, -1] = -1.0
    d_mat /= h**2
    w, v = np.linalg.eigh(d_mat)
    return (v * np.exp(s * w)) @ v.T


def dense_heat_apply(field: np.ndarray, spacings, s: float) -> np.ndarray:
    """Apply the separable heat semigroup to a dense grid function."""
    if field.size > SIZE_CAP:
        raise ValueError("dense field too large")
    out = field
    for axis in range(field.ndim):
        e = dense_heat_factor(field.shape[axis], float(spacings[axis]), s)
        out = np.moveaxis(np.tensordot(e, out, axes=(1, axis)), 0, axis)
    return out


def dense_cycle(eta: np.ndarray, rho_prev: np.ndarray, rho_inf: np.ndarray,
                spacings, T: float, beta: float) -> dict:
    """All four stages of one fixed-point pass, densely, for d <= 2."""
    if eta.ndim > 2:
        raise ValueError("dense cycle oracle is limited to d <= 2")
    s = beta * T
    eta_0 = dense_heat_apply(eta, spacings, s)
    eta_hat_0 = rho_prev / eta_0
    eta_hat_T = dense_heat_apply(eta_hat_0, spacings, s)
    gamma = 1.0 / (1.0 + 2.0 * beta)
    eta_new = (rho_inf / eta_hat_T) ** gamma
    return {
        "eta_0": eta_0, "eta_hat_0": eta_hat_0, "eta_hat_T": eta_hat_T,
        "eta_new": eta_new,
    }


def dense_picard(eta0: np.ndarray, rho_prev: np.ndarray, rho_inf: np.ndarray,
                 spacings, T: float, beta: float, n_iters: int, q: float = 1.0):
    """Relaxed Picard iterates of the dense cycle; returns every iterate."""
    eta = eta0
    iterates = []
    for _ in range(n_iters):
        stages = dense_cycle(eta, rho_prev, rho_inf, spacings, T, beta)
        eta = q * stages["eta_new"] + (1.0 - q) * eta
        iterates.append(eta)
    return iterates


def exact_ot_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared 2-Wasserstein between equal-size point sets by
    enumerating assignments (at most 10 points per side)."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n = x.shape[0]
    if n != y.shape[0]:
        raise ValueError("equal sizes required")
    if n > 10:
        raise ValueError("enumeration oracle capped at 10 points")
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[range(n), perm].sum())
    return best / n


def gaussian_kl(m1, v1, m2, v2) -> float:
    """KL(N(m1, diag v1) || N(m2, diag v2)) in closed form."""
    m1, v1 = np.atleast_1d(np.asarray(m1, float)), np.atleast_1d(np.asarray(v1, float))
    m2, v2 = np.atleast_1d(np.asarray(m2, float)), np.atleast_1d(np.asarray(v2, float))
    return float(0.5 * np.sum(v1 / v2 + (m2 - m1) ** 2 / v2 - 1.0 + np.log(v2 / v1)))


def quadrature_kl(p: np.ndarray, q: np.ndarray, weight_vectors) -> float:
    """KL between two nonnegative grid functions after normalizing each."""
    w = weight_vectors[0]
    for v in weight_vectors[1:]:
        w = np.multiply.outer(w, v)
    zp = (p * w).sum()
    zq = (q * w).sum()
    pn = p / zp
    qn = q / zq
    mask = pn > 0
    return float((w[mask] * pn[mask] * np.log(pn[mask] / qn[mask])).sum())


def gaussian_grid(grid_axes, mean, var) -> np.ndarray:
    """Dense normalized diagonal Gaussian on a tensor grid."""
    mean = np.atleast_1d(np.asarray(mean, float))
    var = np.broadcast_to(np.asarray(var, float), mean.shape)
    parts = []
    for k, axis in enumerate(grid_axes):
        z = (axis - mean[k]) ** 2 / var[k]
        parts.append(np.exp(-0.5 * z) / np.sqrt(2 * np.pi * var[k]))
    out = parts[0]
    for p in parts[1:]:
        out = np.multiply.outer(out, p)
    return out


def rejection_sample(density, lower, upper, n: int, rng: np.random.Generator,
                     bound: float | None = None) -> np.ndarray:
    """Exact draws from an unnormalized bounded density on a box."""
    lower = np.atleast_1d(np.asarray(lower, float))
    upper = np.atleast_1d(np.asarray(upper, float))
    d = lower.size
    if bound is None:
        probe = rng.uniform(lower, upper, size=(200000, d))
        bound = 1.5 * float(np.max(density(probe)))
    out = []
    got = 0
    while got < n:
        x = rng.uniform(lower, upper, size=(4096, d))
        u = rng.uniform(0.0, bound, size=4096)
        vals = density(x)
        if np.any(vals > bound):
            raise ValueError("density exceeds the stated bound")
        acc = x[u < vals]
        out.append(acc)
        got += acc.shape[0]
    return np.concatenate(out, axis=0)[:n]
