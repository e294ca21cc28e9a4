"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
package implementation: vertex enumeration for the flat-metric program,
cumulative-distribution formulas on the line, triple-loop diagnostic sums,
and adaptive quadrature for the kernel normalization.

The tensor_* functions are the dense (N, N, d) formulations the package
used before its pair geometry moved to per-component (N, N) arrays.  They
sum over j sequentially inside each block of 32 (pairwise in d = 1), which
the differential tests compare against bit for bit in d = 1 and to a few
ulp of the summed magnitudes in d >= 2.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import integrate as _si


def vertex_enum_dbl(points: np.ndarray, b: np.ndarray) -> float:
    """Flat metric by enumerating vertices of the potential polytope.

    max b.phi over |phi_k| <= 1, |phi_k - phi_l| <= d_kl, solved by trying
    every subset of K constraints active at once.  Exponential; K <= 5.
    """
    points = np.asarray(points, float)
    b = np.asarray(b, float)
    K = len(b)
    if K == 0:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    rows, rhs = [], []
    for k in range(K):
        e = np.zeros(K)
        e[k] = 1.0
        rows += [e, -e]
        rhs += [1.0, 1.0]
    for k in range(K):
        for l in range(k + 1, K):
            e = np.zeros(K)
            e[k], e[l] = 1.0, -1.0
            rows += [e, -e]
            rhs += [D[k, l], D[k, l]]
    A = np.array(rows)
    c = np.array(rhs)

    best = -np.inf
    for combo in combinations(range(len(A)), K):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        phi = np.linalg.solve(M, c[list(combo)])
        if np.all(A @ phi <= c + 1e-9):
            best = max(best, float(b @ phi))
    return best


def w1_line(p1: np.ndarray, w1: np.ndarray, p2: np.ndarray, w2: np.ndarray) -> float:
    """Order-1 transport distance between equal-mass measures on the line,
    via the area between cumulative distribution functions."""
    grid = np.unique(np.concatenate([p1, p2]))

    def cdf(p, w, z):
        return np.array([w[p <= t].sum() for t in z])

    f1 = cdf(p1, w1, grid)
    f2 = cdf(p2, w2, grid)
    return float(np.sum(np.abs(f1 - f2)[:-1] * np.diff(grid)))


def energy_loops(points: np.ndarray, weights: np.ndarray, d: int) -> float:
    total = 0.0
    for a in range(len(weights)):
        v = points[a, d:]
        total += weights[a] * float(v @ v)
    return total


def enstrophy_loops(
    points: np.ndarray, weights: np.ndarray, d: int, alpha: float
) -> float:
    total = 0.0
    K = len(weights)
    for a in range(K):
        for b in range(K):
            if a == b:
                continue
            dx = points[a, :d] - points[b, :d]
            r = float(np.sqrt(dx @ dx))
            if r == 0.0:
                continue
            dv = points[a, d:] - points[b, d:]
            total += weights[a] * weights[b] * float(dv @ dv) / r**alpha
    return total


def dalpha_loops(
    points: np.ndarray, weights: np.ndarray, d: int, alpha: float, eta: float
) -> float:
    total = 0.0
    K = len(weights)
    for a in range(K):
        for b in range(K):
            if a == b:
                continue
            dx = points[a, :d] - points[b, :d]
            r = float(np.sqrt(dx @ dx))
            if eta == 0.0 and r == 0.0:
                continue
            dv = points[a, d:] - points[b, d:]
            s = float(np.sqrt(dv @ dv))
            total += weights[a] * weights[b] * s ** (alpha + 2.0) / (r + eta) ** alpha
    return total


def eta_mono_loops(
    points: np.ndarray, weights: np.ndarray, d: int, alpha: float, eta: float
) -> float:
    """Triple-loop eta-monokineticity with conditional means recomputed
    from scratch by exact position matching."""
    K = len(weights)
    x = points[:, :d]
    v = points[:, d:]
    total = 0.0
    for a in range(K):
        same = [
            i
            for i in range(K)
            if np.array_equal(x[i], x[a]) and weights[i] > 0
        ]
        mass = sum(weights[i] for i in same)
        u = sum(weights[i] * v[i] for i in same) / mass
        dev = float(np.sqrt((v[a] - u) @ (v[a] - u)))
        for b in range(K):
            dx = x[a] - x[b]
            r = float(np.sqrt(dx @ dx))
            total += (
                weights[a]
                * weights[b]
                * dev ** (alpha + 2.0)
                / (r + eta) ** alpha
            )
    return total


def beta_quadrature(eta: float, alpha: float, d: int) -> float:
    """Normalization integral of (|x| + eta)^(-alpha) over R^d by adaptive
    quadrature in polar form."""
    if d == 1:
        val, _ = _si.quad(lambda r: (r + eta) ** (-alpha), 0.0, np.inf)
        return 2.0 * val
    if d == 2:
        val, _ = _si.quad(lambda r: r * (r + eta) ** (-alpha), 0.0, np.inf)
        return 2.0 * np.pi * val
    raise ValueError("oracle covers d in {1, 2}")


# ---- dense tensor formulations of the pair layer ----


def _tensor_distances(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _tensor_block_sum(a: np.ndarray, axis: int, block: int = 32) -> np.ndarray:
    a = np.moveaxis(np.asarray(a, dtype=np.float64), axis, 0)
    s = np.zeros(a.shape[1:])
    c = np.zeros_like(s)
    for start in range(0, a.shape[0], block):
        y = a[start : start + block].sum(axis=0) - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def tensor_alignment_rhs(
    x: np.ndarray, v: np.ndarray, alpha: float, kernel_floor: float = 0.0
) -> np.ndarray:
    """(1/N) sum_j max(r_ij, floor)^(-alpha) (v_j - v_i) from (N, N, d)
    tensors; no collision check."""
    n, d = x.shape
    if n == 1:
        return np.zeros((1, d))
    dist = _tensor_distances(x)
    offdiag = ~np.eye(n, dtype=bool)
    deff = np.maximum(dist, kernel_floor) if kernel_floor > 0.0 else dist
    with np.errstate(divide="ignore"):
        w = np.where(offdiag, deff, 1.0) ** (-alpha)
    w[~offdiag] = 0.0
    contrib = w[:, :, None] * (v[None, :, :] - v[:, None, :])
    return _tensor_block_sum(contrib, axis=1) / n


def tensor_step_cap(
    x: np.ndarray, v: np.ndarray, safety: float, kernel_floor: float = 0.0
) -> tuple[float, float]:
    """safety * min closing time and min distance over the upper triangle."""
    n = x.shape[0]
    if n < 2:
        return np.inf, np.inf
    iu = np.triu_indices(n, k=1)
    r = _tensor_distances(x)[iu]
    dmin = float(r.min())
    w = _tensor_distances(v)[iu]
    closing = w > 0.0
    if not closing.any():
        return np.inf, dmin
    tau = float((np.maximum(r[closing], kernel_floor) / w[closing]).min())
    return safety * tau, dmin


def tensor_enstrophy(
    points: np.ndarray, weights: np.ndarray, d: int, alpha: float
) -> float:
    x, v, w = points[:, :d], points[:, d:], weights
    r = _tensor_distances(x)
    dv = v[:, None, :] - v[None, :, :]
    s2 = np.einsum("ijk,ijk->ij", dv, dv)
    mask = ~np.eye(len(w), dtype=bool) & (r > 0.0)
    with np.errstate(divide="ignore"):
        kern = np.where(mask, r, 1.0) ** (-alpha)
    val = (w[:, None] * w[None, :]) * s2 * kern
    return float(val[mask].sum())


def tensor_kinetic_terms(traj, phi) -> tuple[float, float, float]:
    """The three terms phi0, int A dt, int B dt of the kinetic weak
    residual |-phi0 - int A dt + 1/2 int B dt|, per test function."""
    alpha = traj.params.alpha
    w = 1.0 / traj.params.N
    times = traj.times()
    a_vals = np.empty(len(times))
    b_vals = np.empty(len(times))
    for k, st in enumerate(traj.snapshots):
        a_vals[k] = (
            phi.dt(st.t, st.x, st.v)
            + np.einsum("ij,ij->i", st.v, phi.grad_x(st.t, st.x, st.v))
        ).sum() * w
        r = _tensor_distances(st.x)
        mask = ~np.eye(st.x.shape[0], dtype=bool) & (r > 0.0)
        with np.errstate(divide="ignore"):
            psi = np.where(mask, np.where(mask, r, 1.0) ** (-alpha), 0.0)
        gv = phi.grad_v(st.t, st.x, st.v)
        dgv = gv[:, None, :] - gv[None, :, :]
        dv = st.v[:, None, :] - st.v[None, :, :]
        b_vals[k] = w * w * (np.einsum("ijk,ijk->ij", dgv, dv) * psi).sum()
    phi0 = phi.value(times[0], traj.snapshots[0].x, traj.snapshots[0].v).sum() * w
    return float(phi0), float(np.trapezoid(a_vals, times)), float(
        np.trapezoid(b_vals, times)
    )


def tensor_kinetic_residual(traj, phi) -> float:
    phi0, a_int, b_int = tensor_kinetic_terms(traj, phi)
    return float(abs(-phi0 - a_int + 0.5 * b_int))
