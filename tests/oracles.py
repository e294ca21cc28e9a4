"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
package implementation: vertex enumeration for the flat-metric program,
cumulative-distribution formulas on the line, triple-loop diagnostic sums,
and adaptive quadrature for the kernel normalization.

dense_simplex_flat_lp is the revised simplex with a dense K x K basis
inverse that the package used for the flat metric before its network
simplex; the differential tests compare the two to 1e-12.

The tensor_* functions are the dense (N, N, d) formulations the package
used before its pair geometry moved to per-component (N, N) arrays.  They
sum over j sequentially inside each block of 32 (pairwise in d = 1), which
the differential tests compare against bit for bit in d = 1 and to a few
ulp of the summed magnitudes in d >= 2.

loop_continuity_residual and loop_momentum_residual are the per-function
field residuals the package used before its snapshot-major battery forms.
They share the package's cell stacking, grid check and pair kernel, and
evaluate each test function through its own methods; the differential
tests compare the battery forms against them bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import integrate as _si

from flocklab.errors import PivotBudgetExceeded, SupportTooLarge
from flocklab.pairs import distances, kernel, outer_diff
from flocklab.weakform import _cells_arrays, _check_grids


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


# ---- per-function field residuals ----
#
# continuity_residual and momentum_residual as the package computed them
# before the snapshot-major battery forms: one test function at a time,
# with the cell arrays, the bump and the cell kernel rebuilt for every
# function at every snapshot.  Kept verbatim as the differential oracle;
# the battery forms match them bit for bit.


def pair_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, N) array of (a_i - a_j) . (b_i - b_j) for (N, k) arrays a, b."""
    s = outer_diff(a[:, 0]) * outer_diff(b[:, 0])
    for k in range(1, a.shape[1]):
        s += outer_diff(a[:, k]) * outer_diff(b[:, k])
    return s


def loop_continuity_residual(times, grids, phi) -> float:
    _check_grids(grids)
    times = np.asarray(times, float)
    vals = np.empty(len(times))
    for k, (t, g) in enumerate(zip(times, grids)):
        b, u, m = _cells_arrays(g)
        if m.size == 0:
            vals[k] = 0.0
            continue
        vals[k] = float(
            (m * (phi.dt(t, b) + np.einsum("ij,ij->i", u, phi.grad_x(t, b)))).sum()
        )
    b0, _, m0 = _cells_arrays(grids[0])
    phi0 = float((m0 * phi.value(times[0], b0)).sum()) if m0.size else 0.0
    return float(abs(phi0 + np.trapezoid(vals, times)))


def loop_momentum_residual(
    times,
    grids,
    phi,
    alpha: float,
    initial_atoms=None,
) -> float:
    _check_grids(grids)
    times = np.asarray(times, float)
    tvals = np.empty(len(times))
    svals = np.empty(len(times))
    for k, (t, g) in enumerate(zip(times, grids)):
        b, u, m = _cells_arrays(g)
        if m.size == 0:
            tvals[k] = svals[k] = 0.0
            continue
        drive = phi.dt(t, b) + phi.conv(t, b, u)
        tvals[k] = float((m * np.einsum("ij,ij->i", u, drive)).sum())
        psi = kernel(distances(b), alpha)
        inner = pair_dot(phi.value(t, b), u)
        svals[k] = float(((m[:, None] * m[None, :]) * psi * inner).sum())
    if initial_atoms is not None:
        x0, v0, w0 = initial_atoms
        x0 = np.asarray(x0, float)
        v0 = np.asarray(v0, float)
        w0 = np.asarray(w0, float)
        phi0 = float((w0 * np.einsum("ij,ij->i", v0, phi.value(times[0], x0))).sum())
    else:
        b0, u0, m0 = _cells_arrays(grids[0])
        phi0 = (
            float((m0 * np.einsum("ij,ij->i", u0, phi.value(times[0], b0))).sum())
            if m0.size
            else 0.0
        )
    return float(abs(phi0 + np.trapezoid(tvals, times) - 0.5 * np.trapezoid(svals, times)))


# ---- dense revised simplex for the flat-metric program ----
#
# The package's flat-metric solver before it became a spanning-tree network
# simplex: a revised simplex on the destroy/create/transport columns that
# keeps a dense K x K basis inverse, with Dantzig pricing that falls back to
# Bland's rule on a stall.  Kept verbatim as the differential oracle.

_RC_TOL = 1e-11  # reduced-cost threshold for optimality
_PIVOT_TOL = 1e-11  # smallest usable pivot magnitude
_REFACTOR_EVERY = 150


class _Columns:
    """Column pool: destroy/create columns plus transport arcs.

    Global id order: p_0..p_{K-1}, q_0..q_{K-1}, then arcs.  In full mode
    arc (k -> l) has id 2K + k*K + l (diagonal slots are never offered);
    in line mode arcs come in sorted-neighbour pairs.
    """

    def __init__(self, points: np.ndarray):
        self.K = points.shape[0]
        self.line = points.shape[1] == 1
        if self.line:
            self.order = np.argsort(points[:, 0], kind="stable")
            self.gaps = np.diff(points[self.order, 0])
            self.n_arcs = 2 * (self.K - 1)
        else:
            diff = points[:, None, :] - points[None, :, :]
            self.dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            self.n_arcs = self.K * self.K
        self.n_cols = 2 * self.K + self.n_arcs

    def cost(self, col: int) -> float:
        K = self.K
        if col < 2 * K:
            return 1.0
        a = col - 2 * K
        if self.line:
            return float(self.gaps[a // 2])
        return float(self.dist[a // K, a % K])

    def column(self, col: int) -> tuple[list[int], list[float]]:
        K = self.K
        if col < K:
            return [col], [1.0]
        if col < 2 * K:
            return [col - K], [-1.0]
        a = col - 2 * K
        if self.line:
            g, back = divmod(a, 2)
            k, l = self.order[g], self.order[g + 1]
            if back:
                k, l = l, k
        else:
            k, l = a // K, a % K
        return [int(k), int(l)], [1.0, -1.0]

    def entering(self, y: np.ndarray, bland: bool) -> int | None:
        """Id of an entering column with negative reduced cost, or None."""
        K = self.K
        rc_p = 1.0 - y
        rc_q = 1.0 + y
        if self.line:
            yo = y[self.order]
            rc_f = self.gaps - yo[:-1] + yo[1:]
            rc_b = self.gaps - yo[1:] + yo[:-1]
            rc_arcs = np.empty(self.n_arcs)
            rc_arcs[0::2] = rc_f
            rc_arcs[1::2] = rc_b
        else:
            rc_arcs = (self.dist - y[:, None] + y[None, :]).ravel()
            rc_arcs[:: K + 1] = np.inf  # never offer diagonal slots
        rc = np.concatenate([rc_p, rc_q, rc_arcs])
        if bland:
            hits = np.flatnonzero(rc < -_RC_TOL)
            return int(hits[0]) if hits.size else None
        j = int(np.argmin(rc))
        return j if rc[j] < -_RC_TOL else None


def dense_simplex_flat_lp(
    points: np.ndarray, b: np.ndarray, cap: int = 2000
) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b.

    Returns (value, phi) with phi the optimal potential per support point.
    Raises SupportTooLarge when the support exceeds ``cap`` atoms.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K > cap:
        raise SupportTooLarge(
            "union support exceeds the exact-program cap",
            support=K,
            cap=cap,
        )
    if K == 0:
        return 0.0, np.zeros(0)

    cols = _Columns(points)
    basis = np.where(b >= 0, np.arange(K), K + np.arange(K)).astype(np.int64)
    binv = np.diag(np.where(b >= 0, 1.0, -1.0))
    x_b = np.abs(b).astype(np.float64)
    c_b = np.ones(K)

    def refactor():
        nonlocal binv, x_b
        bmat = np.zeros((K, K))
        for i, col in enumerate(basis):
            rows, vals = cols.column(int(col))
            bmat[rows, i] = vals
        binv = np.linalg.inv(bmat)
        x_b = binv @ b
        np.clip(x_b, 0.0, None, out=x_b)

    bland = False
    stall = 0
    best = float(c_b @ x_b)
    final_rounds = 0
    iters = 0
    max_iters = 400 * K + 100_000

    while True:
        iters += 1
        if iters > max_iters:
            raise PivotBudgetExceeded(
                "flat-metric simplex exceeded its pivot budget",
                support=K,
                pivots=iters - 1,
                budget=max_iters,
            )
        if iters % _REFACTOR_EVERY == 0:
            refactor()
        y = c_b @ binv
        j = cols.entering(y, bland)
        if j is None:
            refactor()
            y = c_b @ binv
            j = cols.entering(y, bland=True)
            if j is None or final_rounds >= 3:
                value = float(c_b @ x_b)
                return value, np.asarray(y, dtype=np.float64)
            final_rounds += 1

        rows, vals = cols.column(int(j))
        a_col = np.zeros(K)
        a_col[rows] = vals
        direction = binv @ a_col
        pos = np.flatnonzero(direction > _PIVOT_TOL)
        if pos.size == 0:
            # Cannot happen for this cost structure (all costs >= 0 bound
            # the minimum); treat as a numerical artefact and refactor.
            refactor()
            y = c_b @ binv
            direction = binv @ a_col
            pos = np.flatnonzero(direction > _PIVOT_TOL)
            if pos.size == 0:
                bland = True
                continue
        ratios = x_b[pos] / direction[pos]
        rmin = ratios.min()
        tied = pos[ratios <= rmin + 1e-15 * (1.0 + abs(rmin))]
        r = int(tied[np.argmin(basis[tied])])
        theta = x_b[r] / direction[r]

        x_b -= theta * direction
        x_b[r] = theta
        np.clip(x_b, 0.0, None, out=x_b)
        brow = binv[r, :] / direction[r]
        binv -= np.outer(direction, brow)
        binv[r, :] = brow
        basis[r] = j
        c_b[r] = cols.cost(int(j))

        obj = float(c_b @ x_b)
        if obj < best - 1e-15 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > 3 * K + 50:
                bland = True
