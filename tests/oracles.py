"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
package implementation: vertex enumeration for the flat-metric program,
cumulative-distribution formulas on the line, triple-loop diagnostic sums,
and adaptive quadrature for the kernel normalization.

dense_simplex_flat_lp is the revised simplex with a dense K x K basis
inverse that the package used for the flat metric before its network
simplex; the differential tests compare the two to 1e-12.
line_simplex_flat_lp is that network simplex on the line, which the
package used before d = 1 got its exact dynamic program; the differential
tests compare the DP against it, the dense simplex and HiGHS to 1e-12.
arc_simplex_flat_lp is the network simplex the package used in d >= 2
before its column generation: every arc shorter than 2 stored and priced
from the dense distance grid.  The differential tests compare the
working-set simplex against it, the dense simplex and HiGHS to 1e-12.

The tensor_* functions are the dense (N, N, d) formulations the package
used before its pair geometry moved to per-component (N, N) arrays.  They
sum over j sequentially inside each block of 32 (pairwise in d = 1), which
the differential tests compare against bit for bit in d = 1 and to a few
ulp of the summed magnitudes in d >= 2.

sqrt_alignment_rhs and sqrt_step_cap are the force evaluation and step
cap as the package computed them before its lean pair pass: distances and
relative speeds as square roots of coordinate squares in every dimension,
the kernel with its masking passes, and block sums gathered through
np.moveaxis.  The differential tests compare the lean path against them
bit for bit.

loop_continuity_residual and loop_momentum_residual are the per-function
field residuals the package used before its snapshot-major battery forms.
They share the package's grid check and pair kernel, read the grid's cell
arrays, and evaluate each test function through its own methods; the
differential tests compare the battery forms against them bit for bit.
loop_dissipation_margin is the standalone margin loop the package used
before the field battery computed continuity, momentum and the margin in
one pass; the differential tests compare that pass against it bit for bit.

loop_local_fields is the binning the package used before its field grids
became arrays: one pass over all atoms per occupied cell.  The
differential tests compare the array form against it bit for bit.

method_kinetic_residuals is the kinetic battery loop the package used
before its test functions built their pieces once per snapshot: dt,
grad_x and grad_v each evaluated through their own rebuild of the window,
the x-bump and the velocity factor.  The differential tests compare the
battery against it bit for bit.

The *_dict functions are the to_dict methods the report dataclasses of
diagnostics and meanfield carried before storage serialized dataclasses
by field.  The format tests compare the canonical JSON of both paths.

dp5_integrate is the integrator the package used before close pairs got
exponential steps: explicit Dormand-Prince steps throughout, which a stiff
pair holds at the method's stability limit.  The differential tests
compare the package against it bit for bit on states without a stiff
pair, and to 10 tol against a tight-tolerance run on states with one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import integrate as _si

from flocklab import _flatlp, pairs
from flocklab.dynamics import (
    _A,
    _B5,
    _E,
    COLLISION_FLOOR,
    GEOMETRY_SAFETY,
    STEP_FLOOR_FRACTION,
    ModelParams,
    ParticleState,
    Trajectory,
    _dense,
    _step_cap,
    alignment_rhs,
    min_pair_distance,
)
from flocklab.errors import (
    CollisionalState,
    NonFiniteState,
    PivotBudgetExceeded,
    StepBudgetExceeded,
    StepCollapse,
    SupportTooLarge,
)
from flocklab.pairs import (
    BLOCK,
    Workspace,
    distances,
    kernel,
    off_diagonal,
    outer_diff,
    relative_sums,
    sq_distances,
)
from flocklab.weakform import _check_grids, cumulative_trapezoid


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


def tensor_alignment_rhs(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """(1/N) sum_j r_ij^(-alpha) (v_j - v_i) from (N, N, d) tensors; no
    collision check."""
    n, d = x.shape
    if n == 1:
        return np.zeros((1, d))
    dist = _tensor_distances(x)
    offdiag = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore"):
        w = np.where(offdiag, dist, 1.0) ** (-alpha)
    w[~offdiag] = 0.0
    contrib = w[:, :, None] * (v[None, :, :] - v[:, None, :])
    return _tensor_block_sum(contrib, axis=1) / n


def tensor_step_cap(
    x: np.ndarray, v: np.ndarray, safety: float
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
    tau = float((r[closing] / w[closing]).min())
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
    times = traj.times
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


def _method_dt(phi, t, x, v):
    _, wp, g, _, h, _ = phi._parts(t, x, v)
    return phi.scale * wp * g * h


def _method_grad_x(phi, t, x, v):
    w, _, _, gg, h, _ = phi._parts(t, x, v)
    return phi.scale * w * h[:, None] * gg


def _method_grad_v(phi, t, x, v):
    w, _, g, _, _, gh = phi._parts(t, x, v)
    return phi.scale * w * g[:, None] * gh


def method_kinetic_residuals(traj, phis) -> list:
    """kinetic_weak_residuals with dt, grad_x and grad_v of every function
    rebuilt from its pieces per call."""
    phis = list(phis)
    alpha = traj.params.alpha
    n = traj.params.N
    w = 1.0 / n
    times = traj.times
    a_vals = np.empty((len(phis), len(times)))
    b_vals = np.empty((len(phis), len(times)))
    work = Workspace(n)
    for k, t in enumerate(times.tolist()):
        x, v = traj.x[k], traj.v[k]
        r = distances(x, out=work.dist, scratch=work.a)
        psi = kernel(r, alpha, out=work.a)
        pull = relative_sums(psi, v, scratch=work.b)  # = -R
        for f, phi in enumerate(phis):
            a_vals[f, k] = (
                _method_dt(phi, t, x, v)
                + np.einsum("ij,ij->i", v, _method_grad_x(phi, t, x, v))
            ).sum() * w
            gv = _method_grad_v(phi, t, x, v)
            b_vals[f, k] = -2.0 * w * w * np.einsum("ij,ij->", gv, pull)
    out = []
    for f, phi in enumerate(phis):
        phi0 = phi.value(times[0], traj.x[0], traj.v[0]).sum() * w
        a_int = np.trapezoid(a_vals[f], times)
        b_int = np.trapezoid(b_vals[f], times)
        out.append(float(abs(-phi0 - a_int + 0.5 * b_int)))
    return out


# ---- the pair pass before its lean form ----


def sqrt_distances(x: np.ndarray) -> np.ndarray:
    s = outer_diff(x[:, 0])
    s *= s
    for k in range(1, x.shape[1]):
        t = outer_diff(x[:, k])
        t *= t
        s += t
    return np.sqrt(s, out=s)


def moveaxis_row_sums(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    full = n - n % BLOCK
    parts = []
    if full:
        head = a[..., :full].reshape(a.shape[:-1] + (full // BLOCK, BLOCK))
        parts.extend(np.moveaxis(head.sum(axis=-1), -1, 0))
    if full < n:
        parts.append(a[..., full:].sum(axis=-1))
    s = np.zeros(a.shape[:-1])
    c = np.zeros_like(s)
    for part in parts:
        y = part - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def sqrt_alignment_rhs(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    n, d = x.shape
    if n == 1:
        return np.zeros((1, d))
    dist = sqrt_distances(x)
    np.fill_diagonal(dist, np.inf)
    dmin = float(dist.min())
    if dmin <= COLLISION_FLOOR:
        raise CollisionalState("pair separation at or below the evaluable floor")
    w = kernel(dist, alpha)
    out = np.empty(v.shape)
    for k in range(d):
        col = v[:, k]
        t = np.subtract(col[None, :], col[:, None])
        t *= w
        out[:, k] = moveaxis_row_sums(t)
    return out / n


def sqrt_step_cap(x: np.ndarray, v: np.ndarray, safety: float) -> tuple[float, float]:
    n = x.shape[0]
    if n < 2:
        return np.inf, np.inf
    dist = sqrt_distances(x)
    dmin = float(off_diagonal(dist).min())
    speed = sqrt_distances(v)
    moving = speed > 0.0
    np.divide(dist, speed, out=speed, where=moving)
    np.copyto(speed, np.inf, where=~moving)
    tau = float(speed.min())
    if tau == np.inf:
        return np.inf, dmin
    return safety * tau, dmin


# ---- per-function field residuals ----
#
# continuity_residual and momentum_residual as the package computed them
# before the snapshot-major battery forms: one test function at a time,
# with the cell arrays, the bump and the cell kernel rebuilt for every
# function at every snapshot; and dissipation_margin before it joined the
# battery's field pass.  Kept verbatim as the differential oracles; the
# battery pass matches them bit for bit.


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
        b, u, m = g.barycenter, g.velocity, g.mass
        if m.size == 0:
            vals[k] = 0.0
            continue
        vals[k] = float(
            (m * (phi.dt(t, b) + np.einsum("ij,ij->i", u, phi.grad_x(t, b)))).sum()
        )
    b0, m0 = grids[0].barycenter, grids[0].mass
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
        b, u, m = g.barycenter, g.velocity, g.mass
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
        b0, u0, m0 = grids[0].barycenter, grids[0].velocity, grids[0].mass
        phi0 = (
            float((m0 * np.einsum("ij,ij->i", u0, phi.value(times[0], b0))).sum())
            if m0.size
            else 0.0
        )
    return float(abs(phi0 + np.trapezoid(tvals, times) - 0.5 * np.trapezoid(svals, times)))


def loop_dissipation_margin(times, grids, alpha: float) -> np.ndarray:
    """Energy drop minus integrated pair dissipation, per snapshot, on
    binned fields:

        margin(t) = (E(0) - E(t)) - int_0^t D(s) ds
        E(t) = sum_c m_c |u_c|^2
        D(t) = sum_{c != c'} m_c m_c' |u_c - u_c'|^2 psi(b_c, b_c')

    Binning discards in-cell variance from E, so on refined grids the
    margin approaches the true (nonnegative) defect from above or below
    only in the limit; values are reported raw.
    """
    _check_grids(grids)
    times = np.asarray(times, float)
    e = np.empty(len(times))
    dd = np.empty(len(times))
    for k, g in enumerate(grids):
        b, u, m = g.barycenter, g.velocity, g.mass
        if m.size == 0:
            e[k] = dd[k] = 0.0
            continue
        e[k] = float((m * np.einsum("ij,ij->i", u, u)).sum())
        psi = kernel(distances(b), alpha)
        s2 = sq_distances(u)
        dd[k] = float(((m[:, None] * m[None, :]) * psi * s2).sum())
    return (e[0] - e) - cumulative_trapezoid(times, dd)


# ---- per-cell binning ----
#
# The package's local_fields before its field grids became arrays: a mask
# over all atoms per occupied cell, and one record per cell.  Kept verbatim
# as the differential oracle; the array form matches it bit for bit.

LoopCell = namedtuple(
    "LoopCell", "index center barycenter mass velocity cov_trace"
)


def loop_local_fields(mu, d: int, h: float) -> tuple:
    """Occupied cells of width h, one LoopCell each, in index order."""
    if h <= 0:
        raise ValueError("cell width must be positive")
    if mu.point_dim != 2 * d:
        raise ValueError("phase measure must have point dimension 2d")
    x = mu.points[:, :d]
    v = mu.points[:, d:]
    w = mu.weights
    idx = np.floor(x / h).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    k = uniq.shape[0]
    mass = np.zeros(k)
    np.add.at(mass, inverse, w)
    xsum = np.zeros((k, d))
    np.add.at(xsum, inverse, w[:, None] * x)
    vsum = np.zeros((k, d))
    np.add.at(vsum, inverse, w[:, None] * v)
    cells = []
    for c in range(k):
        m = float(mass[c])
        if m <= 0.0:
            continue
        u = vsum[c] / m
        bary = xsum[c] / m
        sel = inverse == c
        dv = v[sel] - u
        ct = float((w[sel] * np.einsum("ij,ij->i", dv, dv)).sum() / m)
        cells.append(
            LoopCell(
                index=tuple(int(j) for j in uniq[c]),
                center=(uniq[c] + 0.5) * h,
                barycenter=bary,
                mass=m,
                velocity=u,
                cov_trace=ct,
            )
        )
    return tuple(cells)


def loop_mk(cells) -> float:
    """The binned monokineticity index of loop_local_fields cells."""
    return float(sum(c.mass * c.cov_trace for c in cells))


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


# ---- the stored-arc network simplex ----
#
# _flatlp.solve_flat_lp in d >= 2 as it was before its column generation:
# every arc shorter than 2 is built from the dense distance grid, stored,
# and priced in full whenever the candidate pool runs dry.  Kept verbatim
# as the differential oracle for the working-set simplex.

_CANDIDATES = 100  # arcs kept in the pricing list


def stored_arcs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, cost) of every arc; node K is the ground."""
    K = points.shape[0]
    dist = distances(points)
    near = dist < 2.0
    np.fill_diagonal(near, False)
    t, h = np.nonzero(near)
    nodes = np.arange(K)
    ground = np.full(K, K)
    tail = np.concatenate([nodes, ground, t])
    head = np.concatenate([ground, nodes, h])
    cost = np.concatenate([np.ones(2 * K), dist[near]])
    return tail, head, cost


def arc_simplex_flat_lp(
    points: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b on
    support points of shape (K, d), by the network simplex on every stored
    arc shorter than 2.

    Raises PivotBudgetExceeded when the simplex does not finish within
    ``_flatlp._pivot_budget`` pivots.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K == 0:
        return 0.0, np.zeros(0)

    tail, head, cost = stored_arcs(points)
    budget = _flatlp._pivot_budget(K)

    # The tree: node v < K reaches its parent through one arc, which points
    # up (v -> parent) or down (parent -> v) and carries flow[v] >= 0.
    root = K
    parent = [root] * K + [-1]
    up = [bool(bk > 0.0) for bk in b] + [False]
    flow = [abs(float(bk)) for bk in b] + [0.0]
    arc_cost = [1.0] * K + [0.0]
    depth = [1] * K + [0]
    children = [[] for _ in range(K)] + [list(range(K))]
    pot = [1.0 if u else -1.0 for u in up[:K]] + [0.0]
    phi = np.array(pot)

    # Candidate pool of entering arcs: the most negative arcs of the last
    # full pricing.
    pool_t, pool_h, pool_c = (tail[:0],) * 3
    rc_all = np.empty(cost.size)
    pivots = 0
    while True:
        rc = pool_c - phi[pool_t] + phi[pool_h]
        i = int(np.argmin(rc)) if rc.size else 0
        if not rc.size or rc[i] >= -_RC_TOL:
            np.subtract(cost, phi[tail], out=rc_all)
            rc_all += phi[head]
            sel = np.flatnonzero(rc_all < -_RC_TOL)
            if not sel.size:
                break
            if sel.size > _CANDIDATES:
                best = np.argpartition(rc_all[sel], _CANDIDATES)
                sel = sel[best[:_CANDIDATES]]
            pool_t, pool_h, pool_c = tail[sel], head[sel], cost[sel]
            i = int(np.argmin(rc_all[sel]))

        if pivots >= budget:
            raise PivotBudgetExceeded(
                "flat-metric simplex exceeded its pivot budget",
                support=K,
                pivots=pivots,
                budget=budget,
            )
        pivots += 1

        # Entering arc k -> l closes the cycle k -> l -> ... -> apex -> ... -> k.
        k, l, c = int(pool_t[i]), int(pool_h[i]), float(pool_c[i])
        a, z = k, l
        while a != z:
            if depth[a] >= depth[z]:
                a = parent[a]
            else:
                z = parent[z]
        apex = a
        kpath = []
        v = k
        while v != apex:
            kpath.append(v)
            v = parent[v]
        lpath = []
        v = l
        while v != apex:
            lpath.append(v)
            v = parent[v]

        # Pushing flow along k -> l raises it on the down arcs of the k side
        # and the up arcs of the l side; the other arcs block.  Cunningham's
        # rule: of the blocking arcs with least flow, take the last one met
        # on the walk apex -> l, l -> k, k -> apex.
        theta = math.inf
        leave = -1
        for v in reversed(lpath):
            if not up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        for v in kpath:
            if up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        if theta > 0.0:
            for v in kpath:
                flow[v] += -theta if up[v] else theta
            for v in lpath:
                flow[v] += theta if up[v] else -theta

        # Cut the leaving arc and hang its subtree from the entering arc,
        # reversing the path between the entering endpoint and the cut.
        if leave in kpath:
            v, new_parent, new_up = k, l, True
        else:
            v, new_parent, new_up = l, k, False
        top = v
        new_flow, new_cost = theta, c
        while True:
            old_parent = parent[v]
            old_up, old_flow, old_cost = up[v], flow[v], arc_cost[v]
            children[old_parent].remove(v)
            children[new_parent].append(v)
            parent[v] = new_parent
            up[v], flow[v], arc_cost[v] = new_up, new_flow, new_cost
            if v == leave:
                break
            new_parent, new_up = v, not old_up
            new_flow, new_cost = old_flow, old_cost
            v = old_parent

        moved = []
        stack = [top]
        while stack:
            v = stack.pop()
            p = parent[v]
            depth[v] = depth[p] + 1
            pot[v] = pot[p] + arc_cost[v] if up[v] else pot[p] - arc_cost[v]
            moved.append(v)
            stack.extend(children[v])
        phi[moved] = [pot[v] for v in moved]

    value = math.fsum(arc_cost[v] * flow[v] for v in range(K))
    return value, phi[:K]


# ---- the network simplex on the line ----
#
# _flatlp.solve_flat_lp in d = 1 as it was before the line got its exact
# dynamic program: the spanning-tree network simplex on the arcs between
# sorted neighbours plus the ground arcs, with Cunningham's leaving rule
# and full pricing at every pivot.  Kept verbatim as the differential
# oracle for the line DP.


def _line_arcs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, cost) of every arc; node K is the ground."""
    K = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    gaps = np.diff(points[order, 0])
    keep = np.flatnonzero(gaps < 2.0)
    lo, hi, length = order[keep], order[keep + 1], gaps[keep]
    t = np.concatenate([lo, hi])
    h = np.concatenate([hi, lo])
    c = np.concatenate([length, length])
    nodes = np.arange(K)
    ground = np.full(K, K)
    tail = np.concatenate([nodes, ground, t])
    head = np.concatenate([ground, nodes, h])
    cost = np.concatenate([np.ones(2 * K), c])
    return tail, head, cost


def line_simplex_flat_lp(
    points: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b on
    support points of shape (K, 1), by the network simplex.

    Raises PivotBudgetExceeded when the simplex does not finish within
    ``_flatlp._pivot_budget`` pivots.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K == 0:
        return 0.0, np.zeros(0)

    tail, head, cost = _line_arcs(points)
    budget = _flatlp._pivot_budget(K)

    # The tree: node v < K reaches its parent through one arc, which points
    # up (v -> parent) or down (parent -> v) and carries flow[v] >= 0.
    root = K
    parent = [root] * K + [-1]
    up = [bool(bk > 0.0) for bk in b] + [False]
    flow = [abs(float(bk)) for bk in b] + [0.0]
    arc_cost = [1.0] * K + [0.0]
    depth = [1] * K + [0]
    children = [[] for _ in range(K)] + [list(range(K))]
    pot = [1.0 if u else -1.0 for u in up[:K]] + [0.0]
    phi = np.array(pot)

    # Every pivot prices the whole arc set, which is O(K) on the line.
    pool_t, pool_h, pool_c = tail, head, cost
    pivots = 0
    while True:
        rc = pool_c - phi[pool_t] + phi[pool_h]
        i = int(np.argmin(rc)) if rc.size else 0
        if not rc.size or rc[i] >= -_RC_TOL:
            break

        if pivots >= budget:
            raise PivotBudgetExceeded(
                "flat-metric simplex exceeded its pivot budget",
                support=K,
                pivots=pivots,
                budget=budget,
            )
        pivots += 1

        # Entering arc k -> l closes the cycle k -> l -> ... -> apex -> ... -> k.
        k, l, c = int(pool_t[i]), int(pool_h[i]), float(pool_c[i])
        a, z = k, l
        while a != z:
            if depth[a] >= depth[z]:
                a = parent[a]
            else:
                z = parent[z]
        apex = a
        kpath = []
        v = k
        while v != apex:
            kpath.append(v)
            v = parent[v]
        lpath = []
        v = l
        while v != apex:
            lpath.append(v)
            v = parent[v]

        # Pushing flow along k -> l raises it on the down arcs of the k side
        # and the up arcs of the l side; the other arcs block.  Cunningham's
        # rule: of the blocking arcs with least flow, take the last one met
        # on the walk apex -> l, l -> k, k -> apex.
        theta = math.inf
        leave = -1
        for v in reversed(lpath):
            if not up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        for v in kpath:
            if up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        if theta > 0.0:
            for v in kpath:
                flow[v] += -theta if up[v] else theta
            for v in lpath:
                flow[v] += theta if up[v] else -theta

        # Cut the leaving arc and hang its subtree from the entering arc,
        # reversing the path between the entering endpoint and the cut.
        if leave in kpath:
            v, new_parent, new_up = k, l, True
        else:
            v, new_parent, new_up = l, k, False
        top = v
        new_flow, new_cost = theta, c
        while True:
            old_parent = parent[v]
            old_up, old_flow, old_cost = up[v], flow[v], arc_cost[v]
            children[old_parent].remove(v)
            children[new_parent].append(v)
            parent[v] = new_parent
            up[v], flow[v], arc_cost[v] = new_up, new_flow, new_cost
            if v == leave:
                break
            new_parent, new_up = v, not old_up
            new_flow, new_cost = old_flow, old_cost
            v = old_parent

        moved = []
        stack = [top]
        while stack:
            v = stack.pop()
            p = parent[v]
            depth[v] = depth[p] + 1
            pot[v] = pot[p] + arc_cost[v] if up[v] else pot[p] - arc_cost[v]
            moved.append(v)
            stack.extend(children[v])
        phi[moved] = [pot[v] for v in moved]

    value = math.fsum(arc_cost[v] * flow[v] for v in range(K))
    return value, phi[:K]


# ---- explicit Dormand-Prince integration ----
#
# dynamics.integrate as it was before close pairs got exponential steps:
# every step is the explicit Dormand-Prince 5(4) step, so a stiff pair
# holds it at the method's stability limit.  Kept verbatim as the
# differential oracle; on states without a stiff pair the package matches
# it bit for bit, and at tight tolerances it is the accuracy reference for
# states with one.


def dp5_integrate(
    state0: ParticleState,
    params: ModelParams,
    tol: float = 1e-8,
    snapshot_times: Sequence[float] | None = None,
    max_steps: int = 50_000_000,
) -> Trajectory:
    """Integrate the alignment system over [0, T].

    t=0 and t=T are always snapshots.  The adaptive controller keeps the
    normalized local error estimate at or below 1 (absolute and relative
    tolerance both equal to ``tol``); independently, every step is capped
    by  GEOMETRY_SAFETY * min over pairs of (separation / closing speed),
    so no pair can close more than a fixed fraction of its gap per step.
    The snapshot grid does not shorten adaptive steps: only T is landed
    on, and a snapshot time s inside an accepted step [t, t + h] gets the
    Dormand-Prince interpolant at theta = (s - t) / h, built from the
    step's seven stages; a snapshot at the step's end gets the step's
    5th-order state.  Interpolated snapshots carry an error of order
    ``tol`` and lie inside steps the geometric cap has bounded.

    Raises StepCollapse when the required step falls below 1e-12 * T,
    NonFiniteState when the state or the local error estimate stops being
    finite, and StepBudgetExceeded after ``max_steps`` step attempts; it
    propagates CollisionalState from the force evaluation.
    """
    n, d = state0.x.shape
    if (n, d) != (params.N, params.d):
        raise ValueError("state shape does not match params")
    T = float(params.T)
    if snapshot_times is None:
        snaps = np.array([0.0, T])
    else:
        snaps = np.unique(np.concatenate([[0.0, T], np.asarray(snapshot_times, float)]))
        if snaps[0] < -1e-15 or snaps[-1] > T * (1 + 1e-12):
            raise ValueError("snapshot times must lie in [0, T]")
        snaps[0], snaps[-1] = 0.0, T

    nd = n * d

    def unpack(y):
        return y[:nd].reshape(n, d), y[nd:].reshape(n, d)

    def f(y):
        x, v = unpack(y)
        acc = alignment_rhs(x, v, params.alpha, work=work)
        return np.concatenate([v.ravel(), acc.ravel()])

    t = 0.0
    y = np.concatenate([state0.x.ravel(), state0.v.ravel()])
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state is not finite", time=0.0)
    snapshots = [ParticleState(0.0, *unpack(y))]
    log_t, log_h, log_err, log_dmin = [], [], [], []

    # work.dist holds the pair distances of the last force evaluation.
    # After the first-same-as-last stage that is exactly the state an
    # accepted step ends in, which the geometric cap inspects next.
    work = pairs.Workspace(n)
    k = [np.empty_like(y) for _ in range(7)]
    k[0] = f(y)

    h_floor = STEP_FLOOR_FRACTION * T
    # Conservative opening step; the controller recovers quickly.
    scale = tol + tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((k[0] / scale) ** 2))
    h_ctrl = 0.01 * d0 / d1 if d1 > 0 else 1e-3 * T
    h_ctrl = min(max(h_ctrl, 1e-8 * T), 1e-2 * T)

    facold = 1e-4
    last_rejected = False
    next_snap = 1  # index into snaps; snaps[0] already recorded
    steps = 0
    x_now, v_now = unpack(y)
    cap, _ = _step_cap(x_now, v_now, GEOMETRY_SAFETY, dist=work.dist, work=work)

    while t < T:
        if steps >= max_steps:
            raise StepBudgetExceeded(
                "step budget exceeded", time=t, steps=steps, budget=max_steps
            )
        h_free = min(h_ctrl, cap)
        if h_free < h_floor:
            dmin, pair = min_pair_distance(x_now)
            raise StepCollapse(
                "step size fell below the floor",
                time=t,
                step=h_free,
                pair=list(pair),
                distance=dmin,
            )
        clamped = h_free >= (T - t) * (1 - 1e-14)
        h = T - t if clamped else h_free

        for s in range(1, 6):
            ys = y + h * sum(_A[s][m] * k[m] for m in range(s))
            k[s] = f(ys)
        y5 = y + h * sum(_B5[m] * k[m] for m in range(6))
        # _B5[6] = 0; the last stage is evaluated at (t+h, y5) and is
        # reused as the first stage of the next step.
        k[6] = f(y5)

        err_vec = h * sum(_E[m] * k[m] for m in range(7))
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not np.isfinite(err):
            raise NonFiniteState("local error estimate is not finite", time=t, step=h)
        accept = err <= 1.0

        if accept:
            t_new = T if clamped else t + h
            # snapshots in (t, t_new]: interpolated inside, y5 at the end
            stop = int(np.searchsorted(snaps, t_new, side="right"))
            inner = stop - 1 if snaps[stop - 1] == t_new else stop
            if inner > next_snap:
                theta = (snaps[next_snap:inner] - t) / h
                for s_t, ys in zip(snaps[next_snap:inner], _dense(y, h, k, theta)):
                    snapshots.append(ParticleState(float(s_t), *unpack(ys)))
            y = y5
            k[0] = k[6]
            x_now, v_now = unpack(y)
            if stop > inner:
                snapshots.append(ParticleState(float(t_new), x_now, v_now))
            next_snap = stop
            cap, dmin_new = _step_cap(
                x_now, v_now, GEOMETRY_SAFETY, dist=work.dist, work=work
            )
            log_t.append(t_new)
            log_h.append(h)
            log_err.append(err)
            log_dmin.append(dmin_new)
            t = t_new
            if next_snap >= len(snaps):
                break
            fac11 = err**0.17
            fac = fac11 / facold**0.04
            fac = max(0.1, min(5.0, fac / 0.9))
            h_new = h / fac
            if last_rejected:
                h_new = min(h_new, h)
            h_ctrl = h_new
            facold = max(err, 1e-4)
            last_rejected = False
        else:
            fac11 = err**0.17
            h_ctrl = h / min(5.0, fac11 / 0.9)
            last_rejected = True
            if h_ctrl < h_floor:
                x_now, v_now = unpack(y)
                dmin, pair = min_pair_distance(x_now)
                raise StepCollapse(
                    "step size fell below the floor",
                    time=t,
                    step=h_ctrl,
                    pair=list(pair),
                    distance=dmin,
                )
        steps += 1

    return Trajectory(
        params=params,
        times=np.array([s.t for s in snapshots]),
        x=np.stack([s.x for s in snapshots]),
        v=np.stack([s.v for s in snapshots]),
        step_t=np.array(log_t),
        step_h=np.array(log_h),
        step_err=np.array(log_err),
        step_min_dist=np.array(log_dmin),
        tol=tol,
    )


# ---- report dictionaries before storage serialized dataclasses ----
#
# The to_dict methods of DiagnosticsReport, StudyRow, StudyReport, PairRow
# and PairStudy, kept verbatim as functions of the report.


def diagnostics_report_dict(self) -> dict:
    return {
        "times": self.times.tolist(),
        "energy": self.energy.tolist(),
        "enstrophy": self.enstrophy.tolist(),
        "dalpha": self.dalpha.tolist(),
        "momentum": self.momentum.tolist(),
        "min_distance": [
            (x if np.isfinite(x) else None) for x in self.min_distance
        ],
        "h_ladder": list(self.h_ladder),
        "mkvar": self.mkvar.tolist(),
        "energy_residual": self.energy_residual,
    }


def study_row_dict(self) -> dict:
    def grid(v):
        return [list(r) for r in v] if v is not None else None

    return {
        "n": self.n,
        "energy": list(self.energy) if self.energy is not None else None,
        "mk": grid(self.mk),
        "max_cell_mass": grid(self.max_cell_mass),
        "continuity": self.continuity,
        "momentum": self.momentum,
        "margins": list(self.margins) if self.margins is not None else None,
        "error": self.error,
    }


def study_report_dict(self) -> dict:
    return {
        "n_list": list(self.n_list),
        "probe_times": list(self.probe_times),
        "h": self.h,
        "h_ladder": list(self.h_ladder),
        "alpha": self.alpha,
        "horizon": self.horizon,
        "bound": self.bound,
        "seed": self.seed,
        "rows": [study_row_dict(r) for r in self.rows],
        "dbl_cauchy": [
            list(c) if c is not None else None for c in self.dbl_cauchy
        ],
        "dbl_errors": list(self.dbl_errors),
        "energy_cauchy": [
            list(c) if c is not None else None for c in self.energy_cauchy
        ],
    }


def pair_row_dict(self) -> dict:
    return {
        "eps": self.eps,
        "t_half": self.t_half,
        "kernel_integral": self.kernel_integral,
        "d_integral": self.d_integral,
        "min_distance": self.min_distance,
        "error": self.error,
    }


def pair_study_dict(self) -> dict:
    return {
        "alpha": self.alpha,
        "horizon": self.horizon,
        "rows": [pair_row_dict(r) for r in self.rows],
    }
