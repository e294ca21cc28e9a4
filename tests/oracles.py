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
used before its pair geometry moved to per-component (N, N) arrays.
tensor_alignment_rhs sums over j by numpy, pairwise along the contiguous
axis in d = 1, which the differential tests compare against bit for bit.
fsum_alignment_rhs sums the same terms exactly; the tests hold the
package's force to a few ulp of the summed magnitudes from it in d >= 2.

moveaxis_row_sums is the row sum the package used before it summed each
row whole: blocks of 32 columns summed along their rows and the block
sums combined in order with Kahan compensation, gathered through
np.moveaxis.  The differential tests hold the whole-row sums to a few ulp
of the summed magnitudes from it, and to its bits on rows of at most 32.

sqrt_alignment_rhs and sqrt_step_cap are the force evaluation and step
cap as the package computed them before its lean pair pass: distances and
relative speeds as square roots of coordinate squares in every dimension,
and the kernel with its masking passes.  The differential tests compare
the lean path against them bit for bit.

loop_continuity_residual and loop_momentum_residual are the per-function
field residuals the package used before its snapshot-major battery forms.
They share the package's grid check and pair kernel, read the grid's cell
arrays, and evaluate each test function pointwise through macro_* and
vector_*; the differential tests compare the battery forms against them
bit for bit.
loop_dissipation_margin is the standalone margin loop the package used
before the field battery computed continuity, momentum and the margin in
one pass; the differential tests compare that pass against it bit for bit.

loop_local_fields is the binning the package used before its field grids
became arrays: one pass over all atoms per occupied cell, with each
cell's mean velocity taken about its first atom as the package now takes
it.  The differential tests compare the array form against it bit for
bit.

The phase_*, macro_* and vector_* functions are the pointwise evaluators
the test-function classes carried as methods.  They share the package's
window, bump, plateau and TestFunction._h, so they keep the methods' bits.

method_kinetic_residuals is the kinetic battery loop the package used
before its test functions built their pieces once per snapshot: dt,
grad_x and grad_v each evaluated through their own rebuild of the window,
the x-bump and the velocity factor.  The differential tests compare the
battery against it bit for bit.

grid_enstrophy, grid_dalpha and grid_min_distance are the per-measure
pair functionals the package used before its stacked snapshot pass: one
(N, N) grid per measure, summed through a mask that drops co-located
pairs at eta = 0; grid_min_distance and sqrt_step_cap take their minimum
distance over off_diagonal, the view of the off-diagonal entries the
package read before its separations grid.  min_pair_distance is the
separate pass the integrator made to name the closest pair in its
collision and collapse errors, before it read the separations grid it
already held.  pair_series is the hand-written two-particle copy of
that arithmetic the pair study used, and per_snapshot_report the loop
over from_particles measures that the diagnostics report ran, velocity
moments included.  The differential tests compare the stacked pass
against them bit for bit.

line_invariant is the d = 1 invariant I_i = v_i - (1/N) sum_j Psi(x_j - x_i)
with Psi(r) = -sgn(r) |r|^(1 - alpha) / (alpha - 1), the odd antiderivative
of the kernel, summed pair by pair in plain Python floats.

The *_dict functions are the to_dict methods the report dataclasses of
diagnostics and meanfield carried before storage serialized dataclasses
by field.  The format tests compare the canonical JSON of both paths.

dp5_integrate is the integrator the package used before close pairs got
exponential steps: explicit Dormand-Prince steps throughout, which a stiff
pair holds at the method's stability limit.  The differential tests
compare the package against it bit for bit on states without a stiff
pair, and to 10 tol against a tight-tolerance run on states with one.

from_particles, marginal_x, momentum, phi_weighted_marginal, mk_index,
beta_eta (with the DivergentNormalization and UnsupportedDimension it
raises), energy_series, energy_balance_residual, mp_margin and sf_modulus
are instruments the package carried although no subcommand ran them.  They
moved here with their arithmetic unchanged: energy_series and
energy_balance_residual read the package's snapshot_stats and
_balance_defect, mk_index is FieldGrid.mk of local_fields, momentum is the
package's phase_moments of one measure, and marginal_x and
phi_weighted_marginal read atoms through its phase_split.  The tests that
pinned them run against these copies.

loop_sample_initial is the sampler the package used before it drew every
atom at once: one CounterRNG stream spawned per atom, a few numbers drawn
at a time, a set of the positions seen so far for the repeat redraws, and
the bound checked atom by atom, so the first failing atom raises.  Its
bound check is written as not |x| <= bound, which a NaN fails.  Its dot
products and norms are scalar loops that add the d terms in index order
(ordered_dot), the order the package's arrays add them in.  The
differential tests compare the array sampler against it bit for bit, and
its exceptions by type, message and detail.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _si

from flocklab import _flatlp, pairs, weakform
from flocklab.diagnostics import _balance_defect
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
)
from flocklab.errors import (
    CollisionalState,
    FlockLabError,
    NonFiniteState,
    PivotBudgetExceeded,
    RejectionOverflow,
    StepBudgetExceeded,
    StepCollapse,
)
from flocklab.meanfield import local_fields, snapshot_stats
from flocklab.measures import EmpiricalMeasure, dbl, phase_moments, phase_split
from flocklab.pairs import (
    Workspace,
    distances,
    kernel,
    outer_diff,
    relative_sums,
    separations,
    sq_distances,
)
from flocklab.rng import CounterRNG
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
    """Order-1 transport distance between equal-mass measures on the line:
    the area between their cumulative distribution functions, from one
    sort of the pooled atoms and a cumulative sum of the signed weights."""
    p = np.concatenate([p1, p2])
    order = np.argsort(p, kind="stable")
    gap = np.cumsum(np.concatenate([w1, -np.asarray(w2)])[order])[:-1]
    return float(np.abs(gap) @ np.diff(p[order]))


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


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """View of the N (N - 1) off-diagonal entries of a square array, as an
    (N - 1, N) array; no copy is made."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _phase_split(mu, d: int):
    return mu.points[:, :d], mu.points[:, d:], mu.weights


def _counted(r: np.ndarray, colocated: bool) -> np.ndarray:
    mask = np.ones(r.shape, dtype=bool) if colocated else r > 0.0
    np.fill_diagonal(mask, False)
    return mask


def grid_enstrophy(mu, d: int, alpha: float) -> float:
    x, v, w = _phase_split(mu, d)
    r = distances(x)
    val = (w[:, None] * w[None, :]) * sq_distances(v) * kernel(r, alpha)
    return float(val[_counted(r, colocated=False)].sum())


def grid_dalpha(mu, d: int, alpha: float, eta: float) -> float:
    x, v, w = _phase_split(mu, d)
    r = distances(x)
    kern = kernel(r + eta, alpha)
    s2 = sq_distances(v)
    val = (w[:, None] * w[None, :]) * s2 ** ((alpha + 2.0) / 2.0) * kern
    return float(val[_counted(r, colocated=eta > 0.0)].sum())


def grid_min_distance(mu, d: int) -> float:
    x, _, _ = _phase_split(mu, d)
    if x.shape[0] < 2:
        return np.inf
    return float(off_diagonal(distances(x)).min())


def min_pair_distance(x: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the indices (i < j) achieving it."""
    n = x.shape[0]
    if n < 2:
        return np.inf, (-1, -1)
    dist = separations(x)
    # row-major argmin of the symmetric matrix lands in the upper triangle
    i, j = divmod(int(np.argmin(dist)), n)
    return float(dist[i, j]), (i, j)


def pair_series(xs: np.ndarray, vs: np.ndarray, alpha: float):
    """Gap, relative speed and dissipation rate of every snapshot of a
    pair, from stacked (S, 2, d) positions and velocities, at weights 1/2."""
    dx = xs[:, 0, :] - xs[:, 1, :]
    dv = vs[:, 0, :] - vs[:, 1, :]
    r2 = dx[:, 0] * dx[:, 0]
    s2 = dv[:, 0] * dv[:, 0]
    for k in range(1, dx.shape[1]):
        r2 += dx[:, k] * dx[:, k]
        s2 += dv[:, k] * dv[:, k]
    r = np.abs(dx[:, 0]) if dx.shape[1] == 1 else np.sqrt(r2)
    kern = np.zeros_like(r)
    np.power(r, -alpha, out=kern, where=r > 0.0)
    w = 1.0 / 2
    val = (w * w) * s2 * kern
    return r, np.sqrt(s2), val + val


def ordered_dot(a, b) -> float:
    """Sum of a[j] b[j] over the coordinates, added one at a time in index
    order, as scalar Python floats."""
    total = float(a[0]) * float(b[0])
    for aj, bj in zip(a[1:], b[1:]):
        total += float(aj) * float(bj)
    return total


def ordered_norm(a) -> float:
    """Euclidean norm of one vector, its squares added in index order."""
    return math.sqrt(ordered_dot(a, a))


def ordered_sq(v: np.ndarray) -> np.ndarray:
    """|v_i|^2 of each row of v (K, d), by ordered_dot."""
    return np.array([ordered_dot(row, row) for row in v])


def per_snapshot_report(traj) -> dict:
    """Energy, momentum, D, D_alpha (eta = 0) and minimum distance of every
    snapshot, one from_particles measure at a time."""
    d, alpha = traj.params.d, traj.params.alpha
    rows = {"energy": [], "momentum": [], "D": [], "Da": [], "md": []}
    for state in traj:
        mu = from_particles(state)
        v = mu.points[:, d:]
        rows["energy"].append(float((mu.weights * ordered_sq(v)).sum()))
        rows["momentum"].append([(mu.weights * c).sum() for c in v.T])
        rows["D"].append(grid_enstrophy(mu, d, alpha))
        rows["Da"].append(grid_dalpha(mu, d, alpha, 0.0))
        rows["md"].append(grid_min_distance(mu, d))
    return {key: np.array(val) for key, val in rows.items()}


def line_invariant(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """Per-particle invariant of the alignment system on the line, for
    positions and velocities of shape (N, 1) and alpha > 1."""
    n = x.shape[0]
    out = np.empty(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                r = float(x[j, 0] - x[i, 0])
                total -= math.copysign(abs(r) ** (1.0 - alpha), r) / (alpha - 1.0)
        out[i] = float(v[i, 0]) - total / n
    return out


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


# ---- instruments that no command runs, moved out of the package ----


def from_particles(state: ParticleState) -> EmpiricalMeasure:
    """Uniform-weight phase-space measure of a particle state."""
    pts = np.hstack([state.x, state.v])
    n = state.n_particles
    return EmpiricalMeasure(pts, np.full(n, 1.0 / n))


def marginal_x(mu: EmpiricalMeasure, d: int) -> EmpiricalMeasure:
    """Spatial marginal of a phase measure; atoms kept unmerged."""
    x, _, w = phase_split(mu, d)
    return EmpiricalMeasure(x, w)


def momentum(mu: EmpiricalMeasure, d: int) -> np.ndarray:
    """First velocity moment: sum of w v."""
    return phase_moments(phase_split(mu, d)[1][None], mu.weights)[1][0]


def phi_weighted_marginal(
    mu: EmpiricalMeasure,
    d: int,
    t0: float,
    t: float,
    phi: Callable[[np.ndarray], np.ndarray],
) -> EmpiricalMeasure:
    """Spatial measure at unwound positions, atoms weighted by phi(v) >= 0.

    phi must map velocities into [0, 1]; values outside make the result
    either signed or heavier than mass 1, both rejected.
    """
    x, v, _ = phase_split(mu, d)
    vals = np.asarray(phi(v), dtype=np.float64).ravel()
    if vals.shape[0] != mu.n_atoms:
        raise ValueError("phi must return one value per atom")
    if vals.size and (vals.min() < -1e-15 or vals.max() > 1.0 + 1e-12):
        raise ValueError("phi must take values in [0, 1]")
    return EmpiricalMeasure(x - (t - t0) * v, mu.weights * np.maximum(vals, 0.0))


def mk_index(mu: EmpiricalMeasure, d: int, h: float) -> float:
    """Binned monokineticity index: mass-weighted velocity variance,
    sum over cells of mass * cov_trace.  Zero iff each cell is
    single-speed; bounded by Lip(u)^2 d h^2 for velocities sampled from an
    L-Lipschitz field (each in-cell deviation is at most L h sqrt(d))."""
    return local_fields(mu, d, h).mk()


class DivergentNormalization(FlockLabError):
    """The kernel normalization integral diverges for the requested exponent
    and dimension (alpha < d)."""


class UnsupportedDimension(FlockLabError):
    """Closed forms for the kernel normalization exist only in dimensions
    one and two."""


def beta_eta(eta: float, alpha: float, d: int) -> float:
    """Normalization integral of (|x| + eta)^(-alpha) over R^d, closed form.

    Equals 1 exactly at alpha = d (the critical case enters only through
    ratios).  Raises DivergentNormalization for alpha < d and
    UnsupportedDimension for d >= 3; scaling obeys eta^alpha beta ~ eta^d.
    A NaN eta, or an alpha that is not finite, raises ValueError.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if d not in (1, 2):
        raise UnsupportedDimension(
            "closed forms cover d in {1, 2}", dimension=d
        )
    if alpha < d:
        raise DivergentNormalization(
            "normalization integral diverges for alpha < d",
            alpha=alpha,
            dimension=d,
        )
    if alpha == d:
        return 1.0
    if d == 1:
        return 2.0 * eta ** (1.0 - alpha) / (alpha - 1.0)
    return 2.0 * np.pi * eta ** (2.0 - alpha) * (
        1.0 / (alpha - 2.0) - 1.0 / (alpha - 1.0)
    )


def energy_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, kinetic energy, and enstrophy along the snapshots."""
    stats = snapshot_stats(traj, slice(None), ())
    return traj.times, stats.energy, stats.enstrophy


def energy_balance_residual(traj: Trajectory) -> float:
    """Largest defect of the balance  integral of enstrophy = energy drop,
    checked at every snapshot with trapezoid quadrature in time."""
    return _balance_defect(*energy_series(traj))


def mp_margin(
    traj: Trajectory,
    t0: float,
    t: float,
    center: np.ndarray,
    radius: float,
) -> float:
    """Mass-propagation margin for the closed ball B(center, radius):

        rho_t( B(center, radius + (t - t0) M) ) - rho_t0( B(center, radius) )

    Nonnegative whenever speeds stay below M, since every particle moves at
    most (t - t0) M.  Raises SnapshotMissing off the snapshot grid, and
    ValueError unless t >= t0, radius >= 0 and center is a finite array
    of shape (d,).
    """
    if not t >= t0:
        raise ValueError("needs t >= t0")
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    d = traj.params.d
    center = np.asarray(center, float)
    if center.shape != (d,) or not np.isfinite(center).all():
        raise ValueError(f"center must be a finite array of shape ({d},)")
    s0 = traj.state_at(t0)
    s1 = traj.state_at(t)
    m = traj.params.M
    n = traj.params.N

    def ball_mass(state, rad):
        dist = np.sqrt(((state.x - center[None, :]) ** 2).sum(axis=1))
        return float((dist <= rad).sum()) / n

    return ball_mass(s1, radius + (t - t0) * m) - ball_mass(s0, radius)


def sf_modulus(
    traj: Trajectory,
    t0: float,
    phi_v,
    probe_times,
) -> np.ndarray:
    """Continuity modulus of the free-transport unwind.

    For each probe time t, the flat distance between the phi-weighted
    unwound spatial measure of mu_t (atoms at x - (t - t0) v, weights
    w phi(v)) and the same construction at t = t0.  Values tend to zero as
    t -> t0 for trajectories; no claim is made beyond the probes reported.
    """
    d = traj.params.d
    ref_state = traj.state_at(t0)
    ref = phi_weighted_marginal(from_particles(ref_state), d, t0, t0, phi_v)
    out = []
    for t in probe_times:
        mu = from_particles(traj.state_at(t))
        unwound = phi_weighted_marginal(mu, d, t0, t, phi_v)
        out.append(dbl(unwound, ref))
    return np.array(out)


# ---- dense tensor formulations of the pair layer ----


def _tensor_distances(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _tensor_force_terms(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """(N, N, d) terms r_ij^(-alpha) (v_j - v_i), zero on the diagonal."""
    n = x.shape[0]
    dist = _tensor_distances(x)
    offdiag = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore"):
        w = np.where(offdiag, dist, 1.0) ** (-alpha)
    w[~offdiag] = 0.0
    return w[:, :, None] * (v[None, :, :] - v[:, None, :])


def tensor_alignment_rhs(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """(1/N) sum_j r_ij^(-alpha) (v_j - v_i) from (N, N, d) tensors, summed
    over j by numpy; no collision check."""
    return _tensor_force_terms(x, v, alpha).sum(axis=1) / x.shape[0]


def fsum_alignment_rhs(x: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """tensor_alignment_rhs with every sum over j exact (math.fsum) and
    rounded once."""
    terms = _tensor_force_terms(x, v, alpha)
    n, d = x.shape
    sums = [[math.fsum(terms[i, :, k]) for k in range(d)] for i in range(n)]
    return np.array(sums) / n


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
            phase_dt(phi, st.t, st.x, st.v)
            + np.einsum("ij,ij->i", st.v, phase_grad_x(phi, st.t, st.x, st.v))
        ).sum() * w
        r = _tensor_distances(st.x)
        mask = ~np.eye(st.x.shape[0], dtype=bool) & (r > 0.0)
        with np.errstate(divide="ignore"):
            psi = np.where(mask, np.where(mask, r, 1.0) ** (-alpha), 0.0)
        gv = phase_grad_v(phi, st.t, st.x, st.v)
        dgv = gv[:, None, :] - gv[None, :, :]
        dv = st.v[:, None, :] - st.v[None, :, :]
        b_vals[k] = w * w * (np.einsum("ijk,ijk->ij", dgv, dv) * psi).sum()
    phi0 = phase_value(phi, times[0], traj.x[0], traj.v[0]).sum() * w
    return float(phi0), float(np.trapezoid(a_vals, times)), float(
        np.trapezoid(b_vals, times)
    )


def tensor_kinetic_residual(traj, phi) -> float:
    phi0, a_int, b_int = tensor_kinetic_terms(traj, phi)
    return float(abs(-phi0 - a_int + 0.5 * b_int))


def phase_parts(phi, t, x, v):
    """(w, w', G, grad G, H, grad_v H) of a TestFunction."""
    w, wp = weakform._window(t, phi.t_end)
    g, gg = weakform._bump(x - phi.x_center[None, :], phi.x_radius**2)
    h, gh = phi._h(v, weakform._plateau(v, *phi.v_plateau))
    return w, wp, g, gg, h, gh


def phase_value(phi, t, x, v):
    w, _, g, _, h, _ = phase_parts(phi, t, x, v)
    return phi.scale * w * g * h


def phase_dt(phi, t, x, v):
    _, wp, g, _, h, _ = phase_parts(phi, t, x, v)
    return phi.scale * wp * g * h


def phase_grad_x(phi, t, x, v):
    w, _, _, gg, h, _ = phase_parts(phi, t, x, v)
    return phi.scale * w * h[:, None] * gg


def phase_grad_v(phi, t, x, v):
    w, _, g, _, _, gh = phase_parts(phi, t, x, v)
    return phi.scale * w * g[:, None] * gh


def macro_value(phi, t, x):
    w, _ = weakform._window(t, phi.t_end)
    g, _ = weakform._bump(x - phi.x_center[None, :], phi.x_radius**2)
    return phi.scale * w * g


def macro_dt(phi, t, x):
    _, wp = weakform._window(t, phi.t_end)
    g, _ = weakform._bump(x - phi.x_center[None, :], phi.x_radius**2)
    return phi.scale * wp * g


def macro_grad_x(phi, t, x):
    w, _ = weakform._window(t, phi.t_end)
    _, gg = weakform._bump(x - phi.x_center[None, :], phi.x_radius**2)
    return phi.scale * w * gg


def _component(phi, col):
    out = np.zeros((col.shape[0], phi.base.d))
    out[:, phi.component] = col
    return out


def vector_value(phi, t, x):
    return _component(phi, macro_value(phi.base, t, x))


def vector_dt(phi, t, x):
    return _component(phi, macro_dt(phi.base, t, x))


def vector_conv(phi, t, x, u):
    """(u . grad) phi of a VectorTestFunction, shape (n, d)."""
    return _component(phi, np.einsum("ij,ij->i", u, macro_grad_x(phi.base, t, x)))


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
                phase_dt(phi, t, x, v)
                + np.einsum("ij,ij->i", v, phase_grad_x(phi, t, x, v))
            ).sum() * w
            gv = phase_grad_v(phi, t, x, v)
            b_vals[f, k] = -2.0 * w * w * np.einsum("ij,ij->", gv, pull)
    out = []
    for f, phi in enumerate(phis):
        phi0 = phase_value(phi, times[0], traj.x[0], traj.v[0]).sum() * w
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


BLOCK = 32


def moveaxis_row_sums(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis of a (..., N) array: full blocks of BLOCK
    columns summed along their contiguous rows, the blocks (and a shorter
    last block) combined in order with Kahan compensation."""
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
        out[:, k] = t.sum(axis=1)
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
        flux = macro_dt(phi, t, b) + np.einsum("ij,ij->i", u, macro_grad_x(phi, t, b))
        vals[k] = float((m * flux).sum())
    b0, m0 = grids[0].barycenter, grids[0].mass
    phi0 = float((m0 * macro_value(phi, times[0], b0)).sum()) if m0.size else 0.0
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
        drive = vector_dt(phi, t, b) + vector_conv(phi, t, b, u)
        tvals[k] = float((m * np.einsum("ij,ij->i", u, drive)).sum())
        psi = kernel(distances(b), alpha)
        inner = pair_dot(vector_value(phi, t, b), u)
        svals[k] = float(((m[:, None] * m[None, :]) * psi * inner).sum())
    if initial_atoms is not None:
        x0, v0, w0 = initial_atoms
        x0 = np.asarray(x0, float)
        v0 = np.asarray(v0, float)
        w0 = np.asarray(w0, float)
        val0 = vector_value(phi, times[0], x0)
        phi0 = float((w0 * np.einsum("ij,ij->i", v0, val0)).sum())
    else:
        b0, u0, m0 = grids[0].barycenter, grids[0].velocity, grids[0].mass
        phi0 = (
            float((m0 * np.einsum("ij,ij->i", u0, vector_value(phi, times[0], b0))).sum())
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
    # each cell's mean velocity about its first atom in input order
    ref = v[[int(np.flatnonzero(inverse == c)[0]) for c in range(k)]]
    vsum = np.zeros((k, d))
    np.add.at(vsum, inverse, w[:, None] * (v - ref[inverse]))
    cells = []
    for c in range(k):
        m = float(mass[c])
        if m <= 0.0:
            continue
        u = ref[c] + vsum[c] / m
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
    The basis inverse holds K^2 entries, so a support above ``cap`` atoms
    raises ValueError.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K > cap:
        raise ValueError(f"dense oracle refuses {K} atoms, above its cap {cap}")
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
# and PairStudy, kept verbatim as functions of the report, except that the
# diagnostics dict gained max_cell_mass when DiagnosticsReport became a
# SnapshotStats.


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
        "max_cell_mass": self.max_cell_mass.tolist(),
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


LOOP_REDRAW_BUDGET = 1000


def _loop_position(spec, rng):
    d = spec.d
    p = spec.density_params
    if spec.density == "uniform-box":
        c = np.asarray(p["center"], float)
        h = float(p["halfwidth"])
        return c + rng.uniform(d, -h, h)
    if spec.density == "truncated-gaussian":
        c = np.asarray(p["center"], float)
        s = float(p["sigma"])
        cut = float(p["cut"])
        for _ in range(LOOP_REDRAW_BUDGET):
            g = s * rng.normal(d)
            if ordered_norm(g) <= cut:
                return c + g
        raise RejectionOverflow(
            "truncated gaussian redraw budget exhausted",
            budget=LOOP_REDRAW_BUDGET,
        )
    centers = np.asarray(p["centers"], float)
    h = float(p["halfwidth"])
    split = float(p["split"])
    pick = centers[0] if rng.uniform(1)[0] < split else centers[1]
    return pick + rng.uniform(d, -h, h)


def _loop_velocity(spec, x, rng):
    p = spec.velocity_params
    if spec.velocity == "constant":
        return np.asarray(p["value"], float).copy()
    if spec.velocity == "linear-shear":
        base = np.asarray(p["base"], float)
        grad = np.asarray(p["gradient"], float)
        return base + np.array([ordered_dot(row, x) for row in grad])
    if spec.velocity == "sinusoid":
        amp = np.asarray(p["amplitude"], float)
        k = np.asarray(p["wavenumber"], float)
        return amp * math.sin(ordered_dot(k, x))
    values = np.asarray(p["values"], float)
    frac = float(p["fraction"])
    return values[0].copy() if rng.uniform(1)[0] < frac else values[1].copy()


def loop_sample_initial(spec, n: int, bound: float):
    root = CounterRNG(spec.seed)
    xs = np.empty((n, spec.d))
    vs = np.empty((n, spec.d))
    seen = set()
    for i in range(n):
        sub = root.spawn(i)
        for _ in range(LOOP_REDRAW_BUDGET):
            x = _loop_position(spec, sub)
            key = x.tobytes()
            if key not in seen:
                break
        else:
            raise RejectionOverflow(
                "duplicate-position redraw budget exhausted",
                atom=i,
                budget=LOOP_REDRAW_BUDGET,
            )
        seen.add(key)
        v = _loop_velocity(spec, x, sub)
        nx, nv = ordered_norm(x), ordered_norm(v)
        if not nx <= bound or not nv <= bound:
            raise ValueError(
                "initial recipe escapes the configured bound: "
                f"|x|={nx:.3g}, |v|={nv:.3g}, bound={bound:.3g}"
            )
        xs[i] = x
        vs[i] = v
    return xs, vs
