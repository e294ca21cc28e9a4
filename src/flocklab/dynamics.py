"""Singular-kernel alignment dynamics for N interacting particles.

The system integrated here is first order in position and velocity:

    dx_i/dt = v_i
    dv_i/dt = (1/N) sum_{j != i} |x_i - x_j|^(-alpha) (v_j - v_i)

with communication exponent alpha >= 1, the regime in which trajectories
starting from pairwise-distinct positions stay collision free.  The kernel
is always evaluated without regularization; close approaches are handled
by the step-size policy, not by smoothing the force law.

Integration uses the Dormand-Prince embedded 5(4) pair with PI step-size
control, plus a geometric cap that keeps each step well below the time a
pair would need to close its current separation at the current relative
speed.  Adaptive steps are free: the snapshot grid does not shorten them,
and only the horizon T is landed on.  A snapshot inside an accepted step
is read off the step's 4th-order continuous extension (Hairer, Norsett and
Wanner, Solving ODEs I, II.6), so it lies inside a step the cap has
already made collision safe.

Close pairs are stiff: a pair's relative velocity relaxes at the rate
2 psi(r) / N, which would pin the explicit step to its stability bound
h lambda ~ 3.3 on the real axis long after the pair has aligned.  A step
of size h marks the pairs with h 2 psi(r) / N >= 3, groups them into
connected components, and moves those particles' rows in Lawson form
(Hochbruck and Ostermann, Exponential integrators, Acta Numerica 2010):
each component's Laplacian L = Q diag(mu) Q^T with weights psi_ij / N is
integrated exactly in its eigenbasis, and the rest of the force goes
through the same Dormand-Prince weights, error norm and controller.  Snapshots in such a step, its end
included, come from the matching exponential interpolant.  The test is a
comparison of the cap's minimum distance with one radius, so a step
without a stiff pair does no extra pair pass and is the plain step bit
for bit.

Pair geometry comes from flocklab.pairs and is built one coordinate at a
time as (N, N) arrays.  Force sums run per velocity component along each
row of the (N, N) pair array, each row summed whole by numpy's pairwise
reduction, whose error grows like log N.  The order depends only on N, so
results do not depend on the BLAS, and the antisymmetric pair forces keep
the total momentum to rounding over long runs.  The stage sums and the
interpolant are explicit ordered sums for the same reason.

The integrator's state, and each stage, is one (2, N, d) array with
positions in row 0 and velocities in row 1.  The last row of the tableau
is the 5th-order weights, so the stage loop's seventh stage is evaluated
at the step's end state, and an accepted step reuses it as the next
step's first (first same as last).  The integrator keeps one separations
grid (pairs.separations, +inf on the self-pairs) per state, which that
stage or, after a rejection, a rebuild leaves in the workspace; the cap,
the stiff set-up and the collision and collapse errors read it, and psi
is always pairs.kernel on it.  The eigenbases come from Householder and
Jacobi rotations, not from LAPACK, and all their products are elementwise
sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pairs
from .errors import (
    CollisionalState,
    NonFiniteState,
    SnapshotMissing,
    StepBudgetExceeded,
    StepCollapse,
)

# Below this separation the kernel is considered non-evaluable: powers of
# the inverse distance would overflow well before reaching it, and no
# physically meaningful trajectory of the alpha >= 1 system gets there.
COLLISION_FLOOR = 1e-100

# Step-size floor, relative to the horizon.
STEP_FLOOR_FRACTION = 1e-12

# No step is longer than this fraction of the smallest pair closing time.
GEOMETRY_SAFETY = 0.2


def sorted_distinct(a) -> np.ndarray:
    """The distinct values of a, flattened and sorted, each kept at its
    first occurrence: np.unique's values from one stable sort and an
    adjacent-difference mask, without the numpy.ma import that np.unique
    makes."""
    s = np.sort(np.ravel(a), kind="stable")
    keep = np.ones(s.size, bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@dataclass(frozen=True)
class ModelParams:
    """Static description of one particle model.

    d      spatial dimension
    alpha  communication exponent, alpha >= 1
    N      particle count
    T      time horizon
    M      bound on initial support and speeds:  |x_i(0)| <= M, |v_i(0)| <= M
    """

    d: int
    alpha: float
    N: int
    T: float
    M: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if not self.alpha >= 1.0:
            raise ValueError("alpha must be >= 1 (collision-avoidance regime)")
        if self.N < 1:
            raise ValueError("need at least one particle")
        if not self.T > 0.0:
            raise ValueError("horizon must be positive")
        if not self.M > 0.0:
            raise ValueError("support bound must be positive")

    @property
    def monokinetic_regime(self) -> bool:
        """alpha >= d: velocity averaging concentrates mass on graphs."""
        return self.alpha >= self.d

    @property
    def meanfield_regime(self) -> bool:
        """alpha <= 2: exponent range used by the refinement studies."""
        return self.alpha <= 2.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParticleState:
    """Positions and velocities of all particles at one time.

    Arrays are read-only; states can be shared freely between threads.
    """

    t: float
    x: np.ndarray  # (N, d)
    v: np.ndarray  # (N, d)

    def __post_init__(self):
        x = _frozen(self.x)
        v = _frozen(self.v)
        if x.ndim != 2 or x.shape != v.shape:
            raise ValueError("x and v must both have shape (N, d)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]


def alignment_rhs(
    x: np.ndarray,
    v: np.ndarray,
    alpha: float,
    work: pairs.Workspace | None = None,
) -> np.ndarray:
    """Velocity derivatives of the alignment system.

    Raises CollisionalState when a pair sits at (numerically) zero
    separation.

    With a workspace ``work`` given, the pair grids are built in its
    buffers, and the separations of x, which pairs.kernel weights, are left
    in ``work.dist`` for reuse by the caller.

    The accumulated pair forces are antisymmetric, so the velocity
    derivatives sum to zero up to the rounding of the row sums.
    """
    n = x.shape[0]
    if work is None:
        work = pairs.Workspace(n)
    dist = pairs.separations(x, out=work.dist, scratch=work.a)
    dmin = float(dist.min())
    if dmin <= COLLISION_FLOOR:
        raise CollisionalState(
            "pair separation at or below the evaluable floor",
            pair=list(divmod(int(np.argmin(dist)), n)),
            distance=dmin,
        )
    w = pairs.kernel(dist, alpha, out=work.a)
    return pairs.relative_sums(w, v, scratch=work.b) / n


# Dormand-Prince 5(4) tableau.  _A's last row is the 5th-order weights, so
# the seventh stage is evaluated at the step's end state (first same as last).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    _B5[:6],
]
# Difference between the 5th and embedded 4th order weights.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Continuous extension: y(t + theta h) = y + h sum_m b_m(theta) k_m with
# b_m(theta) = sum_j _P[m, j] theta^(j + 1); the same array as RK45.P in
# scipy.integrate._ivp.rk.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _dense(y: np.ndarray, h: float, k: list, theta: np.ndarray) -> np.ndarray:
    """(len(theta), *y.shape) states y + h sum_m b_m(theta) k_m of one step,
    for a state of any shape, such as the integrator's (2, N, d).

    Every sum runs in a fixed order with elementwise operations only, so
    the bytes do not depend on the BLAS, and each row equals the same
    evaluation at its theta alone.
    """
    th = theta.reshape(-1, *[1] * y.ndim)
    powers = [th]
    for _ in range(3):
        powers.append(powers[-1] * th)
    acc = 0.0
    for m in range(7):
        b = _P[m, 0] * powers[0]
        for j in range(1, 4):
            b = b + _P[m, j] * powers[j]
        acc = acc + b * k[m]
    return y + h * acc


# A pair is stiff at step size h when h 2 psi(r) / N reaches this.  2 psi / N
# is the decay rate of the pair's relative velocity, and the explicit
# Dormand-Prince step is stable on the negative real axis only up to
# h lambda of about 3.3; below 3 the explicit stages are stable with a margin.
STIFF_THRESHOLD = 3.0

# Larger stiff components stay explicit, and the controller shrinks the
# step until they split: Jacobi rotations cost O(m^2) Python steps per
# sweep and the eigenbasis products hold (m, m, m) temporaries.
STIFF_MAX_MEMBERS = 16


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a @ b over the last two axes, broadcast over the
    leading ones, as an elementwise product and a sum, so the bytes do not
    depend on the BLAS."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def _phi(z: np.ndarray, kmax: int) -> np.ndarray:
    """phi_0 .. phi_kmax at z, stacked on a new first axis.

    For |z| >= 1, phi_0 = exp and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z.
    That recursion cancels for |z| < 1, where phi_kmax comes from its
    Taylor series sum_i z^i / (i + kmax)! and the others from
    phi_k = z phi_{k+1} + 1/k!, which does not.
    """
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zr = np.where(small, 1.0, z)
    top = np.full(z.shape, 1.0 / math.factorial(kmax + 18))
    for i in range(17, -1, -1):
        top = top * zs + 1.0 / math.factorial(kmax + i)
    low = [top]
    for k in range(kmax - 1, -1, -1):
        low.append(zs * low[-1] + 1.0 / math.factorial(k))
    low.reverse()
    out = [np.where(small, low[0], np.exp(z))]
    for k in range(1, kmax + 1):
        up = (out[-1] - 1.0 / math.factorial(k - 1)) / zr
        out.append(np.where(small, low[k], up))
    return np.stack(out)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (C, m) and eigenvector columns (C, m, m) of a stack of
    small symmetric matrices by cyclic Jacobi rotations, each rotation
    applied to the whole stack.  An entry below eps sqrt(|a_pp a_rr|) is
    left as it is (it moves no eigenvalue by more than rounding); a sweep
    that rotates nothing ends the iteration."""
    a = a.copy()
    m = a.shape[-1]
    q = np.broadcast_to(np.eye(m), a.shape).copy()
    for _ in range(50):
        done = True
        for p in range(m - 1):
            for r in range(p + 1, m):
                apr, app, arr = a[:, p, r], a[:, p, p], a[:, r, r]
                tiny = 2.2e-16 * np.sqrt(np.abs(app)) * np.sqrt(np.abs(arr))
                rot = np.abs(apr) > tiny
                if not rot.any():
                    continue
                done = False
                th = (arr - app) / (2.0 * np.where(rot, apr, 1.0))
                t = np.copysign(1.0, th) / (np.abs(th) + np.hypot(th, 1.0))
                t = np.where(rot, t, 0.0)[:, None]
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                for mat in (a, q):
                    mp, mr = mat[:, :, p], mat[:, :, r]
                    mat[:, :, p], mat[:, :, r] = c * mp - s * mr, s * mp + c * mr
                ap, ar = a[:, p], a[:, r]
                a[:, p], a[:, r] = c * ap - s * ar, s * ap + c * ar
        if done:
            break
    return np.diagonal(a, axis1=1, axis2=2).copy(), q


def _laplacian_modes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, mu) with L = Q diag(mu) Q^T for the graph Laplacians of a stack
    of weight matrices w, (C, m, m).

    A Householder reflection H maps e_1 to the unit constant vector, the
    null vector of every Laplacian, so that mode is exact (mu = 0) and the
    component's momentum is kept.  The rest of H L H is diagonalised by
    Jacobi rotations; for two particles it is 1 x 1, a closed form.
    """
    m = w.shape[-1]
    u = np.full(m, m**-0.5)
    u[0] -= 1.0
    house = np.eye(m) - (2.0 / (u * u).sum()) * u[:, None] * u[None, :]
    lap = -w
    lap[:, range(m), range(m)] = w.sum(axis=-1)
    b = _mm(_mm(house, lap), house)[:, 1:, 1:]
    mu, vecs = _jacobi(0.5 * (b + np.swapaxes(b, 1, 2)))
    q = np.broadcast_to(house, w.shape).copy()
    q[:, :, 1:] = _mm(house[:, 1:], vecs)
    return q, np.concatenate([np.zeros((len(w), 1)), mu], axis=1)


def _components(close: np.ndarray) -> list:
    """Connected components with two or more members of the graph whose
    edges are the True entries of close above its diagonal, as one (C, m)
    array of member indices per component size m."""
    ii, jj = np.nonzero(close)
    ii, jj = ii[ii < jj], jj[ii < jj]
    label = np.arange(len(close))
    while True:
        low = np.minimum(label[ii], label[jj])
        new = label.copy()
        np.minimum.at(new, ii, low)
        np.minimum.at(new, jj, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    by_size = {}
    for root in sorted_distinct(label[ii]):
        members = np.flatnonzero(label == root)
        by_size.setdefault(len(members), []).append(members)
    return [np.array(by_size[m]) for m in sorted(by_size)]


class _StiffGroup:
    """The stiff components of one size m at the start of a step: members
    idx (C, m), eigenbases q and rates mu of their Laplacians, the step's
    factors e^(-tau mu) and tau phi_1(-tau mu) for tau = (c_s - c_m) h, the
    start positions, and per stage the velocities and forcings in the
    eigenbases."""

    def __init__(self, idx, x, v, w, tau):
        self.idx = idx
        self.q, self.mu = _laplacian_modes(w)
        self.qt = np.swapaxes(self.q, 1, 2)
        ph = _phi(-tau[..., None, None] * self.mu, 1)[..., None]
        self.ex, self.p1 = ph[0], tau[..., None, None, None] * ph[1]
        self.x0 = x[idx]
        self.vt = [_mm(self.qt, v[idx])] + [None] * 6
        self.g = [None] * 7


class _Lawson:
    """The rows of particles in stiff components during one step.

    Per component, L_C = Q diag(mu) Q^T is the Laplacian with weights
    psi_ij / N at the step's start.  Its rows move in the eigenbasis in
    Lawson form: the linear part [[0, I], [0, -L_C]] is integrated exactly,
    and g = F + L_C v, what the force adds to it, goes through the
    Dormand-Prince weights.  Everything else about the step is unchanged.
    Components with more than STIFF_MAX_MEMBERS particles stay explicit.

    States and stages are (2, N, d) arrays of positions and velocities;
    the first-same-as-last stage is the tableau's last row, s = 6.  dist
    is the separations grid of y[0], which the integrator holds.
    """

    def __init__(self, y, h, alpha, r_stiff, dist):
        n = len(dist)
        self.h = h
        x, v = y
        # (c_s - c_m) h for m <= s; the clip spares the unused m > s
        tau = h * np.maximum(_C[:, None] - _C[None, :], 0.0)
        self.groups = []
        self.pairs = 0
        for idx in _components(dist <= r_stiff):
            m = idx.shape[1]
            if m > STIFF_MAX_MEMBERS:
                continue
            r = dist[idx[:, :, None], idx[:, None, :]]
            w = pairs.kernel(r, alpha) / n
            self.groups.append(_StiffGroup(idx, x, v, w, tau))
            self.pairs += idx.size * (m - 1) // 2

    def _g(self, c, m, k):
        if c.g[m] is None:
            force = k[m][1][c.idx]
            c.g[m] = _mm(c.qt, force) + c.mu[..., None] * c.vt[m]
        return c.g[m]

    def rows(self, out, k, s, a, base=True):
        """Set the stiff rows of out to the Lawson combination with weights
        a at node c_s: a stage state, or with base=False the error vector,
        which has no x_n or v_n term."""
        ox, ov = out
        for c in self.groups:
            v_new = c.ex[s, 0] * c.vt[0] if base else 0.0
            x_new = c.p1[s, 0] * c.vt[0] if base else 0.0
            for m, am in enumerate(a):
                if am != 0.0:
                    g = self._g(c, m, k)
                    v_new = v_new + self.h * am * c.ex[s, m] * g
                    x_new = x_new + self.h * am * c.p1[s, m] * g
            if base:
                c.vt[s] = v_new
            ox[c.idx] = c.x0 + _mm(c.q, x_new) if base else _mm(c.q, x_new)
            ov[c.idx] = _mm(c.q, v_new)

    def dense(self, out, k, theta):
        """Set the stiff rows of the dense states out, one row per theta, to
        the exponential continuous extension: the Dormand-Prince dense
        forcing sum_j G_j theta^j, integrated exactly with phi_1 .. phi_5."""
        h, th = self.h, theta[:, None, None, None]
        ox, ov = out[:, 0], out[:, 1]
        for c in self.groups:
            ph = _phi(-h * theta[:, None, None] * c.mu, 5)[..., None]
            v_new = ph[0] * c.vt[0]
            x_new = h * th * ph[1] * c.vt[0]
            for j in range(4):
                # j! G_j, with G_j = (j + 1) sum_m P[m, j] g_m
                gj = math.factorial(j + 1) * sum(
                    _P[m, j] * self._g(c, m, k) for m in range(7)
                )
                v_new = v_new + h * th ** (j + 1) * ph[j + 1] * gj
                x_new = x_new + h * h * th ** (j + 2) * ph[j + 2] * gj
            ox[:, c.idx] = c.x0 + _mm(c.q, x_new)
            ov[:, c.idx] = _mm(c.q, v_new)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one integration plus its per-step log.

    The S snapshots are stacked: ``times`` (S,), positions ``x`` (S, N, d)
    and velocities ``v`` (S, N, d), all read-only float64 arrays, so a
    consumer indexes or reshapes them instead of looping over states.
    ``traj[k]`` and ``state_at(t)`` give one snapshot as a ParticleState
    that views row k.

    There is at least one snapshot, snapshot times strictly increase, from
    t=0 to t=T, and every position and velocity is finite; other snapshots
    are rejected.  A snapshot strictly inside a step, or at the end of a
    step with stiff pairs, is the step's interpolant, accurate to about
    the tolerance.  The log
    holds, per accepted step: end time, step size, local error estimate
    (normalized), the minimum pair distance at the step's end state, and
    the number of pairs the step integrated through the exponential factor
    (0 on plain Dormand-Prince steps; kept in memory only).
    Steps are free steps, sized by the error controller and the geometric
    cap alone, so the log does not follow the snapshot grid.  ``tol`` is
    None only on a trajectory file that an earlier version wrote in its
    fixed-step mode.
    """

    params: ModelParams
    times: np.ndarray  # (S,)
    x: np.ndarray  # (S, N, d)
    v: np.ndarray  # (S, N, d)
    step_t: np.ndarray
    step_h: np.ndarray
    step_err: np.ndarray
    step_min_dist: np.ndarray
    tol: float | None = None
    step_stiff: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        times, x, v = _frozen(self.times), _frozen(self.x), _frozen(self.v)
        p = self.params
        if times.ndim != 1 or x.shape != (len(times), p.N, p.d) or x.shape != v.shape:
            raise ValueError("need times (S,) and x, v of shape (S, N, d)")
        if len(times) == 0:
            raise ValueError("a trajectory needs at least one snapshot")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValueError("snapshot positions and velocities must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> ParticleState:
        """Snapshot k as a ParticleState that views row k of x and v."""
        return ParticleState(float(self.times[k]), self.x[k], self.v[k])

    @property
    def snapshots(self) -> tuple:
        """Every snapshot as a ParticleState view."""
        return tuple(self)

    def state_at(self, t: float) -> ParticleState:
        t = float(t)
        k = int(np.argmin(np.abs(self.times - t)))
        if not (math.isfinite(t) and abs(self.times[k] - t) <= 1e-9 * max(1.0, abs(t))):
            raise SnapshotMissing(
                "time not on the stored snapshot grid", requested=t
            )
        return self[k]


def _step_cap(
    x: np.ndarray,
    v: np.ndarray,
    safety: float,
    dist: np.ndarray | None = None,
    work: pairs.Workspace | None = None,
) -> tuple[float, float]:
    """Geometric step bound and current minimum pair distance.

    The bound is ``safety`` times the smallest per-pair closing time
    r_ij / |v_i - v_j|.  It is blind to direction: a pair moving apart or
    passing sideways is bounded by its relative speed like an approaching
    one, and only a pair in lockstep (v_i = v_j) imposes no constraint,
    however close it sits.  Pairing the global minimum
    distance with the global maximum relative speed instead would throttle
    large well-separated clouds to absurdly small steps.

    ``dist`` may carry the pair separations of x already computed
    (pairs.separations, +inf on the diagonal); the integrator passes the
    ones its last force evaluation left behind.  Scratch grids go to the
    workspace ``work`` when one is given.  The closing times are one
    division, and their minimum an np.fmin reduction, which skips the
    0 / 0 of a co-located pair in lockstep.
    """
    if work is None:
        work = pairs.Workspace(x.shape[0])
    if dist is None:
        dist = pairs.separations(x, out=work.dist, scratch=work.a)
    dmin = float(dist.min())
    closing = pairs.closing_times(dist, v, out=work.a, scratch=work.b)
    return safety * float(np.fmin.reduce(closing, axis=None)), dmin


def integrate(
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
    The snapshot grid does not shorten steps: only T is landed on, and a
    snapshot time s inside an accepted step [t, t + h] gets the
    Dormand-Prince interpolant at theta = (s - t) / h, built from the
    step's seven stages; a snapshot at the step's end gets the step's
    5th-order state.  Interpolated snapshots carry an error of order
    ``tol`` and lie inside steps the geometric cap has bounded.  The state
    is a (2, N, d) array of positions and velocities, and one loop over the
    tableau's rows evaluates a step's seven stages; the last row is the
    5th-order weights, so the last stage (first same as last) is at y5.

    A pair with h 2 psi(r) / N >= STIFF_THRESHOLD at the step size h is
    stiff; 3 stays below the explicit step's stability bound of about 3.3.
    The particles of each connected component of stiff pairs take the
    Lawson form of the step, exact in the component's linear relaxation,
    and their snapshots in the step, its end included, come from the
    exponential interpolant; a component of more than STIFF_MAX_MEMBERS
    particles stays explicit.  Without a stiff pair the step is the plain
    Dormand-Prince step.  ``step_stiff`` logs the pairs per step.

    Raises StepCollapse when the required step falls below 1e-12 * T,
    NonFiniteState when the state, a force evaluation or the local error
    estimate stops being finite, and StepBudgetExceeded after
    ``max_steps`` step attempts; it propagates CollisionalState from the
    force evaluation.
    """
    n, d = state0.x.shape
    if (n, d) != (params.N, params.d):
        raise ValueError("state shape does not match params")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    T = float(params.T)
    extra = [] if snapshot_times is None else snapshot_times
    snaps = np.concatenate([[0.0, T], np.asarray(extra, float)])
    # a NaN time fails both comparisons, so it is rejected too
    if not ((snaps >= -1e-15) & (snaps <= T * (1 + 1e-12))).all():
        raise ValueError("snapshot times must lie in [0, T]")
    # clip before de-duplicating, so times within rounding of 0 or T merge
    snaps = sorted_distinct(np.clip(snaps, 0.0, T))

    # states and stages are (2, N, d): positions in row 0, velocities in row 1
    def f(y):
        acc = alignment_rhs(y[0], y[1], params.alpha, work=work)
        if not np.isfinite(acc).all():
            raise NonFiniteState("force evaluation is not finite", time=t)
        return np.array([y[1], acc])

    t = 0.0
    y = np.array([state0.x, state0.v])
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state is not finite", time=0.0)
    # snapshot k goes to xs[k], vs[k]; snaps[0] = 0 is the initial state
    xs = np.empty((len(snaps), n, d))
    vs = np.empty((len(snaps), n, d))
    xs[0], vs[0] = y
    log_t, log_h, log_err, log_dmin, log_stiff = [], [], [], [], []

    # work.dist holds the pair separations of y at the top of every step
    # attempt: the first-same-as-last stage leaves those of the state an
    # accepted step ends in, and a rejection rebuilds them.
    work = pairs.Workspace(n)
    k = [f(y)] + [None] * 6

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
    cap, dmin_now = _step_cap(y[0], y[1], GEOMETRY_SAFETY, dist=work.dist, work=work)

    while t < T:
        if steps >= max_steps:
            raise StepBudgetExceeded(
                "step budget exceeded", time=t, steps=steps, budget=max_steps
            )
        # a rejection leaves h_ctrl below the cap, so this one check also
        # catches a controller that keeps rejecting
        h_free = min(h_ctrl, cap)
        if h_free < h_floor:
            raise StepCollapse(
                "step size fell below the floor",
                time=t,
                step=h_free,
                pair=list(divmod(int(np.argmin(work.dist)), n)),
                distance=dmin_now,
            )
        clamped = h_free >= (T - t) * (1 - 1e-14)
        h = T - t if clamped else h_free
        # h 2 psi(r) / N >= STIFF_THRESHOLD  <=>  r <= r_stiff
        r_stiff = (2.0 * h / (STIFF_THRESHOLD * n)) ** (1.0 / params.alpha)
        lawson = None
        if dmin_now <= r_stiff:
            lawson = _Lawson(y, h, params.alpha, r_stiff, work.dist)
            if not lawson.groups:
                lawson = None

        # after _A's last row, ys is the 5th-order state y5 at t + h, and
        # its stage is reused as the first stage of the next step
        for s in range(1, 7):
            ys = y + h * sum(_A[s][m] * k[m] for m in range(s))
            if lawson is not None:
                lawson.rows(ys, k, s, _A[s])
            k[s] = f(ys)

        err_vec = h * sum(_E[m] * k[m] for m in range(7))
        if lawson is not None:
            lawson.rows(err_vec, k, 6, _E, base=False)
        sc = tol + tol * np.maximum(np.abs(y), np.abs(ys))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not np.isfinite(err):
            raise NonFiniteState(
                "local error estimate is not finite", time=t, step=h
            )

        if err <= 1.0:
            t_new = T if clamped else t + h
            # snapshots in (t, t_new]: interpolated inside, y5 at the end.
            # A Lawson y5 holds h b_5 g_5 in each stiff velocity mode, far
            # from the slaved value the next step damps it to, so the end
            # snapshot of a stiff step is interpolated too.
            stop = int(np.searchsorted(snaps, t_new, side="right"))
            landed = snaps[stop - 1] == t_new and lawson is None
            inner = stop - 1 if landed else stop
            if inner > next_snap:
                theta = (snaps[next_snap:inner] - t) / h
                rows = _dense(y, h, k, theta)
                if lawson is not None:
                    lawson.dense(rows, k, theta)
                xs[next_snap:inner] = rows[:, 0]
                vs[next_snap:inner] = rows[:, 1]
            y = ys
            k[0] = k[6]
            if stop > inner:
                xs[inner], vs[inner] = y
            next_snap = stop
            cap, dmin_now = _step_cap(
                y[0], y[1], GEOMETRY_SAFETY, dist=work.dist, work=work
            )
            log_t.append(t_new)
            log_h.append(h)
            log_err.append(err)
            log_dmin.append(dmin_now)
            log_stiff.append(0 if lawson is None else lawson.pairs)
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
            # the trial stages overwrote y's separations
            pairs.separations(y[0], out=work.dist, scratch=work.a)
        steps += 1

    return Trajectory(
        params=params,
        times=snaps,
        x=xs,
        v=vs,
        step_t=np.array(log_t),
        step_h=np.array(log_h),
        step_err=np.array(log_err),
        step_min_dist=np.array(log_dmin),
        tol=tol,
        step_stiff=np.array(log_stiff, dtype=int),
    )
