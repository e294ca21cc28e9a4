"""Singular-kernel alignment dynamics for N interacting particles.

The system integrated here is first order in position and velocity:

    dx_i/dt = v_i
    dv_i/dt = (1/N) sum_{j != i} |x_i - x_j|^(-alpha) (v_j - v_i)

with communication exponent alpha >= 1, the regime in which trajectories
starting from pairwise-distinct positions stay collision free.  The kernel
is evaluated without regularization by default; close approaches are
handled by the step-size policy, not by smoothing the force law.

Integration uses the Dormand-Prince embedded 5(4) pair with PI step-size
control, plus a geometric cap that keeps each step well below the time a
pair would need to close its current separation at the current relative
speed.  Adaptive steps are free: the snapshot grid does not shorten them,
and only the horizon T is landed on.  A snapshot inside an accepted step
is read off the step's 4th-order continuous extension (Hairer, Norsett and
Wanner, Solving ODEs I, II.6), so it lies inside a step the cap has
already made collision safe.  Fixed-step runs land on every snapshot.

Pair geometry comes from flocklab.pairs and is built one coordinate at a
time as (N, N) arrays.  Force sums run per velocity component along each
row of the (N, N) pair array: blocks of 32 columns are summed along their
contiguous rows (numpy's pairwise reduction) and the block sums are
combined in order with Kahan compensation.  The order depends only on N,
so results do not depend on BLAS threading or thread count, and momentum
cancellation survives long runs.  In d = 1 this is the same order as the
earlier (N, N, d) tensor formulation, bit for bit; in d >= 2 that
formulation summed each block sequentially over j, and results differ from
it by about one ulp.  The stage sums and the interpolant are explicit
ordered sums for the same reason.

The last Dormand-Prince stage of an accepted step is evaluated at the
step's end state, which is the state the geometric cap inspects next; the
cap reuses the pair distances that stage computed instead of rebuilding
them.
"""

from __future__ import annotations

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

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def max_speed(self) -> float:
        return float(np.sqrt((self.v**2).sum(axis=1).max()))


def min_pair_distance(x: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the indices (i < j) achieving it."""
    n = x.shape[0]
    if n < 2:
        return np.inf, (-1, -1)
    dist = pairs.distances(x)
    np.fill_diagonal(dist, np.inf)
    # row-major argmin of the symmetric matrix lands in the upper triangle
    i, j = divmod(int(np.argmin(dist)), n)
    return float(dist[i, j]), (i, j)


def alignment_rhs(
    x: np.ndarray,
    v: np.ndarray,
    alpha: float,
    kernel_floor: float = 0.0,
    work: pairs.Workspace | None = None,
) -> np.ndarray:
    """Velocity derivatives of the alignment system.

    Raises CollisionalState when a pair sits at (numerically) zero
    separation.  The optional kernel_floor clips distances from below
    before the power law is applied; it is off by default and only meant
    for regularization experiments.

    With a workspace ``work`` given, the pair grids are built in its
    buffers, and the pair distances of x are left in ``work.dist``, with
    inf on the diagonal, for reuse by the caller.

    The accumulated pair forces are antisymmetric, so the velocity
    derivatives sum to zero up to the accuracy of compensated summation.
    """
    n, d = x.shape
    if n == 1:
        return np.zeros((1, d))
    if work is None:
        work = pairs.Workspace(n)
    dist = pairs.distances(x, out=work.dist, scratch=work.a)
    np.fill_diagonal(dist, np.inf)
    dmin = float(dist.min())
    if kernel_floor <= 0.0 and dmin <= COLLISION_FLOOR:
        i, j = min_pair_distance(x)[1]
        raise CollisionalState(
            "pair separation at or below the evaluable floor",
            pair=[i, j],
            distance=dmin,
        )
    # pairs.kernel without its masking passes: the diagonal is inf, which
    # the power maps to 0, and without a floor no pair is co-located
    w = dist
    if kernel_floor > 0.0:
        w = np.maximum(dist, kernel_floor, out=work.a)
    w = np.power(w, -alpha, out=work.a)
    return pairs.relative_sums(w, v, scratch=work.b) / n


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
    """(len(theta), len(y)) states y + h sum_m b_m(theta) k_m of one step.

    Every sum runs in a fixed order with elementwise operations only, so
    the bytes do not depend on the BLAS, and each row equals the same
    evaluation at its theta alone.
    """
    th = theta[:, None]
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


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one integration plus its per-step log.

    Snapshots start at t=0 and end at t=T.  In adaptive runs a snapshot
    strictly inside a step is the step's interpolant, accurate to about
    the tolerance; fixed-step runs land on every snapshot.  The log holds,
    per accepted step: end time, step size, local error estimate
    (normalized), and the minimum pair distance at the step's end state.
    Adaptive steps are free steps, sized by the error controller and the
    geometric cap alone, so the log does not follow the snapshot grid.
    """

    params: ModelParams
    snapshots: tuple
    step_t: np.ndarray
    step_h: np.ndarray
    step_err: np.ndarray
    step_min_dist: np.ndarray
    tol: float | None = None
    fixed_step: float | None = None
    kernel_floor: float = 0.0

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def __len__(self) -> int:
        return len(self.snapshots)

    def state_at(self, t: float) -> ParticleState:
        ts = self.times()
        scale = max(1.0, abs(float(t)))
        k = int(np.argmin(np.abs(ts - t)))
        if abs(ts[k] - t) > 1e-9 * scale:
            raise SnapshotMissing(
                "time not on the stored snapshot grid", requested=float(t)
            )
        return self.snapshots[k]


def _step_cap(
    x: np.ndarray,
    v: np.ndarray,
    safety: float,
    kernel_floor: float = 0.0,
    dist: np.ndarray | None = None,
    work: pairs.Workspace | None = None,
) -> tuple[float, float]:
    """Geometric step bound and current minimum pair distance.

    The bound is ``safety`` times the smallest per-pair closing time
    r_ij / |v_i - v_j|, so a pair moving apart (or in lockstep) imposes no
    constraint no matter how close it sits.  Pairing the global minimum
    distance with the global maximum relative speed instead would throttle
    large well-separated clouds to absurdly small steps.

    ``dist`` may carry the pair distances of x already computed (its
    diagonal is ignored); the integrator passes the ones its last force
    evaluation left behind.  Scratch grids go to the workspace ``work``
    when one is given.
    """
    n = x.shape[0]
    if n < 2:
        return np.inf, np.inf
    if work is None:
        work = pairs.Workspace(n)
    if dist is None:
        dist = pairs.distances(x, out=work.dist, scratch=work.a)
    dmin = float(pairs.off_diagonal(dist).min())
    closing = pairs.closing_times(dist, v, kernel_floor, out=work.a, scratch=work.b)
    tau = float(closing.min())
    if tau == np.inf:
        return np.inf, dmin
    return safety * tau, dmin


def integrate(
    state0: ParticleState,
    params: ModelParams,
    tol: float = 1e-8,
    snapshot_times: Sequence[float] | None = None,
    fixed_step: float | None = None,
    geometry_safety: float = 0.2,
    kernel_floor: float = 0.0,
    max_steps: int = 50_000_000,
) -> Trajectory:
    """Integrate the alignment system over [0, T].

    t=0 and t=T are always snapshots.  The adaptive controller keeps the
    normalized local error estimate at or below 1 (absolute and relative
    tolerance both equal to ``tol``); independently, every step is capped
    by  geometry_safety * min over pairs of (separation / closing speed),
    so no pair can close more than a fixed fraction of its gap per step.
    The snapshot grid does not shorten adaptive steps: only T is landed
    on, and a snapshot time s inside an accepted step [t, t + h] gets the
    Dormand-Prince interpolant at theta = (s - t) / h, built from the
    step's seven stages; a snapshot at the step's end gets the step's
    5th-order state.  Interpolated snapshots carry an error of order
    ``tol`` and lie inside steps the geometric cap has bounded.

    With ``fixed_step`` set, adaptivity and the geometric cap are bypassed,
    and the integrator lands on every snapshot time; this mode exists for
    convergence studies on smooth problems.

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
        acc = alignment_rhs(x, v, params.alpha, kernel_floor=kernel_floor, work=work)
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
    if fixed_step is not None:
        h_ctrl = float(fixed_step)
    else:
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
    cap, _ = _step_cap(
        x_now, v_now, geometry_safety, kernel_floor, dist=work.dist, work=work
    )

    while t < T:
        if steps >= max_steps:
            raise StepBudgetExceeded(
                "step budget exceeded", time=t, steps=steps, budget=max_steps
            )
        if fixed_step is not None:
            h_free = h_ctrl
            t_land = snaps[next_snap]
        else:
            h_free = min(h_ctrl, cap)
            t_land = T
            if h_free < h_floor:
                dmin, pair = min_pair_distance(x_now)
                raise StepCollapse(
                    "step size fell below the floor",
                    time=t,
                    step=h_free,
                    pair=list(pair),
                    distance=dmin,
                )
        clamped = h_free >= (t_land - t) * (1 - 1e-14)
        h = t_land - t if clamped else h_free

        for s in range(1, 6):
            ys = y + h * sum(_A[s][m] * k[m] for m in range(s))
            k[s] = f(ys)
        y5 = y + h * sum(_B5[m] * k[m] for m in range(6))
        # _B5[6] = 0; the last stage is evaluated at (t+h, y5) and is
        # reused as the first stage of the next step.
        k[6] = f(y5)

        if fixed_step is not None:
            err = 0.0
            if not np.isfinite(y5).all():
                raise NonFiniteState("state is not finite", time=t, step=h)
        else:
            err_vec = h * sum(_E[m] * k[m] for m in range(7))
            sc = tol + tol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
            if not np.isfinite(err):
                raise NonFiniteState(
                    "local error estimate is not finite", time=t, step=h
                )
        accept = err <= 1.0

        if accept:
            t_new = t_land if clamped else t + h
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
                x_now, v_now, geometry_safety, kernel_floor, dist=work.dist, work=work
            )
            log_t.append(t_new)
            log_h.append(h)
            log_err.append(err)
            log_dmin.append(dmin_new)
            t = t_new
            if next_snap >= len(snaps):
                break
            if fixed_step is None:
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
        snapshots=tuple(snapshots),
        step_t=np.array(log_t),
        step_h=np.array(log_h),
        step_err=np.array(log_err),
        step_min_dist=np.array(log_dmin),
        tol=None if fixed_step is not None else tol,
        fixed_step=fixed_step,
        kernel_floor=kernel_floor,
    )
