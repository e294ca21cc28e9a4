"""Particle model and integrator behaviour."""

import math

import numpy as np
import pytest

from flocklab import dynamics, pairs
from flocklab.dynamics import (
    _A,
    _B5,
    _C,
    _E,
    _P,
    ModelParams,
    ParticleState,
    _components,
    _laplacian_modes,
    _phi,
    _step_cap,
    alignment_rhs,
    integrate,
)
from flocklab.errors import CollisionalState, SnapshotMissing, StepCollapse
from flocklab.meanfield import InitialSpec, sample_initial
from flocklab.rng import CounterRNG

from oracles import dp5_integrate, min_pair_distance
from test_pairs import row_reduction


def random_state(n, d, seed, spread=1.0, vmax=0.5):
    rng = CounterRNG(seed)
    x = rng.uniform(n * d, -spread, spread).reshape(n, d)
    v = rng.uniform(n * d, -vmax, vmax).reshape(n, d)
    return ParticleState(0.0, x, v)


def planted_state(n, d, seed, gaps):
    """random_state with particles 1, 2, ... placed in a chain after
    particle 0 at the given gaps, along the diagonal."""
    s = random_state(n, d, seed)
    x = s.x.copy()
    for k, gap in enumerate(gaps):
        x[k + 1] = x[k] + gap / np.sqrt(d)
    return ParticleState(0.0, x, s.v)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(d=1, alpha=0.5, N=2, T=1.0, M=1.0)
    with pytest.raises(ValueError):
        ModelParams(d=0, alpha=1.0, N=2, T=1.0, M=1.0)
    with pytest.raises(ValueError):
        ModelParams(d=1, alpha=1.0, N=2, T=-1.0, M=1.0)
    p = ModelParams(d=2, alpha=2.0, N=4, T=1.0, M=1.0)
    assert p.monokinetic_regime and p.meanfield_regime
    q = ModelParams(d=2, alpha=1.0, N=4, T=1.0, M=1.0)
    assert not q.monokinetic_regime


def test_rhs_two_body_hand_computed():
    # dv_1 = (1/2) |x1-x2|^(-alpha) (v2 - v1), and the mirror image.
    x = np.array([[0.0], [0.5]])
    v = np.array([[1.0], [-1.0]])
    acc = alignment_rhs(x, v, alpha=1.0)
    want = 0.5 * (1 / 0.5) * (-2.0)
    assert acc[0, 0] == pytest.approx(want, abs=1e-15)
    assert acc[1, 0] == pytest.approx(-want, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_particle_feels_no_force_and_no_cap(d):
    # the self-pair is +inf, so the general path gives +0.0 and (inf, inf)
    x = np.full((1, d), 0.25)
    v = np.full((1, d), -1.5)
    acc = alignment_rhs(x, v, alpha=1.5)
    assert acc.shape == (1, d)
    assert np.array_equal(acc, np.zeros((1, d)))
    assert not np.signbit(acc).any()
    assert _step_cap(x, v) == (np.inf, np.inf)


def test_rhs_force_sum_vanishes():
    s = random_state(17, 3, seed=5)
    acc = alignment_rhs(s.x, s.v, alpha=1.5)
    assert np.abs(acc.sum(axis=0)).max() < 1e-15


def test_rhs_collision_raises():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    v = np.zeros((3, 2))
    with pytest.raises(CollisionalState):
        alignment_rhs(x, v, alpha=1.0)


def test_compensated_sum_matches_exact():
    # the row reduction of the force sums against exact sums
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (257, 4)) * 10.0 ** rng.integers(-8, 8, (257, 4))
    got = row_reduction(a.T)
    want = np.array([math.fsum(a[:, j]) for j in range(a.shape[1])])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(a).sum()


def test_adaptive_tracks_reference():
    p = ModelParams(d=2, alpha=1.0, N=6, T=1.0, M=1.0)
    s = random_state(6, 2, seed=11)
    tr = integrate(s, p, tol=1e-10)
    ref = integrate(s, p, tol=1e-13)
    err = np.abs(tr.snapshots[-1].x - ref.snapshots[-1].x).max()
    assert err < 1e-7


def test_snapshot_grid_is_exact():
    p = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=1.0)
    s = random_state(3, 1, seed=2)
    times = np.linspace(0.0, 1.0, 11)
    tr = integrate(s, p, tol=1e-8, snapshot_times=times)
    assert np.array_equal(tr.times, times)
    assert tr.state_at(0.5).t == 0.5
    with pytest.raises(SnapshotMissing):
        tr.state_at(0.55)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_has_no_snapshot(t):
    p = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=1.0)
    tr = integrate(random_state(3, 1, seed=2), p, snapshot_times=[0.5])
    with pytest.raises(SnapshotMissing):
        tr.state_at(t)


@pytest.mark.parametrize("tol", [-1e-6, 0.0, math.inf, math.nan])
def test_tolerance_must_be_positive_and_finite(tol):
    p = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=1.0)
    with pytest.raises(ValueError, match="tol"):
        integrate(random_state(3, 1, seed=2), p, tol=tol)


@pytest.mark.parametrize("t0", [7.0, 1e-300, math.nan])
def test_start_state_must_be_at_time_zero(t0):
    # the trajectory is stamped from t = 0 over [0, T]; a state at another
    # time would be integrated as if it were the initial one
    p = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=1.0)
    s = random_state(3, 1, seed=2)
    with pytest.raises(ValueError, match="t = 0"):
        integrate(ParticleState(t0, s.x, s.v), p)


def test_snapshot_times_within_rounding_of_the_ends_merge():
    p = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=1.0)
    s = random_state(3, 1, seed=2)
    for times in ([0.5, 1 + 1e-13], [-1e-16, 0.5]):
        tr = integrate(s, p, tol=1e-8, snapshot_times=times)
        assert tr.times.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        integrate(s, p, snapshot_times=[0.5, 1 + 1e-9])


def test_nan_snapshot_time_is_rejected():
    # NaN fails every comparison, so a range check alone would let it
    # through as an extra snapshot row at t = nan
    p = ModelParams(d=1, alpha=1.0, N=2, T=0.1, M=1.0)
    s = random_state(2, 1, seed=2)
    for times in ([math.nan], [0.05, math.nan]):
        with pytest.raises(ValueError, match="snapshot times"):
            integrate(s, p, snapshot_times=times)


def max_speed(state: ParticleState) -> float:
    return float(np.sqrt((state.v**2).sum(axis=1).max()))


def test_max_speed_never_grows():
    for seed in range(6):
        s = random_state(8, 1, seed=seed)
        p = ModelParams(d=1, alpha=1.0, N=8, T=1.0, M=1.0)
        tr = integrate(s, p, tol=1e-9, snapshot_times=np.linspace(0, 1, 20))
        speeds = [max_speed(st) for st in tr.snapshots]
        assert max(speeds) <= speeds[0] + 10 * 1e-9
        diffs = np.diff(speeds)
        assert diffs.max() <= 1e-8


def test_collision_avoidance_random_states():
    for seed in range(8):
        alpha = [1.0, 1.5, 2.0][seed % 3]
        s = random_state(6, 1, seed=100 + seed)
        p = ModelParams(d=1, alpha=alpha, N=6, T=1.0, M=1.0)
        tr = integrate(s, p, tol=1e-8)
        assert tr.step_min_dist.min() > 0.0


def test_momentum_conserved():
    s = random_state(10, 2, seed=4)
    p = ModelParams(d=2, alpha=1.5, N=10, T=1.0, M=1.0)
    tr = integrate(s, p, tol=1e-9)
    p0 = s.v.sum(axis=0)
    p1 = tr.snapshots[-1].v.sum(axis=0)
    assert np.abs(p1 - p0).max() < 1e-12


def head_on_pair(gap, w0):
    """Two particles gap apart in d = 1, closing at relative speed w0."""
    return ParticleState(
        0.0, np.array([[-gap / 2], [gap / 2]]), np.array([[w0 / 2], [-w0 / 2]])
    )


def test_step_collapse_forced_by_the_geometric_cap():
    # closing time 5e-14, so the cap asks for steps below the floor 1e-11
    p = ModelParams(d=1, alpha=1.0, N=2, T=10.0, M=2.0)
    with pytest.raises(StepCollapse):
        integrate(head_on_pair(1e-13, 2.0), p, tol=1e-6)
    # behind a far particle 0 the error names the pair (1, 2) and its gap
    pair = head_on_pair(1e-13, 2.0)
    s = ParticleState(
        0.0, np.vstack([[-5.0], pair.x]), np.vstack([[0.0], pair.v])
    )
    p = ModelParams(d=1, alpha=1.0, N=3, T=10.0, M=6.0)
    with pytest.raises(StepCollapse) as err:
        integrate(s, p, tol=1e-6)
    assert err.value.detail["pair"] == [1, 2]
    assert err.value.detail["distance"] == min_pair_distance(s.x)[0]


def test_stiff_steps_after_a_rejection_read_the_retried_state(monkeypatch):
    # a rejected attempt leaves its trial stages' separations in the
    # workspace; the retry's stiff set-up must see those of its own state
    seen, rhs_calls = [], [0]

    class Checked(dynamics._Lawson):
        def __init__(self, y, h, alpha, r_stiff, dist):
            seen.append(np.array_equal(dist, pairs.separations(y[0])))
            super().__init__(y, h, alpha, r_stiff, dist)

    def counted(*args, **kwargs):
        rhs_calls[0] += 1
        return alignment_rhs(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_Lawson", Checked)
    monkeypatch.setattr(dynamics, "alignment_rhs", counted)
    p = ModelParams(d=1, alpha=2.0, N=11, T=0.1, M=2.0)
    tr = integrate(planted_state(11, 1, 1, [1e-4, 2e-4]), p, tol=1e-3)
    assert rhs_calls[0] > 1 + 6 * len(tr.step_t)  # at least one rejection
    assert len(seen) > 0 and all(seen)


@pytest.mark.parametrize("r0,w0,alpha", [(1e-6, 2.0, 2.0), (1e-4, 1.0, 1.0),
                                         (1e-8, 2.0, 1.5)])
def test_sticking_pair_matches_closed_form(r0, w0, alpha):
    # For N = 2, w' = -psi(r) w and r' = -w, so dw/dr = psi(r): the pair
    # sticks where the integral of psi from r0 reaches -w0.
    tol = 1e-6
    p = ModelParams(d=1, alpha=alpha, N=2, T=10.0, M=2.0)
    tr = integrate(head_on_pair(r0, w0), p, tol=tol)
    if alpha == 1.0:
        r_star = r0 * np.exp(-w0)
    else:
        r_star = (r0 ** (1 - alpha) + (alpha - 1) * w0) ** (1 / (1 - alpha))
    end = tr.snapshots[-1]
    assert abs((end.x[1, 0] - end.x[0, 0]) / r_star - 1.0) <= 10 * tol
    assert abs(end.v[0, 0] - end.v[1, 0]) <= 1e-12
    assert tr.step_stiff.max() == 1


def test_min_pair_distance_reports_pair():
    x = np.array([[0.0], [3.0], [3.05]])
    dmin, pair = min_pair_distance(x)
    assert dmin == pytest.approx(0.05)
    assert pair == (1, 2)


# ---- snapshots from the continuous extension ----


def test_tableau_is_scipys():
    # scipy's RK45 is the same Dormand-Prince 5(4) pair without the
    # first-same-as-last stage (node 1, weight 0, row _A[6] = B); its E is
    # the embedded minus the 5th-order weights, the negative of _E
    from scipy.integrate._ivp.rk import RK45

    a = np.zeros((6, 5))
    for s in range(1, 6):
        a[s, :s] = _A[s]
    assert np.array_equal(a, RK45.A)
    assert np.array_equal(_A[6], RK45.B)
    assert np.array_equal(_B5, np.append(RK45.B, 0.0))
    assert np.array_equal(_C, np.append(RK45.C, 1.0))
    assert np.array_equal(_E, -RK45.E)


def test_interpolant_coefficients_are_scipys():
    from scipy.integrate._ivp.rk import RK45

    assert np.array_equal(_P, RK45.P)


@pytest.mark.parametrize("d,alpha,gap", [
    pytest.param(1, 1.0, None, id="1-1.0"),
    pytest.param(2, 1.5, None, id="2-1.5"),
    pytest.param(2, 1.5, 1e-3, id="2-1.5-planted-pair"),
])
def test_dense_snapshots_match_landed_runs(d, alpha, gap):
    # a run with horizon t_k lands on t_k; the dense run interpolates it
    tol = 1e-8
    s = random_state(6, d, seed=20 + d)
    if gap is not None:
        s = planted_state(6, d, seed=20 + d, gaps=[gap])
    times = np.linspace(0.0, 1.0, 17)
    p = ModelParams(d=d, alpha=alpha, N=6, T=1.0, M=1.0)
    dense = integrate(s, p, tol=tol, snapshot_times=times)
    if gap is not None:
        assert dense.step_stiff.any()
        want = dp5_integrate(s, p, tol=1e-11, snapshot_times=times)
        for got, ref in ((dense.x, want.x), (dense.v, want.v)):
            assert np.abs(got - ref).max() <= 10 * tol
    for t_k in times[[3, 8, 13]]:
        landed = integrate(
            s, ModelParams(d=d, alpha=alpha, N=6, T=float(t_k), M=1.0), tol=tol
        )
        got, want = dense.state_at(t_k), landed.snapshots[-1]
        assert np.abs(got.x - want.x).max() <= 10 * tol
        assert np.abs(got.v - want.v).max() <= 10 * tol


def test_snapshot_grid_does_not_change_the_steps():
    # the N = 25 rung of the d = 1 refinement ladder with its 65-point grid
    spec = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
        seed=2,
    )
    x0, v0 = sample_initial(spec, 25, bound=2.0)
    s = ParticleState(0.0, x0, v0)
    p = ModelParams(d=1, alpha=1.0, N=25, T=0.25, M=2.0)
    gridded = integrate(s, p, tol=1e-6, snapshot_times=np.linspace(0, 0.25, 65))
    free = integrate(s, p, tol=1e-6)
    assert len(gridded) == 65
    assert len(gridded.step_t) == len(free.step_t) < 64
    assert np.array_equal(gridded.step_t, free.step_t)
    assert np.array_equal(gridded.snapshots[-1].x, free.snapshots[-1].x)
    assert np.array_equal(gridded.snapshots[-1].v, free.snapshots[-1].v)


# ---- stiff close pairs: exponential steps ----


def test_components_join_chains_and_skip_loners():
    close = np.eye(7, dtype=bool)
    for i, j in ((5, 3), (3, 1), (0, 4), (6, 1)):
        close[i, j] = close[j, i] = True
    # one (C, m) array per component size m
    got = [c.tolist() for c in _components(close)]
    assert got == [[[0, 4]], [[1, 3, 5, 6]]]
    assert _components(np.eye(3, dtype=bool)) == []


@pytest.mark.parametrize("m", [2, 3, 6])
def test_laplacian_modes_diagonalise_the_laplacian(m):
    # a stack of three weight matrices, diagonalised together
    rng = np.random.default_rng(m)
    w = 10.0 ** rng.uniform(-2, 6, (3, m, m))
    w = np.triu(w, 1) + np.swapaxes(np.triu(w, 1), 1, 2)
    qs, mus = _laplacian_modes(w)
    for wc, q, mu in zip(w, qs, mus):
        lap = np.diag(wc.sum(axis=1)) - wc
        assert mu[0] == 0.0 and mu[1:].min() > 0.0
        assert np.abs(q[:, 0] - m**-0.5).max() <= 1e-15
        assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-14
        err = np.abs(q @ np.diag(mu) @ q.T - lap).max()
        assert err <= 1e-13 * np.abs(lap).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matches_dp5_bit_for_bit_without_stiff_pairs(d):
    s = random_state(9, d, seed=40 + d)
    p = ModelParams(d=d, alpha=1.5, N=9, T=1.0, M=1.0)
    times = np.linspace(0.0, 1.0, 13)
    got = integrate(s, p, tol=1e-9, snapshot_times=times)
    want = dp5_integrate(s, p, tol=1e-9, snapshot_times=times)
    assert not got.step_stiff.any()
    assert np.array_equal(got.times, want.times)
    for a, b in ((got.x, want.x), (got.v, want.v)):
        assert np.array_equal(a, b)
    for name in ("step_t", "step_h", "step_err", "step_min_dist"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def assert_close_to_tight_dp5(s, p, times, tol):
    """integrate at tol against explicit steps at 1e-11, to 10 tol, with
    momentum kept and kinetic energy never rising; returns the run."""
    got = integrate(s, p, tol=tol, snapshot_times=times)
    want = dp5_integrate(s, p, tol=1e-11, snapshot_times=times)
    xg, vg, xw, vw = got.x, got.v, want.x, want.v
    assert np.abs(xg - xw).max() <= 10 * tol
    assert np.abs(vg - vw).max() <= 10 * tol
    assert np.abs(vg.sum(axis=1) - s.v.sum(axis=0)).max() <= 1e-10 * p.N * p.M
    assert np.diff((vg**2).sum(axis=(1, 2))).max() <= 0.0
    return got


@pytest.mark.parametrize("d,alpha,gaps,pairs", [
    (1, 1.0, [1e-3], 1),
    (1, 1.5, [1e-3, 1e-3], 3),
    (1, 2.0, [1e-2, 1e-2], 3),
    (2, 1.0, [3e-4], 1),
    (2, 1.5, [1e-3, 1e-3], 3),
    (2, 2.0, [1e-2], 1),
])
def test_planted_close_pairs_match_tight_dp5(d, alpha, gaps, pairs):
    # a pair or a three-particle chain; pairs counts the pairs of the
    # largest stiff component
    s = planted_state(8, d, seed=4, gaps=gaps)
    p = ModelParams(d=d, alpha=alpha, N=8, T=0.5, M=2.0)
    got = assert_close_to_tight_dp5(s, p, np.linspace(0.0, 0.5, 17), 1e-8)
    assert got.step_stiff.max() == pairs


def test_components_above_the_size_cap_stay_explicit(monkeypatch):
    # the three-particle chain with the cap at two members: its pairs turn
    # stiff together, so every step stays explicit, as in the oracle
    monkeypatch.setattr(dynamics, "STIFF_MAX_MEMBERS", 2)
    s = planted_state(8, 1, seed=4, gaps=[1e-3, 1e-3])
    p = ModelParams(d=1, alpha=1.5, N=8, T=0.5, M=2.0)
    times = np.linspace(0.0, 0.5, 17)
    got = integrate(s, p, tol=1e-8, snapshot_times=times)
    assert not got.step_stiff.any()
    want = dp5_integrate(s, p, tol=1e-8, snapshot_times=times)
    for a, b in ((got.x, want.x), (got.v, want.v)):
        assert np.array_equal(a, b)


def test_refinement_rung_with_a_stiff_pair_matches_tight_dp5():
    # the N = 200 rung of the d = 1 refinement ladder: closest gap 2e-6
    spec = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
        seed=2,
    )
    x0, v0 = sample_initial(spec, 200, bound=2.0)
    p = ModelParams(d=1, alpha=1.0, N=200, T=0.25, M=2.0)
    got = assert_close_to_tight_dp5(
        ParticleState(0.0, x0, v0), p, np.linspace(0, 0.25, 65), 1e-6
    )
    # explicit steps take 370 here, held to the pair's stability limit
    assert got.step_stiff.any() and len(got.step_t) < 20


def test_phi_functions_match_high_precision():
    # phi_k(z) = (e^z - sum_{i < k} z^i / i!) / z^k, in 100-digit decimals
    from decimal import Decimal, localcontext

    z = np.array([-300.0, -7.0, -1.0, -0.999, -0.3, -1e-9, 0.0, 0.5])
    got = _phi(z, 5)
    with localcontext() as ctx:
        ctx.prec = 100
        for k in range(6):
            for zi, g in zip(z, got[k]):
                zd = Decimal(float(zi))
                if zi == 0.0:
                    want = 1.0 / math.factorial(k)
                else:
                    head = sum(zd**i / math.factorial(i) for i in range(k))
                    want = float((zd.exp() - head) / zd**k)
                assert abs(g - want) <= 2e-15 * want, (k, zi)
