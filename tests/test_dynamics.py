"""Particle model and integrator behaviour."""

import numpy as np
import pytest

from flocklab import pairs
from flocklab.dynamics import (
    _P,
    ModelParams,
    ParticleState,
    alignment_rhs,
    integrate,
    min_pair_distance,
)
from flocklab.errors import CollisionalState, SnapshotMissing, StepCollapse
from flocklab.meanfield import InitialSpec, sample_initial
from flocklab.rng import CounterRNG

from oracles import sqrt_fixed_step_snapshots


def random_state(n, d, seed, spread=1.0, vmax=0.5):
    rng = CounterRNG(seed)
    x = rng.uniform(n * d, -spread, spread).reshape(n, d)
    v = rng.uniform(n * d, -vmax, vmax).reshape(n, d)
    return ParticleState(0.0, x, v)


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
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (257, 4)) * 10.0 ** rng.integers(-8, 8, (257, 4))
    got = pairs.row_sums(a.T)
    import math

    want = np.array(
        [math.fsum(a[:, j]) for j in range(a.shape[1])]
    )
    assert np.abs(got - want).max() <= 1e-12 * np.abs(a).sum()


def test_integrator_order_five_fixed_step():
    p = ModelParams(d=1, alpha=1.0, N=2, T=1.0, M=1.0)
    s = ParticleState(0.0, np.array([[-0.3], [0.3]]), np.array([[0.9], [-0.7]]))
    ref = integrate(s, p, fixed_step=1.0 / 4096)
    errs = []
    for m in (4, 8, 16):
        tr = integrate(s, p, fixed_step=1.0 / m)
        errs.append(
            np.abs(tr.snapshots[-1].x - ref.snapshots[-1].x).max()
            + np.abs(tr.snapshots[-1].v - ref.snapshots[-1].v).max()
        )
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 4.3, (errs, orders)


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
    assert np.array_equal(tr.times(), times)
    assert tr.state_at(0.5).t == 0.5
    with pytest.raises(SnapshotMissing):
        tr.state_at(0.55)


def test_max_speed_never_grows():
    for seed in range(6):
        s = random_state(8, 1, seed=seed)
        p = ModelParams(d=1, alpha=1.0, N=8, T=1.0, M=1.0)
        tr = integrate(s, p, tol=1e-9, snapshot_times=np.linspace(0, 1, 20))
        speeds = [st.max_speed() for st in tr.snapshots]
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


def test_step_collapse_near_sticking():
    # Head-on pair at very small gap with alpha = 2: forced tiny caps.
    p = ModelParams(d=1, alpha=2.0, N=2, T=10.0, M=2.0)
    s = ParticleState(
        0.0, np.array([[-5e-7], [5e-7]]), np.array([[1.0], [-1.0]])
    )
    with pytest.raises((StepCollapse, CollisionalState)):
        integrate(s, p, tol=1e-6)


def test_min_pair_distance_reports_pair():
    x = np.array([[0.0], [3.0], [3.05]])
    dmin, pair = min_pair_distance(x)
    assert dmin == pytest.approx(0.05)
    assert pair == (1, 2)


def test_kernel_floor_changes_dynamics_and_is_recorded():
    p = ModelParams(d=1, alpha=1.0, N=2, T=0.5, M=1.0)
    s = ParticleState(0.0, np.array([[-0.05], [0.05]]), np.array([[0.4], [-0.4]]))
    plain = integrate(s, p, tol=1e-10)
    floored = integrate(s, p, tol=1e-10, kernel_floor=0.5)
    assert floored.kernel_floor == 0.5
    assert plain.kernel_floor == 0.0
    assert not np.allclose(plain.snapshots[-1].v, floored.snapshots[-1].v)


# ---- snapshots from the continuous extension ----


def test_interpolant_coefficients_are_scipys():
    from scipy.integrate._ivp.rk import RK45

    assert np.array_equal(_P, RK45.P)


@pytest.mark.parametrize("d,alpha", [(1, 1.0), (2, 1.5)])
def test_dense_snapshots_match_landed_runs(d, alpha):
    # a run with horizon t_k lands on t_k; the dense run interpolates it
    tol = 1e-8
    s = random_state(6, d, seed=20 + d)
    times = np.linspace(0.0, 1.0, 17)
    p = ModelParams(d=d, alpha=alpha, N=6, T=1.0, M=1.0)
    dense = integrate(s, p, tol=tol, snapshot_times=times)
    for t_k in times[[3, 8, 13]]:
        landed = integrate(
            s, ModelParams(d=d, alpha=alpha, N=6, T=float(t_k), M=1.0), tol=tol
        )
        got, want = dense.state_at(t_k), landed.snapshots[-1]
        assert np.abs(got.x - want.x).max() <= 10 * tol
        assert np.abs(got.v - want.v).max() <= 10 * tol


def test_fixed_step_snapshots_land_on_the_grid_bit_for_bit():
    s = random_state(7, 2, seed=31)
    times = np.linspace(0.0, 0.5, 7)
    p = ModelParams(d=2, alpha=1.5, N=7, T=0.5, M=1.0)
    tr = integrate(s, p, fixed_step=0.03, snapshot_times=times)
    t_want, x_want, v_want = sqrt_fixed_step_snapshots(
        s.x, s.v, 1.5, 0.5, 0.03, times
    )
    assert np.array_equal(tr.times(), t_want)
    assert np.array_equal(np.stack([st.x for st in tr.snapshots]), x_want)
    assert np.array_equal(np.stack([st.v for st in tr.snapshots]), v_want)


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
