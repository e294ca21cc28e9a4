"""Test functions, certified bounds, and weak-identity residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.errors import GridMismatch
from flocklab.meanfield import FieldGrid, local_fields
from flocklab.pairs import distances, kernel
from flocklab.rng import CounterRNG
from flocklab.weakform import (
    FieldBattery,
    MacroTestFunction,
    TestFunction,
    VectorTestFunction,
    continuity_residual,
    cumulative_trapezoid,
    dissipation_margin,
    kinetic_battery,
    kinetic_weak_residual,
    kinetic_weak_residuals,
    macro_battery,
    momentum_residual,
    vector_battery,
)

from oracles import (
    from_particles,
    loop_continuity_residual,
    loop_dissipation_margin,
    loop_momentum_residual,
    macro_dt,
    macro_grad_x,
    macro_value,
    method_kinetic_residuals,
    phase_dt,
    phase_grad_v,
    phase_grad_x,
    phase_value,
)

EPS = np.finfo(float).eps
# The battery pass sums the pair terms over atoms against one pull vector
# per snapshot, the oracles over pairs: the two agree to C_EPS rounding
# units of the identity's magnitude with absolute values inside every sum.
C_EPS = 8


def grid(h, d, mass, velocity, barycenter):
    """A field grid with the given cell rows and no in-cell variance."""
    mass = np.asarray(mass, float)
    return FieldGrid(
        h=h,
        d=d,
        barycenter=np.asarray(barycenter, float).reshape(-1, d),
        velocity=np.asarray(velocity, float).reshape(-1, d),
        mass=mass,
        cov_trace=np.zeros_like(mass),
    )


def with_ghost(g, velocity, barycenter):
    """g plus one zero-mass cell at the given row."""
    return grid(
        g.h,
        g.d,
        np.append(g.mass, 0.0),
        np.vstack([g.velocity, velocity]),
        np.vstack([g.barycenter, barycenter]),
    )


def sample_functions(d=2, T=1.0, M=2.0):
    return kinetic_battery(d, T, M, size=6, seed=3)


# ---- derivative and bound certification ----


@pytest.mark.parametrize("idx", range(6))
def test_gradients_match_finite_differences(idx):
    d = 2
    phi = sample_functions(d=d)[idx]
    rng = CounterRNG(90 + idx)
    t = 0.3
    x = rng.uniform(8 * d, -2.5, 2.5).reshape(8, d)
    v = rng.uniform(8 * d, -2.5, 2.5).reshape(8, d)
    h = 1e-6

    def value(t, x, v):
        return phase_value(phi, t, x, v)

    dt_fd = (value(t + h, x, v) - value(t - h, x, v)) / (2 * h)
    assert np.allclose(phase_dt(phi, t, x, v), dt_fd, atol=1e-7)

    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        gx_fd = (value(t, x + e, v) - value(t, x - e, v)) / (2 * h)
        assert np.allclose(phase_grad_x(phi, t, x, v)[:, k], gx_fd, atol=1e-7)
        gv_fd = (value(t, x, v + e) - value(t, x, v - e)) / (2 * h)
        assert np.allclose(phase_grad_v(phi, t, x, v)[:, k], gv_fd, atol=1e-7)


def test_macro_gradients_match_finite_differences():
    phi = macro_battery(2, 1.0, 2.0, size=3, seed=8)[2]
    rng = CounterRNG(17)
    x = rng.uniform(12, -2.0, 2.0).reshape(6, 2)
    h = 1e-6
    t = 0.4
    dt_fd = (macro_value(phi, t + h, x) - macro_value(phi, t - h, x)) / (2 * h)
    assert np.allclose(macro_dt(phi, t, x), dt_fd, atol=1e-7)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (macro_value(phi, t, x + e) - macro_value(phi, t, x - e)) / (2 * h)
        assert np.allclose(macro_grad_x(phi, t, x)[:, k], fd, atol=1e-7)


def test_certified_bounds_hold_on_samples():
    d, T, M = 2, 0.8, 1.5
    rng = CounterRNG(5)
    pts = rng.uniform(4000 * d, -2 * M * (1 + T), 2 * M * (1 + T)).reshape(-1, d)
    vel = rng.uniform(pts.shape[0] * d, -2 * M, 2 * M).reshape(-1, d)
    for phi in kinetic_battery(d, T, M, size=12, seed=21):
        assert max(phi.sup_value, phi.lip_x, phi.lip_v) == pytest.approx(1.0)
        for t in (0.0, 0.3, 0.79):
            vals = phase_value(phi, t, pts, vel)
            assert np.abs(vals).max() <= phi.sup_value + 1e-12
            assert np.abs(phase_dt(phi, t, pts, vel)).max() <= phi.sup_dt + 1e-12
            gx = np.linalg.norm(phase_grad_x(phi, t, pts, vel), axis=1)
            assert gx.max() <= phi.lip_x + 1e-12
            gv = np.linalg.norm(phase_grad_v(phi, t, pts, vel), axis=1)
            assert gv.max() <= phi.lip_v + 1e-12


def test_macro_certified_bounds_hold_on_samples():
    d, T, M = 2, 0.8, 1.5
    rng = CounterRNG(6)
    pts = rng.uniform(4000 * d, -2 * M * (1 + T), 2 * M * (1 + T)).reshape(-1, d)
    for phi in macro_battery(d, T, M, size=12, seed=21):
        assert max(phi.sup_value, phi.lip_x) == pytest.approx(1.0)
        for t in (0.0, 0.3, 0.79):
            assert np.abs(macro_value(phi, t, pts)).max() <= phi.sup_value + 1e-12
            assert np.abs(macro_dt(phi, t, pts)).max() <= phi.sup_dt + 1e-12
            gx = np.linalg.norm(macro_grad_x(phi, t, pts), axis=1)
            assert gx.max() <= phi.lip_x + 1e-12


def test_supports_contained():
    d, T, M = 2, 0.5, 1.0
    for phi in kinetic_battery(d, T, M, size=12, seed=2):
        # outside the declared phase-space support everything vanishes
        far_x = np.array([[2 * M * (1 + T) + 0.1, 0.0]])
        any_v = np.array([[0.3, -0.2]])
        assert np.linalg.norm(phi.x_center) + phi.x_radius <= 2 * M * (1 + T) + 1e-12
        assert phase_value(phi, 0.1, far_x, any_v)[0] == 0.0
        far_v = np.array([[0.0, 2 * M + 0.1]])
        some_x = phi.x_center[None, :]
        assert phase_value(phi, 0.1, some_x, far_v)[0] == 0.0
        # and at the final time the window has died
        assert phase_value(phi, T, some_x, np.zeros((1, 2)))[0] == 0.0


def test_battery_reproducible_and_kinds_cycle():
    a = kinetic_battery(2, 1.0, 2.0, size=8, seed=7)
    b = kinetic_battery(2, 1.0, 2.0, size=8, seed=7)
    c = kinetic_battery(2, 1.0, 2.0, size=8, seed=8)
    kinds = [f.v_kind for f in a]
    assert kinds[:5] == ["const", "linear", "linear", "energy", "bump"]
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.x_center, fb.x_center)
        assert fa.x_radius == fb.x_radius
    assert any(
        not np.array_equal(fa.x_center, fc.x_center) for fa, fc in zip(a, c)
    )
    vb = vector_battery(3, 1.0, 2.0, size=6, seed=1)
    assert [f.component for f in vb] == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_linear_v_component_out_of_range_rejected(k):
    with pytest.raises(ValueError):
        TestFunction(2, 1.0, np.zeros(2), 1.0, v_kind="linear", v_component=k)


@pytest.mark.parametrize("k", [1.7, 1.0, "1", None])
def test_component_that_is_not_an_integer_rejected(k):
    # int(1.7) would quietly test component 1
    for kind in ("linear", "const"):
        with pytest.raises(ValueError, match="must be an integer in"):
            TestFunction(2, 1.0, np.zeros(2), 1.0, v_kind=kind, v_component=k)
    with pytest.raises(ValueError, match="must be an integer in"):
        VectorTestFunction(MacroTestFunction(2, 1.0, np.zeros(2), 1.0), k)
    # numpy integers are integers
    phi = VectorTestFunction(MacroTestFunction(2, 1.0, np.zeros(2), 1.0), np.int64(1))
    assert phi.component == 1 and type(phi.component) is int


@pytest.mark.parametrize("seed", [3, 9])
@pytest.mark.parametrize("battery", [kinetic_battery, macro_battery])
def test_battery_supports_inside_ball_at_small_horizon(battery, seed):
    # in d = 3 a corner center leaves r_cap below 0.4 M when T is small;
    # seeds 3 and 9 each draw such a center within 480 functions
    d, T, M = 3, 0.01, 2.0
    for phi in battery(d, T, M, size=480, seed=seed):
        assert 0.0 < phi.x_radius
        assert np.linalg.norm(phi.x_center) + phi.x_radius <= 2 * M * (1 + T)


@pytest.mark.parametrize("d", [1, 2])
def test_battery_radii_unchanged_in_low_dimension(d):
    # for d <= 2 every r_cap is above 0.4 M, so the draw is U(0.4 M, r_cap)
    T, M = 0.01, 2.0
    for i, phi in enumerate(macro_battery(d, T, M, size=48, seed=5)):
        sub = CounterRNG(5).spawn(i)
        center = sub.uniform(d, -M, M)
        r_cap = min((1 + T) * M, 2 * (1 + T) * M - np.linalg.norm(center))
        assert r_cap > 0.4 * M
        assert phi.x_radius == float(sub.uniform(1, 0.4 * M, r_cap)[0])


def test_battery_without_room_for_a_bump_rejected():
    # in d = 16 most centers of [-M, M]^d lie outside B(0, 2 M (1 + T))
    with pytest.raises(ValueError):
        macro_battery(16, 0.01, 1.0, size=8, seed=0)


# ---- kinetic residual ----


def residual_at_resolution(m):
    params = ModelParams(d=1, alpha=1.5, N=2, T=0.5, M=2.0)
    x = np.array([[-0.5], [0.5]])
    v = np.array([[0.4], [-0.4]])
    traj = integrate(
        ParticleState(0.0, x, v),
        params,
        tol=1e-12,
        snapshot_times=np.linspace(0.0, 0.5, m),
    )
    phi = kinetic_battery(1, 0.5, 2.0, size=5, seed=11)[4]
    return kinetic_weak_residual(traj, phi)


def test_kinetic_residual_second_order_in_snapshots():
    r1 = residual_at_resolution(21)
    r2 = residual_at_resolution(41)
    r3 = residual_at_resolution(81)
    assert r2 < r1 and r3 < r2
    order = math.log2(r1 / r3) / 2
    assert order > 1.7


def test_kinetic_residual_free_particle():
    params = ModelParams(d=1, alpha=1.0, N=1, T=0.5, M=2.0)
    traj_c = integrate(
        ParticleState(0.0, np.array([[0.0]]), np.array([[0.6]])),
        params,
        tol=1e-12,
        snapshot_times=np.linspace(0.0, 0.5, 11),
    )
    traj_f = integrate(
        ParticleState(0.0, np.array([[0.0]]), np.array([[0.6]])),
        params,
        tol=1e-12,
        snapshot_times=np.linspace(0.0, 0.5, 41),
    )
    phi = kinetic_battery(1, 0.5, 2.0, size=6, seed=4)[5]
    rc = kinetic_weak_residual(traj_c, phi)
    rf = kinetic_weak_residual(traj_f, phi)
    assert rf < rc / 8  # pure quadrature error, second order


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kinetic_battery_matches_method_oracle(d):
    # the battery builds each function's pieces once per snapshot and each
    # velocity plateau once; every residual agrees with the per-method loop's
    n = 6
    rng = CounterRNG(d)
    x = rng.uniform(n * d, -0.8, 0.8).reshape(n, d)
    v = rng.uniform(n * d, -0.5, 0.5).reshape(n, d)
    traj = integrate(
        ParticleState(0.0, x, v),
        ModelParams(d=d, alpha=1.5, N=n, T=0.4, M=2.0),
        tol=1e-6,
        snapshot_times=np.linspace(0.0, 0.4, 5),
    )
    phis = kinetic_battery(d, 0.4, 2.0, size=2 * (d + 3), seed=5)
    # a second plateau whose transition band the velocities reach
    for kind in ("const", "linear", "energy"):
        phis.append(
            TestFunction(
                d, 0.4, np.zeros(d), 1.5, kind, v_plateau=(0.3, 0.9), v_component=d - 1
            )
        )
    assert {phi.v_kind for phi in phis} == {"const", "linear", "energy", "bump"}
    got = kinetic_weak_residuals(traj, phis)
    err = np.abs(np.subtract(got, method_kinetic_residuals(traj, phis)))
    scale = np.array([kinetic_scale(traj, phi) for phi in phis])
    assert np.all(err <= C_EPS * EPS * scale)


def kinetic_scale(traj, phi) -> float:
    """Sum of |phi0|, |int A| and 1/2 |int B| of the kinetic identity with
    absolute values taken inside every sum, from the oracle evaluators."""
    m = 1.0 / traj.params.N
    a_abs, b_abs = [], []
    for t, x, v in zip(traj.times, traj.x, traj.v):
        gx, gv = phase_grad_x(phi, t, x, v), phase_grad_v(phi, t, x, v)
        dt = phase_dt(phi, t, x, v)
        a_abs.append(m * (np.abs(dt) + np.abs(v * gx).sum(1)).sum())
        terms = np.abs((gv[:, None] - gv[None]) * (v[:, None] - v[None])).sum(-1)
        psi = kernel(distances(x), traj.params.alpha)
        b_abs.append(m * m * (psi * terms).sum())
    phi0 = m * np.abs(phase_value(phi, traj.times[0], traj.x[0], traj.v[0])).sum()
    times = traj.times
    return phi0 + np.trapezoid(a_abs, times) + 0.5 * np.trapezoid(b_abs, times)


# ---- field residuals ----


def drifting_cell_sequence(m=41, u=0.3, t_end=1.0):
    times = np.linspace(0.0, t_end, m)
    grids = []
    for t in times:
        grids.append(grid(0.5, 1, [1.0], [u], [-0.2 + u * t]))
    return times, grids


def test_continuity_single_cell_quadrature_order():
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    t1, g1 = drifting_cell_sequence(m=21)
    t2, g2 = drifting_cell_sequence(m=81)
    r1 = continuity_residual(t1, g1, phi)
    r2 = continuity_residual(t2, g2, phi)
    assert r1 < 2e-3
    assert r2 < r1 / 8


def test_momentum_residual_alpha_independent_for_constant_velocity():
    # all cells share one velocity: the interaction term vanishes exactly
    times = np.linspace(0.0, 1.0, 31)
    grids = []
    for t in times:
        bary = [b + 0.2 * t for b in (-0.6, -0.2, 0.2, 0.6)]
        grids.append(grid(0.4, 1, [0.25] * 4, [0.2] * 4, bary))
    phi = VectorTestFunction(MacroTestFunction(1, 0.9, np.array([0.0]), 1.2), 0)
    r1 = momentum_residual(times, grids, phi, alpha=1.0)
    r2 = momentum_residual(times, grids, phi, alpha=2.0)
    assert abs(r1 - r2) < 1e-15


def test_zero_mass_cell_is_inert():
    times, grids = drifting_cell_sequence(m=31)
    padded = [with_ghost(g, [5.0], [0.4]) for g in grids]
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    assert continuity_residual(times, grids, phi) == pytest.approx(
        continuity_residual(times, padded, phi), abs=1e-15
    )
    vphi = VectorTestFunction(phi, 0)
    assert momentum_residual(times, grids, vphi, 1.5) == pytest.approx(
        momentum_residual(times, padded, vphi, 1.5), abs=1e-15
    )
    assert np.allclose(
        dissipation_margin(times, grids, 1.5),
        dissipation_margin(times, padded, 1.5),
        atol=1e-15,
    )


def test_grid_mismatch_rejected():
    times, grids = drifting_cell_sequence(m=5)
    bad = list(grids)
    g = grids[2]
    bad[2] = grid(0.25, 1, g.mass, g.velocity, g.barycenter)
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    with pytest.raises(GridMismatch):
        continuity_residual(times, bad, phi)


def test_momentum_residual_initial_atoms_override():
    times, grids = drifting_cell_sequence(m=31)
    phi = VectorTestFunction(MacroTestFunction(1, 0.9, np.array([0.0]), 1.0), 0)
    base = momentum_residual(times, grids, phi, alpha=1.5)
    # atoms that bin to exactly the first grid give the same moment
    x0 = np.array([[-0.2]])
    v0 = np.array([[0.3]])
    w0 = np.array([1.0])
    same = momentum_residual(
        times, grids, phi, alpha=1.5, initial_atoms=(x0, v0, w0)
    )
    assert same == pytest.approx(base, abs=1e-15)


@pytest.mark.parametrize("atoms, shapes", [
    # d = 2 atoms on a d = 1 battery
    (([[-0.2, 0.0]], [[0.3, 0.0]], [1.0]), r"\(1, 2\), \(1, 2\), \(1,\)"),
    (([[-0.2]], [0.3], [1.0]), r"\(1, 1\), \(1,\), \(1,\)"),
    # one weight too many
    (([[-0.2], [0.1]], [[0.3], [0.3]], [0.5, 0.25, 0.25]),
     r"\(2, 1\), \(2, 1\), \(3,\)"),
], ids=["dimension", "velocity-shape", "weight-count"])
def test_initial_atoms_of_the_wrong_shape_rejected(atoms, shapes):
    times, grids = drifting_cell_sequence(m=5)
    phi = VectorTestFunction(MacroTestFunction(1, 0.9, np.array([0.0]), 1.0), 0)
    n = len(atoms[0])
    need = rf"need \({n}, 1\) twice, \({n},\)"
    message = f"initial atoms of shapes {shapes} on a battery of dimension 1: {need}"
    with pytest.raises(ValueError, match=message):
        momentum_residual(times, grids, phi, alpha=1.5, initial_atoms=atoms)


def test_dissipation_margin_two_cells():
    # two convergent-velocity cells: energy is constant in this frozen
    # field sequence, so the margin is minus the integrated dissipation
    times = np.linspace(0.0, 0.5, 21)
    grids = []
    for t in times:
        grids.append(grid(1.0, 1, [0.5, 0.5], [0.3, -0.3], [-0.5, 0.5]))
    margins = dissipation_margin(times, grids, alpha=1.0)
    assert margins[0] == 0.0
    dd = 2 * 0.25 * 0.36  # ordered pairs, |du|^2 = 0.36, psi = 1
    assert margins[-1] == pytest.approx(-dd * 0.5, rel=1e-12)


# ---- battery forms against the per-function oracles ----


def binned_sequence(d, n=120, m=17, h=0.3, seed=0):
    """Field grids of a drifting particle cloud, with its initial atoms."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, (n, d))
    v = rng.normal(0.0, 0.5, (n, d))
    times = np.linspace(0.0, 0.5, m)
    grids = [
        local_fields(from_particles(ParticleState(t, x + t * v, v)), d, h)
        for t in times
    ]
    return times, grids, (x, v, np.full(n, 1.0 / n))


def padded(grids, d):
    """Each grid with a zero-mass ghost cell, and snapshots 0 and 3 empty."""
    out = [with_ghost(g, np.full(d, 5.0), np.full(d, 0.4)) for g in grids]
    for k in (0, 3):
        out[k] = grid(grids[k].h, d, [], [], [])
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pad", [False, True])
def test_continuity_battery_matches_oracle(d, pad):
    times, grids, _ = binned_sequence(d, seed=d)
    if pad:
        grids = padded(grids, d)
    mb = macro_battery(d, 0.5, 2.0, size=24, seed=d)
    battery = FieldBattery([VectorTestFunction(phi, 0) for phi in mb], times)
    got = battery.residuals(grids, 1.0)[0]
    assert got == [loop_continuity_residual(times, grids, phi) for phi in mb]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("atoms", [False, True])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.5])
def test_momentum_battery_matches_oracle(d, pad, atoms, alpha):
    # the one field pass gives the continuity, momentum and margin oracles
    times, grids, initial = binned_sequence(d, seed=10 + d)
    if pad:
        grids = padded(grids, d)
    ia = initial if atoms else None
    vb = vector_battery(d, 0.5, 2.0, size=24, seed=d)
    cont, mom, margins = FieldBattery(vb, times).residuals(grids, alpha, ia)
    want = [
        loop_momentum_residual(times, grids, phi, alpha, initial_atoms=ia)
        for phi in vb
    ]
    bound = C_EPS * EPS * np.array(
        [momentum_scale(times, grids, phi, alpha, ia) for phi in vb]
    )
    assert np.all(np.abs(np.subtract(mom, want)) <= bound)
    assert cont == [loop_continuity_residual(times, grids, phi.base) for phi in vb]
    want_margins = loop_dissipation_margin(times, grids, alpha)
    bound = C_EPS * EPS * margin_scale(times, grids, alpha)
    assert np.all(np.abs(margins - want_margins) <= bound)
    got = dissipation_margin(times, grids, alpha)
    assert np.all(np.abs(got - want_margins) <= bound)


def cell_pairs(g, alpha):
    """The cell weights m_c m_c' psi(b_c, b_c') of a grid."""
    psi = kernel(distances(g.barycenter), alpha)
    return (g.mass[:, None] * g.mass[None, :]) * psi


def momentum_scale(times, grids, phi, alpha, initial_atoms=None) -> float:
    """Sum of |phi0|, |int A| and 1/2 |int B| of the momentum identity with
    absolute values taken inside every sum, from the oracle evaluators."""
    k, base = phi.component, phi.base
    a_abs, b_abs = [], []
    for t, g in zip(times, grids):
        b, u, m = g.barycenter, g.velocity, g.mass
        gx = macro_grad_x(base, t, b)
        flux = np.abs(macro_dt(base, t, b)) + np.abs(u * gx).sum(axis=1)
        a_abs.append((m * np.abs(u[:, k]) * flux).sum())
        val = macro_value(base, t, b)
        du = u[:, None, k] - u[None, :, k]
        terms = np.abs(val[:, None] - val[None]) * np.abs(du)
        b_abs.append((cell_pairs(g, alpha) * terms).sum())
    x0, v0, w0 = initial_atoms or (
        grids[0].barycenter, grids[0].velocity, grids[0].mass
    )
    phi0 = (w0 * np.abs(v0[:, k] * macro_value(base, times[0], x0))).sum()
    return phi0 + np.trapezoid(a_abs, times) + 0.5 * np.trapezoid(b_abs, times)


def margin_scale(times, grids, alpha) -> np.ndarray:
    """E(0) + E(t) + int_0^t D ds per snapshot: the margin's terms, whose
    sums hold no sign changes."""
    energy = np.array([(g.mass * (g.velocity**2).sum(1)).sum() for g in grids])
    dissipation = []
    for g in grids:
        du = g.velocity[:, None] - g.velocity[None]
        dissipation.append((cell_pairs(g, alpha) * (du**2).sum(-1)).sum())
    return energy[0] + energy + cumulative_trapezoid(times, dissipation)


def test_field_pass_holds_no_battery_pair_array():
    # about 800 cells per snapshot: one (F, C, C) array of 24 functions
    # would take 120 MB, the pass's (C, C) grids about 5 MB each
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 0.5, 5)
    grids = []
    for t in times:
        x = rng.uniform(-1.0, 1.0, (1600, 2))
        v = rng.normal(0.0, 0.5, (1600, 2))
        mu = from_particles(ParticleState(t, x, v))
        grids.append(local_fields(mu, 2, 1 / 16))
    assert all(700 < g.mass.size < 900 for g in grids)
    battery = FieldBattery(vector_battery(2, 0.5, 2.0, size=24, seed=0), times)
    tracemalloc.start()
    try:
        battery.residuals(grids, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_single_function_battery_equals_wrapper():
    # each row of a battery is the single-function form of its function
    times, grids, initial = binned_sequence(2, seed=4)
    mb = macro_battery(2, 0.5, 2.0, size=3, seed=1)
    vb = [VectorTestFunction(phi, 1) for phi in mb]
    for ia in (None, initial):
        cont, mom, _ = FieldBattery(vb, times).residuals(grids, 1.5, ia)
        assert cont == [continuity_residual(times, grids, phi) for phi in mb]
        assert mom == [
            momentum_residual(times, grids, vphi, 1.5, initial_atoms=ia)
            for vphi in vb
        ]


def test_battery_forms_reject_grid_mismatch():
    times, grids = drifting_cell_sequence(m=5)
    bad = list(grids)
    g = grids[2]
    bad[2] = grid(0.25, 1, g.mass, g.velocity, g.barycenter)
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    battery = FieldBattery([VectorTestFunction(phi, 0)], times)
    with pytest.raises(GridMismatch):
        battery.residuals(bad, 1.5)
    with pytest.raises(GridMismatch):
        continuity_residual(times, bad, phi)
    with pytest.raises(GridMismatch):
        momentum_residual(times, bad, VectorTestFunction(phi, 0), 1.5)


@pytest.mark.parametrize("count", [3, 7])
def test_field_forms_reject_grid_count_mismatch(count):
    # one grid per snapshot time: too few and too many are both rejected
    times, grids = drifting_cell_sequence(m=5)
    bad = (list(grids) * 2)[:count]
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    message = f"{count} field grids for 5 snapshot times"
    battery = FieldBattery([VectorTestFunction(phi, 0)], times)
    with pytest.raises(ValueError, match=message):
        battery.residuals(bad, 1.5)
    with pytest.raises(ValueError, match=message):
        continuity_residual(times, bad, phi)
    with pytest.raises(ValueError, match=message):
        momentum_residual(times, bad, VectorTestFunction(phi, 0), 1.5)
    with pytest.raises(ValueError, match=message):
        dissipation_margin(times, bad, 1.5)


# ---- parameter and input checks ----

PHASE = dict(d=2, t_end=1.0, x_center=[0.0, 0.0], x_radius=0.5, v_kind="const")


@pytest.mark.parametrize(
    "bad",
    [
        dict(t_end=0.0),
        dict(t_end=-1.0),
        dict(t_end=math.nan),
        dict(t_end=math.inf),
        dict(x_radius=0.0),
        dict(x_radius=-1.0),
        dict(x_radius=math.nan),
        dict(v_plateau=(2.0, 1.0)),
        dict(v_plateau=(1.0, 1.0)),
        dict(v_plateau=(-0.5, 1.0)),
        dict(v_plateau=(math.nan, 1.0)),
        dict(v_plateau=(1.0, math.inf)),
        dict(x_center=[0.0]),
        dict(x_center=[0.0, math.nan]),
        dict(v_center=[0.0, 0.0, 0.0]),
        dict(v_kind="bump", v_radius=0.0),
        dict(v_kind="bump", v_radius=math.nan),
        dict(v_kind="bump", v_center=[math.inf, 0.0]),
    ],
)
def test_test_function_parameters_are_checked(bad):
    TestFunction(**PHASE)
    with pytest.raises(ValueError):
        TestFunction(**{**PHASE, **bad})


def test_test_function_rejects_zero_window():
    # this used to divide by zero in the certified d_t bound
    with pytest.raises(ValueError, match="t_end"):
        TestFunction(1, 0.0, [0.0], 0.5, "const")


@pytest.mark.parametrize(
    "t_end, center, radius",
    [
        (1.0, [0.0], 0.0),
        (-1.0, [0.0], 1.0),
        (math.nan, [0.0], 1.0),
        (1.0, [0.0], -1.0),
        (1.0, [0.0], math.inf),
        (1.0, [0.0, 0.0], 1.0),
        (1.0, [math.nan], 1.0),
    ],
)
def test_macro_test_function_parameters_are_checked(t_end, center, radius):
    MacroTestFunction(1, 1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        MacroTestFunction(1, t_end, center, radius)


def test_battery_of_other_dimension_is_rejected():
    x = np.array([[0.0], [0.4], [1.0]])
    v = np.array([[0.2], [0.0], [-0.1]])
    params = ModelParams(d=1, alpha=1.5, N=3, T=0.2, M=2.0)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-8)
    message = "dimension 2 on data of dimension 1"
    with pytest.raises(ValueError, match=message):
        kinetic_weak_residuals(traj, kinetic_battery(2, 0.2, 2.0, size=3))
    times, grids = drifting_cell_sequence(m=5)
    battery = FieldBattery(vector_battery(2, 1.0, 2.0, size=3), times)
    with pytest.raises(ValueError, match=message):
        battery.residuals(grids, 1.5)


def test_field_battery_rejects_unordered_times():
    times, grids = drifting_cell_sequence(m=5)
    phi = MacroTestFunction(1, 0.9, np.array([0.0]), 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        continuity_residual(times[::-1], grids, phi)
    for bad in ([0.0, math.nan, 0.2], [0.0, 0.2, 0.2], [0.0, 0.2, math.inf], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            FieldBattery([], bad)


def test_cumulative_trapezoid_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="one length"):
        cumulative_trapezoid([0.0, 1.0, 2.0], [1.0, 2.0])
