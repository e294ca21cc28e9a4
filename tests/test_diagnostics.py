"""Scalar diagnostics against brute-force loop and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab import storage
from flocklab.diagnostics import (
    build_report,
    cumulative_trapezoid,
    dalpha,
    enstrophy,
    eta_monokineticity,
    kinetic_energy,
    min_distance,
)
from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.errors import SnapshotMissing
from flocklab.meanfield import local_fields
from flocklab.measures import EmpiricalMeasure
from flocklab.rng import CounterRNG

from oracles import (
    DivergentNormalization,
    UnsupportedDimension,
    beta_eta,
    beta_quadrature,
    dalpha_loops,
    energy_balance_residual,
    energy_loops,
    energy_series,
    enstrophy_loops,
    eta_mono_loops,
    from_particles,
    grid_dalpha,
    grid_enstrophy,
    grid_min_distance,
    mk_index,
    momentum,
    mp_margin,
    per_snapshot_report,
    sf_modulus,
)


def random_measure(seed, k, d, coincident=0):
    """Random sub-probability phase measure; optionally duplicate some
    positions (fresh velocities) to exercise the off-diagonal exclusion."""
    rng = CounterRNG(seed)
    x = rng.uniform(k * d, -1.0, 1.0).reshape(k, d)
    for j in range(coincident):
        x[k - 1 - j] = x[j % max(1, k - coincident)]
    v = rng.uniform(k * d, -0.8, 0.8).reshape(k, d)
    w = rng.uniform(k, 0.05, 1.0)
    w = w / (w.sum() * (1.0 + 0.25 * rng.uniform(1)[0]))
    return EmpiricalMeasure(np.hstack([x, v]), w)


# ---- pair functionals vs loop oracles ----


@pytest.mark.parametrize("seed,k,d,alpha", [(1, 6, 1, 1.0), (2, 7, 2, 1.5), (3, 5, 2, 2.0)])
def test_energy_and_enstrophy_match_loops(seed, k, d, alpha):
    mu = random_measure(seed, k, d, coincident=2)
    assert kinetic_energy(mu, d) == pytest.approx(
        energy_loops(mu.points, mu.weights, d), rel=1e-13
    )
    assert enstrophy(mu, d, alpha) == pytest.approx(
        enstrophy_loops(mu.points, mu.weights, d, alpha), rel=1e-12
    )


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed,alpha", [(11, 1.0), (12, 1.7), (13, 2.0)])
def test_dalpha_matches_loops(seed, alpha, eta):
    # the package evaluates D_alpha unregularized; at eta > 0 the grid
    # oracle that the regularized tests read is checked instead
    mu = random_measure(seed, 6, 2, coincident=2)
    got = dalpha(mu, 2, alpha) if eta == 0.0 else grid_dalpha(mu, 2, alpha, eta)
    assert got == pytest.approx(
        dalpha_loops(mu.points, mu.weights, 2, alpha, eta), rel=1e-12
    )


@pytest.mark.parametrize("seed,d,alpha,eta", [(21, 1, 1.0, 0.5), (22, 2, 2.0, 0.1)])
def test_eta_monokineticity_matches_loops(seed, d, alpha, eta):
    mu = random_measure(seed, 6, d, coincident=3)
    assert eta_monokineticity(mu, d, alpha, eta) == pytest.approx(
        eta_mono_loops(mu.points, mu.weights, d, alpha, eta), rel=1e-12
    )


def test_eta_monokineticity_zero_on_single_speed_sites():
    # one velocity per site: the deviation field vanishes identically
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    v = np.array([[0.3, -0.1], [0.2, 0.5], [-0.4, 0.0]])
    mu = EmpiricalMeasure(np.hstack([x, v]), [0.3, 0.3, 0.4])
    assert eta_monokineticity(mu, 2, 1.5, 0.2) == 0.0


def test_split_atom_invariance():
    # splitting an atom into co-located equal-velocity halves changes no
    # pair functional: the new intra-pair is excluded (eta = 0) or has
    # zero velocity difference (eta > 0, the regularized grid oracle)
    mu = random_measure(31, 5, 2)
    pts = np.vstack([mu.points, mu.points[0]])
    w = np.concatenate([mu.weights, [mu.weights[0] / 2]])
    w[0] /= 2
    split = EmpiricalMeasure(pts, w)
    for alpha in (1.0, 2.0):
        assert enstrophy(split, 2, alpha) == pytest.approx(
            enstrophy(mu, 2, alpha), rel=1e-12
        )
        assert dalpha(split, 2, alpha) == pytest.approx(
            dalpha(mu, 2, alpha), rel=1e-12
        )
        assert grid_dalpha(split, 2, alpha, 0.25) == pytest.approx(
            grid_dalpha(mu, 2, alpha, 0.25), rel=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([1.0, 1.5, 2.0]))
def test_jensen_chain(seed, alpha):
    # eta-monokineticity is dominated by 2^(alpha+1) times the regularized
    # higher-moment dissipation at the same eta
    mu = random_measure(seed, 7, 2, coincident=2)
    eta = 0.4
    lhs = eta_monokineticity(mu, 2, alpha, eta)
    rhs = 2.0 ** (alpha + 1.0) * grid_dalpha(mu, 2, alpha, eta)
    assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_dalpha_dominated_by_enstrophy_when_speeds_bounded():
    mu = random_measure(41, 8, 2)  # speeds below 0.8
    alpha = 1.5
    cap = (2 * 0.8) ** alpha * enstrophy(mu, 2, alpha)
    assert dalpha(mu, 2, alpha) <= cap * (1 + 1e-12)


# ---- kernel normalization ----


@pytest.mark.parametrize(
    "eta,alpha,d",
    [(0.5, 1.3, 1), (0.2, 2.0, 1), (1.7, 3.7, 1), (0.5, 2.5, 2), (0.8, 3.0, 2), (2.0, 4.2, 2)],
)
def test_beta_eta_matches_quadrature(eta, alpha, d):
    assert beta_eta(eta, alpha, d) == pytest.approx(
        beta_quadrature(eta, alpha, d), rel=1e-9
    )


def test_beta_eta_critical_and_errors():
    assert beta_eta(0.3, 1.0, 1) == 1.0
    assert beta_eta(2.0, 2.0, 2) == 1.0
    assert beta_eta(0.5, 3.0, 2) == pytest.approx(np.pi / 0.5, rel=1e-14)
    with pytest.raises(DivergentNormalization):
        beta_eta(0.5, 0.9, 1)
    with pytest.raises(DivergentNormalization):
        beta_eta(0.5, 1.5, 2)
    with pytest.raises(UnsupportedDimension):
        beta_eta(0.5, 4.0, 3)
    with pytest.raises(ValueError):
        beta_eta(0.0, 2.0, 1)


def test_beta_eta_scaling():
    # beta(lambda eta) = lambda^(d - alpha) beta(eta)
    for d, alpha in [(1, 1.8), (2, 3.1)]:
        b1 = beta_eta(0.4, alpha, d)
        b2 = beta_eta(0.8, alpha, d)
        assert b2 / b1 == pytest.approx(2.0 ** (d - alpha), rel=1e-12)


# ---- trajectory diagnostics ----


def two_body(alpha=1.5, gap=1.0, speed=0.5):
    x = np.array([[-gap / 2], [gap / 2]])
    v = np.array([[speed], [-speed]])
    return ParticleState(0.0, x, v)


def test_energy_series_and_balance():
    params = ModelParams(d=1, alpha=1.5, N=2, T=1.0, M=2.0)
    snaps = np.linspace(0.0, 1.0, 101)
    traj = integrate(two_body(), params, tol=1e-10, snapshot_times=snaps)
    t, e, dd = energy_series(traj)
    assert len(t) == 101
    assert (np.diff(e) <= 1e-12).all()  # energy never increases
    assert (dd >= 0).all()
    # trapezoid defect shrinks with the snapshot grid, not the solver
    assert energy_balance_residual(traj) < 5e-6


def test_energy_balance_residual_refines_with_grid():
    params = ModelParams(d=1, alpha=1.5, N=2, T=1.0, M=2.0)
    res = []
    for m in (26, 101):
        snaps = np.linspace(0.0, 1.0, m)
        traj = integrate(two_body(), params, tol=1e-11, snapshot_times=snaps)
        res.append(energy_balance_residual(traj))
    # second-order quadrature: 4x finer grid cuts the defect ~16x
    assert res[1] < res[0] / 8


def test_momentum_diagnostic():
    mu = random_measure(51, 6, 2)
    want = mu.weights @ mu.points[:, 2:]
    assert np.allclose(momentum(mu, 2), want, atol=1e-15)


def test_min_distance():
    mu = random_measure(61, 5, 2)
    x = mu.points[:, :2]
    brute = min(
        float(np.linalg.norm(x[a] - x[b]))
        for a in range(5)
        for b in range(5)
        if a != b
    )
    assert min_distance(mu, 2) == pytest.approx(brute, rel=1e-15)
    single = EmpiricalMeasure(np.array([[0.0, 0.0, 0.1, 0.1]]), [1.0])
    assert min_distance(single, 2) == np.inf


def test_cumulative_trapezoid():
    t = np.array([0.0, 0.5, 1.5, 2.0])
    y = t**2
    out = cumulative_trapezoid(t, y)
    assert out[0] == 0.0
    want = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))])
    assert np.allclose(out, want, atol=1e-16)


def test_mp_margin_nonnegative_and_validates():
    params = ModelParams(d=1, alpha=1.0, N=4, T=0.8, M=1.0)
    rng = CounterRNG(7)
    x = rng.uniform(4, -0.5, 0.5).reshape(4, 1)
    v = rng.uniform(4, -0.6, 0.6).reshape(4, 1)
    snaps = np.linspace(0.0, 0.8, 5)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-9, snapshot_times=snaps)
    for radius in (0.1, 0.4, 1.0):
        m = mp_margin(traj, 0.0, 0.8, np.array([0.0]), radius)
        assert m >= -1e-15
    # growing the ball by (t - t0) M can only add mass between probes too
    assert mp_margin(traj, 0.2, 0.6, np.array([0.1]), 0.3) >= -1e-15
    with pytest.raises(ValueError):
        mp_margin(traj, 0.5, 0.2, np.array([0.0]), 0.1)
    # a NaN time fails the order check; an infinite one has no snapshot
    for t0, t in ((math.nan, 0.8), (0.0, math.nan)):
        with pytest.raises(ValueError):
            mp_margin(traj, t0, t, np.array([0.0]), 0.3)
    with pytest.raises(SnapshotMissing):
        mp_margin(traj, 0.0, math.inf, np.array([0.0]), 0.3)


def test_beta_eta_rejects_nan_eta():
    with pytest.raises(ValueError, match="eta"):
        beta_eta(math.nan, 1.5, 1)


def test_beta_eta_rejects_non_finite_alpha():
    # alpha < d is false for NaN, so this used to return nan, and so did
    # an infinite alpha at eta < 1
    for d in (1, 2):
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                beta_eta(0.1, alpha, d)


def test_mp_margin_rejects_bad_center_and_radius():
    params = ModelParams(d=2, alpha=2.0, N=3, T=0.2, M=1.0)
    x = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, 0.6]])
    v = np.array([[0.1, 0.0], [0.0, -0.2], [0.2, 0.1]])
    snaps = np.linspace(0.0, 0.2, 3)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-9, snapshot_times=snaps)
    assert mp_margin(traj, 0.0, 0.1, np.array([0.45, 0.0]), 0.2) >= 0.0
    for center in ([0.45], [0.45, 0.0, 0.0], [math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="center"):
            mp_margin(traj, 0.0, 0.1, center, 0.2)
    for radius in (-1.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            mp_margin(traj, 0.0, 0.1, [0.45, 0.0], radius)


def test_eta_monokineticity_rejects_nan_eta():
    with pytest.raises(ValueError, match="eta"):
        eta_monokineticity(random_measure(3, 4, 1), 1, 1.5, math.nan)


def test_sf_modulus_vanishes_at_origin_and_shrinks():
    params = ModelParams(d=1, alpha=1.5, N=3, T=0.4, M=2.0)
    x = np.array([[-0.4], [0.1], [0.5]])
    v = np.array([[0.3], [-0.2], [0.1]])
    snaps = np.linspace(0.0, 0.4, 9)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-10, snapshot_times=snaps)

    def phi(vpts):
        s = np.einsum("ij,ij->i", vpts, vpts)
        return np.exp(-s)

    vals = sf_modulus(traj, 0.0, phi, [0.0, 0.05, 0.1, 0.2, 0.4])
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert vals[1] <= vals[3] * (1 + 1e-9) and vals[1] <= vals[4] * (1 + 1e-9)


def test_build_report_shapes_and_consistency():
    params = ModelParams(d=2, alpha=1.0, N=5, T=0.3, M=2.0)
    rng = CounterRNG(3)
    x = rng.uniform(10, -0.7, 0.7).reshape(5, 2)
    v = rng.uniform(10, -0.5, 0.5).reshape(5, 2)
    snaps = np.linspace(0.0, 0.3, 7)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-8, snapshot_times=snaps)
    rep = build_report(traj)
    assert rep.times.shape == (7,)
    assert rep.mkvar.shape == (7, 3)
    assert rep.momentum.shape == (7, 2)
    assert (rep.min_distance > 0).all()
    assert rep.energy_residual == pytest.approx(energy_balance_residual(traj), abs=0)
    # momentum is conserved along the flow
    drift = np.abs(rep.momentum - rep.momentum[0]).max()
    assert drift < 1e-12
    d = storage._plain(rep)
    assert "eta_ladder" not in d and "eeta" not in d
    assert len(d["energy"]) == 7


@pytest.mark.parametrize("d", [1, 2])
def test_report_mkvar_equals_per_snapshot_mk_index(d):
    # build_report bins all snapshots in one pass per ladder width, for the
    # MK index and the heaviest cell
    n = 12
    rng = CounterRNG(7 + d)
    x = rng.uniform(n * d, -0.7, 0.7).reshape(n, d)
    v = rng.uniform(n * d, -0.5, 0.5).reshape(n, d)
    params = ModelParams(d=d, alpha=1.5, N=n, T=0.2, M=2.0)
    snaps = np.linspace(0.0, 0.2, 6)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-7, snapshot_times=snaps)
    rep = build_report(traj, bin_fractions=(1 / 4, 1 / 8, 1 / 16))
    want = [[mk_index(from_particles(st), d, h) for h in rep.h_ladder] for st in traj]
    assert rep.mkvar.tolist() == want
    assert rep.mkvar.max() > 0.0
    heaviest = [
        [float(local_fields(from_particles(st), d, h).mass.max()) for h in rep.h_ladder]
        for st in traj
    ]
    assert rep.max_cell_mass.tolist() == heaviest


@pytest.mark.parametrize("d,n", [(1, 12), (2, 12), (3, 8), (2, 2)])
def test_report_series_equal_per_snapshot_oracles(d, n):
    # the report reads every series from the stacked arrays in one pass;
    # each equals the per-measure value of its snapshot bit for bit
    rng = CounterRNG(20 + d + n)
    x = rng.uniform(n * d, -0.7, 0.7).reshape(n, d)
    v = rng.uniform(n * d, -0.5, 0.5).reshape(n, d)
    params = ModelParams(d=d, alpha=1.5, N=n, T=0.2, M=2.0)
    snaps = np.linspace(0.0, 0.2, 9)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-7, snapshot_times=snaps)
    rep = build_report(traj)
    want = per_snapshot_report(traj)
    assert np.array_equal(rep.energy, want["energy"])
    assert np.array_equal(rep.momentum, want["momentum"])
    assert np.array_equal(rep.enstrophy, want["D"])
    assert np.array_equal(rep.dalpha, want["Da"])
    assert np.array_equal(rep.min_distance, want["md"])
    _, e, dd = energy_series(traj)
    assert np.array_equal(e, want["energy"]) and np.array_equal(dd, want["D"])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_measure_functionals_equal_grid_oracles(d):
    # the one-snapshot case of the stacked pass, on a sub-probability
    # measure; co-located atoms add zero terms, which may move a sum by an ulp
    mu = random_measure(80 + d, 9, d)
    assert enstrophy(mu, d, 1.5) == grid_enstrophy(mu, d, 1.5)
    assert dalpha(mu, d, 1.5) == grid_dalpha(mu, d, 1.5, 0.0)
    assert min_distance(mu, d) == grid_min_distance(mu, d)
    split = random_measure(90 + d, 9, d, coincident=3)
    assert dalpha(split, d, 2.0) == pytest.approx(
        grid_dalpha(split, d, 2.0, 0.0), rel=1e-14
    )
    assert min_distance(split, d) == 0.0
