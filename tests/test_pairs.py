"""The pair-geometry layer against the dense tensor formulations, and the
integrator's use of it."""

import math

import numpy as np
import pytest

from flocklab import dynamics, pairs
from flocklab.diagnostics import enstrophy
from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.errors import (
    CollisionalState,
    FlockLabError,
    NonFiniteState,
    StepBudgetExceeded,
)
from flocklab.measures import EmpiricalMeasure
from flocklab.weakform import (
    kinetic_battery,
    kinetic_weak_residual,
    kinetic_weak_residuals,
)

from oracles import (
    fsum_alignment_rhs,
    grid_dalpha,
    grid_enstrophy,
    grid_min_distance,
    min_pair_distance,
    moveaxis_row_sums,
    sqrt_alignment_rhs,
    sqrt_distances,
    sqrt_step_cap,
    tensor_alignment_rhs,
    tensor_enstrophy,
    tensor_kinetic_residual,
    tensor_kinetic_terms,
    tensor_step_cap,
)

EPS = np.finfo(float).eps


def cloud(n, d, seed, spread=1.0, vmax=0.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread, (n, d)), rng.uniform(-vmax, vmax, (n, d))


def squeezed(x, frac, gap=1e-6):
    """x with its first ceil(frac N) particles moved to within gap times
    their offset of a partner counted from the other end, so a fraction
    frac of the cloud sits in near-coincident pairs, where the
    unregularized kernel is largest; frac = 0 leaves x as it is."""
    x = x.copy()
    n = x.shape[0]
    for k in range(math.ceil(frac * n)):
        j = n - 1 - k
        x[k] = x[j] + gap * (x[k] - x[j])
    return x


def force_scale(x, v, alpha):
    """(1/N) sum_j |w_ij (v_j - v_i)| per component: the magnitude the
    force sums cancel down from."""
    diff = x[:, None, :] - x[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(r, np.inf)
    w = r ** (-alpha)
    dv = np.abs(v[None, :, :] - v[:, None, :])
    return (w[:, :, None] * dv).sum(axis=1) / x.shape[0]


def row_reduction(a):
    """The sums relative_sums takes along the rows of a (R, n): particles
    0..R-1 at u = 0 weigh the n particles at u = 1 by the rows of a, so
    result r sums R zeros and the row a[r]."""
    r, n = a.shape
    w = np.zeros((r + n, r + n))
    w[:r, r:] = a
    u = np.ones((r + n, 1))
    u[:r] = 0.0
    return pairs.relative_sums(w, u)[:r, 0]


# ---- building blocks ----


def test_row_sums_match_exact_sums():
    rng = np.random.default_rng(3)
    for n in (1, 31, 32, 33, 200):
        a = rng.uniform(-1, 1, (5, n)) * 10.0 ** rng.integers(-8, 8, (5, n))
        got = row_reduction(a)
        want = np.array([math.fsum(row) for row in a])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(a).sum()


@pytest.mark.parametrize("n", [1, 31, 32, 33, 200, 3200])
def test_relative_sums_equal_blocked_kahan_sums_to_ulps(n):
    # whole-row sums against the blocked Kahan sums they replaced: the
    # same bits while a row is one block of 32, a few ulp of the summed
    # magnitudes beyond
    rng = np.random.default_rng(n)
    w = rng.uniform(-1, 1, (n, n))
    w *= 10.0 ** rng.integers(-8, 8, (n, n), dtype=np.int8)
    u = rng.uniform(-1, 1, (n, 1))
    got = pairs.relative_sums(w, u)[:, 0]
    terms = np.multiply(w, u.T - u, out=w)  # w_ij (u_j - u_i), in place
    want = moveaxis_row_sums(terms)
    if n <= 32:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(terms).sum(axis=1))


def assert_separations_of(got, want, rows):
    """got is want bit for bit off the self-pairs and +inf on them, for
    a grid (..., R, n) whose rows are the grid rows ``rows``."""
    n = want.shape[-1]
    self_pair = np.arange(n)[rows, None] == np.arange(n)
    assert got.shape == want.shape
    assert (got[..., self_pair] == np.inf).all()
    assert np.array_equal(got[..., ~self_pair], want[..., ~self_pair])


@pytest.mark.parametrize("n", [0, 1, 2, 9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_separations_are_distances_with_inf_self_pairs(d, n):
    # full grid, a row tile that does not start at row 0, and stacked
    # clouds, with one co-located pair among the distinct ones
    rng = np.random.default_rng(10 * d + n)
    xs = rng.uniform(-1.0, 1.0, (3, n, d))
    if n == 9:
        xs[1, 4] = xs[1, 1]
    for rows in (slice(None), slice(1, 5)):
        for x in (xs[1], xs):
            got = pairs.separations(x, rows=rows)
            assert_separations_of(got, pairs.distances(x, rows=rows), rows)
    if n == 9:
        assert pairs.separations(xs[1])[1, 4] == 0.0
    out, scratch = np.empty((n, n)), np.empty((n, n))
    got = pairs.separations(xs[0], out=out, scratch=scratch)
    assert got is out
    assert_separations_of(got, pairs.distances(xs[0]), slice(None))


def test_kernel_masks_self_and_colocated_pairs():
    x = np.array([[0.0], [0.0], [2.0]])
    r = pairs.distances(x)
    w = pairs.kernel(r, 1.5)
    assert np.array_equal(np.diag(w), np.zeros(3))
    assert w[0, 1] == w[1, 0] == 0.0
    assert w[0, 2] == 2.0**-1.5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_grids_equal_per_snapshot_grids(d):
    # leading snapshot axes repeat each snapshot's arithmetic; the kernel
    # zeroes the diagonal of the last two axes
    rng = np.random.default_rng(30 + d)
    xs = rng.uniform(-1.0, 1.0, (4, 9, d))
    xs[2, 4] = xs[2, 1]
    r = pairs.distances(xs)
    s2 = pairs.sq_distances(xs)
    kern = pairs.kernel(r, 1.5)
    diff = pairs.outer_diff(xs[..., 0])
    tile = pairs.distances(xs, rows=slice(2, 5))
    assert r.shape == s2.shape == kern.shape == diff.shape == (4, 9, 9)
    assert tile.shape == (4, 3, 9)
    for k, x in enumerate(xs):
        assert np.array_equal(r[k], pairs.distances(x))
        assert np.array_equal(s2[k], pairs.sq_distances(x))
        assert np.array_equal(kern[k], pairs.kernel(pairs.distances(x), 1.5))
        assert np.array_equal(diff[k], pairs.outer_diff(x[:, 0]))
        assert np.array_equal(tile[k], pairs.distances(x, rows=slice(2, 5)))
    assert kern[2, 4, 1] == kern[2, 1, 4] == 0.0


def random_snapshots(s, n, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum() * 1.25
    return rng.uniform(-1.0, 1.0, (s, n, d)), rng.uniform(-0.5, 0.5, (s, n, d)), w


# (S, N, d): N = 1; N = 2 in one group; N = 50 and 30 in groups of many
# snapshots; N = 260 above the tile, one snapshot per group
@pytest.mark.parametrize("s, n, d", [
    (5, 1, 1), (3, 1, 3), (300, 2, 2), (40, 50, 1), (40, 50, 2), (80, 30, 3),
    (2, 260, 1), (2, 260, 2),
])
def test_snapshot_series_equals_per_measure_functionals(s, n, d):
    xs, vs, w = random_snapshots(s, n, d, seed=s + n + d)
    for alpha in (1.0, 1.5):
        dd, da, md = pairs.snapshot_series(xs, vs, w, alpha)
        for k in range(s):
            mu = EmpiricalMeasure(np.hstack([xs[k], vs[k]]), w)
            assert dd[k] == grid_enstrophy(mu, d, alpha)
            assert da[k] == grid_dalpha(mu, d, alpha, 0.0)
            assert md[k] == grid_min_distance(mu, d)
    if n == 1:
        assert (dd == 0.0).all() and (da == 0.0).all() and (md == np.inf).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_snapshot_series_on_colocated_atoms(d):
    # co-located pairs add zero terms, which may move a sum by an ulp
    xs, vs, w = random_snapshots(6, 12, d, seed=70 + d)
    xs[1, 3] = xs[1, 0]
    xs[4, 5] = xs[4, 6] = xs[4, 11]
    vs[4, 6] = vs[4, 5]  # a co-located pair in lockstep
    for alpha in (1.0, 2.0):
        dd, da, md = pairs.snapshot_series(xs, vs, w, alpha)
        for k in range(6):
            mu = EmpiricalMeasure(np.hstack([xs[k], vs[k]]), w)
            assert da[k] == pytest.approx(grid_dalpha(mu, d, alpha, 0.0), rel=1e-14)
            assert dd[k] == pytest.approx(grid_enstrophy(mu, d, alpha), rel=1e-14)
            assert md[k] == grid_min_distance(mu, d)
        assert md[1] == md[4] == 0.0


def test_one_dimensional_distances_are_absolute_differences():
    x, _ = cloud(50, 1, seed=9)
    x[7] = x[3]
    r = pairs.distances(x)
    assert np.array_equal(r, np.abs(x - x.T))
    assert np.array_equal(r, sqrt_distances(x))


def test_min_pair_distance_picks_upper_triangle_on_ties():
    x = np.array([[0.0], [1.0], [5.0], [6.0]])
    assert min_pair_distance(x) == (1.0, (0, 1))
    assert min_pair_distance(x[:1]) == (np.inf, (-1, -1))


# ---- the lean pair pass against the square-root pass it replaced ----


@pytest.mark.parametrize("squeeze", [0.0, 0.3])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 31, 33, 200])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lean_pair_pass_equals_sqrt_pass(d, n, alpha, squeeze):
    x, v = cloud(n, d, seed=1000 * d + n)
    x = squeezed(x, squeeze)
    v[n // 2] = v[0]  # a pair in lockstep never closes
    want = sqrt_alignment_rhs(x, v, alpha)
    assert np.array_equal(dynamics.alignment_rhs(x, v, alpha), want)
    work = pairs.Workspace(n)
    got = dynamics.alignment_rhs(x, v, alpha, work=work)
    assert np.array_equal(got, want)
    cap = sqrt_step_cap(x, v, dynamics.GEOMETRY_SAFETY)
    assert dynamics._step_cap(x, v) == cap
    assert dynamics._step_cap(x, v, dist=work.dist, work=work) == cap


@pytest.mark.parametrize("d", [1, 2, 3])
def test_colocated_pair_raises_without_floor(d):
    x, v = cloud(9, d, seed=d)
    x[6] = x[2]
    with pytest.raises(CollisionalState) as err:
        dynamics.alignment_rhs(x, v, 1.5)
    # the error names the pair the separate oracle pass finds
    assert err.value.detail == {"pair": [2, 6], "distance": 0.0}
    assert min_pair_distance(x) == (0.0, (2, 6))
    with pytest.raises(CollisionalState):
        sqrt_alignment_rhs(x, v, 1.5)


# ---- differential tests against the tensor formulations ----


@pytest.mark.parametrize("squeeze", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 31, 64, 200])
def test_alignment_rhs_bitwise_in_one_dimension(n, squeeze):
    x, v = cloud(n, 1, seed=n)
    x = squeezed(x, squeeze)
    got = dynamics.alignment_rhs(x, v, 1.5)
    assert np.array_equal(got, tensor_alignment_rhs(x, v, 1.5))


@pytest.mark.parametrize("squeeze", [0.0, 0.3])
@pytest.mark.parametrize("n,d", [(33, 2), (200, 2), (57, 3)])
def test_alignment_rhs_within_ulps_in_higher_dimensions(n, d, squeeze):
    # the terms round differently from the tensor ones, and the row sums
    # round once more against exact sums
    x, v = cloud(n, d, seed=10 * n + d)
    x = squeezed(x, squeeze)
    got = dynamics.alignment_rhs(x, v, 1.5)
    want = fsum_alignment_rhs(x, v, 1.5)
    assert np.all(np.abs(got - want) <= 4 * EPS * force_scale(x, v, 1.5))


@pytest.mark.parametrize("squeeze", [0.0, 0.3])
@pytest.mark.parametrize("n,d", [(2, 1), (50, 1), (200, 2), (40, 3)])
def test_step_cap_matches_upper_triangle_formulation(n, d, squeeze):
    x, v = cloud(n, d, seed=n + d)
    x = squeezed(x, squeeze)
    cap, dmin = dynamics._step_cap(x, v)
    want_cap, want_dmin = tensor_step_cap(x, v, dynamics.GEOMETRY_SAFETY)
    if d == 1:
        assert (cap, dmin) == (want_cap, want_dmin)
    else:
        assert cap == pytest.approx(want_cap, rel=4 * EPS)
        assert dmin == pytest.approx(want_dmin, rel=4 * EPS)


@pytest.mark.parametrize("squeeze", [0.0, 0.3])
@pytest.mark.parametrize("n,d", [(2, 1), (64, 1), (200, 2), (40, 3)])
def test_step_cap_from_force_distances_equals_fresh_cap(n, d, squeeze):
    x, v = cloud(n, d, seed=7 * n + d)
    x = squeezed(x, squeeze)
    work = pairs.Workspace(n)
    dynamics.alignment_rhs(x, v, 1.5, work=work)
    reused = dynamics._step_cap(x, v, dist=work.dist, work=work)
    assert reused == dynamics._step_cap(x, v)


def test_step_cap_ignores_pairs_in_lockstep():
    x = np.array([[0.0], [1e-3], [5.0]])
    v = np.array([[1.0], [1.0], [1.0]])
    assert dynamics._step_cap(x, v) == (np.inf, 1e-3)


@pytest.mark.parametrize("d", [1, 2])
def test_step_cap_of_a_colocated_pair_in_lockstep_is_inf(d):
    # its closing time is 0 / 0 in the one division; the reduction skips it
    x = np.zeros((2, d))
    v = np.ones((2, d))
    assert dynamics._step_cap(x, v) == (np.inf, 0.0)
    closing = pairs.closing_times(pairs.separations(x), v)
    assert np.isnan(closing[0, 1]) and closing[0, 0] == np.inf


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enstrophy_matches_tensor_formulation(d):
    x, v = cloud(12, d, seed=d)
    x[-1] = x[0]  # a co-located pair, excluded from the sum
    w = np.full(12, 1.0 / 12)
    points = np.hstack([x, v])
    got = enstrophy(EmpiricalMeasure(points, w), d, 1.5)
    want = tensor_enstrophy(points, w, d, 1.5)
    if d == 1:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=4 * EPS)


@pytest.fixture(scope="module", params=[1, 2])
def short_run(request):
    d = request.param
    x, v = cloud(24, d, seed=40 + d)
    params = ModelParams(d=d, alpha=1.5, N=24, T=0.3, M=2.0)
    traj = integrate(
        ParticleState(0.0, x, v),
        params,
        tol=1e-8,
        snapshot_times=np.linspace(0.0, 0.3, 7),
    )
    return traj, kinetic_battery(d, 0.3, 2.0, size=10, seed=3)


def test_kinetic_residual_matches_tensor_formulation(short_run):
    # the pair term is summed over atoms (2 sum_i g_i . R_i) instead of
    # over pairs, so agreement is to rounding of the terms that cancel
    traj, battery = short_run
    for phi in battery:
        scale = sum(abs(t) for t in tensor_kinetic_terms(traj, phi))
        got = kinetic_weak_residual(traj, phi)
        assert abs(got - tensor_kinetic_residual(traj, phi)) <= 64 * EPS * scale


def test_kinetic_battery_form_equals_per_function_form(short_run):
    traj, battery = short_run
    assert kinetic_weak_residuals(traj, battery) == [
        kinetic_weak_residual(traj, phi) for phi in battery
    ]


# ---- the integrator's accounting ----


def counting(monkeypatch, name):
    calls = []
    fn = getattr(dynamics, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, wrapper)
    return calls


def test_integrate_call_counts_per_step(monkeypatch):
    # one force evaluation to start, six per attempted step (the last
    # stage is reused as the next first stage); one cap per accepted step
    # plus one at the start.  The first run rejects no step.
    rhs = counting(monkeypatch, "alignment_rhs")
    cap = counting(monkeypatch, "_step_cap")
    x, v = cloud(5, 2, seed=1)
    params = ModelParams(d=2, alpha=1.5, N=5, T=0.5, M=2.0)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-10)
    accepted = len(traj.step_t)
    assert accepted == 12
    assert len(rhs) == 1 + 6 * accepted
    assert len(cap) == 1 + accepted
    # a planted close pair: most steps take the Lawson rows, whose stages
    # are the same six force evaluations per attempt.  This run rejects no
    # step either.
    del rhs[:], cap[:]
    x = x.copy()
    x[1] = x[0] + 1e-3 / np.sqrt(2)
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-10)
    accepted = len(traj.step_t)
    assert (traj.step_stiff > 0).sum() > accepted / 2
    assert len(rhs) == 1 + 6 * accepted
    assert len(cap) == 1 + accepted


def test_step_budget_is_a_typed_error_and_counts_attempts(monkeypatch):
    rhs = counting(monkeypatch, "alignment_rhs")
    x, v = cloud(6, 1, seed=2)
    params = ModelParams(d=1, alpha=1.5, N=6, T=1.0, M=2.0)
    with pytest.raises(StepBudgetExceeded) as info:
        integrate(ParticleState(0.0, x, v), params, tol=1e-10, max_steps=7)
    assert isinstance(info.value, FlockLabError)
    detail = info.value.detail
    assert detail["steps"] == 7 and detail["budget"] == 7
    assert 0.0 < detail["time"] < 1.0
    assert len(rhs) == 1 + 6 * 7


@pytest.mark.parametrize("snapshot_step", [None, 0.1])
def test_non_finite_velocity_is_reported_as_such(snapshot_step):
    x = np.array([[0.0], [1.0], [2.0]])
    v = np.array([[0.1], [np.nan], [0.0]])
    params = ModelParams(d=1, alpha=1.0, N=3, T=1.0, M=2.0)
    times = None if snapshot_step is None else np.linspace(0.0, 1.0, 11)
    with pytest.raises(NonFiniteState):
        integrate(ParticleState(0.0, x, v), params, snapshot_times=times)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_state_is_reported_as_non_finite():
    # finite at the start, but the velocity differences overflow; the
    # closing speeds overflow too, so the geometric cap alone would report
    # a step collapse
    x = np.array([[0.0], [1.0]])
    v = np.array([[1e308], [-1e308]])
    params = ModelParams(d=1, alpha=1.0, N=2, T=1.0, M=2.0)
    with pytest.raises(NonFiniteState):
        integrate(ParticleState(0.0, x, v), params)
