"""Sampling recipes, binned fields, the per-snapshot record, and the two
study drivers."""

import dataclasses
import math

import numpy as np
import pytest

import flocklab.dynamics
from flocklab import meanfield, pairs, schemas, storage, weakform
from flocklab.diagnostics import build_report
from flocklab.dynamics import ModelParams, ParticleState, Trajectory, integrate
from flocklab.errors import PivotBudgetExceeded, RejectionOverflow, StepCollapse
from flocklab.meanfield import (
    FieldGrid,
    InitialSpec,
    SnapshotStats,
    field_residuals,
    local_fields,
    pair_alignment_study,
    refinement_study,
    sample_initial,
    snapshot_fields,
    snapshot_stats,
)
from flocklab.measures import EmpiricalMeasure, _ordered_dot, dbl, union_support
from flocklab.rng import CounterRNG
from flocklab.weakform import (
    FieldBattery,
    VectorTestFunction,
    dissipation_margin,
    macro_battery,
    vector_battery,
)

from oracles import (
    from_particles,
    grid_enstrophy,
    loop_local_fields,
    loop_mk,
    loop_sample_initial,
    mk_index,
    ordered_norm,
    pair_series,
)


def box_spec(seed=0, d=1, velocity=None, vparams=None):
    return InitialSpec(
        d=d,
        density="uniform-box",
        density_params={"center": [0.0] * d, "halfwidth": 0.8},
        velocity=velocity or "linear-shear",
        velocity_params=vparams
        or {"base": [0.1] * d, "gradient": (0.3 * np.eye(d)).tolist()},
        seed=seed,
    )


# ---- sampling ----


def test_prefix_property():
    spec = box_spec(seed=11)
    x_small, v_small = sample_initial(spec, 6, bound=2.0)
    x_big, v_big = sample_initial(spec, 17, bound=2.0)
    assert np.array_equal(x_small, x_big[:6])
    assert np.array_equal(v_small, v_big[:6])


def recipe(density, velocity, d, seed, **over):
    """A recipe of each kind in dimension d whose every draw stays inside
    |x|, |v| <= 3; over replaces density parameters."""
    dparams = {
        "uniform-box": {"center": [0.1] * d, "halfwidth": 0.8},
        "truncated-gaussian": {"center": [0.2] * d, "sigma": 0.6, "cut": 0.9},
        "two-bump": {"centers": [[-0.6] * d, [0.5] * d], "halfwidth": 0.3,
                     "split": 0.4},
    }[density]
    vparams = {
        "constant": {"value": [0.2] * d},
        "linear-shear": {
            "base": [0.1] * d,
            "gradient": (0.1 * np.arange(d * d).reshape(d, d) - 0.3).tolist(),
        },
        "sinusoid": {"amplitude": [0.4, -0.3, 0.2][:d],
                     "wavenumber": [2.0, -1.3, 0.7][:d]},
        "two-speed-split": {"values": [[0.5] * d, [-0.5] * d],
                            "fraction": 0.3},
    }[velocity]
    return InitialSpec(d, density, {**dparams, **over}, velocity, vparams, seed)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_support_diameter_of_each_density(d):
    box = recipe("uniform-box", "constant", d, seed=0)
    assert box.support_diameter() == 2.0 * 0.8 * math.sqrt(d)
    gaussian = recipe("truncated-gaussian", "constant", d, seed=0)
    assert gaussian.support_diameter() == 2.0 * 0.9
    bumps = recipe("two-bump", "constant", d, seed=0)
    gap = np.linalg.norm(np.array([-0.6] * d) - np.array([0.5] * d))
    assert bumps.support_diameter() == pytest.approx(
        gap + 2.0 * 0.3 * math.sqrt(d), rel=1e-15
    )
    assert bumps.support_diameter() == pytest.approx(1.7 * math.sqrt(d), rel=1e-15)


def outcome(sampler, spec, n, bound):
    try:
        return sampler(spec, n, bound)
    except (ValueError, RejectionOverflow) as exc:
        return exc


def assert_matches_loop(spec, n, bound):
    """sample_initial gives the per-atom oracle's arrays bit for bit, or
    its exception by type, message and detail; returns the outcome."""
    want = outcome(loop_sample_initial, spec, n, bound)
    got = outcome(sample_initial, spec, n, bound)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "detail", None) == getattr(want, "detail", None)
    else:
        assert not isinstance(got, Exception), got
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
    return want


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("velocity", [
    "constant", "linear-shear", "sinusoid", "two-speed-split",
])
@pytest.mark.parametrize("density", [
    "uniform-box", "truncated-gaussian", "two-bump",
])
def test_sample_matches_per_atom_loop(density, velocity, d):
    for seed in (0, 1, 5, 2**63 + 11):
        spec = recipe(density, velocity, d, seed)
        for n in (1, 300):
            assert not isinstance(assert_matches_loop(spec, n, 3.0), Exception)


@pytest.mark.parametrize("d, halfwidth", [(1, 2.0**-50), (2, 2.0**-52)])
def test_forced_repeats_match_per_atom_loop(d, halfwidth):
    # positions this close to 1.0 take about a dozen values in all, so
    # most of these draws hold atoms that repeat earlier ones
    for seed in (0, 1, 5):
        spec = recipe("uniform-box", "two-speed-split", d, seed,
                      center=[1.0] * d, halfwidth=halfwidth)
        for n in (3, 5, 8):
            x, _ = assert_matches_loop(spec, n, 3.0)
            assert len(np.unique(x, axis=0)) == n


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_norms_are_the_per_vector_norms(d):
    # the gaussian cut and the bound decide on these norms; each row adds
    # its squares in index order, as the per-atom loop does
    a = CounterRNG(d).uniform(3000 * d, -1.0, 1.0).reshape(3000, d)
    want = np.array([ordered_norm(row) for row in a])
    assert np.array_equal(np.sqrt(_ordered_dot(a, a)), want)


@pytest.mark.parametrize("spec, n, bound, error, message", [
    # every gaussian round of atom 0 falls outside the cut
    (recipe("truncated-gaussian", "constant", 2, 4, sigma=1.0, cut=1e-9),
     5, 3.0, RejectionOverflow, "truncated gaussian"),
    # about one round in 330 lands inside the cut: atom 22 exhausts them
    (recipe("truncated-gaussian", "linear-shear", 1, 3, sigma=1.0,
            cut=0.0038), 300, 3.0, RejectionOverflow, "truncated gaussian"),
    # every position rounds to 1.0: atom 1 repeats atom 0 in each redraw,
    # and its gaussian rounds run out first
    (recipe("truncated-gaussian", "constant", 1, 1, center=[1.0],
            sigma=2.0**-50, cut=0.0038 * 2.0**-50),
     3, 3.0, RejectionOverflow, "truncated gaussian"),
    # a dozen positions for 20 atoms
    (recipe("uniform-box", "constant", 1, 0, center=[1.0],
            halfwidth=2.0**-50),
     20, 3.0, RejectionOverflow, "duplicate-position"),
    (recipe("uniform-box", "constant", 1, 0), 300, 0.85, ValueError, "bound"),
    (recipe("uniform-box", "sinusoid", 2, 1), 300, 0.5, ValueError, "bound"),
    # the same draws as the overflows above, with a bound that an earlier
    # atom escapes
    (recipe("truncated-gaussian", "linear-shear", 1, 3, sigma=1.0,
            cut=0.0038), 300, 0.2, ValueError, "bound"),
    (recipe("uniform-box", "constant", 1, 0, center=[1.0],
            halfwidth=2.0**-50), 20, 1.0, ValueError, "bound"),
])
def test_failed_sample_raises_as_per_atom_loop(spec, n, bound, error, message):
    want = assert_matches_loop(spec, n, bound)
    assert isinstance(want, error) and message in str(want)


def test_seed_changes_sample():
    xa, _ = sample_initial(box_spec(seed=1), 5, bound=2.0)
    xb, _ = sample_initial(box_spec(seed=2), 5, bound=2.0)
    assert not np.array_equal(xa, xb)


def test_spec_validation():
    with pytest.raises(ValueError):
        InitialSpec(1, "uniform-box", {"center": [0.0], "halfwidth": -1.0},
                    "constant", {"value": [0.0]}, 0)
    with pytest.raises(ValueError):
        InitialSpec(1, "no-such-density", {}, "constant", {"value": [0.0]}, 0)
    with pytest.raises(ValueError):
        InitialSpec(1, "uniform-box", {"center": [0.0], "halfwidth": 1.0},
                    "two-speed-split",
                    {"values": [[1.0], [-1.0]], "fraction": 1.5}, 0)


@pytest.mark.parametrize("density, dparams, velocity, vparams, key", [
    ("uniform-box", {"center": [0.3], "halfwidth": 0.5},
     "constant", {"value": [0.1, 0.0]}, "center"),
    ("uniform-box", {"center": [0.3, 0.0], "halfwidth": 0.5},
     "constant", {"value": [0.1]}, "value"),
    ("two-bump", {"centers": [[0.3], [-0.3]], "halfwidth": 0.1, "split": 0.5},
     "constant", {"value": [0.1, 0.0]}, "centers"),
    ("truncated-gaussian", {"center": [0.0, 0.0], "sigma": 0.3, "cut": 0.6},
     "sinusoid", {"amplitude": [0.4], "wavenumber": [1.0, 2.0]}, "amplitude"),
    ("truncated-gaussian", {"center": [0.0, 0.0], "sigma": 0.3, "cut": 0.6},
     "sinusoid", {"amplitude": [0.4, 0.0], "wavenumber": 2.0}, "wavenumber"),
    ("uniform-box", {"center": [0.0, 0.0], "halfwidth": 0.5},
     "linear-shear", {"base": [0.1], "gradient": np.eye(2).tolist()}, "base"),
    ("uniform-box", {"center": [0.0, 0.0], "halfwidth": 0.5},
     "linear-shear", {"base": [0.1, 0.0], "gradient": [[1.0, 0.0]]},
     "gradient"),
    ("uniform-box", {"center": [0.0, 0.0], "halfwidth": 0.5},
     "two-speed-split", {"values": [[0.5, 0.0], [-0.5]], "fraction": 0.5},
     "values"),
])
def test_vector_parameters_must_match_the_dimension(
    density, dparams, velocity, vparams, key
):
    # numpy would broadcast a length-1 vector over d = 2 without a word
    with pytest.raises(ValueError, match=repr(key)):
        InitialSpec(2, density, dparams, velocity, vparams, seed=0)


@pytest.mark.parametrize("density, dparams, velocity, vparams, key", [
    ("uniform-box", {"halfwidth": 0.8}, "constant", {"value": [0.1]}, "center"),
    ("uniform-box", {"center": [0.0], "halfwidth": 0.8},
     "two-speed-split", {"values": [[0.5], [-0.5]]}, "fraction"),
])
def test_missing_parameters_are_named(density, dparams, velocity, vparams, key):
    with pytest.raises(ValueError, match=f"{key!r} is missing"):
        InitialSpec(1, density, dparams, velocity, vparams, seed=0)


@pytest.mark.parametrize("density, dparams, velocity, vparams, kind, key", [
    # these drew 1000 repeats per atom before a RejectionOverflow
    ("uniform-box", {"center": [0.0], "halfwidth": math.nan},
     "constant", {"value": [0.1]}, "uniform-box", "halfwidth"),
    ("uniform-box", {"center": [0.0], "halfwidth": math.inf},
     "constant", {"value": [0.1]}, "uniform-box", "halfwidth"),
    ("uniform-box", {"center": [math.nan], "halfwidth": 1.0},
     "constant", {"value": [0.1]}, "uniform-box", "center"),
    # this sampled NaN velocities inside the bound
    ("uniform-box", {"center": [0.0], "halfwidth": 1.0},
     "constant", {"value": [math.nan]}, "constant", "value"),
    ("two-bump", {"centers": [[-1.0], [math.inf]], "halfwidth": 0.1,
                  "split": 0.5},
     "constant", {"value": [0.1]}, "two-bump", "centers"),
    ("truncated-gaussian", {"center": [0.0], "sigma": 0.3, "cut": math.inf},
     "constant", {"value": [0.1]}, "truncated-gaussian", "cut"),
    ("uniform-box", {"center": [0.0], "halfwidth": 1.0},
     "two-speed-split", {"values": [[0.5], [-0.5]], "fraction": math.nan},
     "two-speed-split", "fraction"),
])
def test_non_finite_parameters_are_named(
    density, dparams, velocity, vparams, kind, key
):
    with pytest.raises(ValueError, match=f"^{kind} parameter {key!r} must be finite"):
        InitialSpec(1, density, dparams, velocity, vparams, seed=0)


@pytest.mark.parametrize("dparams, vparams, kind, key", [
    ({"center": [0.0], "halfwidth": 1.0, "halfwidht": 3},
     {"value": [0.1]}, "uniform-box", "halfwidht"),
    ({"center": [0.0], "halfwidth": 1.0},
     {"value": [0.1], "fraction": 0.5}, "constant", "fraction"),
])
def test_unknown_parameters_are_named(dparams, vparams, kind, key):
    with pytest.raises(ValueError, match=f"^{kind} parameter {key!r} is unknown"):
        InitialSpec(1, "uniform-box", dparams, "constant", vparams, seed=0)


def test_schema_lists_the_kinds_of_the_recipe_table():
    # schemas may not import meanfield, so the kind names live in both
    props = schemas._INITIAL["properties"]
    assert props["density"]["enum"] == list(meanfield._DENSITIES)
    assert props["velocity"]["enum"] == list(meanfield._VELOCITIES)


def test_bound_enforced_at_sampling():
    spec = box_spec(velocity="constant", vparams={"value": [3.0]})
    with pytest.raises(ValueError, match="bound"):
        sample_initial(spec, 4, bound=1.0)


def test_truncated_gaussian_respects_cut():
    spec = InitialSpec(
        d=2,
        density="truncated-gaussian",
        density_params={"center": [0.5, -0.5], "sigma": 0.6, "cut": 0.9},
        velocity="constant",
        velocity_params={"value": [0.2, 0.0]},
        seed=4,
    )
    x, _ = sample_initial(spec, 300, bound=3.0)
    r = np.linalg.norm(x - np.array([0.5, -0.5]), axis=1)
    assert r.max() <= 0.9


def test_truncated_gaussian_overflow():
    spec = InitialSpec(
        d=2,
        density="truncated-gaussian",
        density_params={"center": [0.0, 0.0], "sigma": 1.0, "cut": 1e-9},
        velocity="constant",
        velocity_params={"value": [0.0, 0.0]},
        seed=4,
    )
    with pytest.raises(RejectionOverflow):
        sample_initial(spec, 1, bound=3.0)


def test_two_speed_coin_leaves_positions_alone():
    base = {"center": [0.0], "halfwidth": 0.8}
    a = InitialSpec(1, "uniform-box", base, "constant",
                    {"value": [0.5]}, seed=9)
    b = InitialSpec(1, "uniform-box", base, "two-speed-split",
                    {"values": [[0.5], [-0.5]], "fraction": 0.5}, seed=9)
    xa, _ = sample_initial(a, 40, bound=2.0)
    xb, vb = sample_initial(b, 40, bound=2.0)
    assert np.array_equal(xa, xb)
    assert set(np.unique(vb)) == {-0.5, 0.5}


def test_two_bump_density():
    spec = InitialSpec(
        d=1,
        density="two-bump",
        density_params={"centers": [[-1.0], [1.0]], "halfwidth": 0.3,
                        "split": 0.5},
        velocity="constant",
        velocity_params={"value": [0.0]},
        seed=3,
    )
    x, _ = sample_initial(spec, 200, bound=2.0)
    left = (np.abs(x + 1.0) <= 0.3).ravel()
    right = (np.abs(x - 1.0) <= 0.3).ravel()
    assert (left | right).all()
    assert 40 < left.sum() < 160  # both bumps populated


def test_sinusoid_velocity():
    spec = InitialSpec(
        d=2,
        density="uniform-box",
        density_params={"center": [0.0, 0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.4, 0.0], "wavenumber": [2.0, 0.0]},
        seed=6,
    )
    x, v = sample_initial(spec, 50, bound=2.0)
    want = np.array([0.4, 0.0])[None, :] * np.sin(2.0 * x[:, :1])
    assert np.allclose(v, want, atol=1e-12)


# ---- binned fields ----


def phase_measure(x, v, w=None):
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    n = x.shape[0]
    w = np.full(n, 1.0 / n) if w is None else np.asarray(w, float)
    return EmpiricalMeasure(np.hstack([x, v]), w)


def test_local_fields_hand_example():
    mu = phase_measure(
        [[0.1], [0.6], [0.7]],
        [[1.0], [0.0], [0.6]],
        [0.2, 0.4, 0.4],
    )
    grid = local_fields(mu, 1, 0.5)
    assert isinstance(grid, FieldGrid)
    assert grid.h == 0.5 and grid.d == 1
    assert grid.barycenter.shape == grid.velocity.shape == (2, 1)
    assert grid.mass.shape == grid.cov_trace.shape == (2,)
    # cell [0, 0.5) holds the first atom, cell [0.5, 1) the other two
    assert grid.mass == pytest.approx([0.2, 0.8])
    assert grid.velocity[:, 0] == pytest.approx([1.0, 0.3])
    # variance around 0.3 with equal masses: 0.09
    assert grid.cov_trace == pytest.approx([0.0, 0.09])
    assert grid.barycenter[:, 0] == pytest.approx([0.1, 0.65])
    assert grid.mass.sum() == pytest.approx(1.0)


def test_grid_anchored_at_origin():
    # -0.1 and 0.1 straddle the cell boundary at 0, in index order -1, 0
    mu = phase_measure([[0.1], [-0.1]], [[0.0], [0.0]])
    grid = local_fields(mu, 1, 0.5)
    assert grid.barycenter[:, 0].tolist() == [-0.1, 0.1]
    # 0.1 and 0.4 share the cell [0, 0.5)
    mu = phase_measure([[0.1], [0.4]], [[0.0], [0.0]])
    assert local_fields(mu, 1, 0.5).mass.tolist() == [1.0]


def test_mk_index_zero_when_cells_single_speed():
    mu = phase_measure([[0.1], [0.9]], [[0.4], [-0.2]])
    assert mk_index(mu, 1, 0.5) == 0.0
    # co-located atoms with one shared velocity are also silent
    mu2 = phase_measure([[0.1], [0.1]], [[0.4], [0.4]])
    assert mk_index(mu2, 1, 0.5) == 0.0


def test_single_speed_cells_give_their_velocity_back():
    # 400 atoms at h = 1e-4 leave 392 one-atom cells; a plain
    # (sum w v) / mass missed v by 1 ulp in 62 of them
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (400, 1))
    v = rng.uniform(-0.7, 0.7, (400, 1))
    grid = local_fields(phase_measure(x, v), 1, 1e-4)
    _, first, count = np.unique(
        np.floor(x[:, 0] / 1e-4), return_index=True, return_counts=True
    )
    alone = count == 1
    assert alone.sum() == 392
    assert np.array_equal(grid.velocity[alone, 0], v[first[alone], 0])
    assert not grid.cov_trace[alone].any()
    # five atoms of one velocity in one cell, whose plain mean rounds away
    rng = np.random.default_rng(7)
    m = int(rng.integers(2, 6))
    w = rng.uniform(0.1, 1.0, m)
    w /= w.sum()
    v0 = rng.uniform(-1.0, 1.0)
    x = rng.uniform(0.0, 0.5, (m, 1))
    assert m == 5 and sum((w * v0).tolist()) / sum(w.tolist()) != v0
    grid = local_fields(phase_measure(x, np.full((m, 1), v0), w), 1, 1.0)
    assert grid.velocity.tolist() == [[v0]]
    assert grid.cov_trace.tolist() == [0.0] and grid.mk() == 0.0


def test_mk_index_equals_variance_in_one_cell():
    mu = phase_measure([[0.1], [0.2]], [[1.0], [0.0]], [0.5, 0.5])
    # single cell: mass-weighted variance of {1, 0} around 1/2 is 1/4
    assert mk_index(mu, 1, 1.0) == pytest.approx(0.25)


def test_mk_index_lipschitz_bound():
    x = CounterRNG(0).uniform(200, -1.0, 1.0).reshape(200, 1)
    lip = 0.5
    v = lip * x  # exactly Lipschitz velocity field
    mu = phase_measure(x, v)
    for h in (0.5, 0.25, 0.125):
        assert mk_index(mu, 1, h) <= lip**2 * 1 * h**2 + 1e-15


def random_phase_measure(n, d, zero_weights, seed):
    """n atoms in [-2, 2]^d with random weights.  With zero_weights, about a
    third of them weigh nothing, and one more zero-weight atom sits alone in
    a far cell."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, d))
    v = rng.normal(0.0, 1.0, (n, d))
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    if zero_weights:
        w[rng.random(n) < 0.3] = 0.0
        x = np.vstack([x, np.full((1, d), -7.3)])
        v = np.vstack([v, np.full((1, d), 4.0)])
        w = np.append(w, 0.0)
    return phase_measure(x, v, w)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 33, 200])
@pytest.mark.parametrize("zero_weights", [False, True])
def test_local_fields_matches_loop_oracle(d, n, zero_weights):
    mu = random_phase_measure(n, d, zero_weights, seed=100 * d + n)
    for h in (0.07, 0.3, 1.1, 5.0):
        cells = loop_local_fields(mu, d, h)
        grid = local_fields(mu, d, h)
        want = {
            "barycenter": np.array([c.barycenter for c in cells]).reshape(-1, d),
            "velocity": np.array([c.velocity for c in cells]).reshape(-1, d),
            "mass": np.array([c.mass for c in cells]),
            "cov_trace": np.array([c.cov_trace for c in cells]),
        }
        for name, value in want.items():
            assert np.array_equal(getattr(grid, name), value), (name, h)
        assert grid.mk() == loop_mk(cells)
        if n == 0:  # no atoms, or one of zero weight: no cells
            assert grid.mass.size == 0 and grid.mk() == 0.0


def test_local_fields_of_weightless_atoms_is_empty():
    mu = phase_measure([[0.1, 0.2], [-1.0, 3.0]], [[1.0, 0.0]] * 2, [0.0, 0.0])
    grid = local_fields(mu, 2, 0.5)
    assert grid.barycenter.shape == grid.velocity.shape == (0, 2)
    assert grid.mass.shape == grid.cov_trace.shape == (0,)
    assert grid.mk() == 0.0
    with pytest.raises(ValueError, match="cell width"):
        local_fields(mu, 2, 0.0)


def test_local_fields_rejects_nan_cell_width():
    mu = phase_measure([[0.1, 0.2], [-1.0, 3.0]], [[1.0, 0.0]] * 2, [0.5, 0.5])
    with pytest.raises(ValueError, match="cell width"):
        local_fields(mu, 2, math.nan)


def test_tiny_cell_width_keeps_atoms_in_their_own_cells():
    # x / h near 1e299 is far past the int64 range, and its cells stay apart
    mu = phase_measure([[0.1], [0.5], [-0.3]], [[1.0], [0.0], [-1.0]])
    grid = local_fields(mu, 1, 1e-300)
    assert grid.barycenter[:, 0].tolist() == [-0.3, 0.1, 0.5]
    assert grid.velocity[:, 0].tolist() == [-1.0, 1.0, 0.0]
    assert grid.cov_trace.tolist() == [0.0, 0.0, 0.0]
    # past the float range no cell index exists
    with pytest.raises(ValueError, match="cell width 1e-310 puts a cell beyond"):
        local_fields(mu, 1, 1e-310)


def test_snapshot_fields_rejects_nan_cell_width():
    traj = stacked_trajectory(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="cell width"):
        snapshot_fields(traj, math.nan)


def stacked_trajectory(xs, vs, alpha=1.5):
    """A Trajectory holding the given (S, N, d) snapshots, with no step log."""
    s, n, d = xs.shape
    params = ModelParams(d=d, alpha=alpha, N=n, T=1.0, M=10.0)
    empty = np.zeros(0)
    return Trajectory(
        params, np.linspace(0.0, 1.0, s), xs, vs, empty, empty, empty, empty
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_fields_equal_per_measure_binning(d):
    # snapshot_fields bins trajectory rows in one pass; each grid equals
    # local_fields of that snapshot's uniform-weight measure
    rng = np.random.default_rng(40 + d)
    xs = rng.uniform(-1.0, 1.0, (6, 40, d))
    vs = rng.normal(size=(6, 40, d))
    xs[3, 5:9] = xs[3, 0]  # atoms sharing a cell and a position
    traj = stacked_trajectory(xs, vs)
    for h in (0.07, 0.3, 1.1):
        for rows in (None, [4, 0, 4], [5]):
            got = snapshot_fields(traj, h, rows)
            index = range(len(traj)) if rows is None else rows
            assert len(got) == len(index)
            for grid, k in zip(got, index):
                want = local_fields(from_particles(traj[k]), d, h)
                assert grid.h == want.h and grid.d == want.d
                for name in ("barycenter", "velocity", "mass", "cov_trace"):
                    assert np.array_equal(getattr(grid, name), getattr(want, name))
        assert snapshot_fields(traj, h, []) == []
    with pytest.raises(ValueError):
        snapshot_fields(traj, 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_field_residuals_equal_direct_battery_calls(d):
    n, alpha, horizon, bound, h = 24, 1.5, 0.3, 2.0, 0.35
    x0, v0 = sample_initial(box_spec(seed=8, d=d), n, bound)
    traj = integrate(
        ParticleState(0.0, x0, v0),
        ModelParams(d=d, alpha=alpha, N=n, T=horizon, M=bound),
        tol=1e-7,
        snapshot_times=np.linspace(0.0, horizon, 7),
    )
    times = traj.times
    vb = vector_battery(d, horizon, bound, size=6, seed=3)
    cont, mom, margins = field_residuals(traj, h, FieldBattery(vb, times))
    want = [local_fields(from_particles(s), d, h) for s in traj.snapshots]
    for got, ref in zip(snapshot_fields(traj, h), want, strict=True):
        for name in ("barycenter", "velocity", "mass", "cov_trace"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
    # continuity reads the scalar parts: the macro battery of that size and seed
    mb = macro_battery(d, horizon, bound, size=6, seed=3)
    scalar = FieldBattery([VectorTestFunction(phi, 0) for phi in mb], times)
    assert cont == scalar.residuals(want, 1.0)[0]
    assert mom == FieldBattery(vb, times).residuals(
        want, alpha, initial_atoms=(x0, v0, np.full(n, 1.0 / n))
    )[1]
    assert np.array_equal(margins, dissipation_margin(times, want, alpha))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_snapshot_stats_rows_depend_on_their_snapshot_alone(d):
    # every column of a row reads that snapshot alone: repeated, reversed
    # and single rows give the full record's rows, bit for bit
    rng = np.random.default_rng(60 + d)
    xs = rng.uniform(-1.0, 1.0, (6, 30, d))
    vs = rng.normal(size=(6, 30, d))
    xs[2, 4:7] = xs[2, 0]  # co-located atoms
    traj = stacked_trajectory(xs, vs)
    ladder = (0.07, 0.3, 1.1)
    full = snapshot_stats(traj, slice(None), ladder)
    assert full.mkvar.shape == full.max_cell_mass.shape == (6, 3)
    for rows in ([4, 0, 4], [5, 4, 3, 2, 1, 0], [3]):
        part = snapshot_stats(traj, rows, ladder)
        assert part.h_ladder == ladder
        for field in dataclasses.fields(SnapshotStats):
            if field.name != "h_ladder":
                want = getattr(full, field.name)[rows]
                assert np.array_equal(getattr(part, field.name), want)


def test_snapshot_stats_without_widths_has_empty_binned_columns():
    rng = np.random.default_rng(64)
    traj = stacked_trajectory(
        rng.uniform(-1.0, 1.0, (4, 10, 2)), rng.normal(size=(4, 10, 2))
    )
    for rows, s in ((slice(None), 4), ([1, 1], 2), ([], 0)):
        stats = snapshot_stats(traj, rows, ())
        assert stats.h_ladder == ()
        assert stats.mkvar.shape == stats.max_cell_mass.shape == (s, 0)
        assert stats.energy.shape == stats.min_distance.shape == (s,)
        assert stats.momentum.shape == (s, 2)


# ---- refinement study ----


def small_study():
    spec = box_spec(seed=21)
    return refinement_study(
        spec,
        n_list=[8, 16],
        alpha=1.0,
        horizon=0.2,
        bound=2.0,
        h=0.25,
        probe_times=[0.1, 0.2],
        tol=1e-6,
        quad_points=9,
        battery_size=4,
    )


def test_refinement_study_smoke():
    rep = small_study()
    assert rep.n_list == (8, 16)
    assert len(rep.rows) == 2
    assert rep.h_ladder == (0.5, 0.25, 0.125)
    for row in rep.rows:
        assert row.error is None
        assert len(row.energy) == 2
        assert len(row.mk) == 2 and len(row.mk[0]) == 3
        assert len(row.max_cell_mass) == 2
        # heaviest cell bounded by total mass, and coarser bins are heavier
        for probe_row in row.max_cell_mass:
            assert probe_row[0] >= probe_row[1] - 1e-15
            assert probe_row[1] >= probe_row[2] - 1e-15
            assert probe_row[0] <= 1.0 + 1e-12
        assert row.continuity >= 0.0
        assert row.momentum >= 0.0
        assert len(row.margins) == 2
    assert len(rep.dbl_cauchy) == 1
    assert len(rep.dbl_cauchy[0]) == 2
    assert all(v >= 0 for v in rep.dbl_cauchy[0])
    assert rep.dbl_errors == (None,)
    assert all(v >= 0 for v in rep.energy_cauchy[0])
    d = storage._plain(rep)
    assert d["rows"][0]["n"] == 8


def test_study_battery_equals_per_n_draws(monkeypatch):
    # the study draws its battery once for every N; each N's residuals are
    # those of a battery drawn for that trajectory alone
    seen = {}
    shared = meanfield.field_residuals

    def spy(traj, h, battery):
        out = shared(traj, h, battery)
        seen[traj.params.N] = (traj, battery, out)
        return out

    monkeypatch.setattr(meanfield, "field_residuals", spy)
    rep = small_study()
    monkeypatch.undo()
    assert len({id(battery) for _, battery, _ in seen.values()}) == 1
    for row in rep.rows:
        traj, _, (cont, mom, margins) = seen[row.n]
        grids = snapshot_fields(traj, 0.25)
        p = traj.params
        own = FieldBattery(vector_battery(p.d, p.T, p.M, 4, 0), traj.times)
        want_cont, want_mom, want_margins = field_residuals(traj, 0.25, own)
        assert cont == want_cont
        assert mom == want_mom
        assert np.array_equal(margins, want_margins)
        assert np.array_equal(
            margins, dissipation_margin(traj.times, grids, traj.params.alpha)
        )
        assert row.continuity == max(want_cont)
        assert row.momentum == max(want_mom)
        probe_idx = [int(np.argmin(np.abs(traj.times - p))) for p in (0.1, 0.2)]
        assert row.margins == tuple(float(margins[i]) for i in probe_idx)


@pytest.mark.parametrize("name", ["kernel", "_bump"])
def test_study_builds_psi_and_bumps_once_per_snapshot(monkeypatch, name):
    # one field pass: each occupied snapshot builds the cell kernel psi and
    # the battery's bumps once; the bumps are evaluated once more at the
    # unbinned t = 0 atoms of each N
    calls = []
    occupied = []
    real = getattr(weakform, name)
    shared = meanfield.field_residuals

    def count(*args):
        calls.append(name)
        return real(*args)

    def battery_spy(traj, h, battery):
        occupied.append(sum(grid.mass.size > 0 for grid in snapshot_fields(traj, h)))
        return shared(traj, h, battery)

    monkeypatch.setattr(weakform, name, count)
    monkeypatch.setattr(meanfield, "field_residuals", battery_spy)
    small_study()
    assert len(occupied) == 2 and min(occupied) > 0
    per_n = 1 if name == "_bump" else 0
    assert len(calls) == sum(occupied) + per_n * len(occupied)


def test_study_probe_rows_equal_the_diagnostics_report(monkeypatch):
    # one instrument record: a study's probe row is the diagnostics
    # report's row at that snapshot and width, bit for bit
    seen = {}
    shared = meanfield.field_residuals

    def spy(traj, h, battery):
        seen[traj.params.N] = traj
        return shared(traj, h, battery)

    monkeypatch.setattr(meanfield, "field_residuals", spy)
    rep = small_study()
    monkeypatch.undo()
    for row in rep.rows:
        traj = seen[row.n]
        diam = float(pairs.distances(traj.x[0]).max())
        report = build_report(traj, tuple(h / diam for h in rep.h_ladder))
        assert report.h_ladder == rep.h_ladder
        idx = [int(np.argmin(np.abs(traj.times - t))) for t in rep.probe_times]
        assert np.array_equal(row.energy, report.energy[idx])
        assert np.array_equal(row.mk, report.mkvar[idx])
        assert np.array_equal(row.max_cell_mass, report.max_cell_mass[idx])


def test_battery_on_other_times_is_rejected():
    x0, v0 = sample_initial(box_spec(seed=3), 6, 2.0)
    traj = integrate(
        ParticleState(0.0, x0, v0),
        ModelParams(d=1, alpha=1.5, N=6, T=0.2, M=2.0),
        tol=1e-6,
        snapshot_times=np.linspace(0.0, 0.2, 5),
    )
    times = np.linspace(0.0, 0.2, 9)
    battery = FieldBattery(vector_battery(1, 0.2, 2.0, size=3), times)
    with pytest.raises(ValueError, match="snapshot times"):
        field_residuals(traj, 0.25, battery)


def test_refinement_study_survives_single_failure(monkeypatch):
    real = flocklab.dynamics.integrate

    def flaky(state0, params, **kw):
        if params.N == 16:
            raise StepCollapse("forced", t=0.0, step=0.0)
        return real(state0, params, **kw)

    monkeypatch.setattr(flocklab.dynamics, "integrate", flaky)
    rep = small_study()
    good, bad = rep.rows
    assert good.error is None
    assert bad.error is not None and bad.energy is None
    assert rep.dbl_cauchy == (None,)
    assert rep.dbl_errors == (None,)
    assert rep.energy_cauchy == (None,)


def test_refinement_study_samples_each_n(monkeypatch):
    # each N draws its own sample, and prefix stability makes it the
    # prefix of one draw of the largest N
    real = meanfield.sample_initial
    drawn = []

    def record(spec, n, bound):
        drawn.append(n)
        return real(spec, n, bound)

    def prefix_of_16(spec, n, bound):
        return tuple(a[:n] for a in real(spec, 16, bound))

    monkeypatch.setattr(meanfield, "sample_initial", record)
    rep = small_study()
    assert drawn == [8, 16]
    assert all(row.error is None for row in rep.rows)
    monkeypatch.setattr(meanfield, "sample_initial", prefix_of_16)
    assert small_study().rows == rep.rows


def test_rejection_overflow_fails_only_the_runs_past_its_atom(monkeypatch):
    # a prefix-stable draw that overflows at atom 12 fails every n > 12
    real = meanfield.sample_initial
    drawn = []

    def overflow_at_12(spec, n, bound):
        drawn.append(n)
        if n > 12:
            raise RejectionOverflow("forced", atom=12, budget=1000)
        return real(spec, n, bound)

    want = small_study().rows
    monkeypatch.setattr(meanfield, "sample_initial", overflow_at_12)
    rep = small_study()
    assert drawn == [8, 16]
    assert rep.rows[0] == want[0]
    assert rep.rows[1].energy is None
    assert rep.rows[1].error == {
        "error": "RejectionOverflow",
        "message": "forced",
        "detail": {"atom": 12, "budget": 1000},
    }
    assert rep.dbl_cauchy == (None,)


def test_bound_escape_fails_the_study_at_the_first_n_past_its_atom(monkeypatch):
    # a bound escape is not a run failure: the first N that reaches the
    # escaping atom raises it, after the N before it have run
    real = meanfield.sample_initial
    drawn = []

    def escape_at_12(spec, n, bound):
        drawn.append(n)
        if n > 12:
            raise ValueError("initial recipe escapes the configured bound")
        return real(spec, n, bound)

    monkeypatch.setattr(meanfield, "sample_initial", escape_at_12)
    with pytest.raises(ValueError, match="escapes the configured bound"):
        small_study()
    assert drawn == [8, 16]


def test_refinement_study_records_failed_flat_distance(monkeypatch):
    # the pair's flat distance fails once every run has finished
    def over_budget(mu, nu):
        raise PivotBudgetExceeded("forced", support=24, pivots=3, budget=3)

    monkeypatch.setattr(meanfield, "dbl", over_budget)
    rep = small_study()
    assert all(row.error is None for row in rep.rows)
    assert rep.dbl_cauchy == (None,)
    assert rep.energy_cauchy[0] is not None
    (err,) = rep.dbl_errors
    assert err["error"] == "PivotBudgetExceeded"
    assert err["detail"] == {"support": 24, "pivots": 3, "budget": 3}
    assert storage._plain(rep)["dbl_errors"] == [err]


def test_refinement_study_measures_past_the_old_cap(monkeypatch):
    # N = 1000 and 1050 in d = 1: the pair's union support passes 2000
    # atoms, and the study records its flat distance
    supports = []

    def counted(mu, nu):
        supports.append(union_support(mu, nu)[0].shape[0])
        return dbl(mu, nu)

    monkeypatch.setattr(meanfield, "dbl", counted)
    rep = refinement_study(
        box_spec(), [1000, 1050], alpha=1.0, horizon=0.01, bound=2.0,
        h=0.25, probe_times=[0.01], tol=1e-6, quad_points=2, battery_size=1,
    )
    assert supports == [2050]
    assert rep.dbl_errors == (None,)
    ((dist,),) = rep.dbl_cauchy
    assert 0.0 < dist < 0.01


def test_refinement_study_validates_probes():
    with pytest.raises(ValueError):
        refinement_study(
            box_spec(), [4, 8], alpha=1.0, horizon=0.2, bound=2.0,
            h=0.25, probe_times=[0.5],
        )
    with pytest.raises(ValueError):
        refinement_study(
            box_spec(), [4, 4], alpha=1.0, horizon=0.2, bound=2.0,
            h=0.25, probe_times=[0.1],
        )


# ---- pair study ----


def test_pair_study_half_life_matches_kernel_law():
    study = pair_alignment_study(
        [0.5, 1.0],
        v1=[0.3, 0.2],
        v2=[0.3, -0.2],
        alpha=1.5,
        horizon=6.0,
        grid_points=2048,
        tol=1e-10,
    )
    r0, r1 = study.rows
    assert r0.error is None and r1.error is None
    assert 0 < r0.t_half < r1.t_half  # farther pairs align slower
    for r in study.rows:
        assert r.kernel_integral == pytest.approx(math.log(2.0), abs=2e-3)
        assert r.min_distance == pytest.approx(r.eps, abs=1e-12)


def test_pair_study_dissipation_matches_energy_drop():
    study = pair_alignment_study(
        [0.5],
        v1=[0.3, 0.2],
        v2=[0.3, -0.2],
        alpha=1.5,
        horizon=6.0,
        grid_points=2048,
    )
    row = study.rows[0]
    # for two bodies the dissipation integral equals the kinetic energy
    # drop (|w0|^2 - |w(T)|^2)/4, and by t = 6 the pair is fully aligned,
    # so the drop is |w0|^2/4 = 0.16/4
    assert row.d_integral == pytest.approx(0.04, abs=1e-4)


def test_pair_study_records_a_failed_gap_and_keeps_the_others():
    # co-located particles: the first force evaluation has no kernel
    study = pair_alignment_study(
        [0.0, 0.5], [0.5], [-0.5], alpha=2.0, horizon=1.0, grid_points=64
    )
    failed, kept = study.rows
    assert failed.eps == 0.0 and failed.error["error"] == "CollisionalState"
    assert failed.t_half is None and failed.kernel_integral is None
    assert failed.d_integral is None and failed.min_distance is None
    assert kept.error is None and kept.t_half > 0.0


def test_pair_study_gap_that_never_halves():
    # psi = 4^-1.5 = 1/8 would take ln 2 / psi ~ 5.5 to halve |w|, far
    # beyond the horizon 2, and the sideways drift only widens the gap
    v1, v2 = [0.3, 0.2], [0.3, -0.2]
    study = pair_alignment_study([4.0], v1, v2, alpha=1.5, horizon=2.0, grid_points=512)
    row = study.rows[0]
    assert row.error is None
    assert row.t_half is None and row.kernel_integral is None
    assert row.min_distance == pytest.approx(4.0, abs=1e-12)
    # the dissipation integral is the energy drop (|w0|^2 - |w(T)|^2) / 4
    params = ModelParams(d=2, alpha=1.5, N=2, T=2.0, M=1.0)
    x = np.array([[-2.0, 0.0], [2.0, 0.0]])
    traj = integrate(ParticleState(0.0, x, np.array([v1, v2])), params, tol=1e-10)
    w_end = traj.v[-1, 0] - traj.v[-1, 1]
    drop = (0.16 - w_end @ w_end) / 4.0
    assert 0.0 < drop < 0.75 * 0.16 / 4.0
    assert row.d_integral == pytest.approx(drop, rel=1e-4)


def test_pair_study_relative_speed_reaching_zero():
    # the close pair aligns exactly within the first snapshot interval, so
    # its relative speed there is 0.0: t_half takes the log-linear limit,
    # the snapshot before, and the farther pair keeps its own row
    study = pair_alignment_study(
        [1e-4, 0.5], [0.5], [-0.5], alpha=2.0, horizon=1.0, grid_points=64
    )
    close, far = study.rows
    assert close.error is None and far.error is None
    assert close.t_half == 0.0 and close.kernel_integral == 0.0
    assert far.t_half > 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_series_equal_per_snapshot_loops(d):
    # the pair study reads gap and dissipation from the stacked pass, and
    # the relative speed from the stacked velocity grid
    rng = np.random.default_rng(d)
    xs = rng.uniform(-1.0, 1.0, (1024, 2, d))
    vs = rng.uniform(-0.5, 0.5, (1024, 2, d))
    xs[5, 1] = xs[5, 0]  # co-located: dissipates nothing
    vs[7, 1] = vs[7, 0]  # in lockstep
    xs[9, 1] = xs[9, 0] + 1e-3
    gap = np.array([np.linalg.norm(x[0] - x[1]) for x in xs])
    speed = np.array([np.linalg.norm(v[0] - v[1]) for v in vs])
    for alpha in (1.0, 1.5, 2.0):
        dee, _, dist = pairs.snapshot_series(xs, vs, np.full(2, 0.5), alpha)
        rel = np.sqrt(pairs.sq_distances(vs)[:, 0, 1])
        want_dist, want_rel, want_dee = pair_series(xs, vs, alpha)
        assert np.array_equal(dee, want_dee)
        assert np.array_equal(dist, want_dist) and np.array_equal(rel, want_rel)
        per_measure = np.array([
            grid_enstrophy(from_particles(ParticleState(0.0, x, v)), d, alpha)
            for x, v in zip(xs[:40], vs[:40])
        ])
        assert np.array_equal(dee[:40], per_measure)
        assert dee[5] == 0.0 and dee[7] == 0.0
        if d == 1:
            assert np.array_equal(dist, gap) and np.array_equal(rel, speed)
        else:
            # np.linalg.norm sums through the BLAS, in its own order
            assert np.allclose(dist, gap, rtol=4e-16, atol=0.0)
            assert np.allclose(rel, speed, rtol=4e-16, atol=0.0)


def test_pair_study_equal_velocities():
    study = pair_alignment_study([0.25], [0.1, 0.0], [0.1, 0.0], alpha=1.0)
    row = study.rows[0]
    assert row.t_half == 0.0
    assert row.kernel_integral == 0.0
    assert row.d_integral == 0.0
