"""The flat-metric solvers against the dense revised simplex and against
HiGHS: the line DP (d = 1) also against the network simplex it replaced,
the working-set network simplex (d >= 2) also against the stored-arc
simplex it replaced, with its pivot budget, its tile height and its memory
bound, and the optimal potentials of both."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from flocklab import _flatlp
from flocklab.errors import PivotBudgetExceeded
from flocklab.measures import EmpiricalMeasure, dbl, union_support
from flocklab.pairs import separations

from oracles import (
    arc_simplex_flat_lp,
    dense_simplex_flat_lp,
    line_simplex_flat_lp,
    stored_arcs,
)

TOL = 1e-12


def highs_value(points, b):
    """max b.phi over |phi| <= 1 and |phi_k - phi_l| <= |p_k - p_l| for every
    pair of support points, solved by HiGHS."""
    K = len(b)
    k, l = np.nonzero(~np.eye(K, dtype=bool))
    dist = np.sqrt(((points[k] - points[l]) ** 2).sum(axis=1))
    rows = np.repeat(np.arange(k.size), 2)
    cols = np.stack([k, l], axis=1).ravel()
    vals = np.tile([1.0, -1.0], k.size)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(k.size, K)).tocsr()
    res = linprog(-b, A_ub=a_ub, b_ub=dist, bounds=[(-1.0, 1.0)] * K, method="highs")
    assert res.status == 0
    return -res.fun


def random_pair(rng, K, d, spread=1.0):
    """Two measures of unequal mass on about K union atoms in d dimensions,
    with zero-weight atoms and atoms that the union support merges."""
    k1 = K // 2
    k2 = K - k1 - K // 10
    p1 = rng.uniform(-spread, spread, (k1, d))
    shared = p1[rng.choice(k1, K // 10, replace=False)]
    p2 = np.vstack([rng.uniform(-spread, spread, (k2, d)), shared])
    w1 = rng.uniform(0.0, 1.0, k1) * (rng.uniform(size=k1) > 0.1)
    w2 = rng.uniform(0.0, 1.0, p2.shape[0])
    mu = EmpiricalMeasure(p1, w1 / w1.sum())
    nu = EmpiricalMeasure(p2, 0.7 * w2 / w2.sum())
    return union_support(mu, nu)


def assert_optimal_potential(points, b, value, phi):
    assert np.abs(phi).max() <= 1.0 + TOL
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    assert (np.abs(phi[:, None] - phi[None, :]) - dist).max() <= TOL
    assert float(b @ phi) == pytest.approx(value, abs=TOL)


@pytest.mark.parametrize(
    "d,K,spread",
    [
        (1, 400, 1.0),
        (1, 53, 1.0),
        (2, 400, 1.0),
        (2, 71, 0.3),
        (3, 300, 1.0),
        (3, 48, 1.0),
    ],
)
def test_network_simplex_matches_dense_simplex(d, K, spread):
    rng = np.random.default_rng(1000 * d + K)
    points, b = random_pair(rng, K, d, spread)
    assert np.any(b == 0.0)  # a zero-weight atom survived the union
    value, phi = _flatlp.solve_flat_lp(points, b)
    want, _ = dense_simplex_flat_lp(points, b)
    assert value == pytest.approx(want, abs=TOL)
    assert_optimal_potential(points, b, value, phi)


@pytest.mark.parametrize("d,K", [(1, 120), (2, 400), (3, 90)])
def test_network_simplex_matches_highs(d, K):
    rng = np.random.default_rng(7 * d + K)
    points, b = random_pair(rng, K, d)
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(highs_value(points, b), abs=TOL)
    assert_optimal_potential(points, b, value, phi)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_arcs_longer_than_two_are_pruned_exactly(d):
    # clusters 3 apart: every arc between clusters is pruned
    rng = np.random.default_rng(d)
    centers = 3.0 * np.arange(3)[:, None] * np.ones(d)
    points = np.vstack([c + rng.uniform(-0.4, 0.4, (20, d)) for c in centers])
    b = rng.normal(size=points.shape[0]) / points.shape[0]
    assert stored_arcs(points)[2].max() < 2.0
    value, phi = _flatlp.solve_flat_lp(points, b)
    if d > 1:
        assert value == pytest.approx(arc_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(dense_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(highs_value(points, b), abs=TOL)
    assert_optimal_potential(points, b, value, phi)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_identical_measures_degenerate(d):
    rng = np.random.default_rng(20 + d)
    pts = rng.uniform(-1.0, 1.0, (40, d))
    mu = EmpiricalMeasure(pts, np.full(40, 1 / 40))
    assert dbl(mu, mu) == 0.0
    # unmerged: every atom twice, once per measure, joined by zero-length arcs
    points = np.vstack([pts, pts])
    b = np.concatenate([np.full(40, 1 / 40), np.full(40, -1 / 40)])
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(0.0, abs=TOL)
    assert_optimal_potential(points, b, value, phi)


def test_lattice_ties_terminate():
    # equal distances everywhere: many ties in pricing and in the ratio test
    g = np.stack(np.meshgrid(*[np.arange(6) * 0.25] * 2, indexing="ij"), -1)
    points = g.reshape(-1, 2)
    b = np.random.default_rng(4).choice([-1.0, 0.0, 1.0], points.shape[0])
    b /= np.abs(b).sum()
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(dense_simplex_flat_lp(points, b)[0], abs=TOL)
    assert_optimal_potential(points, b, value, phi)


def working_set_case(name, d):
    """(points (K, d), b) of a named d >= 2 case."""
    rng = np.random.default_rng(100 * d + len(name))
    if name == "random":
        return random_pair(rng, 150, d)
    if name == "clusters":
        # clusters more than 2 apart: only the ground arcs join them
        centers = 2.5 * np.arange(3)[:, None] * np.ones(d)
        points = np.vstack([c + rng.uniform(-0.3, 0.3, (30, d)) for c in centers])
        return points, rng.normal(size=90) / 90
    if name == "lattice":
        axes = [np.arange(5) * 0.25] * d
        points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
        b = rng.choice([-1.0, 0.0, 1.0], points.shape[0])
        return points, b / np.abs(b).sum()
    if name == "identical":
        pts = rng.uniform(-1.0, 1.0, (50, d))
        b = np.concatenate([np.full(50, 0.02), np.full(50, -0.02)])
        return np.vstack([pts, pts]), b
    # zero weights: most atoms carry none
    points = rng.uniform(-0.6, 0.6, (120, d))
    return points, rng.normal(size=120) * (rng.uniform(size=120) < 0.2) / 24


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "name", ["random", "clusters", "lattice", "identical", "zero weights"]
)
def test_working_set_matches_every_oracle(name, d):
    points, b = working_set_case(name, d)
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(arc_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(dense_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(highs_value(points, b), abs=TOL)
    assert_optimal_potential(points, b, value, phi)


@pytest.mark.parametrize("d", [2, 3])
def test_value_does_not_depend_on_tile_height(monkeypatch, d):
    points, b = random_pair(np.random.default_rng(40 + d), 120, d)
    K = points.shape[0]
    want = arc_simplex_flat_lp(points, b)[0]
    for rows in (1, 7, K):
        monkeypatch.setattr(_flatlp, "_tile_rows", lambda n_support: rows)
        value, phi = _flatlp.solve_flat_lp(points, b)
        assert value == pytest.approx(want, abs=TOL), rows
        assert_optimal_potential(points, b, value, phi)


def test_pricing_tiles_keep_the_grid_arithmetic(monkeypatch):
    # every tile row is bit for bit the full separations grid's row, its
    # +inf self-arc included
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (37, 3))
    monkeypatch.setattr(_flatlp, "_tile_rows", lambda n_support: 5)
    full = separations(points)
    starts = []
    for r0, dist in _flatlp._tiles(points):
        starts.append(r0)
        np.testing.assert_array_equal(dist, full[r0 : r0 + dist.shape[0]])
    assert starts == list(range(0, 37, 5))


def test_working_set_memory_is_below_the_grid():
    # K = 1200: the distance grid alone would take 11.5 MB
    rng = np.random.default_rng(1)
    points = np.vstack([rng.uniform(-0.8, 0.8, (600, 2)) for _ in range(2)])
    b = np.concatenate([np.full(600, 2.0 / 1200), np.full(600, -2.0 / 1200)])
    tracemalloc.start()
    try:
        value, phi = _flatlp.solve_flat_lp(points, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert np.abs(phi).max() <= 1.0 + TOL
    assert float(b @ phi) == pytest.approx(value, abs=TOL)


def test_pivot_budget_is_typed(monkeypatch):
    monkeypatch.setattr(_flatlp, "_pivot_budget", lambda n_support: 3)
    points, b = random_pair(np.random.default_rng(9), 40, 2)
    with pytest.raises(PivotBudgetExceeded) as info:
        _flatlp.solve_flat_lp(points, b)
    assert info.value.detail == {
        "support": points.shape[0],
        "pivots": 3,
        "budget": 3,
    }


# ---- the line DP ----


def line_case(name):
    """(points (K, 1), b) of a named d = 1 case."""
    rng = np.random.default_rng(len(name))
    if name == "one atom":
        x, b = [0.3], [0.4]
    elif name == "one negative atom":
        x, b = [-0.2], [-0.7]
    elif name == "two atoms":
        x, b = [0.75, 0.0], [-1.0, 1.0]
    elif name == "two atoms, same sign":
        x, b = [0.0, 0.5], [0.3, 0.6]
    elif name == "duplicates":
        x = rng.choice(np.arange(-4, 5) * 0.3, 30)
        b = rng.normal(size=30)
    elif name == "zero weights":
        x = rng.uniform(-1.0, 1.0, 40)
        b = rng.normal(size=40) * (rng.uniform(size=40) < 0.4)
    elif name == "gaps of 2 and more":
        centers = (-4.0, -1.5, 0.5, 4.0)
        x = np.concatenate([c + rng.uniform(-0.3, 0.3, 8) for c in centers])
        b = rng.normal(size=32)
    else:  # alternating signs along the line
        x = np.sort(rng.uniform(-1.0, 1.0, 60))
        b = np.where(np.arange(60) % 2, 1.0, -1.0) * rng.uniform(0.5, 1.5, 60)
    return np.asarray(x, float)[:, None], np.asarray(b, float)


@pytest.mark.parametrize("name", [
    "one atom", "one negative atom", "two atoms", "two atoms, same sign",
    "duplicates", "zero weights", "gaps of 2 and more", "alternating",
])
def test_line_dp_matches_every_oracle(name):
    points, b = line_case(name)
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(line_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(dense_simplex_flat_lp(points, b)[0], abs=TOL)
    assert value == pytest.approx(highs_value(points, b), abs=TOL)
    assert_optimal_potential(points, b, value, phi)


def test_line_dp_exhaustive_small_supports():
    # lattice points and a few weight levels: the argmax often sits on a
    # breakpoint when the window opens, and its slope drop must split over
    # both ends of the flat top
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        K = int(rng.integers(1, 7))
        points = rng.integers(-6, 7, (K, 1)) * 0.25
        b = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], K)
        value, phi = _flatlp.solve_flat_lp(points, b)
        want, _ = line_simplex_flat_lp(points, b)
        assert value == pytest.approx(want, abs=TOL), (points.ravel(), b)
        assert_optimal_potential(points, b, value, phi)


def test_line_dp_matches_line_simplex_at_scale():
    points, b = random_pair(np.random.default_rng(2400), 2400, 1)
    value, phi = _flatlp.solve_flat_lp(points, b, cap=2400)
    assert value == pytest.approx(line_simplex_flat_lp(points, b)[0], abs=TOL)
    assert np.abs(phi).max() <= 1.0 + TOL
    order = np.argsort(points[:, 0])
    steps = np.abs(np.diff(phi[order])) - np.diff(points[order, 0])
    assert steps.max() <= TOL
    assert float(b @ phi) == pytest.approx(value, abs=TOL)


def test_line_dp_has_no_pivot_budget(monkeypatch):
    monkeypatch.setattr(_flatlp, "_pivot_budget", lambda n_support: 0)
    points, b = random_pair(np.random.default_rng(9), 40, 1)
    value, phi = _flatlp.solve_flat_lp(points, b)
    assert value == pytest.approx(highs_value(points, b), abs=TOL)
