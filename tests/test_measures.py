"""Atomic measures, transforms, velocity moments, and the flat metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab.dynamics import ParticleState
from flocklab.measures import (
    EmpiricalMeasure,
    dbl,
    dbl_with_potential,
    kinetic_energy,
    phase_moments,
    union_support,
)
from flocklab.rng import CounterRNG

from oracles import (
    from_particles,
    marginal_x,
    phi_weighted_marginal,
    vertex_enum_dbl,
    w1_line,
)


def is_probability(mu: EmpiricalMeasure, tol: float = 1e-12) -> bool:
    return abs(mu.total_mass() - 1.0) <= tol


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([[0.0]]), [-0.5])
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([[0.0], [1.0]]), [0.9, 0.9])
    m = EmpiricalMeasure(np.array([[0.25], [0.5]]), [0.5, 0.5])
    assert is_probability(m)


def test_from_particles_and_marginal():
    s = ParticleState(
        0.0, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.1, 0.2], [0.3, 0.4]])
    )
    mu = from_particles(s)
    assert mu.n_atoms == 2 and mu.point_dim == 4
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-15)
    rho = marginal_x(mu, 2)
    assert rho.points.shape == (2, 2)
    assert np.array_equal(rho.points, s.x)
    # unmerged even when positions repeat
    s2 = ParticleState(0.0, np.zeros((3, 1)) + 0.5, np.array([[0.0], [1.0], [2.0]]))
    rho2 = marginal_x(from_particles(s2), 1)
    assert rho2.n_atoms == 3


# ---- transforms ----


def test_phi_weighted_marginal_mass_and_bounds():
    pts = np.array([[0.0, 1.0], [1.0, -1.0]])
    mu = EmpiricalMeasure(pts, [0.5, 0.5])
    nu = phi_weighted_marginal(mu, 1, 0.0, 0.5, lambda v: np.full(len(v), 0.5))
    assert nu.total_mass() == pytest.approx(0.5)
    assert np.allclose(nu.points[:, 0], pts[:, 0] - 0.5 * pts[:, 1])
    with pytest.raises(ValueError):
        phi_weighted_marginal(mu, 1, 0.0, 0.0, lambda v: -np.ones(len(v)))
    with pytest.raises(ValueError):
        phi_weighted_marginal(mu, 1, 0.0, 0.0, lambda v: 2.0 * np.ones(len(v)))


# ---- flat metric ----



def within_ulps(got: float, terms: list, ulps: int) -> bool:
    """got lies within ulps units in the last place of the sum's absolute
    scale, fsum of |terms|, from the correctly rounded fsum of terms."""
    scale = math.fsum(abs(t) for t in terms)
    return abs(got - math.fsum(terms)) <= ulps * math.ulp(scale)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [7, 200, 3200])
def test_phase_moments_are_accurate_sums(d, k):
    # the energy terms are nonnegative, so their scale is the sum itself;
    # a momentum sum that cancels is held to the scale of its terms
    rng = CounterRNG(10 * d + k)
    v = rng.uniform(3 * k * d, -1.0, 1.0).reshape(3, k, d)
    w = rng.uniform(k, 0.0, 1.0)
    w /= w.sum()
    energy, mom = phase_moments(v, w)
    assert energy.shape == (3,) and mom.shape == (3, d)
    for s in range(3):
        sq = [math.fsum(c * c for c in row.tolist()) for row in v[s]]
        assert within_ulps(energy[s], [wi * q for wi, q in zip(w, sq)], 4)
        for j in range(d):
            assert within_ulps(mom[s, j], (w * v[s, :, j]).tolist(), 4)
        # one measure's energy is its snapshot's row, bit for bit
        mu = EmpiricalMeasure(np.hstack([np.zeros((k, d)), v[s]]), w)
        assert kinetic_energy(mu, d) == energy[s]


def test_dbl_two_atom_closed_form():
    for a, b in [(0.0, 0.5), (0.0, 1.0), (0.0, 1.9), (0.0, 2.5), (-4.0, 4.0)]:
        m1 = EmpiricalMeasure(np.array([[a]]), [1.0])
        m2 = EmpiricalMeasure(np.array([[b]]), [1.0])
        assert dbl(m1, m2) == pytest.approx(min(abs(b - a), 2.0), abs=1e-12)


def test_dbl_half_half_delta():
    m1 = EmpiricalMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    m2 = EmpiricalMeasure(np.array([[0.0]]), [1.0])
    assert dbl(m1, m2) == pytest.approx(0.5, abs=1e-12)


def test_dbl_identity_exact_zero():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (12, 2))
    m = EmpiricalMeasure(pts, np.full(12, 1 / 12))
    assert dbl(m, m) <= 1e-15


def test_dbl_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(25):
        d = 1 + trial % 2
        k1 = int(rng.integers(1, 3))
        k2 = int(rng.integers(1, 3))
        m1 = EmpiricalMeasure(
            rng.uniform(-1.5, 1.5, (k1, d)), rng.dirichlet(np.ones(k1)) * 0.9
        )
        m2 = EmpiricalMeasure(
            rng.uniform(-1.5, 1.5, (k2, d)), rng.dirichlet(np.ones(k2)) * 0.8
        )
        pts, b = union_support(m1, m2)
        want = vertex_enum_dbl(pts, b)
        assert dbl(m1, m2) == pytest.approx(want, abs=1e-8)


def test_dbl_w1_oracle_on_line():
    # equal-mass measures inside a diameter-2 window: flat metric equals
    # the order-1 transport distance
    rng = np.random.default_rng(1)
    for _ in range(10):
        k1, k2 = rng.integers(2, 30), rng.integers(2, 30)
        p1 = rng.uniform(-0.9, 0.9, k1)
        p2 = rng.uniform(-0.9, 0.9, k2)
        w1 = rng.dirichlet(np.ones(k1))
        w2 = rng.dirichlet(np.ones(k2))
        m1 = EmpiricalMeasure(p1[:, None], w1)
        m2 = EmpiricalMeasure(p2[:, None], w2)
        want = w1_line(p1, w1, p2, w2)
        assert dbl(m1, m2) == pytest.approx(want, abs=1e-10)


def test_dbl_metric_axioms_random():
    rng = np.random.default_rng(9)
    ms = []
    for _ in range(9):
        k = int(rng.integers(1, 8))
        d = 2
        ms.append(
            EmpiricalMeasure(rng.uniform(-1, 1, (k, d)), rng.dirichlet(np.ones(k)))
        )
    for i in range(len(ms)):
        for j in range(len(ms)):
            dij = dbl(ms[i], ms[j])
            assert dij >= -1e-12
            assert dij <= 2.0 + 1e-12
            assert abs(dij - dbl(ms[j], ms[i])) < 1e-9
    for i, j, k in [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8)]:
        assert dbl(ms[i], ms[k]) <= dbl(ms[i], ms[j]) + dbl(ms[j], ms[k]) + 1e-9


def test_dbl_potential_is_feasible_and_attains():
    rng = np.random.default_rng(5)
    m1 = EmpiricalMeasure(rng.uniform(-1, 1, (20, 1)), np.full(20, 1 / 20))
    m2 = EmpiricalMeasure(rng.uniform(-1, 1, (15, 1)), np.full(15, 1 / 15))
    val, pts, phi = dbl_with_potential(m1, m2)
    assert np.abs(phi).max() <= 1.0 + 1e-9
    gap = np.abs(phi[:, None] - phi[None, :]) - np.abs(
        pts[:, 0][:, None] - pts[:, 0][None, :]
    )
    assert gap.max() <= 1e-9
    _, b = union_support(m1, m2)
    assert float(b @ phi) == pytest.approx(val, abs=1e-11)


def test_dbl_support_cap():
    # a union support of 60 atoms; no support size is refused
    pts = np.arange(30, dtype=float)[:, None]
    m1 = EmpiricalMeasure(pts, np.full(30, 1 / 30))
    m2 = EmpiricalMeasure(pts + 0.25, np.full(30, 1 / 30))
    assert dbl(m1, m2) == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("K", [200, 3200, 12800])
def test_dbl_is_w1_on_the_line_past_the_old_cap(K):
    # equal masses on a support of diameter at most 2: |phi| <= 1 cannot
    # bind, so the flat distance is W1, at any K
    rng = np.random.default_rng(K)
    p1, p2 = rng.uniform(-1.0, 1.0, (2, K // 2))
    w = np.full(K // 2, 2.0 / K)
    m1, m2 = (EmpiricalMeasure(p[:, None], w) for p in (p1, p2))
    assert union_support(m1, m2)[0].shape[0] == K
    assert dbl(m1, m2) == pytest.approx(w1_line(p1, w, p2, w), abs=1e-12)


def test_dbl_is_below_w1_across_a_gap_wider_than_two():
    # two bumps whose edges are 2.2 apart, weighted 3:1 and 1:3: W1 carries
    # half the mass across the gap at cost above 2.2 per unit, the flat
    # distance destroys and creates it at cost 2
    rng = np.random.default_rng(3)
    bump = rng.uniform(-0.4, 0.4, (2, 400))
    p1 = np.concatenate([bump[0, :200] - 1.5, bump[0, 200:] + 1.5])
    p2 = np.concatenate([bump[1, :200] - 1.5, bump[1, 200:] + 1.5])
    w1 = np.concatenate([np.full(200, 0.75 / 200), np.full(200, 0.25 / 200)])
    w2 = w1[::-1].copy()
    flat = dbl(EmpiricalMeasure(p1[:, None], w1), EmpiricalMeasure(p2[:, None], w2))
    w1_dist = w1_line(p1, w1, p2, w2)
    assert flat <= w1_dist
    assert flat < w1_dist - 0.1


def test_dbl_mass_defect_is_priced():
    # same point, masses 1 vs 0.4: only creation cost remains
    m1 = EmpiricalMeasure(np.array([[0.3, -0.2]]), [1.0])
    m2 = EmpiricalMeasure(np.array([[0.3, -0.2]]), [0.4])
    assert dbl(m1, m2) == pytest.approx(0.6, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    k1=st.integers(1, 5),
    k2=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_dbl_oracle_property(k1, k2, seed):
    rng = np.random.default_rng(seed)
    m1 = EmpiricalMeasure(
        rng.uniform(-1, 1, (k1, 1)), rng.dirichlet(np.ones(k1)) * rng.uniform(0.2, 1)
    )
    m2 = EmpiricalMeasure(
        rng.uniform(-1, 1, (k2, 1)), rng.dirichlet(np.ones(k2)) * rng.uniform(0.2, 1)
    )
    pts, b = union_support(m1, m2)
    if len(b) > 5:
        return
    want = vertex_enum_dbl(pts, b)
    assert dbl(m1, m2) == pytest.approx(want, abs=1e-8)
