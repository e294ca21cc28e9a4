"""Atomic measures on phase space and the exact flat metric between them.

An EmpiricalMeasure is a finite list of weighted atoms in R^k.  Phase-space
measures use k = 2d with rows (x, v); purely spatial measures use k = d.
Operations that need the phase split take the spatial dimension d
explicitly.

Weights are nonnegative and the total mass never exceeds 1 (plus round-off):
probability measures and their sub-probability images under weighting by a
[0, 1]-valued function.  Vector-valued momentum data are represented
componentwise through the shift device: the signed spatial measure with
density v_j against the particle distribution is encoded as the nonnegative
measure weighted by (v_j + shift) / (2 shift), which keeps the mass within
[0, 1] whenever speeds stay below ``shift``.

The flat metric ``dbl`` is computed exactly (to solver round-off) by the
spanning-tree network simplex in ``_flatlp``; distances and their optimal
potentials are deterministic functions of the inputs.  Measures of unequal
total mass are accepted: the metric then also prices the mass difference,
at cost 1 per unit, consistent with the test-function normalization
|phi| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._flatlp import solve_flat_lp
from .dynamics import ParticleState
from .errors import AmbiguousGrouping
from .pairs import distances

_MASS_SLACK = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms: points (K, k), weights (K,), declared support bound.

    ``support_radius`` bounds the Euclidean norm of every atom; it defaults
    to the observed maximum and is carried through transformations so that
    downstream grids and test functions can size themselves.
    """

    points: np.ndarray
    weights: np.ndarray
    support_radius: float = -1.0

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(self.points), dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights disagree in length")
        if w.size and w.min() < -1e-15:
            raise ValueError("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        total = float(w.sum())
        if total > 1.0 + _MASS_SLACK:
            raise ValueError("total mass exceeds 1; normalize before wrapping")
        radius = float(self.support_radius)
        observed = float(np.sqrt((pts**2).sum(axis=1).max())) if pts.size else 0.0
        if radius < 0.0:
            radius = observed
        elif observed > radius * (1.0 + 1e-9) + 1e-12:
            raise ValueError("atoms fall outside the declared support radius")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "support_radius", radius)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def point_dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def is_probability(self, tol: float = 1e-12) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Sum of f over the atoms, weighted; f maps (K, k) -> (K,)."""
        if self.n_atoms == 0:
            return 0.0
        return float(np.dot(self.weights, np.asarray(f(self.points), float)))


@dataclass(frozen=True)
class Disintegration:
    """A phase-space measure split over its spatial atoms.

    positions (G, d) with masses (G,), and per group the conditional
    velocity atoms (normalized weights) plus their mean.  ``expand``
    rebuilds the joint measure.
    """

    positions: np.ndarray
    masses: np.ndarray
    velocities: tuple
    vweights: tuple
    means: np.ndarray
    support_radius: float

    @property
    def n_groups(self) -> int:
        return self.positions.shape[0]

    def expand(self) -> EmpiricalMeasure:
        pts = []
        ws = []
        for g in range(self.n_groups):
            vel = self.velocities[g]
            rep = np.repeat(self.positions[g][None, :], vel.shape[0], axis=0)
            pts.append(np.hstack([rep, vel]))
            ws.append(self.masses[g] * self.vweights[g])
        return EmpiricalMeasure(
            np.vstack(pts), np.concatenate(ws), self.support_radius
        )


def from_particles(state: ParticleState) -> EmpiricalMeasure:
    """Uniform-weight phase-space measure of a particle state."""
    pts = np.hstack([state.x, state.v])
    n = state.n_particles
    return EmpiricalMeasure(pts, np.full(n, 1.0 / n))


def marginal_x(mu: EmpiricalMeasure, d: int) -> EmpiricalMeasure:
    """Spatial marginal of a phase measure; atoms kept unmerged."""
    _check_phase(mu, d)
    return EmpiricalMeasure(mu.points[:, :d], mu.weights)


def _check_phase(mu: EmpiricalMeasure, d: int):
    if mu.point_dim != 2 * d:
        raise ValueError("phase measure must have point dimension 2d")


def disintegrate(
    mu: EmpiricalMeasure, d: int, position_tolerance: float = 0.0
) -> Disintegration:
    """Group phase atoms by position and split off conditional velocities.

    With zero tolerance, grouping is by bit-exact position equality.  With
    a positive tolerance, atoms are linked whenever their positions are
    within the tolerance and groups are the connected components; if a
    component ends up wider than the tolerance the grouping would depend
    on presentation order, and AmbiguousGrouping is raised instead.
    """
    _check_phase(mu, d)
    x = mu.points[:, :d]
    v = mu.points[:, d:]
    w = mu.weights
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot disintegrate an empty measure")

    if position_tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    exact_pos = None
    if position_tolerance == 0.0:
        exact_pos, inverse = np.unique(x, axis=0, return_inverse=True)
        labels = inverse.ravel()
    else:
        labels = _link_positions(x, position_tolerance)

    groups = []
    for g in np.unique(labels):
        idx = np.flatnonzero(labels == g)
        mass = float(w[idx].sum())
        if mass <= 0.0:
            continue
        if exact_pos is not None:
            pos = exact_pos[g]
        else:
            pos = (w[idx] @ x[idx]) / mass
        groups.append((tuple(pos), idx, mass, pos))
    groups.sort(key=lambda item: item[0])

    positions = np.array([g[3] for g in groups])
    masses = np.array([g[2] for g in groups])
    velocities = tuple(np.ascontiguousarray(v[g[1]]) for g in groups)
    vweights = tuple(
        np.ascontiguousarray(w[g[1]] / g[2]) for g in groups
    )
    means = np.array(
        [vweights[i] @ velocities[i] for i in range(len(groups))]
    )
    return Disintegration(
        positions=positions,
        masses=masses,
        velocities=velocities,
        vweights=vweights,
        means=means,
        support_radius=mu.support_radius,
    )


def _link_positions(x: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage components at threshold tol, with a width check."""
    n = x.shape[0]
    dist = distances(x)
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ii, jj = np.nonzero(np.triu(dist <= tol, k=1))
    for a, b in zip(ii, jj):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    labels = np.array([find(i) for i in range(n)])
    for g in np.unique(labels):
        idx = np.flatnonzero(labels == g)
        if idx.size > 1 and dist[np.ix_(idx, idx)].max() > tol * (1 + 1e-12):
            raise AmbiguousGrouping(
                "position groups chain beyond the tolerance",
                tolerance=tol,
                group_width=float(dist[np.ix_(idx, idx)].max()),
            )
    return labels


def union_support(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Merged support points (bit-exact equality) and signed weights mu-nu."""
    if mu.point_dim != nu.point_dim:
        raise ValueError("measures live in different dimensions")
    pts = np.vstack([mu.points, nu.points])
    signed = np.concatenate([mu.weights, -nu.weights])
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    b = np.zeros(uniq.shape[0])
    np.add.at(b, inverse.ravel(), signed)
    return uniq, b


def dbl(mu: EmpiricalMeasure, nu: EmpiricalMeasure, cap: int = 2000) -> float:
    """Flat (bounded-Lipschitz) distance between two atomic measures.

    Exact linear program over the union support:
    sup of sum (mu - nu)(phi) over potentials with |phi| <= 1 and
    |phi(p) - phi(q)| <= |p - q|.  Always at most mass(mu) + mass(nu),
    hence at most 2 for probability measures.
    """
    return dbl_with_potential(mu, nu, cap)[0]


def dbl_with_potential(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, cap: int = 2000
) -> tuple[float, np.ndarray, np.ndarray]:
    """Distance plus (support points, optimal potential values)."""
    pts, b = union_support(mu, nu)
    value, phi = solve_flat_lp(pts, b, cap=cap)
    return float(value), pts, phi


def pushforward_free(mu: EmpiricalMeasure, d: int, t0: float, t: float) -> EmpiricalMeasure:
    """Image under the free-transport unwind (x, v) -> (x - (t - t0) v, v)."""
    _check_phase(mu, d)
    x = mu.points[:, :d] - (t - t0) * mu.points[:, d:]
    pts = np.hstack([x, mu.points[:, d:]])
    return EmpiricalMeasure(pts, mu.weights)


def phi_weighted_marginal(
    mu: EmpiricalMeasure,
    d: int,
    t0: float,
    t: float,
    phi: Callable[[np.ndarray], np.ndarray],
) -> EmpiricalMeasure:
    """Spatial measure at unwound positions, atoms weighted by phi(v) >= 0.

    phi must map velocities into [0, 1]; values outside make the result
    either signed or heavier than mass 1, both rejected.
    """
    _check_phase(mu, d)
    v = mu.points[:, d:]
    vals = np.asarray(phi(v), dtype=np.float64).ravel()
    if vals.shape[0] != mu.n_atoms:
        raise ValueError("phi must return one value per atom")
    if vals.size and (vals.min() < -1e-15 or vals.max() > 1.0 + 1e-12):
        raise ValueError("phi must take values in [0, 1]")
    x = mu.points[:, :d] - (t - t0) * v
    return EmpiricalMeasure(x, mu.weights * np.maximum(vals, 0.0))


def momentum_marginal(
    mu: EmpiricalMeasure, d: int, component: int, shift: float
) -> EmpiricalMeasure:
    """Shift-device encoding of the signed momentum-component marginal.

    Returns the spatial measure with weights w * (v_j + shift) / (2 shift).
    Requires |v_j| <= shift on the atoms; two such measures compare the
    underlying signed densities: the shift contributes identically when the
    spatial marginals agree, and the normalization keeps mass within 1.
    """
    _check_phase(mu, d)
    if not 0 <= component < d:
        raise ValueError("component out of range")
    vj = mu.points[:, d + component]
    if vj.size and np.abs(vj).max() > shift * (1.0 + 1e-12):
        raise ValueError("shift must dominate every speed component")
    w = mu.weights * (vj + shift) / (2.0 * shift)
    return EmpiricalMeasure(mu.points[:, :d], w)
