"""Atomic measures on phase space and the exact flat metric between them.

An EmpiricalMeasure is a finite list of weighted atoms in R^k.  Phase-space
measures use k = 2d with rows (x, v); purely spatial measures use k = d.
Operations that need the phase split take the spatial dimension d
explicitly: the spatial marginal and the velocity moments (kinetic energy,
momentum) among them.

Weights are nonnegative and the total mass never exceeds 1 (plus round-off):
probability measures and their sub-probability images under weighting by a
[0, 1]-valued function.

The flat metric ``dbl`` is computed exactly (to solver round-off) by
``_flatlp``: a dynamic program on the line, a spanning-tree network
simplex in d >= 2.  Distances and their optimal potentials are
deterministic functions of the inputs.  Measures of unequal
total mass are accepted: the metric then also prices the mass difference,
at cost 1 per unit, consistent with the test-function normalization
|phi| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._flatlp import solve_flat_lp
from .dynamics import ParticleState

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


def kinetic_energy(mu: EmpiricalMeasure, d: int) -> float:
    """Second velocity moment: sum of w |v|^2."""
    _check_phase(mu, d)
    v = mu.points[:, d:]
    return float(mu.weights @ np.einsum("ij,ij->i", v, v))


def momentum(mu: EmpiricalMeasure, d: int) -> np.ndarray:
    """First velocity moment: sum of w v."""
    _check_phase(mu, d)
    return mu.weights @ mu.points[:, d:]


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

