"""Atomic measures on phase space and the exact flat metric between them.

An EmpiricalMeasure is a finite list of weighted atoms in R^k.  Phase-space
measures use k = 2d with rows (x, v); purely spatial measures use k = d.
phase_moments reads stacked velocities; the phase split and kinetic_energy
take the spatial dimension d explicitly.  No BLAS product: a sum over the
d coordinates adds them one at a time in index order (_ordered_dot), and
a sum over atoms is one numpy sum along a contiguous row.

Weights are nonnegative and the total mass never exceeds 1 (plus round-off):
probability measures and their sub-probability images under weighting by a
[0, 1]-valued function.

The flat metric ``dbl`` is computed exactly (to solver round-off) by
``_flatlp``: a dynamic program on the line, a spanning-tree network
simplex in d >= 2.  Any support size is accepted; the one failure is
the simplex's pivot budget (PivotBudgetExceeded) in d >= 2.  Distances
and their optimal potentials are deterministic functions of the inputs.
Measures of unequal total mass are accepted: the metric then also prices
the mass difference, at cost 1 per unit, consistent with the
test-function normalization |phi| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._flatlp import solve_flat_lp

_MASS_SLACK = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms: points (K, k) with k >= 1 and weights (K,), all
    finite; K = 0 is the empty measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(self.points), dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights disagree in length")
        if pts.shape[1] < 1:
            raise ValueError("points need at least one coordinate")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("points and weights must be finite")
        if w.size and w.min() < -1e-15:
            raise ValueError("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        total = float(w.sum())
        if total > 1.0 + _MASS_SLACK:
            raise ValueError("total mass exceeds 1; normalize before wrapping")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def point_dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.weights.sum())


def phase_split(mu: EmpiricalMeasure, d: int):
    """Positions (K, d), velocities (K, d) and weights (K,) of a phase
    measure, as views; ValueError unless its points have dimension 2d."""
    if mu.point_dim != 2 * d:
        raise ValueError("phase measure must have point dimension 2d")
    return mu.points[:, :d], mu.points[:, d:], mu.weights


def _ordered_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[..., j] b[..., j] over the last axis (broadcast), the d
    terms added one at a time in index order."""
    s = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        s += a[..., j] * b[..., j]
    return s


def phase_moments(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic energy (S,) and momentum (S, d) of stacked velocities
    (S, K, d) at atom weights w (K,): sum of w |v|^2 and sum of w v."""
    mom = [(w * v[..., k]).sum(axis=-1) for k in range(v.shape[-1])]
    return (w * _ordered_dot(v, v)).sum(axis=-1), np.stack(mom, axis=-1)


def kinetic_energy(mu: EmpiricalMeasure, d: int) -> float:
    """Second velocity moment: sum of w |v|^2."""
    v = phase_split(mu, d)[1]
    return float(phase_moments(v[None], mu.weights)[0][0])


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


def dbl(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Flat (bounded-Lipschitz) distance between two atomic measures.

    Exact linear program over the union support:
    sup of sum (mu - nu)(phi) over potentials with |phi| <= 1 and
    |phi(p) - phi(q)| <= |p - q|.  Always at most mass(mu) + mass(nu),
    hence at most 2 for probability measures.
    """
    return dbl_with_potential(mu, nu)[0]


def dbl_with_potential(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure
) -> tuple[float, np.ndarray, np.ndarray]:
    """Distance plus (support points, optimal potential values)."""
    pts, b = union_support(mu, nu)
    value, phi = solve_flat_lp(pts, b)
    return float(value), pts, phi

