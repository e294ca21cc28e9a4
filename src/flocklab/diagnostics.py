"""Scalar diagnostics of atomic phase-space measures and trajectories.

Conventions.  All pair functionals are double sums over ordered atom pairs
(a, b) against the product measure, so each unordered pair enters twice.
Self-pairs (a = b) are excluded; they contribute nothing when a kernel is
bounded, and are meaningless for the raw singular kernel.  Pairs sharing a
position add zero terms when the kernel has no regularization (eta = 0),
since the kernel vanishes there, mirroring an off-diagonal integral.

The kernel normalization beta(eta, alpha, d) is the integral of
(|x| + eta)^(-alpha) over R^d.  Closed forms are implemented for d = 1 and
d = 2; when alpha equals d the quantity enters only through ratios and is
set to 1 exactly.  The eta-weighted monokineticity functional uses the
conditional mean velocity at exact position groups, with the inner sum
running over the spatial marginal's atoms.

Trajectory series read the stacked snapshot arrays directly: the pair
sums of every snapshot come from one pairs.snapshot_series pass, the
velocity moments from measures.phase_moments, and the binned fields from
meanfield.snapshot_fields.  enstrophy and dalpha are the one-snapshot case
of that pass, so a measure and a trajectory snapshot give the same bits;
min_distance reads the same pairs.distances grid.  Since the kernel
vanishes at co-located pairs, the pass sums them as zero terms at eta = 0
instead of leaving them out; on a measure with co-located atoms that may
move the sums by an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import DivergentNormalization, UnsupportedDimension
from .meanfield import snapshot_fields
from .measures import (
    EmpiricalMeasure,
    dbl,
    from_particles,
    kinetic_energy,  # not called here: the benchmark tracer wraps this name
    phase_moments,
    phase_split,
    phi_weighted_marginal,
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


def beta_eta(eta: float, alpha: float, d: int) -> float:
    """Normalization integral of (|x| + eta)^(-alpha) over R^d, closed form.

    Equals 1 exactly at alpha = d (the critical case enters only through
    ratios).  Raises DivergentNormalization for alpha < d and
    UnsupportedDimension for d >= 3; scaling obeys eta^alpha beta ~ eta^d.
    A NaN eta, or an alpha that is not finite, raises ValueError.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if d not in (1, 2):
        raise UnsupportedDimension(
            "closed forms cover d in {1, 2}", dimension=d
        )
    if alpha < d:
        raise DivergentNormalization(
            "normalization integral diverges for alpha < d",
            alpha=alpha,
            dimension=d,
        )
    if alpha == d:
        return 1.0
    if d == 1:
        return 2.0 * eta ** (1.0 - alpha) / (alpha - 1.0)
    return 2.0 * np.pi * eta ** (2.0 - alpha) * (
        1.0 / (alpha - 2.0) - 1.0 / (alpha - 1.0)
    )


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


def _sweep(traj: Trajectory):
    """Kinetic energy, momentum, D, D_alpha (eta = 0) and minimum distance
    of every snapshot, read from the stacked arrays at weights 1/N."""
    p = traj.params
    w = np.full(p.N, 1.0 / p.N)
    # the phase rows of from_particles, so the moments keep its bits
    energy, mom = phase_moments(np.concatenate([traj.x, traj.v], axis=2), p.d, w)
    return (energy, mom, *snapshot_series(traj.x, traj.v, w, p.alpha))


def energy_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, kinetic energy, and enstrophy along the snapshots."""
    energy, _, dd, _, _ = _sweep(traj)
    return traj.times, energy, dd


def energy_balance_residual(traj: Trajectory) -> float:
    """Largest defect of the balance  integral of enstrophy = energy drop,
    checked at every snapshot with trapezoid quadrature in time."""
    return _balance_defect(*energy_series(traj))


def _balance_defect(t, e, dd) -> float:
    integral = cumulative_trapezoid(t, dd)
    return float(np.abs(integral - (e[0] - e)).max())


def mp_margin(
    traj: Trajectory,
    t0: float,
    t: float,
    center: np.ndarray,
    radius: float,
) -> float:
    """Mass-propagation margin for the closed ball B(center, radius):

        rho_t( B(center, radius + (t - t0) M) ) - rho_t0( B(center, radius) )

    Nonnegative whenever speeds stay below M, since every particle moves at
    most (t - t0) M.  Raises SnapshotMissing off the snapshot grid, and
    ValueError unless t >= t0, radius >= 0 and center is a finite array
    of shape (d,).
    """
    if not t >= t0:
        raise ValueError("needs t >= t0")
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    d = traj.params.d
    center = np.asarray(center, float)
    if center.shape != (d,) or not np.isfinite(center).all():
        raise ValueError(f"center must be a finite array of shape ({d},)")
    s0 = traj.state_at(t0)
    s1 = traj.state_at(t)
    m = traj.params.M
    n = traj.params.N

    def ball_mass(state, rad):
        dist = np.sqrt(((state.x - center[None, :]) ** 2).sum(axis=1))
        return float((dist <= rad).sum()) / n

    return ball_mass(s1, radius + (t - t0) * m) - ball_mass(s0, radius)


def sf_modulus(
    traj: Trajectory,
    t0: float,
    phi_v,
    probe_times,
) -> np.ndarray:
    """Continuity modulus of the free-transport unwind.

    For each probe time t, the flat distance between the phi-weighted
    unwound spatial measure of mu_t (atoms at x - (t - t0) v, weights
    w phi(v)) and the same construction at t = t0.  Values tend to zero as
    t -> t0 for trajectories; no claim is made beyond the probes reported.
    """
    d = traj.params.d
    ref_state = traj.state_at(t0)
    ref = phi_weighted_marginal(from_particles(ref_state), d, t0, t0, phi_v)
    out = []
    for t in probe_times:
        mu = from_particles(traj.state_at(t))
        unwound = phi_weighted_marginal(mu, d, t0, t, phi_v)
        out.append(dbl(unwound, ref))
    return np.array(out)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-snapshot diagnostic series for one trajectory.

    mkvar columns follow h_ladder (bin widths for the velocity-variance
    index).
    """

    times: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    dalpha: np.ndarray
    momentum: np.ndarray
    min_distance: np.ndarray
    h_ladder: tuple
    mkvar: np.ndarray
    energy_residual: float


def build_report(
    traj: Trajectory,
    bin_fractions: tuple = (1 / 8, 1 / 16, 1 / 32),
) -> DiagnosticsReport:
    """Full diagnostic sweep over the snapshots of a trajectory."""
    diam = float(distances(traj.x[0]).max()) if traj.params.N >= 2 else 1.0
    diam = max(diam, 1e-9)
    h_ladder = tuple(diam * f for f in bin_fractions)

    energy, mom, dd, da, md = _sweep(traj)
    # mk_index of every snapshot, binned in one pass per ladder width
    mkvar = np.empty((len(traj), len(h_ladder)))
    for j, h in enumerate(h_ladder):
        mkvar[:, j] = [grid.mk() for grid in snapshot_fields(traj, h)]

    return DiagnosticsReport(
        times=traj.times,
        energy=energy,
        enstrophy=dd,
        dalpha=da,
        momentum=mom,
        min_distance=md,
        h_ladder=h_ladder,
        mkvar=mkvar,
        energy_residual=_balance_defect(traj.times, energy, dd),
    )
