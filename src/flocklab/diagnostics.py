"""Scalar diagnostics of atomic phase-space measures and trajectories.

Conventions.  All pair functionals are double sums over ordered atom pairs
(a, b) against the product measure, so each unordered pair enters twice.
Self-pairs (a = b) are excluded; they contribute nothing when a kernel is
bounded, and are meaningless for the raw singular kernel.  Pairs sharing a
position are additionally excluded exactly when the kernel has no
regularization (eta = 0), mirroring an off-diagonal integral.

The kernel normalization beta(eta, alpha, d) is the integral of
(|x| + eta)^(-alpha) over R^d.  Closed forms are implemented for d = 1 and
d = 2; when alpha equals d the quantity enters only through ratios and is
set to 1 exactly.  The eta-weighted monokineticity functional uses the
conditional mean velocity at exact position groups, with the inner sum
running over the spatial marginal's atoms.

Pair functionals accept an optional ``grid`` (pairs.PairGrid) holding the
distances and squared relative speeds of the measure's atoms, so a caller
evaluating several of them on one measure builds that grid once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import DivergentNormalization, UnsupportedDimension
from .meanfield import stacked_fields
from .measures import (
    EmpiricalMeasure,
    dbl,
    from_particles,
    kinetic_energy,
    momentum,
    phi_weighted_marginal,
)
from .pairs import PairGrid, distances, kernel, off_diagonal
from .weakform import cumulative_trapezoid


def _split(mu: EmpiricalMeasure, d: int):
    if mu.point_dim != 2 * d:
        raise ValueError("phase measure must have point dimension 2d")
    return mu.points[:, :d], mu.points[:, d:], mu.weights


def _grid(mu: EmpiricalMeasure, d: int, grid: PairGrid | None):
    x, v, w = _split(mu, d)
    return (PairGrid.of(x, v) if grid is None else grid), w


def _counted(r: np.ndarray, colocated: bool) -> np.ndarray:
    """Mask of the pairs a functional sums over: off-diagonal, and apart
    unless co-located pairs count."""
    mask = np.ones(r.shape, dtype=bool) if colocated else r > 0.0
    np.fill_diagonal(mask, False)
    return mask


def enstrophy(
    mu: EmpiricalMeasure, d: int, alpha: float, grid: PairGrid | None = None
) -> float:
    """Alignment dissipation rate:
    sum over off-diagonal pairs of w_a w_b |v_a - v_b|^2 / |x_a - x_b|^alpha."""
    g, w = _grid(mu, d, grid)
    mask = _counted(g.r, colocated=False)
    val = (w[:, None] * w[None, :]) * g.s2 * kernel(g.r, alpha)
    return float(val[mask].sum())


def dalpha(
    mu: EmpiricalMeasure,
    d: int,
    alpha: float,
    eta: float = 0.0,
    grid: PairGrid | None = None,
) -> float:
    """Higher-moment dissipation:
    sum over pairs of w_a w_b |v_a - v_b|^(alpha+2) / (|x_a - x_b| + eta)^alpha.

    At eta = 0 pairs sharing a position are excluded; with eta > 0 every
    off-diagonal pair counts (co-located atoms included).
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    g, w = _grid(mu, d, grid)
    mask = _counted(g.r, colocated=eta > 0.0)
    kern = kernel(g.r + eta, alpha)
    val = (w[:, None] * w[None, :]) * g.s2 ** ((alpha + 2.0) / 2.0) * kern
    return float(val[mask].sum())


def beta_eta(eta: float, alpha: float, d: int) -> float:
    """Normalization integral of (|x| + eta)^(-alpha) over R^d, closed form.

    Equals 1 exactly at alpha = d (the critical case enters only through
    ratios).  Raises DivergentNormalization for alpha < d and
    UnsupportedDimension for d >= 3; scaling obeys eta^alpha beta ~ eta^d.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
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
    mu: EmpiricalMeasure,
    d: int,
    alpha: float,
    eta: float,
    grid: PairGrid | None = None,
) -> float:
    """Deviation from a single velocity per site, weighted by the
    regularized kernel against the spatial marginal:

        sum_{a,b} w_a w_b |v_a - u(x_a)|^(alpha+2) / (|x_a - x_b| + eta)^alpha

    with u the conditional mean velocity at exact position groups.  Zero
    exactly on monokinetic data.  Dominated by 2^(alpha+1) dalpha(mu, eta):
    splitting v - u(x) at the partner site and applying the convexity bound
    (s + t)^p <= 2^(p-1) (s^p + t^p) twice.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x, v, w = _split(mu, d)
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
    dev = np.sqrt(np.einsum("ij,ij->i", v - u, v - u))
    r = distances(x) if grid is None else grid.r
    # every pair counts here, self-pairs included, at eta^(-alpha)
    kern = (r + eta) ** (-alpha)
    return float((w * dev ** (alpha + 2.0)) @ kern @ w)


def min_distance(
    mu: EmpiricalMeasure, d: int, grid: PairGrid | None = None
) -> float:
    """Smallest distance between two different atoms (inf below two)."""
    x, _, _ = _split(mu, d)
    if x.shape[0] < 2:
        return np.inf
    r = distances(x) if grid is None else grid.r
    return float(off_diagonal(r).min())


def energy_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, kinetic energy, and enstrophy along the snapshots."""
    d = traj.params.d
    alpha = traj.params.alpha
    es, ds = [], []
    for st in traj:
        mu = from_particles(st)
        es.append(kinetic_energy(mu, d))
        ds.append(enstrophy(mu, d, alpha))
    return traj.times, np.array(es), np.array(ds)


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
    most (t - t0) M.  Raises SnapshotMissing off the snapshot grid.
    """
    if t < t0:
        raise ValueError("needs t >= t0")
    center = np.asarray(center, float)
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
    d = traj.params.d
    alpha = traj.params.alpha

    measures = [from_particles(st) for st in traj]
    # one pair grid per snapshot, shared by every pair functional below;
    # the first one also gives the diameter
    g0, _ = _grid(measures[0], d, None)
    diam = float(g0.r.max()) if traj.params.N >= 2 else 1.0
    diam = max(diam, 1e-9)
    h_ladder = tuple(diam * f for f in bin_fractions)

    rows = {"E": [], "D": [], "Da": [], "mom": [], "md": []}
    for k, mu in enumerate(measures):
        g, _ = _grid(mu, d, g0 if k == 0 else None)
        rows["E"].append(kinetic_energy(mu, d))
        rows["D"].append(enstrophy(mu, d, alpha, grid=g))
        rows["Da"].append(dalpha(mu, d, alpha, 0.0, grid=g))
        rows["mom"].append(momentum(mu, d))
        rows["md"].append(min_distance(mu, d, grid=g))
    # mk_index of every snapshot, binned in one pass per ladder width
    mkvar = np.empty((len(measures), len(h_ladder)))
    for j, h in enumerate(h_ladder):
        mkvar[:, j] = [grid.mk() for grid in stacked_fields(measures, d, h)]

    return DiagnosticsReport(
        times=traj.times,
        energy=np.array(rows["E"]),
        enstrophy=np.array(rows["D"]),
        dalpha=np.array(rows["Da"]),
        momentum=np.array(rows["mom"]),
        min_distance=np.array(rows["md"]),
        h_ladder=h_ladder,
        mkvar=mkvar,
        energy_residual=_balance_defect(
            traj.times, np.array(rows["E"]), np.array(rows["D"])
        ),
    )
