"""Initial-data sampling, binned macroscopic fields, and refinement studies.

Sampling is counter-based: atom i of a configuration draws from substream i
of the configuration key, so the first n atoms of an N-atom sample coincide
with the n-atom sample for every n <= N.  Growing a study never reshuffles
the smaller ensembles.  sample_initial draws all atoms at once, one stream
per atom, and redraws only exact position repeats one atom at a time.  Its
norms and products sum the coordinates in index order, not through the
BLAS, so a sample has the same bits on any BLAS build (the gaussian's
log1p still follows numpy's SIMD dispatch).

Binned fields live on an axis-aligned grid anchored at the origin with cell
index floor(x / h) per coordinate.  A FieldGrid holds one array row per
cell of positive mass (barycenter, velocity, mass, in-cell velocity
variance); the weak residuals in weakform read those arrays directly.
snapshot_fields bins rows of a trajectory's stacked snapshots (all of
them, or the probe times of a study) in one pass: one sort of the
(snapshot, cell) rows and one np.bincount per sum.  local_fields bins one
measure through the same sort, so there is one binning path.
field_residuals(traj, h, battery) is the one path from a trajectory to
its continuity and momentum battery and its dissipation margins, shared
by the refinement study and ``flocklab residual``: each builds a
weakform.FieldBattery on the trajectory's snapshot times, which runs the
weak-identity pass of the kinetic residuals over the binned cells, as
weighted atoms with velocity factors 1 and v_k.  A study draws its
battery once and integrates every N on the battery's times, so one
FieldBattery serves every N.  Each N draws its own sample, and the N run
one after another.

snapshot_stats(traj, rows, h_ladder) is the one path from snapshots to
their instruments (moments, pair sums, MK index and heaviest cell per
width), read by the diagnostics report (every row), the refinement study
(its probes at widths 2h, h, h/2) and the pair study (no widths).

The package's import graph is acyclic: this module imports dynamics,
pairs, weakform and measures, and diagnostics imports this one for
snapshot_stats.  Functions of other modules that a test or a profiler may
swap at run time (dynamics.integrate) are looked up through their module,
so the swap takes effect here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, pairs, weakform
from .errors import FlockLabError, RejectionOverflow
from .measures import (
    EmpiricalMeasure, _ordered_dot, dbl, phase_moments, phase_split,
)
from .rng import CounterRNG

_REDRAW_BUDGET = 1000

# Every parameter of each density and velocity kind: its shape ("d" stands
# for the dimension) and the open range (low, high) of each of its entries.
_VECTOR = (("d",), -math.inf, math.inf)
_PAIR = ((2, "d"), -math.inf, math.inf)
_POSITIVE = ((), 0.0, math.inf)
_FRACTION = ((), 0.0, 1.0)
_DENSITIES = {
    "uniform-box": {"center": _VECTOR, "halfwidth": _POSITIVE},
    "truncated-gaussian": {"center": _VECTOR, "sigma": _POSITIVE, "cut": _POSITIVE},
    "two-bump": {"centers": _PAIR, "split": _FRACTION, "halfwidth": _POSITIVE},
}
_VELOCITIES = {
    "constant": {"value": _VECTOR},
    "linear-shear": {"base": _VECTOR, "gradient": (("d", "d"), -math.inf, math.inf)},
    "sinusoid": {"amplitude": _VECTOR, "wavenumber": _VECTOR},
    "two-speed-split": {"values": _PAIR, "fraction": _FRACTION},
}


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for an initial phase-space sample.

    density_params / velocity_params by kind:
      uniform-box: center (d,), halfwidth > 0
      truncated-gaussian: center (d,), sigma > 0, cut > 0 (radius, redraw outside)
      two-bump: centers (2, d), halfwidth > 0, split in (0, 1)
      constant: value (d,)
      linear-shear: base (d,), gradient (d, d); u(x) = base + gradient @ x
      sinusoid: amplitude (d,), wavenumber (d,); u(x) = amplitude * sin(k . x)
      two-speed-split: values (2, d), fraction in (0, 1)
    A missing or unknown parameter, a vector parameter of any other shape,
    or a parameter with a non-finite entry raises ValueError naming the
    kind and the key.
    Every draw must satisfy |x| <= M and |u0(x)| <= M for the configured
    bound M; violations raise at sampling time, not construction.
    """

    d: int
    density: str
    density_params: dict
    velocity: str
    velocity_params: dict
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        for role, kind, params, table in (
            ("density", self.density, self.density_params, _DENSITIES),
            ("velocity", self.velocity, self.velocity_params, _VELOCITIES),
        ):
            if kind not in table:
                raise ValueError(f"unknown {role} kind {kind!r}")
            for key in params:
                if key not in table[kind]:
                    raise ValueError(f"{kind} parameter {key!r} is unknown")
            for key, (shape, low, high) in table[kind].items():
                if key not in params:
                    raise ValueError(f"{kind} parameter {key!r} is missing")
                shape = tuple(self.d if n == "d" else n for n in shape)
                try:
                    got = np.shape(params[key])
                except ValueError:  # ragged nested lists
                    got = None
                if got != shape:
                    raise ValueError(
                        f"{kind} parameter {key!r} must have shape {shape} "
                        f"for d = {self.d}"
                    )
                value = np.asarray(params[key], float)
                if not np.isfinite(value).all():
                    raise ValueError(f"{kind} parameter {key!r} must be finite")
                if not ((low < value) & (value < high)).all():
                    raise ValueError(
                        f"{key} must be positive" if high == math.inf
                        else f"{key} must lie in ({low:g}, {high:g})"
                    )

    def support_diameter(self) -> float:
        """Diameter of the recipe's spatial support (exact, not sampled);
        the customary default bin width is this over 16."""
        p = self.density_params
        if self.density == "uniform-box":
            return 2.0 * float(p["halfwidth"]) * math.sqrt(self.d)
        if self.density == "truncated-gaussian":
            return 2.0 * float(p["cut"])
        centers = np.asarray(p["centers"], float)
        gap = math.dist(centers[0], centers[1])
        return gap + 2.0 * float(p["halfwidth"]) * math.sqrt(self.d)


def _positions(spec: InitialSpec, rng: CounterRNG, rows: np.ndarray):
    """One position draw from each stream of rng that rows indexes.  A
    stream whose truncated gaussian rounds all fall outside the cut gets a
    NaN row, which no draw from finite parameters gives."""
    p = spec.density_params
    if spec.density == "truncated-gaussian":
        x = np.full((len(rows), spec.d), np.nan)
        todo = np.arange(len(rows))
        for _ in range(_REDRAW_BUDGET):
            g = float(p["sigma"]) * rng.normal(spec.d, rows[todo])
            ok = np.sqrt(_ordered_dot(g, g)) <= float(p["cut"])
            x[todo[ok]] = np.asarray(p["center"], float) + g[ok]
            todo = todo[~ok]
            if not todo.size:
                break
        return x
    h = float(p["halfwidth"])
    if spec.density == "uniform-box":
        base = np.asarray(p["center"], float)
    else:
        centers = np.asarray(p["centers"], float)
        near = rng.uniform(1, rows=rows)[:, 0] < float(p["split"])
        base = np.where(near[:, None], centers[0], centers[1])
    return base + rng.uniform(spec.d, -h, h, rows)


def _velocities(spec: InitialSpec, x: np.ndarray, rng: CounterRNG):
    """u0 at each position x[i], with sin from libm once per atom.  The
    two-speed coin of atom i is the next draw of stream i, after its
    position draws, so that the spatial stream does not depend on the
    velocity kind."""
    p = spec.velocity_params
    if spec.velocity == "constant":
        return np.tile(np.asarray(p["value"], float), (len(x), 1))
    if spec.velocity == "linear-shear":
        base = np.asarray(p["base"], float)
        grad = np.asarray(p["gradient"], float)
        return base + _ordered_dot(x[:, None], grad)
    if spec.velocity == "sinusoid":
        amp = np.asarray(p["amplitude"], float)
        k = np.asarray(p["wavenumber"], float)
        kx = _ordered_dot(x, k).tolist()
        return amp * np.array([math.sin(t) for t in kx])[:, None]
    values = np.asarray(p["values"], float)
    first = rng.uniform(1, rows=np.arange(len(x)))[:, 0] < float(p["fraction"])
    return np.where(first[:, None], values[0], values[1])


def sample_initial(spec: InitialSpec, n: int, bound: float):
    """Draw n phase atoms (positions x, velocities v) from the recipe.

    Atom i uses substream i of the seed; prefixes are stable under growing
    n.  Exact repeats of an earlier atom's position are redrawn, in index
    order, from later counters of the same substream (budget per atom,
    then RejectionOverflow).  Raises if a draw lands outside |x| <= bound
    or |v| <= bound.  Of these failures, the lowest atom's is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = CounterRNG(spec.seed).spawn(np.arange(n))
    x = _positions(spec, rng, np.arange(n))
    tries = np.ones(n, dtype=int)
    error = None
    while True:
        # the atoms before stop drew positions; the first repeat is redrawn
        unplaced = np.flatnonzero(np.isnan(x[:, 0]))
        stop = int(unplaced[0]) if unplaced.size else n
        _, first = np.unique(x[:stop].view(np.uint64), axis=0, return_index=True)
        if len(first) == stop:
            if stop < n:
                error = RejectionOverflow(
                    "truncated gaussian redraw budget exhausted",
                    budget=_REDRAW_BUDGET,
                )
            break
        i = int(np.setdiff1d(np.arange(stop), first)[0])
        if tries[i] == _REDRAW_BUDGET:
            stop = i
            error = RejectionOverflow(
                "duplicate-position redraw budget exhausted",
                atom=i,
                budget=_REDRAW_BUDGET,
            )
            break
        x[i] = _positions(spec, rng, np.array([i]))
        tries[i] += 1
    x = x[:stop]
    v = _velocities(spec, x, rng)
    nx, nv = np.sqrt(_ordered_dot(x, x)), np.sqrt(_ordered_dot(v, v))
    escaped = np.flatnonzero(~((nx <= bound) & (nv <= bound)))
    if escaped.size:
        i = escaped[0]
        raise ValueError(
            "initial recipe escapes the configured bound: "
            f"|x|={nx[i]:.3g}, |v|={nv[i]:.3g}, bound={bound:.3g}"
        )
    if error is not None:
        raise error
    return x, v


@dataclass(frozen=True)
class FieldGrid:
    """All occupied cells of one binning, one row per cell.

    Rows follow the lexicographic order of the cell indices floor(x / h).
    barycenter (C, d) is the mass-weighted mean position of the atoms in a
    cell (a better quadrature node than its center), velocity (C, d) their
    mean velocity, mass (C,) their total weight, and cov_trace (C,) the
    velocity variance around the cell mean, trace form:
    (sum w |v - u|^2) / mass.
    """

    h: float
    d: int
    barycenter: np.ndarray
    velocity: np.ndarray
    mass: np.ndarray
    cov_trace: np.ndarray

    def mk(self) -> float:
        """Binned monokineticity index: mass-weighted in-cell velocity
        variance, sum of mass * cov_trace over the cells in row order.
        Zero iff each cell is single-speed; bounded by Lip(u)^2 d h^2 for
        velocities sampled from an L-Lipschitz field (each in-cell
        deviation is at most L h sqrt(d))."""
        return float(sum((self.mass * self.cov_trace).tolist()))


def _bin(label, x, v, w, count, h) -> list:
    """One FieldGrid per label 0..count-1 of the atoms (x, v, w).

    One stable lexicographic sort of the (label, cell) rows groups the
    atoms by label and then by cell, each label's cells in the
    lexicographic order of their indices and each cell's atoms in their
    input order.  The cell sums add the atoms in that order, and so does
    each cell's variance, as one sum over its contiguous slice.  Velocities
    are averaged about each cell's first atom, so a single-speed cell gives
    its velocity back exactly and its variance is 0.  Cells
    whose atoms all carry zero weight are dropped.  Cell indices stay
    float64 sort keys, exact at any width whose x / h is finite.
    """
    if not h > 0:
        raise ValueError("cell width must be positive")
    n, d = x.shape
    with np.errstate(over="ignore"):
        cells = np.floor(x / h)
    if not np.isfinite(cells).all():
        raise ValueError(f"cell width {h!r} puts a cell beyond the float range")
    rows = np.column_stack([label, cells])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    cell_label = rows[starts, 0]
    del rows
    k = starts.size
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    mass = np.bincount(inverse, weights=w, minlength=k)
    ref = v[order[starts]]
    xsum = np.empty((k, d))
    vsum = np.empty((k, d))
    for j in range(d):
        xsum[:, j] = np.bincount(inverse, weights=w * x[:, j], minlength=k)
        dvj = v[:, j] - ref[inverse, j]
        vsum[:, j] = np.bincount(inverse, weights=w * dvj, minlength=k)
    # cells of zero mass divide by 1 here and are dropped on return
    keep = mass > 0.0
    safe = np.where(keep, mass, 1.0)
    bary = xsum / safe[:, None]
    u = ref + vsum / safe[:, None]
    dv = u[inverse]
    np.subtract(v, dv, out=dv)
    terms = np.einsum("ij,ij->i", dv, dv)
    terms *= w
    terms = terms[order]
    cuts = starts.tolist() + [n]
    spread = np.array([terms[a:b].sum() for a, b in zip(cuts, cuts[1:])])
    cov = spread / safe
    bounds = np.searchsorted(cell_label, np.arange(count + 1)).tolist()
    grids = []
    for a, b in zip(bounds, bounds[1:]):
        kept = keep[a:b]
        grids.append(
            FieldGrid(
                h=float(h),
                d=d,
                barycenter=bary[a:b][kept],
                velocity=u[a:b][kept],
                mass=mass[a:b][kept],
                cov_trace=cov[a:b][kept],
            )
        )
    return grids


def snapshot_fields(traj: dynamics.Trajectory, h: float, rows=None) -> list:
    """local_fields of the uniform-weight measure of every snapshot of traj
    (or of the snapshots indexed by rows), binned in one pass: the cells of
    all snapshots come from one sort of the (snapshot, cell) rows."""
    p = traj.params
    x, v = (traj.x, traj.v) if rows is None else (traj.x[rows], traj.v[rows])
    s = len(x)
    return _bin(
        np.repeat(np.arange(s), p.N),
        x.reshape(-1, p.d),
        v.reshape(-1, p.d),
        np.full(s * p.N, 1.0 / p.N),
        s,
        h,
    )


def local_fields(mu: EmpiricalMeasure, d: int, h: float) -> FieldGrid:
    """Bin a phase measure into cells of width h anchored at the origin.

    Cells whose atoms all carry zero weight are dropped.  Each cell's
    variance sums its atoms in their input order.
    """
    x, v, w = phase_split(mu, d)
    return _bin(np.zeros(len(w), dtype=np.int64), x, v, w, 1, h)[0]


def field_residuals(traj: dynamics.Trajectory, h: float, battery):
    """The field battery of a trajectory: every snapshot binned at width h,
    then the continuity and momentum residuals of a weakform.FieldBattery
    tabulated on the trajectory's snapshot times (ValueError otherwise).
    The momentum identity takes its t = 0 moment from the unbinned first
    snapshot at weights 1/N.  Returns (continuity, momentum, margins): the
    residuals one per test function, and the dissipation margins per
    snapshot at the run's alpha.
    """
    p = traj.params
    if not np.array_equal(battery.times, traj.times):
        raise ValueError("battery and trajectory disagree on snapshot times")
    first = (traj.x[0], traj.v[0], np.full(p.N, 1.0 / p.N))
    return battery.residuals(snapshot_fields(traj, h), p.alpha, initial_atoms=first)


@dataclass(frozen=True)
class SnapshotStats:
    """Instruments of chosen trajectory rows at weights 1/N, one entry per
    row: enstrophy is D, dalpha is D_alpha at eta = 0, and mkvar and
    max_cell_mass are (rows, len(h_ladder)) tables of the binned MK index
    and the heaviest cell."""

    times: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    enstrophy: np.ndarray
    dalpha: np.ndarray
    min_distance: np.ndarray
    h_ladder: tuple
    mkvar: np.ndarray
    max_cell_mass: np.ndarray


def snapshot_stats(traj: dynamics.Trajectory, rows, h_ladder) -> SnapshotStats:
    """One phase_moments call, one pairs.snapshot_series pass and one
    binning per width over the snapshots that rows indexes; each row's
    numbers read that snapshot alone, whatever the other rows."""
    p = traj.params
    w = np.full(p.N, 1.0 / p.N)
    x, v = traj.x[rows], traj.v[rows]
    energy, momentum = phase_moments(v, w)
    h_ladder = tuple(h_ladder)
    mkvar = np.empty((len(x), len(h_ladder)))
    max_cell_mass = np.empty_like(mkvar)
    for j, h in enumerate(h_ladder):
        grids = snapshot_fields(traj, h, rows)
        mkvar[:, j] = [grid.mk() for grid in grids]
        max_cell_mass[:, j] = [grid.mass.max() for grid in grids]
    return SnapshotStats(
        traj.times[rows], energy, momentum,
        *pairs.snapshot_series(x, v, w, p.alpha),
        h_ladder, mkvar, max_cell_mass,
    )


# ---- refinement study over particle number ----


@dataclass(frozen=True)
class StudyRow:
    """Per-N outcome of a refinement study.  None fields mean the run for
    this N failed; see error.

    energy, enstrophy (D), dalpha (D_alpha) and min_distance hold one
    value per probe.  mk and max_cell_mass are (probe, ladder-width) tables
    over the study's h_ladder.  max_cell_mass tracks the heaviest bin: a
    proxy trend for atom concentration in the limit, reported without any
    verdict.
    """

    n: int
    energy: tuple | None
    enstrophy: tuple | None
    dalpha: tuple | None
    min_distance: tuple | None
    mk: tuple | None
    max_cell_mass: tuple | None
    continuity: float | None
    momentum: float | None
    margins: tuple | None
    error: dict | None


@dataclass(frozen=True)
class StudyReport:
    """Refinement study across an increasing ladder of particle numbers.

    dbl_cauchy[k][p] is the flat distance between the spatial marginals of
    runs n_list[k] and n_list[k + 1] at probe p; energy_cauchy likewise
    for kinetic energies.  None entries mark pairs where a run failed, or
    where the flat distance exceeded the simplex's pivot budget:
    dbl_errors[k] then holds that PivotBudgetExceeded record (None for
    every other pair).
    """

    n_list: tuple
    probe_times: tuple
    h: float
    h_ladder: tuple
    alpha: float
    horizon: float
    bound: float
    seed: int
    rows: tuple
    dbl_cauchy: tuple
    dbl_errors: tuple
    energy_cauchy: tuple


def _study_single_n(
    spec,
    n,
    alpha,
    horizon,
    bound,
    h,
    probes,
    tol,
    battery,
):
    d = spec.d
    x0, v0 = sample_initial(spec, n, bound)
    params = dynamics.ModelParams(d=d, alpha=alpha, N=n, T=horizon, M=bound)
    traj = dynamics.integrate(
        dynamics.ParticleState(0.0, x0, v0),
        params,
        tol=tol,
        snapshot_times=battery.times,
    )

    # the probes are on the snapshot grid: each is the row nearest to it
    idx = [int(np.argmin(np.abs(traj.times - p))) for p in probes]
    marginals = [EmpiricalMeasure(traj.x[k], np.full(n, 1.0 / n)) for k in idx]
    stats = snapshot_stats(traj, idx, (2.0 * h, h, h / 2.0))
    cont, mom, all_margins = field_residuals(traj, h, battery)
    margins = tuple(float(all_margins[k]) for k in idx)

    row = StudyRow(
        n=n,
        energy=tuple(stats.energy.tolist()),
        enstrophy=tuple(stats.enstrophy.tolist()),
        dalpha=tuple(stats.dalpha.tolist()),
        min_distance=tuple(stats.min_distance.tolist()),
        mk=tuple(map(tuple, stats.mkvar.tolist())),
        max_cell_mass=tuple(map(tuple, stats.max_cell_mass.tolist())),
        continuity=float(max(cont)),
        momentum=float(max(mom)),
        margins=margins,
        error=None,
    )
    return row, marginals


def refinement_study(
    spec: InitialSpec,
    n_list,
    alpha: float,
    horizon: float,
    bound: float,
    h: float,
    probe_times,
    tol: float = 1e-7,
    quad_points: int = 33,
    battery_size: int = 24,
    battery_seed: int = 0,
) -> StudyReport:
    """Run one initial recipe at every N in n_list and compare.

    Each N integrates the same recipe (prefix-stable sampling, so smaller
    ensembles are literal prefixes of larger ones), then reports kinetic
    energy, the dissipations D and D_alpha, the smallest pair distance, the
    binned monokineticity index and heaviest-cell mass across the ladder
    (2h, h, h/2), battery-maximal continuity and momentum residuals on
    width-h fields, and dissipation margins at the probe times.
    Consecutive runs are compared in the flat metric on spatial marginals.
    A failed run (collision, step collapse) is kept as its error record,
    and so is a flat distance between two runs that exceeds the simplex's
    pivot budget; the study continues.

    Each N draws its own sample, so a RejectionOverflow fails only the N
    that reach the failing atom.  A draw that escapes the bound raises
    ValueError from the first N that reaches the escaping atom, after the
    N before it have run.  The N run one after another in n_list order.
    """
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) != len(n_list):
        raise ValueError("n_list entries must be distinct")
    if not n_list or min(n_list) < 1:
        raise ValueError("n_list must hold one or more positive sizes")
    probes = [float(p) for p in probe_times]
    if any(p < 0 or p > horizon for p in probes):
        raise ValueError("probe times must lie in [0, horizon]")
    snap_times = dynamics.sorted_distinct(
        np.concatenate([np.linspace(0.0, horizon, quad_points), probes])
    )
    # every N runs on the same snapshot times, so one battery serves them all
    battery = weakform.FieldBattery(
        weakform.vector_battery(spec.d, horizon, bound, battery_size, battery_seed),
        snap_times,
    )

    runs = []  # (row, spatial marginals at the probes) per N
    for n in n_list:
        try:
            runs.append(_study_single_n(
                spec, n, alpha, horizon, bound, h, probes, tol, battery,
            ))
        except FlockLabError as exc:
            row = StudyRow(
                n=n, energy=None, enstrophy=None, dalpha=None,
                min_distance=None, mk=None, max_cell_mass=None,
                continuity=None, momentum=None, margins=None,
                error=exc.to_dict(),
            )
            runs.append((row, None))

    dbl_cauchy = []
    dbl_errors = []
    energy_cauchy = []
    for (row_a, marg_a), (row_b, marg_b) in zip(runs, runs[1:]):
        if marg_a is None or marg_b is None:
            dbl_cauchy.append(None)
            dbl_errors.append(None)
            energy_cauchy.append(None)
            continue
        try:
            dists = tuple(float(dbl(ma, mb)) for ma, mb in zip(marg_a, marg_b))
            error = None
        except FlockLabError as exc:
            dists, error = None, exc.to_dict()
        dbl_cauchy.append(dists)
        dbl_errors.append(error)
        energy_cauchy.append(
            tuple(abs(x - y) for x, y in zip(row_a.energy, row_b.energy))
        )

    return StudyReport(
        n_list=tuple(n_list),
        probe_times=tuple(probes),
        h=float(h),
        h_ladder=(2.0 * float(h), float(h), float(h) / 2.0),
        alpha=float(alpha),
        horizon=float(horizon),
        bound=float(bound),
        seed=spec.seed,
        rows=tuple(row for row, _ in runs),
        dbl_cauchy=tuple(dbl_cauchy),
        dbl_errors=tuple(dbl_errors),
        energy_cauchy=tuple(energy_cauchy),
    )


# ---- two-particle alignment study ----


@dataclass(frozen=True)
class PairRow:
    eps: float
    t_half: float | None
    kernel_integral: float | None
    d_integral: float | None
    min_distance: float | None
    error: dict | None


@dataclass(frozen=True)
class PairStudy:
    alpha: float
    horizon: float
    rows: tuple


def pair_alignment_study(
    eps_list,
    v1,
    v2,
    alpha: float,
    horizon: float = 8.0,
    grid_points: int = 4096,
    tol: float = 1e-10,
) -> PairStudy:
    """Two particles started a distance eps apart, for each eps.

    For the pair the relative velocity obeys w' = -psi(r) w, so the
    half-life t_half of |w| satisfies  int_0^t_half psi(r(s)) ds = ln 2.
    Reported per eps: t_half (bracketing plus log-linear interpolation on
    a dense snapshot grid; None if not reached by the horizon; a relative
    speed of exactly 0 at the first snapshot below half takes the
    interpolant's limit, t_half at the snapshot before it), the kernel
    integral up to t_half (a consistency check against ln 2), the
    trapezoid integral of the dissipation rate over the whole run, and the
    smallest pair distance observed at snapshots.
    """
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)
    if v1.shape != v2.shape:
        raise ValueError(f"v1 and v2 differ in length: {len(v1)} and {len(v2)}")
    d = v1.shape[0]
    w0 = math.dist(v1, v2)
    bound = max(1.0, math.hypot(*v1), math.hypot(*v2))
    times = np.linspace(0.0, horizon, grid_points)

    rows = []
    for eps in eps_list:
        eps = float(eps)
        if w0 == 0.0:
            rows.append(PairRow(eps, 0.0, 0.0, 0.0, eps, None))
            continue
        x = np.zeros((2, d))
        x[0, 0] = -eps / 2
        x[1, 0] = eps / 2
        params = dynamics.ModelParams(d=d, alpha=alpha, N=2, T=horizon, M=bound)
        try:
            traj = dynamics.integrate(
                dynamics.ParticleState(0.0, x, np.stack([v1, v2])),
                params,
                tol=tol,
                snapshot_times=times,
            )
        except FlockLabError as exc:
            rows.append(PairRow(eps, None, None, None, None, exc.to_dict()))
            continue

        stats = snapshot_stats(traj, slice(None), ())
        rel = np.sqrt(pairs.sq_distances(traj.v)[:, 0, 1])
        psi = pairs.kernel(pairs.separations(traj.x), alpha)[:, 0, 1]
        d_int = float(np.trapezoid(stats.enstrophy, times))
        r_min = float(stats.min_distance.min())

        half = w0 / 2.0
        below = np.flatnonzero(rel <= half)
        if below.size == 0:
            rows.append(PairRow(eps, None, None, d_int, r_min, None))
            continue
        k = int(below[0])
        kint = weakform.cumulative_trapezoid(times, psi)
        if k == 0:
            t_half = 0.0
            kernel_integral = 0.0
        else:
            lo, hi = rel[k - 1], rel[k]
            # exponential decay: interpolate linearly in the log (frac -> 0 as hi -> 0)
            frac = 0.0
            if hi > 0.0:
                frac = (math.log(lo) - math.log(half)) / (math.log(lo) - math.log(hi))
            t_half = float(times[k - 1] + frac * (times[k] - times[k - 1]))
            step = 0.5 * (psi[k - 1] + psi[k]) * (times[k] - times[k - 1])
            kernel_integral = float(kint[k - 1] + frac * step)
        rows.append(PairRow(eps, t_half, kernel_integral, d_int, r_min, None))
    return PairStudy(alpha=float(alpha), horizon=float(horizon), rows=tuple(rows))
