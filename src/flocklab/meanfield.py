"""Initial-data sampling, binned macroscopic fields, and refinement studies.

Sampling is counter-based: atom i of a configuration draws from substream i
of the configuration key, so the first n atoms of an N-atom sample coincide
with the n-atom sample for every n <= N.  Growing a study never reshuffles
the smaller ensembles.

Binned fields live on an axis-aligned grid anchored at the origin with cell
index floor(x / h) per coordinate.  A FieldGrid holds one array row per
cell of positive mass (barycenter, velocity, mass, in-cell velocity
variance); the weak residuals in weakform read those arrays directly.
stacked_fields bins a whole sequence of measures (every snapshot of a
trajectory, or the probe states of a study) in one pass: one sort of the
(snapshot, cell) rows and one np.bincount per sum.  local_fields is its
one-measure case, so there is one binning path.  field_residuals is the
one path from a trajectory to its continuity and momentum battery and its
dissipation margins, one weakform.FieldBattery pass over the binned
snapshots, shared by the refinement study and ``flocklab residual``.  A
study draws its battery once: every N runs on the same snapshot times, so
one FieldBattery serves every N.  The study runs its N one after another.

The package's import graph is acyclic: this module imports dynamics,
weakform and measures, and diagnostics imports this one for stacked_fields.
Functions of other modules that a test or a profiler may swap at run time
(dynamics.integrate) are looked up through their module, so the swap takes
effect here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, weakform
from .errors import FlockLabError, RejectionOverflow
from .measures import (
    EmpiricalMeasure,
    dbl,
    from_particles,
    kinetic_energy,
    marginal_x,
)
from .rng import CounterRNG

_DENSITIES = ("uniform-box", "truncated-gaussian", "two-bump")
_VELOCITIES = ("constant", "linear-shear", "sinusoid", "two-speed-split")
_REDRAW_BUDGET = 1000


def _vector_shapes(kind: str, d: int) -> dict:
    """The shape each vector parameter of a density or velocity kind must
    have in dimension d."""
    return {
        "uniform-box": {"center": (d,)},
        "truncated-gaussian": {"center": (d,)},
        "two-bump": {"centers": (2, d)},
        "constant": {"value": (d,)},
        "linear-shear": {"base": (d,), "gradient": (d, d)},
        "sinusoid": {"amplitude": (d,), "wavenumber": (d,)},
        "two-speed-split": {"values": (2, d)},
    }[kind]


# the scalar parameters of each kind; _vector_shapes names the vector ones
_SCALARS = {
    "uniform-box": ("halfwidth",),
    "truncated-gaussian": ("sigma", "cut"),
    "two-bump": ("halfwidth", "split"),
    "two-speed-split": ("fraction",),
}


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for an initial phase-space sample.

    density_params / velocity_params by kind:
      uniform-box: center (d,), halfwidth > 0
      truncated-gaussian: center (d,), sigma > 0, cut > 0 (radius, redraw outside)
      two-bump: centers (2, d), halfwidth, split in (0, 1)
      constant: value (d,)
      linear-shear: base (d,), gradient (d, d); u(x) = base + gradient @ x
      sinusoid: amplitude (d,), wavenumber (d,); u(x) = amplitude * sin(k . x)
      two-speed-split: values (2, d), fraction in (0, 1)
    A missing parameter, or a vector parameter of any other shape, raises
    ValueError naming the kind and the key.
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
        if self.density not in _DENSITIES:
            raise ValueError(f"unknown density kind {self.density!r}")
        if self.velocity not in _VELOCITIES:
            raise ValueError(f"unknown velocity kind {self.velocity!r}")
        for kind, params in (
            (self.density, self.density_params),
            (self.velocity, self.velocity_params),
        ):
            shapes = _vector_shapes(kind, self.d)
            for key in (*shapes, *_SCALARS.get(kind, ())):
                if key not in params:
                    raise ValueError(f"{kind} parameter {key!r} is missing")
            for key, shape in shapes.items():
                try:
                    got = np.shape(params[key])
                except ValueError:  # ragged nested lists
                    got = None
                if got != shape:
                    raise ValueError(
                        f"{kind} parameter {key!r} must have shape {shape} "
                        f"for d = {self.d}"
                    )
        if self.density == "uniform-box":
            if float(self.density_params["halfwidth"]) <= 0:
                raise ValueError("halfwidth must be positive")
        elif self.density == "truncated-gaussian":
            if float(self.density_params["sigma"]) <= 0:
                raise ValueError("sigma must be positive")
            if float(self.density_params["cut"]) <= 0:
                raise ValueError("cut must be positive")
        else:
            if not 0 < float(self.density_params["split"]) < 1:
                raise ValueError("split must lie in (0, 1)")
            if float(self.density_params["halfwidth"]) <= 0:
                raise ValueError("halfwidth must be positive")
        if self.velocity == "two-speed-split":
            if not 0 < float(self.velocity_params["fraction"]) < 1:
                raise ValueError("fraction must lie in (0, 1)")

    def support_diameter(self) -> float:
        """Diameter of the recipe's spatial support (exact, not sampled);
        the customary default bin width is this over 16."""
        p = self.density_params
        if self.density == "uniform-box":
            return 2.0 * float(p["halfwidth"]) * math.sqrt(self.d)
        if self.density == "truncated-gaussian":
            return 2.0 * float(p["cut"])
        centers = np.asarray(p["centers"], float)
        gap = float(np.linalg.norm(centers[0] - centers[1]))
        return gap + 2.0 * float(p["halfwidth"]) * math.sqrt(self.d)


def _draw_position(spec: InitialSpec, rng: CounterRNG) -> np.ndarray:
    d = spec.d
    p = spec.density_params
    if spec.density == "uniform-box":
        c = np.asarray(p["center"], float)
        h = float(p["halfwidth"])
        return c + rng.uniform(d, -h, h)
    if spec.density == "truncated-gaussian":
        c = np.asarray(p["center"], float)
        s = float(p["sigma"])
        cut = float(p["cut"])
        for _ in range(_REDRAW_BUDGET):
            g = s * rng.normal(d)
            if np.linalg.norm(g) <= cut:
                return c + g
        raise RejectionOverflow(
            "truncated gaussian redraw budget exhausted",
            budget=_REDRAW_BUDGET,
        )
    centers = np.asarray(p["centers"], float)
    h = float(p["halfwidth"])
    split = float(p["split"])
    pick = centers[0] if rng.uniform(1)[0] < split else centers[1]
    return pick + rng.uniform(d, -h, h)


def _velocity_at(spec: InitialSpec, x: np.ndarray, rng: CounterRNG) -> np.ndarray:
    p = spec.velocity_params
    if spec.velocity == "constant":
        return np.asarray(p["value"], float).copy()
    if spec.velocity == "linear-shear":
        base = np.asarray(p["base"], float)
        grad = np.asarray(p["gradient"], float)
        return base + grad @ x
    if spec.velocity == "sinusoid":
        amp = np.asarray(p["amplitude"], float)
        k = np.asarray(p["wavenumber"], float)
        return amp * math.sin(float(k @ x))
    values = np.asarray(p["values"], float)
    frac = float(p["fraction"])
    # coin drawn after the position so the spatial stream is unchanged
    return values[0].copy() if rng.uniform(1)[0] < frac else values[1].copy()


def sample_initial(spec: InitialSpec, n: int, bound: float):
    """Draw n phase atoms (positions x, velocities v) from the recipe.

    Atom i uses substream i of the seed; prefixes are stable under growing
    n.  Exact position duplicates are redrawn from later counters of the
    same substream (budget per atom, then RejectionOverflow).  Raises if a
    draw lands outside |x| <= bound or |v| <= bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    root = CounterRNG(spec.seed)
    xs = np.empty((n, spec.d))
    vs = np.empty((n, spec.d))
    seen = set()
    for i in range(n):
        sub = root.spawn(i)
        for attempt in range(_REDRAW_BUDGET):
            x = _draw_position(spec, sub)
            key = x.tobytes()
            if key not in seen:
                break
        else:
            raise RejectionOverflow(
                "duplicate-position redraw budget exhausted",
                atom=i,
                budget=_REDRAW_BUDGET,
            )
        seen.add(key)
        v = _velocity_at(spec, x, sub)
        if np.linalg.norm(x) > bound or np.linalg.norm(v) > bound:
            raise ValueError(
                "initial recipe escapes the configured bound: "
                f"|x|={np.linalg.norm(x):.3g}, |v|={np.linalg.norm(v):.3g}, "
                f"bound={bound:.3g}"
            )
        xs[i] = x
        vs[i] = v
    return xs, vs


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
        """Mass-weighted in-cell velocity variance, sum of mass * cov_trace
        over the cells in row order; see mk_index."""
        return float(sum((self.mass * self.cov_trace).tolist()))


def _bin(label, x, v, w, count, h) -> list:
    """One FieldGrid per label 0..count-1 of the atoms (x, v, w).

    One stable lexicographic sort of the (label, cell) rows groups the
    atoms by label and then by cell, each label's cells in the
    lexicographic order of their indices and each cell's atoms in their
    input order.  The cell sums add the atoms in that order, and so does
    each cell's variance, as one sum over its contiguous slice.  Cells
    whose atoms all carry zero weight are dropped.
    """
    n, d = x.shape
    rows = np.column_stack([label, np.floor(x / h).astype(np.int64)])
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
    xsum = np.empty((k, d))
    vsum = np.empty((k, d))
    for j in range(d):
        xsum[:, j] = np.bincount(inverse, weights=w * x[:, j], minlength=k)
        vsum[:, j] = np.bincount(inverse, weights=w * v[:, j], minlength=k)
    # cells of zero mass divide by 1 here and are dropped on return
    keep = mass > 0.0
    safe = np.where(keep, mass, 1.0)
    bary = xsum / safe[:, None]
    u = vsum / safe[:, None]
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


def stacked_fields(measures, d: int, h: float) -> list:
    """local_fields of every phase measure, binned in one pass: the cells
    of all measures come from one sort of the (measure, cell) rows."""
    if h <= 0:
        raise ValueError("cell width must be positive")
    if any(mu.point_dim != 2 * d for mu in measures):
        raise ValueError("phase measure must have point dimension 2d")
    if not measures:
        return []
    points = np.concatenate([mu.points for mu in measures])
    label = np.repeat(np.arange(len(measures)), [mu.n_atoms for mu in measures])
    w = np.concatenate([mu.weights for mu in measures])
    return _bin(label, points[:, :d], points[:, d:], w, len(measures), h)


def local_fields(mu: EmpiricalMeasure, d: int, h: float) -> FieldGrid:
    """Bin a phase measure into cells of width h anchored at the origin.

    Cells whose atoms all carry zero weight are dropped.  Each cell's
    variance sums its atoms in their input order.  This is the
    one-measure case of stacked_fields.
    """
    return stacked_fields([mu], d, h)[0]


def mk_index(mu: EmpiricalMeasure, d: int, h: float) -> float:
    """Binned monokineticity index: mass-weighted velocity variance,
    sum over cells of mass * cov_trace.  Zero iff each cell is
    single-speed; bounded by Lip(u)^2 d h^2 for velocities sampled from an
    L-Lipschitz field (each in-cell deviation is at most L h sqrt(d))."""
    return local_fields(mu, d, h).mk()


def field_residuals(traj: dynamics.Trajectory, h: float, size: int, seed: int):
    """The field battery of a trajectory: every snapshot binned at width h,
    then the continuity and momentum residuals of the vector battery drawn
    from traj.params (d, T, M) with the given size and seed (continuity
    reads its scalar parts, the macro battery of that size and seed).  The
    momentum identity takes its t = 0 moment from the unbinned first
    snapshot at weights 1/N.  Returns (grids, continuity, momentum,
    margins): the residuals one per test function, and the dissipation
    margins per snapshot at the run's alpha.
    """
    p = traj.params
    phis = weakform.vector_battery(p.d, p.T, p.M, size, seed)
    return _battery_residuals(traj, h, weakform.FieldBattery(phis, traj.times))


def _battery_residuals(traj, h, battery):
    """field_residuals against a FieldBattery tabulated on the trajectory's
    snapshot times."""
    p = traj.params
    if not np.array_equal(battery.times, traj.times):
        raise ValueError("battery and trajectory disagree on snapshot times")
    # stacked_fields of the snapshots' uniform-weight measures
    s = len(traj)
    grids = _bin(
        np.repeat(np.arange(s), p.N),
        traj.x.reshape(-1, p.d),
        traj.v.reshape(-1, p.d),
        np.full(s * p.N, 1.0 / p.N),
        s,
        h,
    )
    first = (traj.x[0], traj.v[0], np.full(p.N, 1.0 / p.N))
    return (grids, *battery.residuals(grids, p.alpha, initial_atoms=first))


# ---- refinement study over particle number ----


@dataclass(frozen=True)
class StudyRow:
    """Per-N outcome of a refinement study.  None fields mean the run for
    this N failed; see error.

    mk and max_cell_mass are (probe, ladder-width) tables over the study's
    h_ladder.  max_cell_mass tracks the heaviest bin: a proxy trend for
    atom concentration in the limit, reported without any verdict.
    """

    n: int
    energy: tuple | None
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
    where the flat distance itself failed: dbl_errors[k] then holds that
    error record (None for every other pair).
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
    snap_times,
    tol,
    battery,
    atoms,
):
    d = spec.d
    # the study's one draw, or this N's own when that draw failed
    x0, v0 = sample_initial(spec, n, bound) if atoms is None else atoms
    params = dynamics.ModelParams(d=d, alpha=alpha, N=n, T=horizon, M=bound)
    traj = dynamics.integrate(
        dynamics.ParticleState(0.0, x0, v0),
        params,
        tol=tol,
        snapshot_times=snap_times,
    )

    measures = [from_particles(traj.state_at(p)) for p in probes]
    marginals = [marginal_x(mu, d) for mu in measures]
    energy = [kinetic_energy(mu, d) for mu in measures]
    # one row per probe: its grids at widths 2h, h, h/2
    widths = (2.0 * h, h, h / 2.0)
    ladder = list(zip(*(stacked_fields(measures, d, w) for w in widths)))
    mk = [tuple(grid.mk() for grid in row) for row in ladder]
    maxcell = [tuple(float(grid.mass.max()) for grid in row) for row in ladder]

    _, cont, mom, all_margins = _battery_residuals(traj, h, battery)
    probe_idx = [int(np.argmin(np.abs(traj.times - p))) for p in probes]
    margins = tuple(float(all_margins[i]) for i in probe_idx)

    row = StudyRow(
        n=n,
        energy=tuple(energy),
        mk=tuple(mk),
        max_cell_mass=tuple(maxcell),
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
    dbl_cap: int = 2000,
) -> StudyReport:
    """Run one initial recipe at every N in n_list and compare.

    Each N integrates the same recipe (prefix-stable sampling, so smaller
    ensembles are literal prefixes of larger ones), then reports kinetic
    energy, the binned monokineticity index and heaviest-cell mass across
    the ladder (2h, h, h/2), battery-maximal continuity and momentum
    residuals on width-h fields, and dissipation margins at the probe
    times.  Consecutive runs are compared in the flat metric on spatial
    marginals.  A failed run (collision, step collapse) is kept as its
    error record, and so is a failed flat distance between two runs (support
    cap, pivot budget); the study continues.

    The largest N is sampled once and every N runs on its prefix.  When
    that draw raises RejectionOverflow, every N draws its own sample, so
    only the N that reach the failing atom fail.  The N run one after
    another in n_list order.
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

    try:
        xs, vs = sample_initial(spec, max(n_list), bound)
    except RejectionOverflow:
        xs = vs = None

    runs = []  # (row, spatial marginals at the probes) per N
    for n in n_list:
        atoms = None if xs is None else (xs[:n], vs[:n])
        try:
            runs.append(_study_single_n(
                spec, n, alpha, horizon, bound, h, probes, snap_times,
                tol, battery, atoms,
            ))
        except FlockLabError as exc:
            row = StudyRow(
                n=n, energy=None, mk=None, max_cell_mass=None,
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
            dists = tuple(
                float(dbl(ma, mb, cap=dbl_cap))
                for ma, mb in zip(marg_a, marg_b)
            )
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


def _pair_series(xs: np.ndarray, vs: np.ndarray, alpha: float):
    """Gap, relative speed and dissipation rate of every snapshot of a pair,
    from the stacked (S, 2, d) positions xs and velocities vs.

    Coordinates are summed in index order, with elementwise operations
    only.  The gap is the distance pairs.distances gives (|x_0 - x_1| in
    d = 1), and the dissipation rate repeats the elementwise operations of
    enstrophy(from_particles(s), d, alpha) on that gap, with the weight
    product 1/4.  Its two ordered pairs give the same bits and are added;
    a co-located pair counts zero.
    """
    dx = xs[:, 0, :] - xs[:, 1, :]
    dv = vs[:, 0, :] - vs[:, 1, :]
    r2 = dx[:, 0] * dx[:, 0]
    s2 = dv[:, 0] * dv[:, 0]
    for k in range(1, dx.shape[1]):
        r2 += dx[:, k] * dx[:, k]
        s2 += dv[:, k] * dv[:, k]
    r = np.abs(dx[:, 0]) if dx.shape[1] == 1 else np.sqrt(r2)
    kern = np.zeros_like(r)
    np.power(r, -alpha, out=kern, where=r > 0.0)
    w = 1.0 / 2
    val = (w * w) * s2 * kern
    return r, np.sqrt(s2), val + val


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
    a dense snapshot grid; None if not reached by the horizon), the kernel
    integral up to t_half (a consistency check against ln 2), the
    trapezoid integral of the dissipation rate over the whole run, and the
    smallest pair distance observed at snapshots.
    """
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)
    d = v1.shape[0]
    w0 = float(np.linalg.norm(v1 - v2))
    bound = max(1.0, float(np.linalg.norm(v1)), float(np.linalg.norm(v2)))
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

        dist, rel, dee = _pair_series(traj.x, traj.v, alpha)
        psi = dist ** (-alpha)
        d_int = float(np.trapezoid(dee, times))

        half = w0 / 2.0
        below = np.flatnonzero(rel <= half)
        if below.size == 0:
            rows.append(
                PairRow(eps, None, None, d_int, float(dist.min()), None)
            )
            continue
        k = int(below[0])
        if k == 0:
            t_half = 0.0
            frac = 0.0
        else:
            lo, hi = rel[k - 1], rel[k]
            # exponential decay: interpolate linearly in the log
            frac = (math.log(lo) - math.log(half)) / (
                math.log(lo) - math.log(hi)
            )
            t_half = float(times[k - 1] + frac * (times[k] - times[k - 1]))
        kint = weakform.cumulative_trapezoid(times, psi)
        if k == 0:
            kernel_integral = 0.0
        else:
            step = 0.5 * (psi[k - 1] + psi[k]) * (times[k] - times[k - 1])
            kernel_integral = float(kint[k - 1] + frac * step)
        rows.append(
            PairRow(
                eps,
                t_half,
                kernel_integral,
                d_int,
                float(dist.min()),
                None,
            )
        )
    return PairStudy(alpha=float(alpha), horizon=float(horizon), rows=tuple(rows))
