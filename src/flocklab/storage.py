"""On-disk formats: this module alone decides how a result becomes JSON or
CSV, under one set of rules.

JSON reports are canonical: sorted keys, two-space indent, floats as their
shortest round-trip repr, non-finite values as null, tuples and arrays as
lists, and a dataclass (the report and row types of diagnostics and
meanfield) as the object of its fields, keyed by field name.  Identical
results are byte-identical files; every report carries schema_version and
a generated_at timestamp (the one field comparisons are expected to strip).

CSV tables have one header row.  A float cell is its repr, and a missing
(None) or non-finite value is an empty cell, the CSV form of the JSON null;
an integer cell is written as it is.  Trajectories: one row per snapshot
per particle with header ``t,i,x1..xd,v1..vd`` plus a JSON summary carrying
the run parameters.  Measures: header ``weight,p1..pk``.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import math
from pathlib import Path

import numpy as np

from . import schemas
from .dynamics import ModelParams, Trajectory
from .measures import EmpiricalMeasure

SCHEMA_VERSION = "1"


def _plain(obj):
    """Recursively convert dataclasses, numpy scalars/arrays and non-finite
    floats for portable JSON."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(payload: dict) -> str:
    """Deterministic rendering: sorted keys, two-space indent, round-trip
    floats, trailing newline."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def write_report(path, payload: dict, kind: str) -> None:
    """Stamp a report with schema_version, kind and generated_at; write it."""
    stamped = dict(payload)
    stamped["schema_version"] = SCHEMA_VERSION
    stamped["kind"] = kind
    stamped["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(path).write_text(canonical_json(stamped), encoding="utf-8")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _cell(v):
    """One CSV cell: an integer as it is, any other value by the float rule
    (repr, or empty for None and non-finite values)."""
    if isinstance(v, (int, np.integer)):
        return v
    if v is None:
        return ""
    f = float(v)
    return repr(f) if math.isfinite(f) else ""


def _read_csv(path, kind: str, lead: list, width: int | None = None):
    """The header row and the rows of a CSV table, as lists of strings.
    ValueError unless the file has a header row that starts with lead (and
    has width cells, if given) and every row is as wide as the header."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{kind} CSV {path} has no header row")
        if header[: len(lead)] != lead or width not in (None, len(header)):
            raise ValueError(f"{kind} CSV header mismatch: {header}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{kind} CSV line {reader.line_num}: {row}")
            rows.append(row)
    return header, rows


def _write_csv(path, header, rows) -> Path:
    """Write a header and rows of raw values, each cell through _cell."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    return path


# ---- trajectories ----


def save_trajectory(traj: Trajectory, stem) -> tuple[Path, Path]:
    """Write {stem}.csv (snapshot rows) and {stem}.json (parameters)."""
    stem = Path(stem)
    d = traj.params.d
    header = ["t", "i"] + [f"{c}{k + 1}" for c in "xv" for k in range(d)]
    xv = np.concatenate([traj.x, traj.v], axis=2).tolist()
    rows = (
        [t, i, *row]
        for t, snap in zip(traj.times.tolist(), xv)
        for i, row in enumerate(snap)
    )
    csv_path = _write_csv(stem.with_suffix(".csv"), header, rows)
    p = traj.params
    summary = {
        "d": p.d,
        "alpha": p.alpha,
        "N": p.N,
        "T": p.T,
        "M": p.M,
        "monokinetic_regime": p.monokinetic_regime,
        "meanfield_regime": p.meanfield_regime,
        "tol": traj.tol,
        "snapshot_count": len(traj),
        "accepted_steps": int(len(traj.step_t)),
    }
    json_path = stem.with_suffix(".json")
    write_report(json_path, summary, kind="trajectory")
    return csv_path, json_path


def load_trajectory(stem) -> Trajectory:
    """Rebuild a trajectory from the CSV/JSON pair written by
    save_trajectory.  Step-by-step solver series are not kept on disk, so
    the loaded object has empty step arrays.

    The summary must match schemas.SCHEMAS["trajectory"], every row have
    2 + 2d fields, every snapshot exactly the rows i = 0..N-1, the file
    snapshot_count snapshots and at least one, and the snapshots finite
    positions and velocities at strictly increasing times (Trajectory
    checks the last three), or ValueError is raised.  Keys this version no
    longer writes are ignored.
    """
    stem = Path(stem)
    meta = schemas.resolve("trajectory", read_report(stem.with_suffix(".json")))
    d = int(meta["d"])
    params = ModelParams(
        d=d,
        alpha=float(meta["alpha"]),
        N=int(meta["N"]),
        T=float(meta["T"]),
        M=float(meta["M"]),
    )
    _, cells = _read_csv(stem.with_suffix(".csv"), "trajectory", ["t", "i"], 2 + 2 * d)
    by_t: dict[float, list] = {}
    for row in cells:
        row = [float(row[0]), int(row[1])] + [float(c) for c in row[2:]]
        by_t.setdefault(row[0], []).append(row)
    blocks = []
    for t, block in by_t.items():
        block.sort(key=lambda r: r[1])
        ids = [r[1] for r in block]
        if len(ids) != params.N or ids != list(range(params.N)):
            raise ValueError(
                f"trajectory snapshot t={t!r} does not hold exactly the "
                f"particles 0..{params.N - 1}"
            )
        blocks.append([r[2:] for r in block])
    if len(blocks) != int(meta["snapshot_count"]):
        raise ValueError(
            f"trajectory CSV holds {len(blocks)} snapshots, "
            f"its summary {meta['snapshot_count']}"
        )
    # (S, N, 2d): positions, then velocities
    data = np.array(blocks, dtype=np.float64).reshape(len(blocks), params.N, 2 * d)
    empty = np.zeros(0)
    return Trajectory(
        params=params,
        times=np.array(list(by_t)),
        x=data[..., :d],
        v=data[..., d:],
        step_t=empty,
        step_h=empty,
        step_err=empty,
        step_min_dist=empty,
        tol=float(meta["tol"]),
    )


# ---- measures ----


def save_measure(mu: EmpiricalMeasure, path) -> Path:
    header = ["weight"] + [f"p{j + 1}" for j in range(mu.point_dim)]
    return _write_csv(path, header, np.column_stack([mu.weights, mu.points]).tolist())


def load_measure(path) -> EmpiricalMeasure:
    header, rows = _read_csv(path, "measure", ["weight"])
    weights = [float(row[0]) for row in rows]
    points = [[float(c) for c in row[1:]] for row in rows]
    # (rows, k) even without rows: a header-only file is the empty measure
    points = np.array(points, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return EmpiricalMeasure(points, np.array(weights))


# ---- per-snapshot diagnostics series ----


def save_diagnostics_csv(report, path) -> Path:
    """Flat series: t, E, D, Dalpha, momentum components, min_distance."""
    d = report.momentum.shape[1]
    header = ["t", "E", "D", "Dalpha"] + [f"mom{k + 1}" for k in range(d)]
    columns = (report.times, report.energy, report.enstrophy, report.dalpha)
    rows = np.column_stack([*columns, report.momentum, report.min_distance])
    return _write_csv(path, header + ["min_distance"], rows.tolist())


# ---- study tables ----


def save_study_tables(report, outdir) -> list[Path]:
    """Flat CSV per table, one value per row, keyed by n / t / h.  The cells
    of a failed run or pair are empty."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    probes = list(enumerate(report.probe_times))
    ladder = list(enumerate(report.h_ladder))
    pairs = list(zip(report.n_list[:-1], report.n_list[1:]))

    def at(table, *index):
        for k in index:
            if table is None:
                return None
            table = table[k]
        return table

    def per_probe(series):
        return [
            [row.n, t, at(getattr(row, series), pi)]
            for row in report.rows
            for pi, t in probes
        ]

    def per_width(series):
        return [
            [row.n, t, h, at(getattr(row, series), pi, hi)]
            for row in report.rows
            for pi, t in probes
            for hi, h in ladder
        ]

    def per_pair(series):
        return [
            [lo, hi, t, at(table, pi)]
            for (lo, hi), table in zip(pairs, series)
            for pi, t in probes
        ]

    tables = {
        "energy": (["n", "t", "E"], per_probe("energy")),
        "mk": (["n", "t", "h", "mk"], per_width("mk")),
        "max_cell_mass": (["n", "t", "h", "mass"], per_width("max_cell_mass")),
        "margins": (["n", "t", "margin"], per_probe("margins")),
        "residuals": (
            ["n", "continuity", "momentum"],
            [[row.n, row.continuity, row.momentum] for row in report.rows],
        ),
        "dbl_cauchy": (["n_lo", "n_hi", "t", "dbl"], per_pair(report.dbl_cauchy)),
        "energy_cauchy": (
            ["n_lo", "n_hi", "t", "dE"], per_pair(report.energy_cauchy)
        ),
    }
    return [
        _write_csv(outdir / f"{name}.csv", header, rows)
        for name, (header, rows) in tables.items()
    ]


def save_pair_table(study, path) -> Path:
    header = ["eps", "t_half", "kernel_integral", "d_integral", "min_distance"]
    rows = (
        [r.eps, r.t_half, r.kernel_integral, r.d_integral, r.min_distance]
        for r in study.rows
    )
    return _write_csv(path, header, rows)
