"""On-disk formats.

Trajectories: one CSV row per snapshot per particle with header
``t,i,x1..xd,v1..vd`` plus a JSON summary carrying the run parameters.
Measures: CSV with header ``weight,p1..pk``.  Reports: canonical JSON with
sorted keys and shortest round-trip float repr, so identical results are
byte-identical files; every report carries schema_version and a
generated_at timestamp (the one field comparisons are expected to strip).
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from pathlib import Path

import numpy as np

from .dynamics import ModelParams, Trajectory
from .measures import EmpiricalMeasure

SCHEMA_VERSION = "1"


def _plain(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats for
    portable JSON."""
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


def write_report(path, payload: dict, kind: str, timestamp: str | None = None) -> dict:
    """Stamp and write a report; returns the stamped payload."""
    stamped = dict(payload)
    stamped["schema_version"] = SCHEMA_VERSION
    stamped["kind"] = kind
    stamped["generated_at"] = timestamp or (
        datetime.datetime.now(datetime.timezone.utc).isoformat()
    )
    Path(path).write_text(canonical_json(stamped), encoding="utf-8")
    return stamped


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---- trajectories ----


def save_trajectory(traj: Trajectory, stem) -> tuple[Path, Path]:
    """Write {stem}.csv (snapshot rows) and {stem}.json (parameters)."""
    stem = Path(stem)
    d = traj.params.d
    csv_path = stem.with_suffix(".csv")
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            ["t", "i"]
            + [f"x{k + 1}" for k in range(d)]
            + [f"v{k + 1}" for k in range(d)]
        )
        writer.writerow(header)
        for t, x, v in zip(traj.times, traj.x, traj.v):
            for i in range(x.shape[0]):
                writer.writerow(
                    [repr(float(t)), i]
                    + [repr(float(c)) for c in x[i]]
                    + [repr(float(c)) for c in v[i]]
                )
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

    Every row must have 2 + 2d fields, every snapshot exactly the rows
    i = 0..N-1, and the file snapshot_count snapshots, or ValueError is
    raised.  A "tol"
    of null (a fixed-step run of an earlier version)
    loads as None; keys this version no longer writes are ignored.
    """
    stem = Path(stem)
    meta = read_report(stem.with_suffix(".json"))
    d = int(meta["d"])
    params = ModelParams(
        d=d,
        alpha=float(meta["alpha"]),
        N=int(meta["N"]),
        T=float(meta["T"]),
        M=float(meta["M"]),
    )
    rows = []
    with stem.with_suffix(".csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        want = 2 + 2 * d
        if len(header) != want or header[:2] != ["t", "i"]:
            raise ValueError(f"trajectory CSV header mismatch: {header}")
        for row in reader:
            if len(row) != want:
                raise ValueError(f"trajectory CSV line {reader.line_num}: {row}")
            rows.append([float(row[0]), int(row[1])] + [float(c) for c in row[2:]])
    by_t: dict[float, list] = {}
    for row in rows:
        by_t.setdefault(row[0], []).append(row)
    blocks = []
    for t, block in by_t.items():
        block.sort(key=lambda r: r[1])
        if [r[1] for r in block] != list(range(params.N)):
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
        tol=None if meta["tol"] is None else float(meta["tol"]),
    )


# ---- measures ----


def save_measure(mu: EmpiricalMeasure, path) -> Path:
    path = Path(path)
    k = mu.point_dim
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight"] + [f"p{j + 1}" for j in range(k)])
        for w, pt in zip(mu.weights, mu.points):
            writer.writerow([repr(float(w))] + [repr(float(c)) for c in pt])
    return path


def load_measure(path) -> EmpiricalMeasure:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "weight":
            raise ValueError(f"measure CSV header mismatch: {header}")
        k = len(header) - 1
        weights = []
        points = []
        for row in reader:
            if len(row) != k + 1:
                raise ValueError("measure CSV row width mismatch")
            weights.append(float(row[0]))
            points.append([float(c) for c in row[1:]])
    return EmpiricalMeasure(np.array(points), np.array(weights))


# ---- per-snapshot diagnostics series ----


def save_diagnostics_csv(report, path) -> Path:
    """Flat series: t, E, D, Dalpha, momentum components, min_distance."""
    path = Path(path)
    d = report.momentum.shape[1]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "E", "D", "Dalpha"]
            + [f"mom{k + 1}" for k in range(d)]
            + ["min_distance"]
        )
        for k in range(len(report.times)):
            md = report.min_distance[k]
            writer.writerow(
                [repr(float(report.times[k])), repr(float(report.energy[k])),
                 repr(float(report.enstrophy[k])), repr(float(report.dalpha[k]))]
                + [repr(float(c)) for c in report.momentum[k]]
                + [repr(float(md)) if np.isfinite(md) else ""]
            )
    return path


# ---- study tables ----


def save_study_tables(report, outdir) -> list[Path]:
    """Flat CSV per table, one value per row, keyed by n / t / h."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []

    def table(name, header, rows):
        p = outdir / f"{name}.csv"
        with p.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(p)

    def fmt(v):
        return repr(float(v)) if v is not None else ""

    probes = report.probe_times
    ladder = report.h_ladder

    energy_rows = []
    mk_rows = []
    cell_rows = []
    margin_rows = []
    resid_rows = []
    for row in report.rows:
        resid_rows.append([row.n, fmt(row.continuity), fmt(row.momentum)])
        for pi, t in enumerate(probes):
            energy_rows.append(
                [row.n, fmt(t), fmt(row.energy[pi]) if row.energy else ""]
            )
            margin_rows.append(
                [row.n, fmt(t), fmt(row.margins[pi]) if row.margins else ""]
            )
            for hi, h in enumerate(ladder):
                mk_rows.append(
                    [row.n, fmt(t), fmt(h), fmt(row.mk[pi][hi]) if row.mk else ""]
                )
                cell_rows.append(
                    [row.n, fmt(t), fmt(h),
                     fmt(row.max_cell_mass[pi][hi]) if row.max_cell_mass else ""]
                )
    table("energy", ["n", "t", "E"], energy_rows)
    table("mk", ["n", "t", "h", "mk"], mk_rows)
    table("max_cell_mass", ["n", "t", "h", "mass"], cell_rows)
    table("margins", ["n", "t", "margin"], margin_rows)
    table("residuals", ["n", "continuity", "momentum"], resid_rows)

    cauchy_rows = []
    ecauchy_rows = []
    for k in range(len(report.n_list) - 1):
        lo, hi = report.n_list[k], report.n_list[k + 1]
        for pi, t in enumerate(probes):
            dv = report.dbl_cauchy[k]
            ev = report.energy_cauchy[k]
            cauchy_rows.append(
                [lo, hi, fmt(t), fmt(dv[pi]) if dv is not None else ""]
            )
            ecauchy_rows.append(
                [lo, hi, fmt(t), fmt(ev[pi]) if ev is not None else ""]
            )
    table("dbl_cauchy", ["n_lo", "n_hi", "t", "dbl"], cauchy_rows)
    table("energy_cauchy", ["n_lo", "n_hi", "t", "dE"], ecauchy_rows)
    return paths


def save_pair_table(study, path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["eps", "t_half", "kernel_integral", "d_integral", "min_distance"]
        )
        for r in study.rows:
            writer.writerow(
                [
                    repr(float(r.eps)),
                    repr(float(r.t_half)) if r.t_half is not None else "",
                    repr(float(r.kernel_integral))
                    if r.kernel_integral is not None
                    else "",
                    repr(float(r.d_integral)) if r.d_integral is not None else "",
                    repr(float(r.min_distance))
                    if r.min_distance is not None
                    else "",
                ]
            )
    return path
