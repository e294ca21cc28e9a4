"""The benchmark's workloads: seeded configs, command sequences and output checks.

A workload is a fixed sequence of ``flocklab`` subcommands.  ``build`` writes
the configs for one seed into a work directory and returns the steps; each
step carries the subcommand's arguments, an optional hook that prepares its
inputs from earlier outputs, and a check on its outputs.

The seed moves the workload in ways that leave the amount of work unchanged,
so runs on different seeds stay comparable:

- stream-2d: a translation of the box (the dynamics and the flat distance
  depend only on differences), plus the test-function battery;
- refine-1d: a translation of the box by whole periods of the sinusoid, plus
  the battery seed;
- pair-sweep: a jitter of up to 10% on every gap and on the speed (every step
  is set by the snapshot grid).

Re-drawing the particle sample instead changes the step count of stream-2d
by +-15% and its time by +-30% from seed to seed, which no bound could
absorb.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
LN2 = math.log(2.0)


@dataclass
class Step:
    label: str  # subcommand name; the per-command metric is <label>_s
    argv: list  # arguments after ``flocklab``, relative to the work dir
    out: str  # output directory, relative to the work dir
    check: Callable[[Path], list]  # output dir -> list of failure messages
    prepare: Callable[[Path], None] | None = None  # work dir -> None


@dataclass
class Workload:
    name: str
    build: Callable[[int, Path], list]
    # config the setup probe resolves: (schema kind, file in the work dir)
    setup_config: tuple
    key_scalars: Callable[[Path], dict]  # work dir -> scalars to compare
    tolerances: dict  # key scalar -> {"atol": ..., "rtol": ...}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path.name


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---- stream-2d ----

STREAM_SNAPSHOTS = 9
STREAM_PAIRS = ((0, 4), (4, 8), (0, 8))


def _stream_configs(seed: int) -> tuple[dict, dict]:
    rng = random.Random(seed)
    center = [rng.uniform(-0.2, 0.2) for _ in range(2)]
    sim = {
        "d": 2, "alpha": 1.5, "N": 200, "T": 0.25, "M": 2.0, "seed": 1,
        "tol": 1e-8, "snapshots": STREAM_SNAPSHOTS,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": center, "halfwidth": 0.8},
            "velocity": "two-speed-split",
            "velocity_params": {
                "values": [[0.5, 0.0], [-0.5, 0.0]],
                "fraction": 0.5,
            },
        },
    }
    res = {
        "input": "simulate/trajectory",
        "battery_size": 24,
        "battery_seed": seed,
        "h": 0.2,
    }
    return sim, res


def write_marginals(wdir: Path) -> None:
    """Spatial marginals of the STREAM_PAIRS snapshots as measure CSVs.

    Coordinates are copied as written (exact repr floats), weights 1/N.
    """
    with (wdir / "simulate" / "trajectory.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    d = (len(rows[0]) - 2) // 2
    by_t: dict[str, list] = {}
    for row in rows[1:]:
        by_t.setdefault(row[0], []).append(row[2 : 2 + d])
    snaps = list(by_t.values())
    header = "weight," + ",".join(f"p{k + 1}" for k in range(d)) + "\n"
    for k in sorted({k for pair in STREAM_PAIRS for k in pair}):
        pts = snaps[k]
        w = repr(1.0 / len(pts))
        lines = [header] + [w + "," + ",".join(p) + "\n" for p in pts]
        (wdir / f"marginal{k}.csv").write_text("".join(lines), encoding="utf-8")


def _check_simulate(out: Path) -> list:
    cfg = _report(out / "report.json")["config"]
    diag = _report(out / "report.json")["diagnostics"]
    bad = []
    energy = diag["energy"]
    if len(energy) != cfg["snapshots"]:
        bad.append(f"{len(energy)} snapshots, expected {cfg['snapshots']}")
    if any(b > a for a, b in zip(energy, energy[1:])):
        bad.append("kinetic energy increased between snapshots")
    mom = diag["momentum"]
    drift = max(
        math.sqrt(sum((m - m0) ** 2 for m, m0 in zip(row, mom[0]))) for row in mom
    )
    if not drift <= 1e-10 * cfg["N"] * cfg["M"]:
        bad.append(f"momentum drift {drift:.3e} above 1e-10*N*M")
    if not all(md is not None and md > 0.0 for md in diag["min_distance"]):
        bad.append("a snapshot has min_distance <= 0")
    return bad


def _check_residual(out: Path) -> list:
    rep = _report(out / "residuals.json")
    vals = rep["kinetic"]["residuals"]
    vals += rep["fields"]["continuity"]["residuals"]
    vals += rep["fields"]["momentum"]["residuals"]
    if not all(v is not None and math.isfinite(v) and v >= 0.0 for v in vals):
        return ["a residual is negative or not finite"]
    return []


def _check_dbl(out: Path) -> list:
    value = _report(out / "dbl.json")["distance"]
    if not (value is not None and 0.0 <= value <= 2.0):
        return [f"flat distance {value!r} outside [0, 2]"]
    return []


def _build_stream(seed: int, wdir: Path) -> list:
    sim, res = _stream_configs(seed)
    steps = [
        Step("simulate",
             ["simulate", "--config", _write(wdir / "simulate.json", sim),
              "--out", "simulate"],
             "simulate", _check_simulate),
        Step("residual",
             ["residual", "--config", _write(wdir / "residual.json", res),
              "--out", "residual"],
             "residual", _check_residual),
    ]
    for n, (a, b) in enumerate(STREAM_PAIRS):
        steps.append(
            Step("dbl",
                 ["dbl", f"marginal{a}.csv", f"marginal{b}.csv",
                  "--out", f"dbl{n}"],
                 f"dbl{n}", _check_dbl,
                 prepare=write_marginals if n == 0 else None)
        )
    return steps


def _stream_scalars(wdir: Path) -> dict:
    diag = _report(wdir / "simulate" / "report.json")["diagnostics"]
    res = _report(wdir / "residual" / "residuals.json")
    return {
        "energy": diag["energy"],
        "min_distance": diag["min_distance"],
        "kinetic_max": res["kinetic"]["max"],
        "dbl": [
            _report(wdir / f"dbl{n}" / "dbl.json")["distance"]
            for n in range(len(STREAM_PAIRS))
        ],
    }


# ---- refine-1d ----

REFINE_K = 120.0


def _build_refine(seed: int, wdir: Path) -> list:
    rng = random.Random(seed)
    shift = rng.randint(-3, 3) * 2.0 * math.pi / REFINE_K
    cfg = {
        "d": 1, "alpha": 1.0, "horizon": 0.25, "bound": 2.0, "seed": 2,
        "n_list": [25, 50, 100, 200],
        "probe_times": [0.0625, 0.125, 0.1875, 0.25],
        "h": 0.125, "tol": 1e-6, "quad_points": 65,
        "battery_size": 24, "battery_seed": seed,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [shift], "halfwidth": 1.0},
            "velocity": "sinusoid",
            "velocity_params": {"amplitude": [0.05], "wavenumber": [REFINE_K]},
        },
    }
    return [
        Step("mfstudy",
             ["mfstudy", "--config", _write(wdir / "mfstudy.json", cfg),
              "--out", "mfstudy", "--threads", "2"],
             "mfstudy", _check_mfstudy),
    ]


def _check_mfstudy(out: Path) -> list:
    study = _report(out / "study.json")["study"]
    bad = []
    for row in study["rows"]:
        if row["error"] is not None:
            bad.append(f"N={row['n']} failed: {row['error'].get('type')}")
            continue
        e = row["energy"]
        if any(b > a for a, b in zip(e, e[1:])):
            bad.append(f"N={row['n']}: energy increased between probes")
    for cauchy in study["dbl_cauchy"]:
        if cauchy is None or not all(0.0 <= v <= 2.0 for v in cauchy):
            bad.append("a flat distance is missing or outside [0, 2]")
    return bad


def _refine_scalars(wdir: Path) -> dict:
    study = _report(wdir / "mfstudy" / "study.json")["study"]
    return {
        "energy": [row["energy"] for row in study["rows"]],
        "dbl_cauchy": study["dbl_cauchy"],
    }


# ---- pair-sweep ----


def _build_pair(seed: int, wdir: Path) -> list:
    rng = random.Random(seed)
    eps = [0.5 * 2.0**-k * (1.0 + 0.1 * rng.uniform(-1, 1)) for k in range(4)]
    speed = 0.5 * (1.0 + 0.1 * rng.uniform(-1, 1))
    cfg = {
        "alpha": 1.0, "eps_list": eps, "v1": [speed], "v2": [-speed],
        "horizon": 2.0, "grid_points": 1024, "tol": 1e-10,
    }
    return [
        Step("pairstudy",
             ["pairstudy", "--config", _write(wdir / "pairstudy.json", cfg),
              "--out", "pairstudy"],
             "pairstudy", _check_pairstudy),
    ]


def _check_pairstudy(out: Path) -> list:
    rows = _report(out / "pairstudy.json")["study"]["rows"]
    bad = []
    if any(r["error"] is not None or r["t_half"] is None for r in rows):
        return ["a gap failed or never reached its half-life"]
    t_half = [r["t_half"] for r in rows]
    if not all(b < a for a, b in zip(t_half, t_half[1:])):
        bad.append("t_half is not strictly decreasing in eps")
    if not all(abs(r["kernel_integral"] - LN2) <= 1e-3 for r in rows):
        bad.append("kernel integral to t_half differs from ln 2 by > 1e-3")
    if not all(r["min_distance"] > 0.0 for r in rows):
        bad.append("a pair reached min_distance <= 0")
    return bad


def _pair_scalars(wdir: Path) -> dict:
    rows = _report(wdir / "pairstudy" / "pairstudy.json")["study"]["rows"]
    return {
        key: [r[key] for r in rows]
        for key in ("t_half", "kernel_integral", "d_integral")
    }


# Tolerances: exact-LP distances on identical inputs agree to ~1e-9, but the
# inputs carry the integrator's error, so distances and every integrated
# quantity are compared at a multiple of the workload's tol.  Quantities on
# binned fields are left out: a particle crossing a cell edge moves them by
# a finite amount.
WORKLOADS = {
    "stream-2d": Workload(
        "stream-2d", _build_stream, ("simulate", "simulate.json"), _stream_scalars,
        tolerances={
            "energy": {"rtol": 1e-6},
            "min_distance": {"rtol": 1e-6},
            "kinetic_max": {"atol": 1e-6},
            "dbl": {"atol": 1e-7},
        },
    ),
    "refine-1d": Workload(
        "refine-1d", _build_refine, ("mfstudy", "mfstudy.json"), _refine_scalars,
        tolerances={
            "energy": {"rtol": 1e-4},
            "dbl_cauchy": {"atol": 1e-5},
        },
    ),
    "pair-sweep": Workload(
        "pair-sweep", _build_pair, ("pairstudy", "pairstudy.json"), _pair_scalars,
        tolerances={
            "t_half": {"rtol": 1e-6},
            "kernel_integral": {"atol": 1e-7},
            "d_integral": {"rtol": 1e-6},
        },
    ),
}


def _flatten(v) -> list:
    if isinstance(v, (list, tuple)):
        return [x for item in v for x in _flatten(item)]
    return [v]


def compare_reference(workload: Workload, wdir: Path, reference: dict) -> list:
    """Failure messages for key scalars that leave their tolerance."""
    got = workload.key_scalars(wdir)
    bad = []
    for key, tol in workload.tolerances.items():
        a, b = _flatten(got[key]), _flatten(reference[key])
        if len(a) != len(b):
            bad.append(f"{key}: {len(a)} values, reference has {len(b)}")
            continue
        for x, y in zip(a, b):
            lim = tol.get("atol", 0.0) + tol.get("rtol", 0.0) * abs(y)
            if x is None or y is None or not abs(x - y) <= lim:
                bad.append(f"{key}: {x!r} vs reference {y!r} (limit {lim:.1e})")
                break
    return bad
