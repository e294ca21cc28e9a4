"""Command-line entry points.

One experiment per invocation.  Every subcommand that takes --config
expects a JSON document (see schemas.SCHEMAS); a previously written report
is also accepted, in which case its embedded config is reused, so any
report can be reproduced from itself.  The --seed, --tol and --threads
overrides are merged into that document before it is validated, so they
pass the same schema check.  A subcommand takes an override only when its
schema has that key: simulate and mfstudy take --seed and --tol, pairstudy
takes --tol, diagnose and residual take neither, and only mfstudy takes
--threads, which changes nothing: the study runs its sizes one after
another, and no report echoes it.  dbl's --cap is accepted for old
command lines and changes nothing, since the flat distance takes any
support size; it must still be at least 1 and is echoed in dbl.json.
Outputs land in --out (default current directory).  Identical config and
seed give byte-identical reports apart from the generated_at line, on any
BLAS build, as no module hands a product to the BLAS, but not yet across
numpy's SIMD loops for power, exp, log and log1p (ROADMAP item 16).

On any handled failure the process prints one machine-readable JSON error
object, writes it to <out>/error.json when possible, and exits with
status 2; artifacts finished before the failure stay on disk.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import schemas, storage
from .errors import FlockLabError

# command-line overrides of config keys: (key, type, help).  A subcommand
# has one only where its schema has the key.
_OVERRIDES = (
    ("seed", int, "seed override"),
    ("tol", float, "tolerance override"),
    ("threads", int, "accepted for old configs; changes nothing"),
)


def _load_config(args, kind: str) -> dict:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "kind" in doc and "config" in doc:
        doc = doc["config"]
    if isinstance(doc, dict):
        # command-line overrides are part of the document the schema checks
        for key, _, _ in _OVERRIDES:
            value = getattr(args, key, None)
            if value is not None:
                doc[key] = value
    return schemas.resolve(kind, doc)


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _initial_spec(cfg: dict, d: int):
    from .meanfield import InitialSpec

    ini = cfg["initial"]
    return InitialSpec(
        d=d,
        density=ini["density"],
        density_params=ini["density_params"],
        velocity=ini["velocity"],
        velocity_params=ini["velocity_params"],
        seed=int(cfg["seed"]),
    )


def _cmd_simulate(args) -> int:
    from .diagnostics import build_report
    from .dynamics import ModelParams, ParticleState, integrate
    from .meanfield import sample_initial

    cfg = _load_config(args, "simulate")
    out = _outdir(args)
    d = int(cfg["d"])
    params = ModelParams(
        d=d, alpha=float(cfg["alpha"]), N=int(cfg["N"]),
        T=float(cfg["T"]), M=float(cfg["M"]),
    )
    spec = _initial_spec(cfg, d)
    x0, v0 = sample_initial(spec, params.N, bound=params.M)
    snaps = np.linspace(0.0, params.T, int(cfg["snapshots"]))
    traj = integrate(
        ParticleState(0.0, x0, v0),
        params,
        tol=float(cfg["tol"]),
        snapshot_times=snaps,
    )
    storage.save_trajectory(traj, out / "trajectory")
    diag = build_report(traj, bin_fractions=tuple(cfg["bin_fractions"]))
    storage.save_diagnostics_csv(diag, out / "diagnostics.csv")
    payload = {
        "config": cfg,
        "regimes": {
            "monokinetic": params.monokinetic_regime,
            "meanfield": params.meanfield_regime,
        },
        "diagnostics": diag,
    }
    storage.write_report(out / "report.json", payload, kind="simulate")
    print(f"simulate: {len(traj)} snapshots -> {out}")
    return 0


def _cmd_dbl(args) -> int:
    from .measures import dbl_with_potential

    schemas.check_cap(args.cap)
    mu = storage.load_measure(args.a)
    nu = storage.load_measure(args.b)
    value, points, phi = dbl_with_potential(mu, nu)
    print(repr(float(value)))
    for pt, p in zip(points, phi):
        print(",".join(repr(float(c)) for c in pt) + "," + repr(float(p)))
    if args.out is not None:
        out = _outdir(args)
        payload = {
            "config": {"a": str(args.a), "b": str(args.b), "cap": args.cap},
            "distance": float(value),
            "points": points,
            "potential": phi,
        }
        storage.write_report(out / "dbl.json", payload, kind="dbl")
    return 0


def _cmd_diagnose(args) -> int:
    from .diagnostics import build_report

    cfg = _load_config(args, "diagnose")
    out = _outdir(args)
    traj = storage.load_trajectory(cfg["input"])
    diag = build_report(traj, bin_fractions=tuple(cfg["bin_fractions"]))
    storage.save_diagnostics_csv(diag, out / "diagnostics.csv")
    payload = {"config": cfg, "diagnostics": diag}
    storage.write_report(out / "diagnostics.json", payload, kind="diagnose")
    print(f"diagnose: {len(diag.times)} snapshots -> {out}")
    return 0


def _cmd_residual(args) -> int:
    from .meanfield import field_residuals
    from .weakform import (
        FieldBattery, kinetic_battery, kinetic_weak_residuals, vector_battery,
    )

    cfg = _load_config(args, "residual")
    out = _outdir(args)
    traj = storage.load_trajectory(cfg["input"])
    p = traj.params
    times = traj.times
    if len(times) < 2:
        raise ValueError(
            "the weak identities need at least two snapshots; "
            f"the trajectory has {len(times)}"
        )
    size = int(cfg["battery_size"])
    seed = int(cfg["battery_seed"])

    kinetic = kinetic_weak_residuals(
        traj, kinetic_battery(p.d, p.T, p.M, size=size, seed=seed)
    )
    payload = {
        "config": cfg,
        "quadrature": {
            "snapshot_count": len(times),
            "max_spacing": float(np.diff(times).max()),
        },
        "kinetic": {"residuals": kinetic, "max": max(kinetic)},
    }
    if cfg["h"] is not None:
        h = float(cfg["h"])
        battery = FieldBattery(vector_battery(p.d, p.T, p.M, size, seed), times)
        cont, mom, _ = field_residuals(traj, h, battery)
        payload["fields"] = {
            "h": h,
            "continuity": {"residuals": cont, "max": max(cont)},
            "momentum": {"residuals": mom, "max": max(mom)},
        }
    storage.write_report(out / "residuals.json", payload, kind="residual")
    print(f"residual: kinetic max {max(kinetic):.3e} -> {out}")
    return 0


def _cmd_mfstudy(args) -> int:
    from .meanfield import refinement_study

    cfg = _load_config(args, "mfstudy")
    out = _outdir(args)
    d = int(cfg["d"])
    spec = _initial_spec(cfg, d)
    h = cfg["h"]
    if h is None:
        h = spec.support_diameter() / 16.0
        cfg = dict(cfg)
        cfg["h"] = h
    report = refinement_study(
        spec,
        n_list=cfg["n_list"],
        alpha=float(cfg["alpha"]),
        horizon=float(cfg["horizon"]),
        bound=float(cfg["bound"]),
        h=float(h),
        probe_times=cfg["probe_times"],
        tol=float(cfg["tol"]),
        quad_points=int(cfg["quad_points"]),
        battery_size=int(cfg["battery_size"]),
        battery_seed=int(cfg["battery_seed"]),
    )
    storage.save_study_tables(report, out / "tables")
    # threads changes nothing; leaving it out keeps the reports of every
    # --threads value byte-identical
    echo = {k: v for k, v in cfg.items() if k != "threads"}
    payload = {"config": echo, "study": report}
    storage.write_report(out / "study.json", payload, kind="mfstudy")
    failed = sum(1 for r in report.rows if r.error is not None)
    print(f"mfstudy: {len(report.rows)} runs ({failed} failed) -> {out}")
    return 0


def _cmd_pairstudy(args) -> int:
    from .meanfield import pair_alignment_study

    cfg = _load_config(args, "pairstudy")
    out = _outdir(args)
    study = pair_alignment_study(
        cfg["eps_list"],
        v1=cfg["v1"],
        v2=cfg["v2"],
        alpha=float(cfg["alpha"]),
        horizon=float(cfg["horizon"]),
        grid_points=int(cfg["grid_points"]),
        tol=float(cfg["tol"]),
    )
    storage.save_pair_table(study, out / "pairs.csv")
    payload = {"config": cfg, "study": study}
    storage.write_report(out / "pairstudy.json", payload, kind="pairstudy")
    print(f"pairstudy: {len(study.rows)} gaps -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocklab",
        description="Singular-kernel alignment dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        for key, type_, help_ in _OVERRIDES:
            if key in schemas.SCHEMAS[kind]["properties"]:
                p.add_argument(f"--{key}", type=type_, default=None, help=help_)

    p = sub.add_parser("simulate", help="integrate one ensemble and diagnose it")
    common(p, "simulate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dbl", help="flat distance between two measure files")
    p.add_argument("a", help="first measure CSV")
    p.add_argument("b", help="second measure CSV")
    p.add_argument("--cap", type=int, default=2000,
                   help="accepted for old command lines; changes nothing")
    p.add_argument("--out", default=None, help="also write dbl.json here")
    p.set_defaults(func=_cmd_dbl)

    p = sub.add_parser("diagnose", help="diagnostics report for a saved trajectory")
    common(p, "diagnose")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("residual", help="weak-identity battery on a trajectory")
    common(p, "residual")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("mfstudy", help="refinement study over particle numbers")
    common(p, "mfstudy")
    p.set_defaults(func=_cmd_mfstudy)

    p = sub.add_parser("pairstudy", help="two-particle alignment study")
    common(p, "pairstudy")
    p.set_defaults(func=_cmd_pairstudy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlockLabError, ValueError, KeyError, OSError) as exc:
        # ValueError covers schemas.ValidationError and json.JSONDecodeError
        if isinstance(exc, FlockLabError):
            payload = {"error": exc.to_dict()}
        else:
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True))
        out = getattr(args, "out", None)
        if out is not None:
            try:
                Path(out).mkdir(parents=True, exist_ok=True)
                (Path(out) / "error.json").write_text(
                    storage.canonical_json(payload), encoding="utf-8"
                )
            except OSError:
                pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
