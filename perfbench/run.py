"""flocklab benchmark: the CLI on fixed, seeded workloads.

    python3 perfbench/run.py --workload stream-2d --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``
of that checkout and nothing is installed.

--trace 0 runs the workload's ``flocklab`` commands as separate processes,
repeating the whole sequence until --seconds have passed (at least
MIN_REPS times).  Before each repetition it times SETUP_PROBES fresh
interpreters that import the layer modules and resolve the workload's
config (set-up), and a fixed reference loop (host speed; recorded, never
used to rescale).  It reports medians over repetitions of the end-to-end
metrics.

--trace 1 runs every defined workload, pair-sweep included, through
perfbench/traced.py: once plain and once traced, each in a fresh
interpreter.  It reports the per-layer metrics named
``<workload>.<layer>.<metric>`` in BENCHMARK.json, whatever --workload says.

Every command's outputs are checked (perfbench/workloads.py); on the
default seed key scalars are also compared with perfbench/reference.json.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details of the run land in perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, compare_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
MIN_REPS = 3
SETUP_PROBES = 2  # per repetition, so set-up is sampled across the whole run

# One BLAS thread per process: mfstudy's two worker threads then use the
# two cores, and no other command runs more than one compute thread.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}

SETUP_CODE = """\
import json, sys
import flocklab.cli
from flocklab import diagnostics, dynamics, meanfield, measures, schemas, storage, weakform
with open(sys.argv[2], encoding="utf-8") as fh:
    schemas.resolve(sys.argv[1], json.load(fh))
print(flocklab.cli.__file__)
"""


def run_child(argv, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process; returns (exit code, wall seconds, max RSS in MB)."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=ENV, stdout=fh, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment() -> dict:
    """Host, toolchain and source identity, recorded beside the results."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - best-effort description
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(workload, wdir: Path) -> tuple[int, float, str]:
    kind, config = workload.setup_config
    log = wdir / "setup.log"
    code, wall, _ = run_child(
        [sys.executable, "-c", SETUP_CODE, kind, config], wdir, log
    )
    return code, wall, log.read_text(encoding="utf-8", errors="replace").strip()


def check_step(step, wdir: Path, code: int) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return step.check(wdir / step.out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_reference(workload, wdir: Path, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    try:
        return compare_reference(workload, wdir, reference)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []  # (label, message)

    def add(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((label, "; ".join(problems)))


def measure(workload, seed: int, seconds: float, run_dir: Path, tally: Tally):
    """End-to-end metrics: medians over repeated command sequences."""
    # Warm-up probe, not timed: compiles bytecode once, as a user's first
    # run does, and confirms the program comes from this checkout.
    wdir = fresh(run_dir / "rep")
    workload.build(seed, wdir)
    code, _, where = setup_probe(workload, wdir)
    if code != 0 or not Path(where.splitlines()[-1]).resolve().is_relative_to(SRC):
        raise SystemExit(f"cannot import flocklab from {SRC}: {where[-500:]}")

    start = time.perf_counter()
    reps = []
    while True:
        t_rep = time.perf_counter()
        wdir = fresh(run_dir / "rep")
        steps = workload.build(seed, wdir)
        rep = {"ref_loop_s": reference_loop(), "setup_s": []}
        for _ in range(SETUP_PROBES):
            code, wall, log = setup_probe(workload, wdir)
            if code != 0:
                raise SystemExit(f"set-up probe failed: {log[-2000:]}")
            rep["setup_s"].append(wall)
        rep["commands"] = []
        for n, step in enumerate(steps):
            if step.prepare is not None:
                step.prepare(wdir)
            code, wall, rss = run_child(
                [sys.executable, "-m", "flocklab.cli", *step.argv],
                wdir, wdir / f"{step.out}.log",
            )
            problems = check_step(step, wdir, code)
            if not problems and n == len(steps) - 1:
                problems = check_reference(workload, wdir, seed)
            tally.add(step.label, problems)
            rep["commands"].append({"label": step.label, "wall_s": wall, "rss_mb": rss})
            if code != 0:
                for rest in steps[n + 1 :]:
                    tally.add(rest.label, ["skipped after a failed command"])
                break
        rep["duration_s"] = time.perf_counter() - t_rep
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["duration_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break

    metrics = {
        "wall_s": statistics.median(
            sum(c["wall_s"] for c in r["commands"]) for r in reps
        ),
        "setup_s": statistics.median(w for r in reps for w in r["setup_s"]),
        "peak_rss_mb": statistics.median(
            max(c["rss_mb"] for c in r["commands"]) for r in reps
        ),
    }
    per_command = {}
    for r in reps:
        sums = {}
        for c in r["commands"]:
            sums[c["label"]] = sums.get(c["label"], 0.0) + c["wall_s"]
        for label, wall in sums.items():
            per_command.setdefault(label, []).append(wall)
    return metrics, per_command, reps


def trace(seed: int, run_dir: Path, tally: Tally) -> dict:
    """Per-layer metrics of every workload: one plain and one traced pass."""
    metrics = {}
    for name, workload in WORKLOADS.items():
        walls = {}
        for mode in ("plain", "traced"):
            wdir = fresh(run_dir / name / mode)
            code, _, _ = run_child(
                [sys.executable, str(HERE / "traced.py"), name, str(seed),
                 str(wdir), mode],
                ROOT, run_dir / name / f"{mode}.log",
            )
            if code != 0:
                log = (run_dir / name / f"{mode}.log").read_text(errors="replace")
                raise SystemExit(f"{mode} run of {name} failed:\n{log[-2000:]}")
            steps = workload.build(seed, wdir)
            for n, step in enumerate(steps):
                problems = check_step(step, wdir, 0)
                if not problems and n == len(steps) - 1:
                    problems = check_reference(workload, wdir, seed)
                tally.add(step.label, problems)
            walls[mode] = json.loads((wdir / "timings.json").read_text())
        derived = json.loads((wdir / "metrics.json").read_text(encoding="utf-8"))
        for label, wall in walls["plain"]:
            key = f"cli.{label}_s"
            derived[key] = derived.get(key, 0.0) + wall
        derived["trace.overhead_frac"] = (
            sum(w for _, w in walls["traced"]) / sum(w for _, w in walls["plain"]) - 1.0
        )
        metrics.update({f"{name}.{k}": v for k, v in derived.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the default seed's key scalars in reference.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "flocklab" / "cli.py").is_file():
        print(f"no flocklab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    run_dir = fresh(OUT / f"{args.workload}-trace{args.trace}")
    env = environment()
    tally = Tally()

    if args.write_reference:
        wdir = fresh(run_dir / "reference")
        for step in workload.build(DEFAULT_SEED, wdir):
            if step.prepare is not None:
                step.prepare(wdir)
            code, _, _ = run_child(
                [sys.executable, "-m", "flocklab.cli", *step.argv], wdir, wdir / "log"
            )
            if check_step(step, wdir, code):
                raise SystemExit(f"{step.label} failed; reference not written")
        refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        refs[workload.name] = workload.key_scalars(wdir)
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"reference for {workload.name} written to {REFERENCE}")
        return 0

    ref_before = reference_loop()
    if args.trace:
        values = trace(args.seed, run_dir, tally)
        record = {"per_layer": values}
    else:
        values, per_command, reps = measure(
            workload, args.seed, args.seconds, run_dir, tally
        )
        record = {"per_command_s": per_command, "reps": reps}
        for label, walls in per_command.items():
            print(
                f"{label}_s: median {statistics.median(walls):.4f} "
                f"max {max(walls):.4f} over {len(walls)} repetitions"
            )
    ref_after = reference_loop()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark bug: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(tally.failures)
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        environment=env, ref_loop_s={"before": ref_before, "after": ref_after},
        failures=tally.failures, attempted=tally.attempted,
    )
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for label, problem in tally.failures:
        print(f"FAILED {label}: {problem}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(
        f"reference loop: {ref_before:.4f} s before, {ref_after:.4f} s after; "
        f"failed_frac {failed / max(tally.attempted, 1):.4f} "
        f"({failed}/{tally.attempted} commands)"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
