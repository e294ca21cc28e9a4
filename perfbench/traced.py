"""In-process traced run of one workload, for the per-layer metrics.

Usage (the benchmark starts it with PYTHONPATH pointing at the checkout's
``src``):

    python3 perfbench/traced.py <workload> <seed> <workdir> plain|traced

The workload's commands run one after another through ``flocklab.cli.main``
in this one interpreter, and their wall times go to
``<workdir>/timings.json``.  In ``traced`` mode every layer function is
first swapped for a timing wrapper by setting module attributes; nothing
under ``src/`` is edited.  The spans stay in memory and are written to
``<workdir>/spans.json`` at the end, with the metrics derived from them in
``<workdir>/metrics.json``.  The benchmark runs both modes, each in a fresh
interpreter, so the tracing overhead compares like with like.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict, namedtuple
from pathlib import Path

from workloads import WORKLOADS

import flocklab.cli as cli
from flocklab import (
    diagnostics,
    dynamics,
    meanfield,
    measures,
    schemas,
    storage,
    weakform,
)

# (module, attribute, layer).  Names that other modules import by value at
# load time are patched where they are looked up: meanfield.dbl and
# measures.solve_flat_lp.  Everything else is looked up as a module
# attribute at call time, including the deferred imports inside functions.
PATCHES = [
    (dynamics, "integrate", "dynamics"),
    (dynamics, "alignment_rhs", "dynamics"),
    (dynamics, "_step_cap", "dynamics"),
    (diagnostics, "build_report", "diagnostics"),
    (diagnostics, "enstrophy", "diagnostics"),
    (diagnostics, "dalpha", "diagnostics"),
    (diagnostics, "eta_monokineticity", "diagnostics"),
    (diagnostics, "min_distance", "diagnostics"),
    (diagnostics, "kinetic_energy", "diagnostics"),
    (weakform, "kinetic_weak_residual", "weakform"),
    (weakform, "continuity_residual", "weakform"),
    (weakform, "momentum_residual", "weakform"),
    (weakform, "dissipation_margin", "weakform"),
    (meanfield, "sample_initial", "meanfield"),
    (meanfield, "local_fields", "meanfield"),
    (meanfield, "refinement_study", "meanfield"),
    (meanfield, "pair_alignment_study", "meanfield"),
    (meanfield, "_study_single_n", "meanfield"),
    (meanfield, "dbl", "measures"),
    (measures, "dbl_with_potential", "measures"),
    (measures, "solve_flat_lp", "flatlp"),
    (storage, "save_trajectory", "storage"),
    (storage, "load_trajectory", "storage"),
    (storage, "write_report", "storage"),
    (storage, "save_diagnostics_csv", "storage"),
    (storage, "save_study_tables", "storage"),
    (storage, "save_pair_table", "storage"),
    (storage, "load_measure", "storage"),
    (schemas, "resolve", "cli"),
]


Span = namedtuple("Span", "id name layer start end parent thread info")


def _info(name, args, result) -> dict:
    """Counts recorded at the span boundary, read from arguments/results."""
    if name == "integrate":
        return {
            "accepted": len(result.step_t),
            "intervals": len(result.snapshots) - 1,
        }
    if name == "solve_flat_lp":
        return {"K": int(args[0].shape[0])}
    if name == "kinetic_weak_residual":
        return {"snapshots": len(args[0].snapshots)}
    return {}


class Tracer:
    """Records a Span per call of every wrapped function.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a pool worker) is parented to the innermost
    open span of the thread that installed the tracer, which is the call
    that is waiting on the pool.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name, layer, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = _info(name, args, result) if result is not None else {}
                self.spans.append(
                    Span(sid, name, layer, t0, t1, parent, threading.get_ident(), info)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod, attr, layer in PATCHES:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.span(attr, layer, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def run_commands(steps, wdir: Path, tracer: Tracer | None) -> list:
    """Run the steps in-process; returns [(label, wall_s, span id or None)]."""
    cwd = os.getcwd()
    os.chdir(wdir)
    timings = []
    try:
        for step in steps:
            if step.prepare is not None:
                step.prepare(wdir)

            def call(argv=step.argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)

            fn = call if tracer is None else tracer.span("cli." + step.label, "cli", call)
            t0 = time.perf_counter()
            code = fn()
            wall = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"{step.label} exited {code}")
            root = tracer.spans[-1].id if tracer is not None else None
            timings.append((step.label, wall, root))
    finally:
        os.chdir(cwd)
    return timings


def _covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def derive(spans, traced, outdirs) -> dict:
    """Per-layer metrics from the spans of one traced workload run."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def dur(s):
        return s.end - s.start

    def self_time(s):
        return dur(s) - _covered([(c.start, c.end) for c in children[s.id]])

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(dur(s) for s in named(*names))

    def outermost(layer):
        # spans of a layer not nested in another span of the same layer
        return [
            s for s in spans
            if s.layer == layer and (s.parent not in by_id or by_id[s.parent].layer != layer)
        ]

    m = {}
    rhs = named("alignment_rhs")
    m["dynamics.rhs_calls"] = len(rhs)
    m["dynamics.rhs_s"] = busy("alignment_rhs")
    m["dynamics.rhs_us_per_call"] = 1e6 * m["dynamics.rhs_s"] / max(len(rhs), 1)
    m["dynamics.step_cap_s"] = busy("_step_cap")
    integ = named("integrate")
    m["dynamics.integrate_self_s"] = sum(self_time(s) for s in integ)
    accepted = sum(s.info["accepted"] for s in integ)
    intervals = sum(s.info["intervals"] for s in integ)
    # one integration makes 1 + 6 * attempts right-hand-side calls
    attempts = sum(
        (sum(c.name == "alignment_rhs" for c in children[s.id]) - 1) // 6
        for s in integ
    )
    m["dynamics.accepted_steps"] = accepted
    m["dynamics.rejected_steps"] = attempts - accepted
    m["dynamics.accept_ratio"] = accepted / max(attempts, 1)
    m["dynamics.steps_per_interval"] = accepted / max(intervals, 1)

    m["diagnostics.report_s"] = busy("build_report")
    m["diagnostics.enstrophy_s"] = busy("enstrophy")
    m["diagnostics.enstrophy_calls"] = len(named("enstrophy"))
    m["diagnostics.eta_mk_s"] = busy("eta_monokineticity")
    m["diagnostics.dalpha_s"] = busy("dalpha")
    m["diagnostics.min_distance_s"] = busy("min_distance")

    kin = named("kinetic_weak_residual")
    m["weakform.kinetic_s"] = busy("kinetic_weak_residual")
    fn_snaps = sum(s.info.get("snapshots", 0) for s in kin)
    m["weakform.kinetic_ms_per_fn_snapshot"] = (
        1e3 * m["weakform.kinetic_s"] / max(fn_snaps, 1)
    )
    m["weakform.field_s"] = busy(
        "continuity_residual", "momentum_residual", "dissipation_margin"
    )

    m["meanfield.local_fields_s"] = busy("local_fields")
    m["meanfield.local_fields_calls"] = len(named("local_fields"))
    m["meanfield.sample_s"] = busy("sample_initial")
    m["meanfield.study_self_s"] = sum(
        self_time(s) for s in named("refinement_study", "pair_alignment_study")
    )
    jobs = named("_study_single_n")
    per_thread = defaultdict(float)
    for s in jobs:
        per_thread[s.thread] += dur(s)
    ranked = sorted(per_thread.values(), reverse=True) + [0.0, 0.0]
    m["meanfield.thread0_busy_s"] = ranked[0]
    m["meanfield.thread1_busy_s"] = ranked[1]
    if jobs:
        pool_wall = max(s.end for s in jobs) - min(s.start for s in jobs)
        m["meanfield.busy_over_wall"] = sum(per_thread.values()) / pool_wall
    else:
        m["meanfield.busy_over_wall"] = 0.0

    lp = named("solve_flat_lp")
    m["flatlp.calls"] = len(lp)
    m["flatlp.solve_s"] = sum(dur(s) for s in lp)
    m["flatlp.support_k_max"] = max((s.info.get("K", 0) for s in lp), default=0)
    m["flatlp.s_per_solve"] = m["flatlp.solve_s"] / max(len(lp), 1)

    store = outermost("storage")
    loads = ("load_trajectory", "load_measure")
    m["storage.save_s"] = sum(dur(s) for s in store if s.name not in loads)
    m["storage.load_s"] = sum(dur(s) for s in store if s.name in loads)
    m["storage.bytes_written"] = sum(
        f.stat().st_size for d in outdirs for f in d.rglob("*") if f.is_file()
    )

    for label, _, root in traced:
        key = f"cli.{label}.unattributed_s"
        m[key] = m.get(key, 0.0) + self_time(by_id[root])
    return m


def main(argv) -> int:
    name, seed, wdir, mode = argv[0], int(argv[1]), Path(argv[2]).resolve(), argv[3]
    steps = WORKLOADS[name].build(seed, wdir)
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        timings = run_commands(steps, wdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    (wdir / "timings.json").write_text(
        json.dumps([(label, wall) for label, wall, _ in timings]), encoding="utf-8"
    )
    if tracer is None:
        return 0
    metrics = derive(tracer.spans, timings, [wdir / s.out for s in steps])
    (wdir / "spans.json").write_text(
        json.dumps([s._asdict() for s in tracer.spans]), encoding="utf-8"
    )
    (wdir / "metrics.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
