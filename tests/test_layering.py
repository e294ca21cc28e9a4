"""Module layering: an acyclic import graph, imports at module level only,
benchmark tracer targets and reads that still work, snapshots read as
arrays, and no BLAS in the integrator."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flocklab"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def package_targets(node: ast.AST) -> set:
    """flocklab modules an import statement loads (the package itself
    excluded)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {
            n.split(".")[1] for n in names if n.startswith("flocklab.")
        }
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0 and (node.module or "").split(".")[0] != "flocklab":
        return set()
    parts = (node.module or "").split(".")
    if node.level == 0:
        parts = parts[1:]  # absolute: drop the package name
    if parts and parts[0]:
        return {parts[0]}
    # from . import a, b
    return {alias.name for alias in node.names if alias.name in MODULES}


def module_level_imports(tree: ast.Module) -> set:
    """Package modules imported outside any function or class body."""
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out |= package_targets(node)
        todo.extend(ast.iter_child_nodes(node))
    return out


def function_level_imports(tree: ast.Module) -> list:
    """(function name, line) of every package import inside a function."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if node is not fn and package_targets(node):
                    out.append((fn.name, node.lineno))
    return out


def parse(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(encoding="utf-8"))


def import_graph() -> dict:
    return {name: module_level_imports(parse(name)) - {name} for name in MODULES}


def test_package_targets_reads_every_import_form():
    tree = ast.parse(
        "from . import dynamics, errors\n"
        "from .pairs import kernel\n"
        "from flocklab.rng import CounterRNG\n"
        "import flocklab.storage\n"
        "import numpy as np\n"
        "from __future__ import annotations\n"
    )
    assert module_level_imports(tree) == {
        "dynamics", "errors", "pairs", "rng", "storage",
    }


def test_module_import_graph_is_acyclic():
    graph = import_graph()
    assert graph["meanfield"] >= {"dynamics", "weakform", "measures"}
    assert "meanfield" in graph["diagnostics"]
    done, active = set(), []

    def visit(name):
        if name in active:
            cycle = active[active.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_only_cli_imports_package_modules_inside_functions():
    found = {
        name: function_level_imports(parse(name))
        for name in MODULES
        if name != "cli"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the tracer swaps these module attributes by name; a module move that
    # drops one would break the traced benchmark pass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("traced", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import traced

    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in traced.PATCHES
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []
    assert len(traced.PATCHES) > 0


def test_benchmark_tracer_reads_an_integrate_result(monkeypatch):
    # the tracer records counts read off the result of integrate; a change
    # to Trajectory that breaks those reads would break the traced pass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("traced", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import traced

    from flocklab.dynamics import ModelParams, ParticleState, integrate

    x = np.array([[0.0], [0.4], [-0.5]])
    traj = integrate(
        ParticleState(0.0, x, -x),
        ModelParams(d=1, alpha=1.5, N=3, T=0.2, M=1.0),
        snapshot_times=[0.05, 0.1],
    )
    info = traced._info("integrate", (), traj)
    assert info == {"accepted": len(traj.step_t), "intervals": 3}


def test_package_reads_snapshots_as_arrays():
    # consumers index Trajectory.times, .x and .v; the tuple of states is
    # kept for outside readers only
    reads = {
        name: [node.lineno for node in ast.walk(parse(name))
               if isinstance(node, ast.Attribute) and node.attr == "snapshots"]
        for name in MODULES
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}


# numpy entry points that may hand a product to the BLAS or LAPACK, whose
# summation order depends on the library and its thread count
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(tree: ast.Module) -> list:
    """(line, name) of every BLAS-backed attribute and every @ operator."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            out.append((node.lineno, "@"))
    return out


def test_blas_uses_finds_every_form():
    tree = ast.parse(
        "a = np.linalg.solve(m, b)\n"
        "c = np.dot(a, b) + a.dot(b)\n"
        "d = np.einsum('ij,j', m, b)\n"
        "e = m @ b\n"
        "m @= m\n"
        "f = np.sum(a * b)\n"
    )
    names = sorted(name for _, name in blas_uses(tree))
    assert names == sorted(["linalg", "dot", "dot", "einsum", "@", "@"])


@pytest.mark.parametrize("name", ["dynamics", "pairs"])
def test_integrator_never_calls_the_blas(name):
    # the dynamics promise bytes that do not depend on the BLAS: a product
    # through it sums in a library- and thread-dependent order
    assert blas_uses(parse(name)) == []
