"""Module layering: an acyclic import graph, imports at module level only,
no third-party import but numpy, no unused imports, benchmark tracer
targets and reads that still work, a benchmark set-up probe that runs on
the package, no public module-level name (def, class or assignment) that
no module reads and the tracer does not wrap (storage.save_measure aside),
no public method or property that no module and not the tracer reads
(Trajectory.state_at aside), no config key that cli and storage never
read (mfstudy's threads aside), snapshots read as arrays, no BLAS product
in any module (and no einsum in the integrator), self-pairs set and the
kernel psi = r^(-alpha) evaluated in pairs alone, and the per-snapshot
instruments read in meanfield.snapshot_stats alone.

The package's __init__ binds only __version__: every name is read from
the module that defines it, so the guards read the modules, not a table
of exports."""

import ast
import importlib
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


def perfbench_module(monkeypatch, name: str):
    """A fresh import of the benchmark module perfbench/<name>.py, with
    the benchmark's modules it imports loaded fresh too."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for mod in ("run", "traced", "workloads"):
        monkeypatch.delitem(sys.modules, mod, raising=False)
    return importlib.import_module(name)


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
    assert graph["meanfield"] >= {"dynamics", "pairs", "weakform", "measures"}
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


def third_party_imports(tree: ast.Module) -> list:
    """(line, top-level name) of every absolute import, at module level or
    inside a function, of a package that is neither the standard library,
    numpy nor flocklab."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy", "flocklab"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n.split(".")[0]) for n in names
                if n.split(".")[0] not in allowed]
    return out


def test_third_party_imports_finds_every_form():
    tree = ast.parse(
        "import json, jsonschema\n"
        "import numpy as np\n"
        "from scipy.optimize import linprog\n"
        "from . import pairs\n"
        "from flocklab.rng import CounterRNG\n"
        "def f():\n"
        "    import hypothesis.strategies\n"
        "    from collections import deque\n"
    )
    assert third_party_imports(tree) == [
        (1, "jsonschema"), (3, "scipy"), (7, "hypothesis"),
    ]


def test_package_imports_no_third_party_package_but_numpy():
    # numpy is the one runtime dependency; jsonschema and scipy are the
    # tests' oracles
    found = {name: third_party_imports(parse(name)) for name in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_only_cli_imports_package_modules_inside_functions():
    found = {
        name: function_level_imports(parse(name))
        for name in MODULES
        if name != "cli"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_imports(tree: ast.Module) -> list:
    """Names bound by module-level imports that the module never reads."""
    bound = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        todo.extend(ast.iter_child_nodes(node))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_unused_imports_finds_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .pairs import kernel, distances as dist\n"
        "from . import dynamics\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    import math\n"
        "    return np.sqrt(dist(x)) + kernel\n"
    )
    assert unused_imports(tree) == ["dynamics", "json", "os"]


def test_package_has_no_unused_imports(monkeypatch):
    # a name the benchmark tracer wraps may stay imported only for it
    traced = perfbench_module(monkeypatch, "traced")

    traced_names = {attr for _, attr, _ in traced.PATCHES}
    found = {
        name: [n for n in unused_imports(parse(name)) if n not in traced_names]
        for name in MODULES
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the tracer swaps these module attributes by name; a module move that
    # drops one would break the traced benchmark pass
    traced = perfbench_module(monkeypatch, "traced")

    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in traced.PATCHES
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []
    assert len(traced.PATCHES) > 0


# the writer of the format storage.load_measure reads; no module writes a
# measure, but the reader's format is defined by the pair
UNREAD_EXPORTS = {"storage": ["save_measure"]}


def test_every_export_is_read_in_the_package(monkeypatch):
    # a public module-level name (def, class or assignment) that no module
    # reads and the tracer does not wrap serves only tests: it belongs in
    # the test oracles
    traced = perfbench_module(monkeypatch, "traced")

    read = set().union(*(names_read(parse(name)) for name in MODULES))
    traced_names = {attr for _, attr, _ in traced.PATCHES}
    unread = {
        name: sorted(public_definitions(parse(name)) - read - traced_names)
        for name in MODULES
    }
    assert {name: names for name, names in unread.items() if names} == (
        UNREAD_EXPORTS
    )


def public_methods(tree: ast.Module) -> set:
    """Class.method of every public method or property of every public
    module-level class."""
    return {
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def attributes_read(tree: ast.Module) -> set:
    """Every name a module reads as an attribute, obj.name."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_public_methods_and_attributes_read_find_every_form():
    tree = ast.parse(
        "class K:\n"
        "    attr = 1\n"
        "    def __init__(self): pass\n"
        "    def _helper(self): pass\n"
        "    def method(self): return self._helper()\n"
        "    @property\n"
        "    def size(self): return len(self.items)\n"
        "class _Private:\n"
        "    def hidden(self): pass\n"
        "def f(k):\n"
        "    class Local:\n"
        "        def inner(self): pass\n"
        "    return k.method, size\n"
    )
    assert public_methods(tree) == {"K.method", "K.size"}
    assert attributes_read(tree) == {"_helper", "items", "method"}


# the snapshot lookup of the tests and the oracles, kept beside the
# positional one the package reads
UNREAD_METHODS = {"dynamics": ["Trajectory.state_at"]}


def test_every_public_method_is_read():
    # a public method or property that no module and not the benchmark
    # tracer reads as an attribute serves only tests: they read the
    # arrays it would wrap instead
    read = set().union(
        *(attributes_read(parse(name)) for name in MODULES),
        attributes_read(ast.parse(
            (ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8")
        )),
    )
    unread = {
        name: sorted(m for m in public_methods(parse(name))
                     if m.split(".")[1] not in read)
        for name in MODULES
    }
    assert {name: names for name, names in unread.items() if names} == (
        UNREAD_METHODS
    )


def schema_properties(schema: dict) -> set:
    """Every property name a schema lists, those of nested objects too."""
    out = set()
    for name, sub in schema.get("properties", {}).items():
        out |= {name} | schema_properties(sub)
    return out


def constant_keys_read(tree: ast.Module) -> set:
    """Every constant string a module reads as a subscript, doc["key"]."""
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def test_schema_properties_and_constant_keys_find_every_form():
    schema = {"type": "object", "properties": {
        "a": {"type": "number"},
        "inner": {"type": "object", "properties": {"b": {}, "c": {}}},
        "items": {"type": "array", "items": {"type": "number"}},
    }}
    assert schema_properties(schema) == {"a", "inner", "b", "c", "items"}
    tree = ast.parse(
        "x = cfg['a'] + cfg[0] + cfg[key]\n"
        "cfg['stored'] = 1\n"
        "del cfg['gone']\n"
        "y = meta['inner']['b']\n"
        "z = {'literal': 1}\n"
    )
    assert constant_keys_read(tree) == {"a", "inner", "b"}


# mfstudy's threads named the worker threads of a pool that is gone; the
# benchmark still passes --threads, so it is accepted and changes nothing
INERT_KEYS = {"mfstudy": ["threads"]}


def test_every_config_key_is_read():
    # a key a schema accepts and the command line and storage never read
    # is a setting that changes nothing
    from flocklab import schemas

    read = constant_keys_read(parse("cli")) | constant_keys_read(parse("storage"))
    unread = {
        kind: sorted(schema_properties(schema) - read)
        for kind, schema in schemas.SCHEMAS.items()
    }
    assert {kind: keys for kind, keys in unread.items() if keys} == INERT_KEYS


@pytest.mark.parametrize("workload", ["stream-2d", "refine-1d"])
def test_benchmark_setup_probe_runs_on_the_package(workload, tmp_path, monkeypatch):
    # the benchmark's set-up probe imports the layer modules through the
    # package and resolves the workload's config in a fresh interpreter
    run = perfbench_module(monkeypatch, "run")
    spec = run.WORKLOADS[workload]
    spec.build(0, tmp_path)
    code, _, log = run.setup_probe(spec, tmp_path)
    assert code == 0, log
    assert Path(log.splitlines()[-1]) == PACKAGE / "cli.py"


def test_benchmark_tracer_reads_an_integrate_result(monkeypatch):
    # the tracer records counts read off the result of integrate; a change
    # to Trajectory that breaks those reads would break the traced pass
    traced = perfbench_module(monkeypatch, "traced")

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


@pytest.mark.parametrize("name", ["dynamics", "pairs", "diagnostics"])
def test_integrator_never_calls_the_blas(name):
    # the dynamics and the reports promise bytes that do not depend on the
    # BLAS: a product through it sums in a library- and thread-dependent order
    assert blas_uses(parse(name)) == []


def blas_products(tree: ast.Module) -> list:
    """(line, name) of every product that reaches the BLAS: blas_uses
    without plain einsum, which sums in numpy's own loops, plus every
    einsum call with optimize=, its one route to the BLAS."""
    out = [hit for hit in blas_uses(tree) if hit[1] != "einsum"]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "einsum"
            and any(k.arg == "optimize" for k in node.keywords)
        ):
            out.append((node.lineno, "einsum(optimize=)"))
    return sorted(out)


def test_blas_products_flag_optimized_einsum_only():
    tree = ast.parse(
        "a = np.einsum('ij,ij->i', v, v)\n"
        "b = np.einsum('ij,jk', m, m, optimize=True)\n"
        "c = np.einsum('ij,j', m, b, optimize='greedy')\n"
        "d = np.vdot(a, b) + np.inner(a, b) + np.matmul(m, m)\n"
        "e = np.tensordot(m, m) + m @ m\n"
        "f = np.linalg.norm(a)\n"
    )
    assert blas_products(tree) == [
        (2, "einsum(optimize=)"), (3, "einsum(optimize=)"),
        (4, "inner"), (4, "matmul"), (4, "vdot"),
        (5, "@"), (5, "tensordot"), (6, "linalg"),
    ]


def test_package_never_calls_the_blas():
    # every report, sample and moment promises bytes that do not depend on
    # the BLAS build or the CPU it picks a kernel for
    found = {name: blas_products(parse(name)) for name in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def self_pair_writes(tree: ast.Module) -> list:
    """(line, form) of every fill_diagonal call and every assignment of
    inf through a subscript."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "fill_diagonal" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            out.append((node.lineno, "fill_diagonal"))
        elif isinstance(node, ast.Assign) and "inf" in (
            getattr(node.value, "attr", None), getattr(node.value, "id", None)
        ):
            # np.inf, math.inf or a bare inf
            if any(isinstance(t, ast.Subscript) for t in node.targets):
                out.append((node.lineno, "[...] = inf"))
    return sorted(out)


def test_self_pair_writes_finds_every_form():
    tree = ast.parse(
        "np.fill_diagonal(dist, np.inf)\n"
        "fill_diagonal(dist, 0.0)\n"
        "dist[rows - r0, rows] = np.inf\n"
        "r[:, i, i] = math.inf\n"
        "a = b[0] = inf\n"
        "best = np.inf\n"
        "r_min = np.full(s, np.inf)\n"
        "w[i, i] = 0.0\n"
    )
    assert self_pair_writes(tree) == [
        (1, "fill_diagonal"), (2, "fill_diagonal"), (3, "[...] = inf"),
        (4, "[...] = inf"), (5, "[...] = inf"),
    ]


def test_only_pairs_sets_self_pairs():
    # pairs.separations is the one place a self-pair of a distance grid
    # becomes +inf; a local copy of that rule elsewhere could drift from it
    found = {name: self_pair_writes(parse(name)) for name in MODULES if name != "pairs"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def nodes_by_function(tree: ast.Module) -> list:
    """(node, name of the innermost function around it, "" at module
    level) for every node below tree; a def is inside its own name."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            out.append((child, inner))
            visit(child, inner)

    visit(tree, "")
    return out


def negative_powers(tree: ast.Module) -> list:
    """(line, function) of every np.power(x, -e) call and every x ** -e
    whose exponent is minus a variable, such as -alpha or -p.alpha, with
    the innermost function around it ("" at module level).  Constant
    exponents such as m ** -0.5 are not the kernel and are not flagged."""
    out = []
    for node, fn in nodes_by_function(tree):
        exp = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = node.right
        elif (
            isinstance(node, ast.Call)
            and "power" in (getattr(node.func, "attr", None),
                            getattr(node.func, "id", None))
            and len(node.args) >= 2
        ):
            exp = node.args[1]
        if (
            isinstance(exp, ast.UnaryOp)
            and isinstance(exp.op, ast.USub)
            and not isinstance(exp.operand, ast.Constant)
        ):
            out.append((node.lineno, fn))
    return sorted(out)


def test_negative_powers_finds_every_form():
    tree = ast.parse(
        "a = np.power(r, -alpha)\n"
        "def f(r, o, p):\n"
        "    np.power(r, -alpha, out=o)\n"
        "    b = r ** (-alpha)\n"
        "    return r ** -p.alpha\n"
        "c = r ** 2 + s2 ** power + m ** -0.5 + np.power(r, 2.0)\n"
    )
    assert negative_powers(tree) == [(1, ""), (3, "f"), (4, "f"), (5, "f")]


def test_only_pairs_evaluates_the_kernel():
    # pairs.kernel is the one evaluation of psi = r^(-alpha), so the
    # force, the stiff weights and the pair study share its bits
    found = {
        name: negative_powers(parse(name)) for name in MODULES if name != "pairs"
    }
    # eta_monokineticity keeps its own (r + eta)^(-alpha) with self-pairs
    # counted; no command runs it, and ROADMAP item 1(b) moves it to the
    # test oracles
    found["diagnostics"] = [
        hit for hit in found["diagnostics"] if hit[1] != "eta_monokineticity"
    ]
    assert {name: hits for name, hits in found.items() if hits} == {}


def instrument_calls(tree: ast.Module) -> list:
    """(line, function, name) of every method call .mk() and every call of
    snapshot_series, bare or through a module, with the innermost function
    around it ("" at module level)."""
    out = []
    for node, fn in nodes_by_function(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "snapshot_series" or (name == "mk" and isinstance(f, ast.Attribute)):
            out.append((node.lineno, fn, name))
    return sorted(out)


def test_instrument_calls_finds_every_form():
    tree = ast.parse(
        "a = [grid.mk() for grid in grids]\n"
        "def f(x, v, w):\n"
        "    return pairs.snapshot_series(x, v, w, 1.5)\n"
        "def g(x, v, w):\n"
        "    dd = snapshot_series(x, v, w, 1.5)[0]\n"
        "    return grid.mk(), mk(), grid.mk, snapshot_series\n"
    )
    assert instrument_calls(tree) == [
        (1, "", "mk"), (3, "f", "snapshot_series"),
        (5, "g", "snapshot_series"), (6, "g", "mk"),
    ]


def test_only_snapshot_stats_reads_the_instruments():
    # meanfield.snapshot_stats is the one path from a trajectory to its
    # per-snapshot MK index and pair sums, so simulate, diagnose, mfstudy
    # and pairstudy share its bits; diagnostics._series, the one-measure
    # pair pass behind the enstrophy and dalpha that the benchmark tracer
    # wraps, is the one other caller
    allowed = {
        ("meanfield", "snapshot_stats", "mk"),
        ("meanfield", "snapshot_stats", "snapshot_series"),
        ("diagnostics", "_series", "snapshot_series"),
    }
    found = {
        (name, fn, callee)
        for name in MODULES
        for _, fn, callee in instrument_calls(parse(name))
    }
    assert found == allowed


def module_definitions(tree: ast.Module) -> set:
    """Names a module binds at module level by assignment, def or class."""
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return out


def private_definitions(tree: ast.Module) -> set:
    """module_definitions with one leading underscore."""
    return {
        n for n in module_definitions(tree)
        if n.startswith("_") and not n.startswith("__")
    }


def public_definitions(tree: ast.Module) -> set:
    """module_definitions without a leading underscore."""
    return {n for n in module_definitions(tree) if not n.startswith("_")}


def names_read(tree: ast.Module) -> set:
    """Every name a module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_private_definitions_and_reads_find_every_form():
    tree = ast.parse(
        "_A = 1\n"
        "_B: int = 2\n"
        "__all__ = []\n"
        "if True:\n"
        "    _C = 3\n"
        "def _f():\n"
        "    _local = 4\n"
        "    return _A + mod._g\n"
        "class _K:\n"
        "    _attr = 5\n"
        "A, (B, _D) = 6, (7, 8)\n"
        "try:\n"
        "    C: float = 9.0\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    local = 10\n"
        "class K:\n"
        "    attr = 11\n"
        "from .pairs import kernel\n"
    )
    assert private_definitions(tree) == {"_A", "_B", "_C", "_D", "_f", "_K"}
    assert public_definitions(tree) == {"A", "B", "C", "f", "K"}
    assert {"_A", "_g"} <= names_read(tree)
    assert not {"_B", "_C", "_local"} & names_read(tree)


def test_every_private_module_name_is_read():
    # a private constant or helper nothing reads is dead code
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        read |= names_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = {
        name: sorted(private_definitions(parse(name)) - read) for name in MODULES
    }
    assert {name: names for name, names in unread.items() if names} == {}
