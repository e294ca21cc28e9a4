"""Config schemas: the stdlib validator against jsonschema, its verdicts
and its words, and the import hygiene of the package namespace and of the
command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab import schemas
from flocklab.schemas import SCHEMAS

SRC = Path(__file__).resolve().parents[1] / "src"

# ---- differential check: schemas.resolve against Draft 2020-12 ----

# values that sit on the edges of the JSON types and of the bounds
EDGE = st.sampled_from([
    True, False, None, 0, 1, 2, -1, 0.0, -0.0, 1.0, 1.5, 2.0, -1.5,
    2**64 - 1, 2**64, float(2**64), 10**400, math.nan, math.inf, -math.inf,
    "", "uniform-box", "constant", [], {}, [1], [True], [None], {"a": 1},
])
WILD = st.one_of(
    EDGE,
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(EDGE, st.floats()), max_size=3),
)
PROPERTY_NAMES = sorted({
    name for s in SCHEMAS.values() for name in s["properties"]
})


def _kind_valid(name: str, schema: dict):
    """Values of one JSON type that satisfy ``schema``."""
    if name == "null":
        return st.none()
    if name == "string":
        return st.text(max_size=5)
    if name in ("integer", "number"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -10))
        hi = schema.get("maximum", lo + 50)
        ints = st.integers(math.ceil(lo), hi)
        if "exclusiveMinimum" in schema:
            ints = ints.filter(lambda x: x > lo)
        if name == "integer":
            return ints | ints.map(float)  # 1.0 is an integer
        return ints | st.floats(
            lo, float(hi), exclude_min="exclusiveMinimum" in schema
        )
    if name == "array":
        n = schema.get("minItems", 0)
        return st.lists(valid(schema.get("items", True)), min_size=n,
                        max_size=n + 2)
    if name == "object":
        props = schema.get("properties")
        if props is None:
            return st.dictionaries(st.text(max_size=3), WILD, max_size=2)
        required = schema.get("required", [])
        return st.fixed_dictionaries(
            {k: valid(props[k]) for k in required},
            optional={k: valid(v) for k, v in props.items()
                      if k not in required},
        )
    raise AssertionError(f"no strategy for type {name!r}")


def valid(schema):
    """A strategy for documents that satisfy ``schema``."""
    if schema is True:
        return WILD
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"]
    names = [types] if isinstance(types, str) else types
    return st.one_of(*[_kind_valid(name, schema) for name in names])


def _mutate(draw, value):
    """One random edit somewhere inside ``value``."""
    ops = ["replace"]
    if isinstance(value, dict):
        ops += ["extra"] + (["descend", "drop"] if value else [])
    if isinstance(value, list) and value:
        ops += ["descend", "empty"]
    op = draw(st.sampled_from(ops))
    if op == "replace":
        return draw(WILD)
    if op == "empty":
        return []
    if op == "extra":
        key = draw(st.sampled_from(PROPERTY_NAMES) | st.text(max_size=3))
        return {**value, key: draw(WILD)}
    if isinstance(value, list):
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], _mutate(draw, value[i]), *value[i + 1:]]
    key = draw(st.sampled_from(sorted(value)))
    if op == "drop":
        return {k: v for k, v in value.items() if k != key}
    return {**value, key: _mutate(draw, value[key])}


@st.composite
def near(draw, schema):
    """A valid document with zero to three random edits."""
    doc = draw(valid(schema))
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate(draw, doc)
    return doc


def _rejection(kind, doc):
    """(message, path) of the error schemas.resolve raises, or None."""
    try:
        schemas.resolve(kind, doc)
    except schemas.ValidationError as exc:
        return exc.message, list(exc.path)
    return None


def _agree(doc, kind):
    """Whether Draft 2020-12 accepts ``doc``, after checking that resolve
    rejects it exactly then, with best_match's message and path."""
    validator = jsonschema.Draft202012Validator(SCHEMAS[kind])
    best = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    got = _rejection(kind, doc)
    if best is None:
        # what the schema accepts only the finiteness rule may reject
        assert got is None or got[0].endswith(" is not a finite number"), doc
    else:
        assert got == (best.message, list(best.path)), doc
    return best is None


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_conforms_matches_jsonschema(kind):
    outcomes = []

    @settings(max_examples=300, deadline=None, database=None)
    @given(near(SCHEMAS[kind]))
    def check(doc):
        outcomes.append(_agree(doc, kind))

    check()
    # the corpus reaches both verdicts
    assert True in outcomes and False in outcomes


SIM = {
    "d": 1, "alpha": 1.5, "N": 6, "T": 0.3, "M": 2.0, "seed": 42,
    "initial": {
        "density": "uniform-box", "density_params": {},
        "velocity": "constant", "velocity_params": {},
    },
}
MF = {
    "d": 1, "alpha": 1.5, "horizon": 0.1, "bound": 2.0, "seed": 1,
    "n_list": [4, 8], "probe_times": [0.1], "initial": SIM["initial"],
}


@pytest.mark.parametrize("kind, doc, ok", [
    ("simulate", SIM, True),
    ("simulate", dict(SIM, N=6.0), True),
    ("simulate", dict(SIM, N=1.5), False),
    ("simulate", dict(SIM, N=True), False),
    ("simulate", dict(SIM, alpha=True), False),
    ("simulate", dict(SIM, T=0), False),
    ("simulate", dict(SIM, T=math.nan), True),
    ("simulate", dict(SIM, seed=-1), False),
    ("simulate", dict(SIM, seed=2**64 - 1), True),
    ("simulate", dict(SIM, seed=2**64), False),
    ("simulate", dict(SIM, fixed_step=None), False),
    ("simulate", dict(SIM, fixed_step=0.0), False),
    ("simulate", dict(SIM, tol=None), False),
    ("simulate", dict(SIM, eta_ladder=[]), False),
    ("simulate", dict(SIM, eta_ladder=[0.1, -1.0]), False),
    ("simulate", dict(SIM, extra=1), False),
    ("simulate", {k: v for k, v in SIM.items() if k != "seed"}, False),
    ("simulate", dict(SIM, initial=dict(SIM["initial"], density="disc")),
     False),
    ("simulate", [SIM], False),
    ("mfstudy", MF, True),
    ("mfstudy", dict(MF, n_list=[4]), False),
    ("mfstudy", dict(MF, n_list=[4, 8.0]), True),
    ("mfstudy", dict(MF, n_list=[4, False]), False),
    ("mfstudy", dict(MF, threads=0), False),
    ("residual", {"input": "run/trajectory", "h": None}, True),
    ("residual", {"input": None}, False),
    ("pairstudy", {"alpha": 1, "eps_list": [0.5], "v1": [0], "v2": [0]},
     True),
    # keys of integrator modes that no longer exist, rejected at any value,
    # their old defaults included
    ("simulate", dict(SIM, fixed_step=0.01), False),
    ("simulate", dict(SIM, kernel_floor=0), False),
    ("simulate", dict(SIM, kernel_floor=0.0), False),
    ("simulate", dict(SIM, kernel_floor=0.5), False),
    ("simulate", dict(SIM, kernel_floor=False), False),
    ("mfstudy", dict(MF, kernel_floor=0.0), False),
    ("mfstudy", dict(MF, kernel_floor=0.3), False),
    # the key of a diagnostics ladder that is no longer reported, rejected
    # at any value, its old default included
    ("simulate", dict(SIM, eta_ladder=[1.0, 0.3, 0.1, 0.03, 0.01]), False),
    ("simulate", dict(SIM, eta_ladder=[1, 0.3, 0.1, 0.03, 0.01]), False),
    ("simulate", dict(SIM, eta_ladder=[True, 0.3, 0.1, 0.03, 0.01]), False),
    ("simulate", dict(SIM, eta_ladder=[1.0, 0.3]), False),
    ("diagnose", {"input": "run", "eta_ladder": [0.5]}, False),
    # the retired support cap, and the ladder at its old default
    ("mfstudy", dict(MF, dbl_cap=2000), False),
    ("diagnose", {"input": "run", "eta_ladder": [1.0, 0.3, 0.1, 0.03, 0.01]},
     False),
])
def test_conforms_on_hand_cases(kind, doc, ok):
    assert _agree(doc, kind) == ok


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_schemas_are_valid_draft_2020_12(kind):
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[kind])


def _keywords(schema) -> set:
    if isinstance(schema, bool):
        return set()
    used = set(schema)
    for key, sub in schema.items():
        if key == "properties":
            for prop in sub.values():
                used |= _keywords(prop)
        elif key in ("items", "additionalProperties"):
            used |= _keywords(sub)
    return used


def test_schemas_use_exactly_the_keywords_conforms_implements():
    # a keyword schemas._violations does not know would be ignored silently
    used = set().union(*(_keywords(s) for s in SCHEMAS.values()))
    assert used == schemas._KEYWORDS


def test_rejection_is_worded_by_jsonschema():
    # in jsonschema's words, without its "Failed validating" block
    with pytest.raises(schemas.ValidationError) as info:
        schemas.resolve("simulate", dict(SIM, alpha=0.5))
    assert isinstance(info.value, ValueError)
    assert info.value.message == "0.5 is less than the minimum of 1"
    assert list(info.value.path) == ["alpha"]
    assert str(info.value) == (
        "0.5 is less than the minimum of 1\n\nOn instance['alpha']:\n    0.5"
    )
    with pytest.raises(schemas.ValidationError) as info:
        schemas.resolve("simulate", dict(SIM, extra=1, more=2))
    assert info.value.message == (
        "Additional properties are not allowed ('extra', 'more' were unexpected)"
    )
    assert str(info.value).endswith("\n\nOn instance:\n    " + repr(
        dict(SIM, extra=1, more=2)
    ))
    cfg = schemas.resolve("simulate", SIM)
    assert cfg["tol"] == schemas.DEFAULTS["simulate"]["tol"]


@pytest.mark.parametrize("doc, path", [
    (dict(SIM, T=float("nan")), ["T"]),
    (dict(SIM, tol=float("inf")), ["tol"]),
    (dict(SIM, bin_fractions=[0.125, float("inf")]), ["bin_fractions", 1]),
    (dict(SIM, alpha=10**400), ["alpha"]),  # beyond the float range
])
def test_non_finite_numbers_are_rejected_by_name(doc, path):
    # NaN passes every bound, and alpha has no upper one, so the schema
    # accepts these documents
    assert jsonschema.Draft202012Validator(SCHEMAS["simulate"]).is_valid(doc)
    schemas._validate(doc, SCHEMAS["simulate"])
    with pytest.raises(schemas.ValidationError) as info:
        schemas.resolve("simulate", doc)
    value = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
    assert list(info.value.path) == path
    assert info.value.message == f"{value!r} is not a finite number"
    where = "".join(f"[{key!r}]" for key in path)
    assert str(info.value) == (
        f"{value!r} is not a finite number\n\nOn instance{where}:\n    {value!r}"
    )


# ---- import hygiene ----

# Runs the command line as ``python -m flocklab.cli`` does, then reports the
# exit status and every module the process holds, read from sys.modules.
# The package's __init__ binds only __version__, so a bare ``import
# flocklab`` must load no submodule, and a subcommand only the modules its
# deferred imports name.
_DRIVER = """\
import json, runpy, sys
code = 0
if len(sys.argv) > 1:
    try:
        runpy.run_module("flocklab.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import flocklab
sys.stderr.write(json.dumps([code, sorted(sys.modules)]) + "\\n")
"""


def _loaded(cli_args, cwd) -> tuple:
    """Exit status and loaded modules of a fresh ``flocklab`` process."""
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *cli_args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    code, names = json.loads(proc.stderr.splitlines()[-1])
    return code, set(names)


def _ours(names) -> set:
    return {n for n in names if n.startswith("flocklab.")}


def test_import_flocklab_loads_no_submodule(tmp_path):
    code, names = _loaded([], tmp_path)
    assert code == 0
    assert "flocklab" in names
    assert _ours(names) == set()


def test_dbl_process_loads_only_what_it_runs(tmp_path):
    (tmp_path / "a.csv").write_text("weight,p1\n0.5,0.0\n0.5,1.0\n")
    (tmp_path / "b.csv").write_text("weight,p1\n1.0,0.25\n")
    code, names = _loaded(["dbl", "a.csv", "b.csv"], tmp_path)
    assert code == 0
    assert "jsonschema" not in names
    for unused in ("diagnostics", "meanfield", "weakform", "rng"):
        assert f"flocklab.{unused}" not in names
    # cli itself runs as __main__
    assert _ours(names) == {
        "flocklab._flatlp", "flocklab.dynamics", "flocklab.errors",
        "flocklab.measures", "flocklab.pairs", "flocklab.schemas",
        "flocklab.storage",
    }


def _write_sim(tmp_path, **overrides) -> Path:
    cfg = dict(SIM, T=0.1, snapshots=3, **overrides)
    cfg["initial"] = {
        "density": "uniform-box",
        "density_params": {"center": [0.0], "halfwidth": 0.8},
        "velocity": "constant",
        "velocity_params": {"value": [0.1]},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_and_serial_study_load_no_unused_library(tmp_path):
    # np.unique and np.union1d import numpy.ma; the study runs its sizes
    # one after another whatever --threads says, so no pool is loaded
    sim = json.loads(_write_sim(tmp_path).read_text())
    mf = dict(MF, initial=sim["initial"])
    (tmp_path / "mf.json").write_text(json.dumps(mf))
    for argv in (
        ["simulate", "--config", "sim.json", "--out", "run"],
        ["mfstudy", "--config", "mf.json", "--out", "study"],
        ["mfstudy", "--config", "mf.json", "--out", "study2", "--threads", "2"],
    ):
        code, names = _loaded(argv, tmp_path)
        assert code == 0
        assert "numpy.ma" not in names
        assert "concurrent.futures" not in names


def test_valid_config_never_imports_jsonschema(tmp_path):
    # no flocklab process imports it: schemas words its own rejections
    _write_sim(tmp_path)
    argv = ["simulate", "--config", "sim.json", "--out", "run"]
    code, names = _loaded(argv, tmp_path)
    assert code == 0
    assert "flocklab.dynamics" in names
    assert "jsonschema" not in names
    _write_sim(tmp_path, alpha=0.5)
    code, names = _loaded(argv, tmp_path)
    assert code == 2
    assert "jsonschema" not in names
    error = json.loads((tmp_path / "run" / "error.json").read_text())
    assert error["error"]["message"].startswith(
        "0.5 is less than the minimum of 1\n\nOn instance['alpha']:"
    )
