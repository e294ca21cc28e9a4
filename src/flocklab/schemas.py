"""Config document schemas for the command-line entry points.

Configs are JSON objects validated before execution; defaults below are
merged in afterwards so that every report can embed the fully resolved
config it ran with.

A config is accepted by ``_conforms``, a stdlib check of exactly the JSON
Schema keywords used here, with Draft 2020-12 semantics (a bool is not a
number, ``1.0`` is an integer).  jsonschema is imported only to explain a
rejected config, so it alone words every schema violation.

JSON Schema bounds cannot reject NaN (every comparison with it is false),
and Python's JSON reader and argparse both accept NaN and Infinity.  So a
finiteness rule runs beside the schema: a conforming config holding a
non-finite number anywhere is rejected with a ValidationError that names
where it sits.

``kernel_floor`` and ``fixed_step`` name integrator modes that no longer
exist, and ``eta_ladder`` a diagnostics series that is no longer reported.
They are accepted at their defaults only (0, null and the default ladder),
so every report written with them still reproduces from itself, byte for
byte.  ``threads`` in an mfstudy config named the worker threads of a
study that now runs its sizes one after another; any positive count is
accepted, changes nothing and is not echoed into reports.
"""

from __future__ import annotations

import math

_INITIAL = {
    "type": "object",
    "required": ["density", "density_params", "velocity", "velocity_params"],
    "properties": {
        "density": {
            "enum": ["uniform-box", "truncated-gaussian", "two-bump"]
        },
        "density_params": {"type": "object"},
        "velocity": {
            "enum": ["constant", "linear-shear", "sinusoid", "two-speed-split"]
        },
        "velocity_params": {"type": "object"},
    },
    "additionalProperties": False,
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
# the collision-avoidance regime the particle model is defined for
_ALPHA = {"type": "number", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}
# the unregularized kernel and the adaptive integrator, the only modes
_NO_FLOOR = {"enum": [0]}
_NO_FIXED_STEP = {"enum": [None]}
_ETA_LADDER = [1.0, 0.3, 0.1, 0.03, 0.01]

SCHEMAS = {
    "simulate": {
        "type": "object",
        "required": ["d", "alpha", "N", "T", "M", "initial", "seed"],
        "properties": {
            "d": {"type": "integer", "minimum": 1},
            "alpha": _ALPHA,
            "N": {"type": "integer", "minimum": 1},
            "T": _POSITIVE,
            "M": _POSITIVE,
            "initial": _INITIAL,
            "seed": _SEED,
            "tol": _POSITIVE,
            "snapshots": {"type": "integer", "minimum": 2},
            "kernel_floor": _NO_FLOOR,
            "fixed_step": _NO_FIXED_STEP,
            "eta_ladder": {"enum": [_ETA_LADDER]},
            "bin_fractions": {"type": "array", "items": _POSITIVE, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "diagnose": {
        "type": "object",
        "required": ["input"],
        "properties": {
            "input": {"type": "string"},
            "eta_ladder": {"enum": [_ETA_LADDER]},
            "bin_fractions": {"type": "array", "items": _POSITIVE, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "residual": {
        "type": "object",
        "required": ["input"],
        "properties": {
            "input": {"type": "string"},
            "battery_size": {"type": "integer", "minimum": 1},
            "battery_seed": _SEED,
            "h": {"type": ["number", "null"], "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "mfstudy": {
        "type": "object",
        "required": [
            "d", "alpha", "horizon", "bound", "initial", "seed",
            "n_list", "probe_times",
        ],
        "properties": {
            "d": {"type": "integer", "minimum": 1},
            "alpha": _ALPHA,
            "horizon": _POSITIVE,
            "bound": _POSITIVE,
            "initial": _INITIAL,
            "seed": _SEED,
            "n_list": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "minItems": 2,
            },
            "probe_times": {"type": "array", "items": _NONNEG, "minItems": 1},
            "h": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "tol": _POSITIVE,
            "quad_points": {"type": "integer", "minimum": 2},
            "battery_size": {"type": "integer", "minimum": 1},
            "battery_seed": _SEED,
            "kernel_floor": _NO_FLOOR,
            "dbl_cap": {"type": "integer", "minimum": 1},
            "threads": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "pairstudy": {
        "type": "object",
        "required": ["alpha", "eps_list", "v1", "v2"],
        "properties": {
            "alpha": _ALPHA,
            "eps_list": {"type": "array", "items": _POSITIVE, "minItems": 1},
            "v1": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "v2": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "horizon": _POSITIVE,
            "grid_points": {"type": "integer", "minimum": 16},
            "tol": _POSITIVE,
        },
        "additionalProperties": False,
    },
}

DEFAULTS = {
    "simulate": {
        "tol": 1e-8,
        "snapshots": 33,
        "kernel_floor": 0.0,
        "fixed_step": None,
        "eta_ladder": _ETA_LADDER,
        "bin_fractions": [1 / 8, 1 / 16, 1 / 32],
    },
    "diagnose": {
        "eta_ladder": _ETA_LADDER,
        "bin_fractions": [1 / 8, 1 / 16, 1 / 32],
    },
    "residual": {"battery_size": 24, "battery_seed": 0, "h": None},
    "mfstudy": {
        "h": None,
        "tol": 1e-7,
        "quad_points": 33,
        "battery_size": 24,
        "battery_seed": 0,
        "kernel_floor": 0.0,
        "dbl_cap": 2000,
    },
    "pairstudy": {"horizon": 8.0, "grid_points": 4096, "tol": 1e-10},
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (
        isinstance(x, int) or x.is_integer()
    ),
}


def _same(a, b) -> bool:
    # JSON equality: true and 1 are different values, inside arrays too
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# the keywords _conforms implements; SCHEMAS may use no other
_KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties",
    "minimum", "maximum", "exclusiveMinimum", "items", "minItems",
})


def _conforms(doc, schema) -> bool:
    """Whether ``doc`` satisfies ``schema``, for the keywords SCHEMAS uses.

    Each keyword constrains only instances of its own JSON type, as in the
    specification.  The bound checks are jsonschema's own failure tests, so
    NaN passes them there and here alike.
    """
    if isinstance(schema, bool):
        return schema
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else types
        if not any(_TYPES[name](doc) for name in names):
            return False
    if "enum" in schema and not any(_same(doc, v) for v in schema["enum"]):
        return False
    if isinstance(doc, dict):
        if any(key not in doc for key in schema.get("required", ())):
            return False
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items():
            if not _conforms(value, props[key] if key in props else extra):
                return False
    if _is_number(doc):
        if "minimum" in schema and doc < schema["minimum"]:
            return False
        if "maximum" in schema and doc > schema["maximum"]:
            return False
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            return False
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            return False
        items = schema.get("items", True)
        if not all(_conforms(item, items) for item in doc):
            return False
    return True


def _non_finite(doc, path=()):
    """(path, value) of the first NaN or infinity in ``doc``, or None."""
    if isinstance(doc, float) and not math.isfinite(doc):
        return path, doc
    items = (
        doc.items() if isinstance(doc, dict)
        else enumerate(doc) if isinstance(doc, list)
        else ()
    )
    for key, value in items:
        found = _non_finite(value, path + (key,))
        if found is not None:
            return found
    return None


def resolve(kind: str, doc: dict) -> dict:
    """Validate a config document and merge in the defaults.

    A document that violates the schema, or that holds a NaN or an
    infinity, raises ``jsonschema.ValidationError``.
    """
    schema = SCHEMAS[kind]
    if not _conforms(doc, schema):
        import jsonschema

        jsonschema.validate(doc, schema)
    found = _non_finite(doc)
    if found is not None:
        import jsonschema

        path, value = found
        where = "".join(f"[{key!r}]" for key in path)
        raise jsonschema.ValidationError(
            f"{value!r} is not a finite number\n\nOn instance{where}:\n"
            f"    {value!r}",
            path=path,
        )
    out = dict(DEFAULTS.get(kind, {}))
    out.update(doc)
    return out
