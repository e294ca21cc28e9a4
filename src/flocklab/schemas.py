"""Config document schemas for the command-line entry points, and the
schema of the summary a saved trajectory carries.

Configs are JSON objects validated before execution; defaults below are
merged in afterwards so that every report can embed the fully resolved
config it ran with.

One stdlib pass, ``_violations``, checks exactly the JSON Schema keywords
used here, with Draft 2020-12 semantics (a bool is not a number, ``1.0``
is an integer), and words a rejection as jsonschema would: the error
raised is the one its ``best_match`` picks, with its message and path.
No third-party package is needed to run a config; jsonschema is the
tests' oracle only.

JSON Schema bounds cannot reject NaN (every comparison with it is false),
and Python's JSON reader and argparse both accept NaN and Infinity; nor
do they bound an integer, which Python's JSON reader keeps exact however
long it is.  So a finiteness rule runs beside the schema: a conforming
config holding a NaN, an infinity or an integer beyond the float range
anywhere is rejected with a ValidationError that names where it sits.

Every key a config accepts changes the run or its report, with one
exception: an mfstudy config's ``threads`` named the worker threads of a
study that now runs its sizes one after another.  Any positive count is
accepted for the command lines that still pass it, and it is not echoed
into reports.  A key a schema does not list is rejected with a
ValidationError that names it.
"""

from __future__ import annotations

import functools
import operator
import sys

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
            "bin_fractions": {"type": "array", "items": _POSITIVE, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "diagnose": {
        "type": "object",
        "required": ["input"],
        "properties": {
            "input": {"type": "string"},
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
    # the summary beside a saved trajectory; keys not listed are ignored
    "trajectory": {
        "type": "object",
        "required": ["d", "alpha", "N", "T", "M", "tol", "snapshot_count"],
        "properties": {
            "d": {"type": "integer"},
            "alpha": {"type": "number"},
            "N": {"type": "integer"},
            "T": {"type": "number"},
            "M": {"type": "number"},
            "tol": {"type": "number"},
            "snapshot_count": {"type": "integer"},
        },
    },
}

DEFAULTS = {
    "simulate": {
        "tol": 1e-8,
        "snapshots": 33,
        "bin_fractions": [1 / 8, 1 / 16, 1 / 32],
    },
    "diagnose": {
        "bin_fractions": [1 / 8, 1 / 16, 1 / 32],
    },
    "residual": {"battery_size": 24, "battery_seed": 0, "h": None},
    "mfstudy": {
        "h": None,
        "tol": 1e-7,
        "quad_points": 33,
        "battery_size": 24,
        "battery_seed": 0,
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


# the keywords _violations implements; SCHEMAS may use no other
_KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties",
    "minimum", "maximum", "exclusiveMinimum", "items", "minItems",
})


class ValidationError(ValueError):
    """A config that breaks its schema or the finiteness rule: ``message``
    says how, ``path`` (a tuple of keys and indices) says where."""

    def __init__(self, message: str, path: tuple, instance):
        self.message = message
        self.path = path
        where = "".join(f"[{key!r}]" for key in path)
        super().__init__(f"{message}\n\nOn instance{where}:\n    {instance!r}")


def _violations(doc, schema, path=()):
    """(path, message) of every way ``doc`` breaks ``schema``, for the
    _KEYWORDS (``additionalProperties`` as false only).

    Keywords run in the schema's key order and each constrains only
    instances of its own JSON type, so the errors come in the order of
    jsonschema's ``iter_errors`` and in its words.  The bound checks are
    its failure tests too, so NaN passes them.
    """
    for key, rule in schema.items():
        if key == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[name](doc) for name in names):
                yield path, f"{doc!r} is not of type {', '.join(map(repr, names))}"
        elif key == "enum":
            if not any(_same(doc, value) for value in rule):
                yield path, f"{doc!r} is not one of {rule!r}"
        elif isinstance(doc, dict):
            if key == "required":
                for name in rule:
                    if name not in doc:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in rule.items():
                    if name in doc:
                        yield from _violations(doc[name], sub, path + (name,))
            elif key == "additionalProperties" and rule is False:
                extras = sorted(doc.keys() - schema["properties"].keys(), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (
                        "Additional properties are not allowed "
                        f"({', '.join(map(repr, extras))} {verb} unexpected)"
                    )
        elif _is_number(doc):
            if key == "minimum" and doc < rule:
                yield path, f"{doc!r} is less than the minimum of {rule!r}"
            elif key == "maximum" and doc > rule:
                yield path, f"{doc!r} is greater than the maximum of {rule!r}"
            elif key == "exclusiveMinimum" and doc <= rule:
                yield path, (
                    f"{doc!r} is less than or equal to the minimum of {rule!r}"
                )
        elif isinstance(doc, list):
            if key == "minItems" and len(doc) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{doc!r} {short}"
            elif key == "items":
                for i, item in enumerate(doc):
                    yield from _violations(item, rule, path + (i,))


def _non_finite(doc, path=()):
    """(path, value) of every NaN, infinity or integer beyond the float
    range in ``doc``, in document order."""
    if _is_number(doc) and not abs(doc) <= sys.float_info.max:
        yield path, doc
    items = (
        doc.items() if isinstance(doc, dict)
        else enumerate(doc) if isinstance(doc, list)
        else ()
    )
    for key, value in items:
        yield from _non_finite(value, path + (key,))


def _validate(doc, schema) -> None:
    """Raise ValidationError unless ``doc`` satisfies ``schema``: the
    error jsonschema's ``best_match`` picks, the first with the shortest
    and then largest path.  (Its third key, whether the instance has the
    subschema's type, ties too: in SCHEMAS a path has one subschema.)"""
    best = max(
        _violations(doc, schema), key=lambda e: (-len(e[0]), e[0]), default=None
    )
    if best is not None:
        path, message = best
        raise ValidationError(message, path, functools.reduce(
            operator.getitem, path, doc
        ))


def resolve(kind: str, doc: dict) -> dict:
    """Validate a config document and merge in the defaults.

    A document that violates the schema, or that holds a NaN or an
    infinity, raises ValidationError.
    """
    _validate(doc, SCHEMAS[kind])
    found = next(_non_finite(doc), None)
    if found is not None:
        path, value = found
        raise ValidationError(f"{value!r} is not a finite number", path, value)
    out = dict(DEFAULTS.get(kind, {}))
    out.update(doc)
    return out
