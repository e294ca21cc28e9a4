"""Simulation and verification laboratory for singular-kernel alignment
dynamics: particle integration, atomic measures with a flat metric, scalar
diagnostics, weak-formulation residuals, and mean-field refinement studies.

The package namespace is lazy (PEP 562): ``import flocklab`` loads no
submodule, and ``flocklab.X`` or ``from flocklab import X`` imports the one
module that defines ``X`` on first use.  A command-line process therefore
loads only the modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining submodule -> the public names it provides
_EXPORTS = {
    "diagnostics": (
        "DiagnosticsReport",
        "build_report",
        "dalpha",
        "enstrophy",
        "eta_monokineticity",
    ),
    "dynamics": (
        "ModelParams",
        "ParticleState",
        "Trajectory",
        "alignment_rhs",
        "integrate",
    ),
    "errors": (
        "CollisionalState",
        "FlockLabError",
        "GridMismatch",
        "NonFiniteState",
        "PivotBudgetExceeded",
        "RejectionOverflow",
        "SnapshotMissing",
        "StepBudgetExceeded",
        "StepCollapse",
    ),
    "meanfield": (
        "FieldGrid",
        "InitialSpec",
        "PairStudy",
        "StudyReport",
        "local_fields",
        "pair_alignment_study",
        "refinement_study",
        "sample_initial",
    ),
    "measures": (
        "EmpiricalMeasure",
        "dbl",
        "dbl_with_potential",
        "kinetic_energy",
    ),
    "rng": ("CounterRNG",),
    "weakform": (
        "MacroTestFunction",
        "TestFunction",
        "VectorTestFunction",
        "continuity_residual",
        "dissipation_margin",
        "kinetic_battery",
        "kinetic_weak_residual",
        "kinetic_weak_residuals",
        "macro_battery",
        "momentum_residual",
        "vector_battery",
    ),
}
# submodules that are part of the public namespace themselves
_SUBMODULES = (*_EXPORTS, "pairs")
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
