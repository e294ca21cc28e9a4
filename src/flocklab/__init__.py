"""Simulation and verification laboratory for singular-kernel alignment
dynamics: particle integration, atomic measures with a flat metric, scalar
diagnostics, weak-formulation residuals, and mean-field refinement studies.
"""

from .diagnostics import (
    DiagnosticsReport,
    beta_eta,
    build_report,
    dalpha,
    energy_balance_residual,
    energy_series,
    enstrophy,
    eta_monokineticity,
    kinetic_energy,
    momentum,
    mp_margin,
    sf_modulus,
)
from .dynamics import (
    ModelParams,
    ParticleState,
    Trajectory,
    alignment_rhs,
    integrate,
)
from .errors import (
    AmbiguousGrouping,
    CollisionalState,
    DivergentNormalization,
    FlockLabError,
    GridMismatch,
    NonFiniteState,
    PivotBudgetExceeded,
    RejectionOverflow,
    SnapshotMissing,
    StepBudgetExceeded,
    StepCollapse,
    SupportTooLarge,
    UnsupportedDimension,
)
from .meanfield import (
    FieldGrid,
    InitialSpec,
    LocalField,
    PairStudy,
    StudyReport,
    local_fields,
    mk_index,
    pair_alignment_study,
    refinement_study,
    sample_initial,
)
from .measures import (
    EmpiricalMeasure,
    dbl,
    dbl_with_potential,
    disintegrate,
    from_particles,
    marginal_x,
    momentum_marginal,
    phi_weighted_marginal,
    pushforward_free,
)
from .rng import CounterRNG
from .weakform import (
    MacroTestFunction,
    TestFunction,
    VectorTestFunction,
    continuity_residual,
    dissipation_margin,
    kinetic_battery,
    kinetic_weak_residual,
    kinetic_weak_residuals,
    macro_battery,
    momentum_residual,
    vector_battery,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
