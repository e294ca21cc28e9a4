"""Simulation and verification laboratory for singular-kernel alignment
dynamics: particle integration, atomic measures with a flat metric, scalar
diagnostics, weak-formulation residuals, and mean-field refinement studies.

``import flocklab`` loads no submodule.  Every public name is imported from
the module that defines it (``from flocklab.dynamics import integrate``),
so a command-line process loads only the modules its subcommand runs.
"""

__version__ = "0.1.0"
