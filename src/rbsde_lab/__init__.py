"""Numerical laboratory for reflected backward equations with one lower obstacle.

Two independent probabilistic solvers (backward dynamic programming and
penalization), a finite-difference obstacle-PDE solver, and the estimate /
comparison / minimality checks that tie them together as executable
invariants.
"""

from .lattice import (
    ForwardModel,
    Lattice,
    TimeGrid,
    build_lattice,
    lattice_expectation,
    sample_node_paths,
)
from .penalty import PenalizationTrace, check_uniform_bound, run_sweep, solve_penalized
from .pde import (
    ChiParams,
    PdeField,
    PdeGrid,
    chi_supersolution_check,
    feynman_kac_check,
    growth_class_check,
    solve_pde_penalized,
    solve_pde_projected,
)
from .problem import (
    ProblemSpec,
    SolutionTriple,
    ValidationReport,
    make_generator,
    make_obstacle,
    make_terminal,
    mp_norm,
    sp_norm,
    validate_solution,
)
from .snell import (
    SnellOutput,
    brute_force_stopping_value,
    estimate_z,
    snell_root,
    solve_snell,
)

__all__ = [
    "ForwardModel",
    "Lattice",
    "TimeGrid",
    "build_lattice",
    "lattice_expectation",
    "sample_node_paths",
    "PenalizationTrace",
    "check_uniform_bound",
    "run_sweep",
    "solve_penalized",
    "ChiParams",
    "PdeField",
    "PdeGrid",
    "chi_supersolution_check",
    "feynman_kac_check",
    "growth_class_check",
    "solve_pde_penalized",
    "solve_pde_projected",
    "ProblemSpec",
    "SolutionTriple",
    "ValidationReport",
    "make_generator",
    "make_obstacle",
    "make_terminal",
    "mp_norm",
    "sp_norm",
    "validate_solution",
    "SnellOutput",
    "brute_force_stopping_value",
    "estimate_z",
    "snell_root",
    "solve_snell",
]

__version__ = "0.1.0"
