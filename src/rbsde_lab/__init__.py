"""Numerical laboratory for reflected backward equations with one lower obstacle.

Two independent probabilistic solvers (backward dynamic programming and
penalization), a finite-difference obstacle-PDE solver, and the estimate /
comparison / minimality checks that tie them together as executable
invariants.
"""

__version__ = "0.1.0"
