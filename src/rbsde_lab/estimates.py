"""A priori estimate and stability checks as empirical, falsifiable ratios.

The continuous theory bounds the solution by a functional of the data
(terminal value, generator at the origin, positive part of the obstacle)
with constants that exist but are never explicit. The lab therefore records
the empirical ratio lhs / data-functional per instance and regression-gates
it: re-runs must not drift above a recorded baseline.

All expectations are lattice-probability-weighted sums (noise-free);
suprema and time integrals along paths are node-conditioned as in
``rbsde_lab.problem``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .problem import (
    ProblemSpec,
    SolutionTriple,
    lattice_accumulation_moment,
    lattice_sup_moment,
    lattice_terminal_moment,
    obstacle_layers,
    terminal_values,
    validate_solution,
)


@dataclass(frozen=True)
class EstimateReport:
    """One side-by-side evaluation of an a priori estimate."""

    lhs: float
    rhs_data_functional: float
    empirical_ratio: float
    instance_id: str
    p: float


@dataclass(frozen=True)
class StabilityReport:
    """Data-variation estimate: how far two solutions drift apart."""

    delta_y_norm: float
    delta_xi_term: float
    delta_f_term: float
    delta_obstacle_term: float
    psi_t: float
    delta_data_norm: float
    ratio: float


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def _require_skorokhod(sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice) -> None:
    report = validate_solution(sol, spec, lattice)
    if not report.skorokhod_ok:
        raise ValueError(
            f"solution violates the Skorokhod condition "
            f"(residual {report.skorokhod_residual:.3e}); estimate checks "
            f"require a reflected solution"
        )


def _generator_at_origin_moment(
    spec: ProblemSpec, lattice: Lattice, power: float, weights: list
) -> float:
    """E[(sum_k |f(t_k, x_k, 0, 0)| dt)^power] with node-conditioned accumulation."""
    dt = lattice.dt

    def addend(t, x):
        zeros = np.zeros_like(x)
        return np.abs(np.asarray(spec.generator(t, x, zeros, zeros), dtype=float)) * dt

    addends = (addend(t, x) for t, x in zip(lattice.times, lattice.nodes[:-1]))
    return lattice_accumulation_moment(lattice, addends, power, weights)


def data_functional(spec: ProblemSpec, lattice: Lattice, weights: list) -> float:
    """E|xi|^p + E(int |f(s,0,0)| ds)^p + E sup (h^+)^p with the lattice's node weights."""
    p = spec.p_exponent
    xi_term = lattice_terminal_moment(terminal_values(spec, lattice), p, weights)
    f_term = _generator_at_origin_moment(spec, lattice, p, weights)
    h_plus = (np.maximum(hk, 0.0) for hk in obstacle_layers(spec, lattice))
    obstacle_term = lattice_sup_moment(lattice, h_plus, p, weights)
    return xi_term + f_term + obstacle_term


def _y_and_generator_rhs(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, weights: list
) -> float:
    """E[sup |Y|^p] + E[(int |f(s,0,0)| ds)^p]: the data side of the Z and K estimates."""
    p = spec.p_exponent
    return lattice_sup_moment(lattice, sol.y, p, weights) + _generator_at_origin_moment(
        spec, lattice, p, weights
    )


def check_y_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E sup |Y|^p against the data functional."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    weights = lattice.node_weights()
    lhs = lattice_sup_moment(lattice, sol.y, p, weights)
    rhs = data_functional(spec, lattice, weights)
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, p)


def check_z_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E (int |Z|^2 ds)^(p/2) against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    dt = lattice.dt
    weights = lattice.node_weights()
    lhs = lattice_accumulation_moment(lattice, (z * z * dt for z in sol.z), p / 2.0, weights)
    rhs = _y_and_generator_rhs(sol, spec, lattice, weights)
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, p)


def check_k_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E K_T^p against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    weights = lattice.node_weights()
    lhs = lattice_accumulation_moment(lattice, sol.dk, p, weights)
    rhs = _y_and_generator_rhs(sol, spec, lattice, weights)
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, p)


def check_stability(
    sol_a: SolutionTriple,
    sol_b: SolutionTriple,
    spec_a: ProblemSpec,
    spec_b: ProblemSpec,
    lattice: Lattice,
) -> StabilityReport:
    """Variation estimate between two solved instances on one lattice.

    delta_y_norm = E sup |Y - Y'|^p is compared against
    E[|dxi|^p + (int |df(s, Y_s, Z_s)| ds)^p]
    + Psi_T^(1/p) * (E sup |dh|^p)^((p-1)/p),
    where Psi_T sums the two instances' data functionals and df is evaluated
    along the first solution.
    """
    if sol_a.lattice.n_steps != lattice.n_steps or sol_b.lattice.n_steps != lattice.n_steps:
        raise ValueError("solutions and lattice have mismatched step counts")
    if not np.array_equal(sol_a.lattice.nodes[-1], lattice.nodes[-1]) or not np.array_equal(
        sol_b.lattice.nodes[-1], lattice.nodes[-1]
    ):
        raise ValueError("solutions were not computed on the given lattice")

    p = spec_a.p_exponent
    dt = lattice.dt
    weights = lattice.node_weights()

    delta_y = (ya - yb for ya, yb in zip(sol_a.y, sol_b.y))
    delta_y_norm = lattice_sup_moment(lattice, delta_y, p, weights)

    g_a = terminal_values(spec_a, lattice)
    g_b = terminal_values(spec_b, lattice)
    delta_xi_term = lattice_terminal_moment(g_a - g_b, p, weights)

    def delta_f(t, x, y, z):
        fa = np.asarray(spec_a.generator(t, x, y, z), dtype=float)
        fb = np.asarray(spec_b.generator(t, x, y, z), dtype=float)
        return np.abs(fa - fb) * dt

    df_addends = (
        delta_f(t, x, y, z) for t, x, y, z in zip(lattice.times, lattice.nodes, sol_a.y, sol_a.z)
    )
    delta_f_term = lattice_accumulation_moment(lattice, df_addends, p, weights)

    h_a = obstacle_layers(spec_a, lattice)
    h_b = obstacle_layers(spec_b, lattice)
    delta_h = (ha - hb for ha, hb in zip(h_a, h_b))
    delta_obstacle_sup = lattice_sup_moment(lattice, delta_h, p, weights)

    psi_t = data_functional(spec_a, lattice, weights) + data_functional(spec_b, lattice, weights)
    delta_data = (
        delta_xi_term
        + delta_f_term
        + psi_t ** (1.0 / p) * delta_obstacle_sup ** ((p - 1.0) / p)
    )
    return StabilityReport(
        delta_y_norm=delta_y_norm,
        delta_xi_term=delta_xi_term,
        delta_f_term=delta_f_term,
        delta_obstacle_term=delta_obstacle_sup,
        psi_t=psi_t,
        delta_data_norm=delta_data,
        ratio=_ratio(delta_y_norm, delta_data),
    )
