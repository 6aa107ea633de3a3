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
    obstacle_values,
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


def _generator_at_origin_moment(spec: ProblemSpec, lattice: Lattice, power: float) -> float:
    """E[(sum_k |f(t_k, x_k, 0, 0)| dt)^power] with node-conditioned accumulation."""
    dt = lattice.dt
    addends = []
    for k in range(lattice.n_steps):
        zeros = np.zeros(k + 1)
        addends.append(
            np.abs(
                np.asarray(
                    spec.generator(lattice.times[k], lattice.nodes[k], zeros, zeros),
                    dtype=float,
                )
            )
            * dt
        )
    return lattice_accumulation_moment(lattice, addends, power)


def data_functional(spec: ProblemSpec, lattice: Lattice) -> float:
    """E|xi|^p + E(int |f(s,0,0)| ds)^p + E sup (h^+)^p on the lattice."""
    p = spec.p_exponent
    xi_term = lattice_terminal_moment(lattice, terminal_values(spec, lattice), p)
    f_term = _generator_at_origin_moment(spec, lattice, p)
    h_plus = [np.maximum(hk, 0.0) for hk in obstacle_values(spec, lattice)]
    obstacle_term = lattice_sup_moment(lattice, h_plus, p)
    return xi_term + f_term + obstacle_term


def check_y_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E sup |Y|^p against the data functional."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    lhs = lattice_sup_moment(lattice, list(sol.y), p)
    rhs = data_functional(spec, lattice)
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, p)


def check_z_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E (int |Z|^2 ds)^(p/2) against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    dt = lattice.dt
    lhs = lattice_accumulation_moment(lattice, [z * z * dt for z in sol.z], p / 2.0)
    rhs = lattice_sup_moment(lattice, list(sol.y), p) + _generator_at_origin_moment(
        spec, lattice, p
    )
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, p)


def check_k_estimate(
    sol: SolutionTriple, spec: ProblemSpec, lattice: Lattice, instance_id: str = ""
) -> EstimateReport:
    """Ratio of E K_T^p against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    _require_skorokhod(sol, spec, lattice)
    p = spec.p_exponent
    lhs = lattice_accumulation_moment(lattice, list(sol.dk), p)
    rhs = lattice_sup_moment(lattice, list(sol.y), p) + _generator_at_origin_moment(
        spec, lattice, p
    )
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

    delta_y = [ya - yb for ya, yb in zip(sol_a.y, sol_b.y)]
    delta_y_norm = lattice_sup_moment(lattice, delta_y, p)

    g_a = terminal_values(spec_a, lattice)
    g_b = terminal_values(spec_b, lattice)
    delta_xi_term = lattice_terminal_moment(lattice, g_a - g_b, p)

    df_addends = []
    for k in range(lattice.n_steps):
        t, x = lattice.times[k], lattice.nodes[k]
        fa = np.asarray(spec_a.generator(t, x, sol_a.y[k], sol_a.z[k]), dtype=float)
        fb = np.asarray(spec_b.generator(t, x, sol_a.y[k], sol_a.z[k]), dtype=float)
        df_addends.append(np.abs(fa - fb) * dt)
    delta_f_term = lattice_accumulation_moment(lattice, df_addends, p)

    h_a = obstacle_values(spec_a, lattice)
    h_b = obstacle_values(spec_b, lattice)
    delta_h = [ha - hb for ha, hb in zip(h_a, h_b)]
    delta_obstacle_sup = lattice_sup_moment(lattice, delta_h, p)

    psi_t = data_functional(spec_a, lattice) + data_functional(spec_b, lattice)
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
