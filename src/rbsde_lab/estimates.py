"""A priori estimate and stability checks as empirical, falsifiable ratios.

The continuous theory bounds the solution by a functional of the data
(terminal value, generator at the origin, positive part of the obstacle)
with constants that exist but are never explicit. The lab therefore reports
the empirical ratio lhs / data-functional per instance. ``verify`` writes
the ratios and exits on the solution contract alone; their one gate is
``test_put_family_ratios_stay_within_recorded_baselines``, which holds
three put instances at N = 256 within 1 % of the baselines recorded in
``tests/data/estimate_baselines.json``.

All expectations are lattice-probability-weighted sums (noise-free);
suprema and time integrals along paths are node-conditioned as in
``rbsde_lab.problem``.

Each statistic of a solution is computed once. ``solution_moments`` takes
the solution's ``ValidationReport`` (it needs the Skorokhod flag and does
not validate again), computes the node weights once, and makes one sup
pass over the rows (Y, h^+) and one accumulation pass over the rows
(|f(t, x, 0, 0)| dt, Z^2 dt, dK). The Y, Z and K checks are arithmetic on
that result. ``check_stability`` takes two such results, reuses their data
functionals and weights, and runs only its own difference rows: one sup
pass over (dY, dh) and one accumulation pass over df.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .problem import (
    ProblemSpec,
    SolutionTriple,
    ValidationReport,
    lattice_accumulation_moment,
    lattice_sup_moment,
    lattice_terminal_moment,
    obstacle_layers,
    terminal_values,
    validate_solution,  # noqa: F401  (bench/tracing.py hooks validation under this name)
)


class EstimateReport(NamedTuple):
    """One side-by-side evaluation of an a priori estimate."""

    lhs: float
    rhs_data_functional: float
    empirical_ratio: float
    instance_id: str
    p: float


class StabilityReport(NamedTuple):
    """Data-variation estimate: how far two solutions drift apart."""

    delta_y_norm: float
    delta_xi_term: float
    delta_f_term: float
    delta_obstacle_term: float
    psi_t: float
    delta_data_norm: float
    ratio: float


class SolutionMoments(NamedTuple):
    """Every lattice statistic of one reflected solution that the checks read.

    ``weights`` is ``node_weights()`` of the solution's lattice; the moments use
    the exponent p of ``spec`` (p/2 for Z).
    """

    sol: SolutionTriple
    spec: ProblemSpec
    weights: list
    sup_y: float  # E sup |Y|^p
    xi_term: float  # E |xi|^p
    f_term: float  # E (int |f(s, X_s, 0, 0)| ds)^p
    obstacle_term: float  # E sup (h^+)^p
    z_term: float  # E (int Z^2 ds)^(p/2)
    k_term: float  # E K_T^p

    @property
    def data_functional(self) -> float:
        """E|xi|^p + E(int |f(s,0,0)| ds)^p + E sup (h^+)^p."""
        return self.xi_term + self.f_term + self.obstacle_term

    @property
    def y_and_generator(self) -> float:
        """E[sup |Y|^p] + E[(int |f(s,0,0)| ds)^p]: the data side of the Z and K estimates."""
        return self.sup_y + self.f_term


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def _generator_at_origin(spec: ProblemSpec, t, x) -> np.ndarray:
    """|f(t, x, 0, 0)| on one layer of states."""
    zeros = np.zeros(x.shape)
    return np.abs(np.asarray(spec.generator(t, x, zeros, zeros), dtype=float))


def solution_moments(
    sol: SolutionTriple, spec: ProblemSpec, report: ValidationReport
) -> SolutionMoments:
    """The statistics of a reflected solution, each computed in one pass over its lattice.

    ``report`` is ``validate_solution`` of the same solution; a solution
    that violates the Skorokhod condition is rejected.
    """
    if not report.skorokhod_ok:
        raise ValueError(
            f"solution violates the Skorokhod condition "
            f"(residual {report.skorokhod_residual:.3e}); estimate checks "
            f"require a reflected solution"
        )
    lattice = sol.lattice
    p = spec.p_exponent
    dt = lattice.dt
    weights = lattice.node_weights()
    sups = (
        np.array((y, np.maximum(h, 0.0)))
        for y, h in zip(sol.y, obstacle_layers(spec, lattice), strict=True)
    )
    sup_y, obstacle_term = lattice_sup_moment(lattice, sups, p, weights)
    addends = (
        np.array((_generator_at_origin(spec, t, x) * dt, z * z * dt, dk))
        for t, x, z, dk in zip(lattice.times, lattice.nodes, sol.z, sol.dk)
    )
    f_term, z_term, k_term = lattice_accumulation_moment(
        lattice, addends, (p, p / 2.0, p), weights
    )
    return SolutionMoments(
        sol=sol,
        spec=spec,
        weights=weights,
        sup_y=sup_y,
        xi_term=lattice_terminal_moment(terminal_values(spec, lattice), p, weights),
        f_term=f_term,
        obstacle_term=obstacle_term,
        z_term=z_term,
        k_term=k_term,
    )


def _report(lhs: float, rhs: float, moments: SolutionMoments, instance_id: str) -> EstimateReport:
    return EstimateReport(lhs, rhs, _ratio(lhs, rhs), instance_id, moments.spec.p_exponent)


def check_y_estimate(moments: SolutionMoments, instance_id: str = "") -> EstimateReport:
    """Ratio of E sup |Y|^p against the data functional."""
    return _report(moments.sup_y, moments.data_functional, moments, instance_id)


def check_z_estimate(moments: SolutionMoments, instance_id: str = "") -> EstimateReport:
    """Ratio of E (int |Z|^2 ds)^(p/2) against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    return _report(moments.z_term, moments.y_and_generator, moments, instance_id)


def check_k_estimate(moments: SolutionMoments, instance_id: str = "") -> EstimateReport:
    """Ratio of E K_T^p against E[sup |Y|^p + (int |f(s,0,0)| ds)^p]."""
    return _report(moments.k_term, moments.y_and_generator, moments, instance_id)


def check_stability(a: SolutionMoments, b: SolutionMoments) -> StabilityReport:
    """Variation estimate between two solved instances on one lattice.

    delta_y_norm = E sup |Y - Y'|^p is compared against
    E[|dxi|^p + (int |df(s, Y_s, Z_s)| ds)^p]
    + Psi_T^(1/p) * (E sup |dh|^p)^((p-1)/p),
    where Psi_T sums the two instances' data functionals and df is evaluated
    along the first solution. The node weights are those of ``a``.
    """
    lattice = a.sol.lattice
    if b.sol.lattice.n_steps != lattice.n_steps:
        raise ValueError("solutions have mismatched step counts")
    if not np.array_equal(b.sol.lattice.nodes[-1], lattice.nodes[-1]):
        raise ValueError("solutions were not computed on one lattice")

    spec_a, spec_b = a.spec, b.spec
    p = spec_a.p_exponent
    dt = lattice.dt
    weights = a.weights

    deltas = (
        np.array((ya - yb, ha - hb))
        for ya, yb, ha, hb in zip(
            a.sol.y,
            b.sol.y,
            obstacle_layers(spec_a, lattice),
            obstacle_layers(spec_b, lattice),
            strict=True,
        )
    )
    delta_y_norm, delta_obstacle_sup = lattice_sup_moment(lattice, deltas, p, weights)

    g_a = terminal_values(spec_a, lattice)
    g_b = terminal_values(spec_b, lattice)
    delta_xi_term = lattice_terminal_moment(g_a - g_b, p, weights)

    def delta_f(t, x, y, z):
        fa = np.asarray(spec_a.generator(t, x, y, z), dtype=float)
        fb = np.asarray(spec_b.generator(t, x, y, z), dtype=float)
        return np.abs(fa - fb) * dt

    df_addends = (
        delta_f(t, x, y, z) for t, x, y, z in zip(lattice.times, lattice.nodes, a.sol.y, a.sol.z)
    )
    delta_f_term = lattice_accumulation_moment(lattice, df_addends, p, weights)

    psi_t = a.data_functional + b.data_functional
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
