"""Penalization scheme: reflection replaced by the driver term n * (y - h)^-.

``solve_penalized`` runs the same backward induction as the reflected solver
(``snell.backward_induction``) with another one-step map: it never clips to
the obstacle; the constraint is enforced only through the penalty, and the
pushing increment is read off as dK = n * dt * (y - h)^-.
The penalty is handled implicitly inside the one-step solve (unconditionally
stable in n); the scalar equation

    y = E_k[Y_{k+1}] + dt * f(t, x, y, z) + n * dt * (y - h)^-

is piecewise in y and is solved exactly by computing the fixed point of each
branch and selecting the consistent one (strict monotonicity in y guarantees
a unique root when lipschitz_kappa * dt < 1).

``run_sweep`` solves along an increasing penalty schedule and records the
monotone-convergence diagnostics toward the reflected (Snell) solution;
``penalized_root`` solves only at the schedule's last intensity.
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
    obstacle_values,
)
from .snell import backward_induction, fixed_point, solve_snell


class BranchSelectionError(ValueError):
    """Raised when neither branch of the penalized one-step equation is consistent."""


def _penalized_step(f, cond, h_layer, dt, n, k):
    """Exact root of the piecewise one-step equation at step k; returns (y, dk)."""
    # Branch y >= h: plain implicit step.
    y_plus = fixed_point(
        lambda y: cond + dt * f(y), cond, k, "penalized one-step solve (branch y >= h)"
    )
    if n == 0.0:
        return y_plus, np.zeros_like(y_plus)

    # Branch y < h: penalty active, contraction factor kappa*dt / (1 + n*dt).
    scale = 1.0 + n * dt
    y_minus = fixed_point(
        lambda y: (cond + dt * f(y) + n * dt * h_layer) / scale,
        (cond + n * dt * h_layer) / scale,
        k,
        "penalized one-step solve (branch y < h)",
    )

    take_plus = y_plus >= h_layer
    # The selected branch must be self-consistent; with kappa*dt < 1 the
    # equation is strictly increasing in y, so this can only fail on ties.
    bad = ~take_plus & (y_minus > h_layer + 1e-9 * (1.0 + np.abs(h_layer)))
    if bad.any():
        j = int(np.argmax(bad))
        raise BranchSelectionError(
            f"no consistent branch in penalized one-step solve at step {k}, node {j} "
            f"(y >= h branch {y_plus[j]!r}, y < h branch {y_minus[j]!r}, h {h_layer[j]!r})"
        )
    y = np.where(take_plus, y_plus, y_minus)
    dk = n * dt * np.maximum(h_layer - y, 0.0)
    return y, dk


def solve_penalized(lattice: Lattice, spec: ProblemSpec, n: float) -> SolutionTriple:
    """Backward induction with penalty intensity n >= 0 (n = 0: no reflection)."""
    if n < 0.0:
        raise ValueError("penalty intensity must be >= 0")
    n = float(n)

    def step(k, cond, z, h_k):
        t, x = lattice.times[k], lattice.nodes[k]

        def f(y):
            return np.asarray(spec.generator(t, x, y, z), dtype=float)

        return _penalized_step(f, cond, h_k, lattice.dt, n, k)

    return backward_induction(lattice, spec, step)


@dataclass(frozen=True)
class PenalizationTrace:
    """Per-intensity solutions and convergence diagnostics of one sweep.

    ``monotonicity_violation[i]`` compares schedule entries i and i+1 (last
    entry 0); ``sup_gap_to_snell`` and ``negative_part_norm`` are sup-norm
    style quantities with forward-induced lattice weights.
    """

    n_values: tuple
    solutions: tuple
    y0: tuple
    sup_gap_to_snell: tuple
    negative_part_norm: tuple
    monotonicity_violation: tuple
    k_t_root: tuple
    bound_quantity: tuple
    snell_y0: float


def _bound_quantity(sol: SolutionTriple, p: float, lattice: Lattice) -> float:
    dt = lattice.dt
    y_part = lattice_sup_moment(lattice, list(sol.y), p)
    z_addends = [z * z * dt for z in sol.z]
    z_part = lattice_accumulation_moment(lattice, z_addends, p / 2.0)
    k_part = lattice_accumulation_moment(lattice, list(sol.dk), p)
    return y_part + z_part + k_part


def _check_schedule(schedule) -> list:
    """The schedule as floats; it must be nonempty, strictly increasing and >= 0."""
    ns = [float(v) for v in schedule]
    if not ns:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule must be strictly increasing")
    if ns[0] < 0.0:
        raise ValueError("schedule entries must be >= 0")
    return ns


def penalized_root(lattice: Lattice, spec: ProblemSpec, schedule) -> float:
    """Y0 of the penalized solution at the schedule's last intensity.

    A penalized solve does not depend on the other intensities, so this is
    ``run_sweep(lattice, spec, schedule).y0[-1]`` bit for bit, without the
    other solves and the sweep diagnostics.
    """
    ns = _check_schedule(schedule)
    return float(solve_penalized(lattice, spec, ns[-1]).y[0][0])


def run_sweep(lattice: Lattice, spec: ProblemSpec, schedule) -> PenalizationTrace:
    """Solve along an increasing penalty schedule and collect diagnostics."""
    ns = _check_schedule(schedule)

    snell = solve_snell(lattice, spec)
    y_snell = list(snell.triple.y)
    h = obstacle_values(spec, lattice)
    p = spec.p_exponent

    solutions = [solve_penalized(lattice, spec, n) for n in ns]
    y0 = [float(s.y[0][0]) for s in solutions]
    gaps = [
        lattice_sup_moment(
            lattice, [ya - yb for ya, yb in zip(s.y, y_snell)], p
        ) ** (1.0 / p)
        for s in solutions
    ]
    neg_norms = [
        lattice_sup_moment(
            lattice, [np.maximum(hk - yk, 0.0) for hk, yk in zip(h, s.y)], p
        ) ** (1.0 / p)
        for s in solutions
    ]
    mono = []
    for a, b in zip(solutions, solutions[1:]):
        mono.append(
            max(float(np.max(ya - yb)) for ya, yb in zip(a.y, b.y))
        )
    mono.append(0.0)
    k_roots = [s.expected_k_total() for s in solutions]
    bounds = [_bound_quantity(s, p, lattice) for s in solutions]

    return PenalizationTrace(
        n_values=tuple(ns),
        solutions=tuple(solutions),
        y0=tuple(y0),
        sup_gap_to_snell=tuple(gaps),
        negative_part_norm=tuple(neg_norms),
        monotonicity_violation=tuple(max(v, 0.0) for v in mono),
        k_t_root=tuple(k_roots),
        bound_quantity=tuple(bounds),
        snell_y0=float(snell.triple.y[0][0]),
    )


@dataclass(frozen=True)
class BoundReport:
    """No-blow-up check: quantities stay within 1.05x the first-half maximum."""

    n_values: tuple
    quantities: tuple
    threshold: float
    max_quantity: float
    passed: bool


def check_uniform_bound(trace: PenalizationTrace, spec: ProblemSpec) -> BoundReport:
    """Assert the p-norm quantity does not blow up along the schedule.

    The reference level is the maximum over the first half of the schedule
    (first (len+1)//2 entries); the check passes when every entry stays
    below 1.05 times that level.
    """
    q = trace.bound_quantity
    if not q:
        raise ValueError("trace is empty")
    half = (len(q) + 1) // 2
    threshold = 1.05 * max(q[:half])
    max_q = max(q)
    return BoundReport(
        n_values=trace.n_values,
        quantities=q,
        threshold=threshold,
        max_quantity=max_q,
        passed=max_q <= threshold,
    )
