"""Penalization scheme: reflection replaced by the driver term n * (y - h)^-.

``solve_penalized`` runs the same backward loop as the reflected solver
(``snell.backward_layers``) with another scheme, for a whole list of
intensities at once: each layer holds one row per intensity. It never
clips to the obstacle; the constraint is enforced only through the penalty,
and the pushing increment is read off as dK = n * dt * (y - h)^-.
The penalty is handled implicitly inside the one-step solve (unconditionally
stable in n); the scalar equation

    y = E_k[Y_{k+1}] + dt * f(t, x, y, z) + n * dt * (y - h)^-

is piecewise in y and is solved exactly by computing the root of each branch
and selecting the consistent one (strict monotonicity in y guarantees a
unique root when lipschitz_kappa * dt < 1). For f = a * y + b the root of
each branch is

    y >= h:  (E_k[Y_{k+1}] + b * dt) / (1 - a * dt),
    y <  h:  (E_k[Y_{k+1}] + b * dt + n * dt * h) / (1 - a * dt + n * dt),

and the step takes the y >= h root where it lies at or above h, the y < h
root elsewhere. The backward loop solves that one step by
``snell.implicit_step`` for the generator at hand: once for an affine f, and
with f frozen at the iterate for any other, selecting at every iterate.
Only the selected root is checked for finiteness, so a root that is not
taken cannot fail the solve.

``run_sweep`` solves along an increasing penalty schedule and records the
monotone-convergence diagnostics toward the reflected (Snell) solution;
``penalized_root`` solves at one intensity and keeps only Y0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lattice import Lattice
from .problem import (
    ProblemSpec,
    SolutionTriple,
    check_schedule,
    lattice_accumulation_moment,
    lattice_expected_total,
    lattice_sup_moment,
    obstacle_layers,
    terminal_values,
)
from .snell import backward_layers, solve_snell


# as in solve_snell, a pass past the float range runs on without a warning
@np.errstate(over="ignore", invalid="ignore")
def solve_penalized(lattice: Lattice, spec: ProblemSpec, intensities) -> SolutionTriple:
    """Backward induction for every penalty intensity n >= 0 in one pass (n = 0: no reflection).

    Returns one batched SolutionTriple: each lattice layer holds one row per
    intensity, in order, and row b of every layer is the solution at
    intensity b, bit for bit the solve at that intensity alone. The
    intensities are checked by ``check_schedule``, so they must increase
    strictly.
    """
    ns = check_schedule(intensities)
    n = np.array(ns).reshape(-1, 1)
    dt, steps = lattice.dt, lattice.n_steps
    n_dt = n * dt

    def scheme(cond, h, a, b):
        plus = (cond + b * dt) / (1.0 - a * dt)
        minus = (cond + b * dt + n_dt * h) / (1.0 - a * dt + n_dt)
        # An n = 0 row has no y < h branch: it always takes y >= h, with dK = 0.
        return np.where((plus >= h) | (n == 0.0), plus, minus)

    y_layers = [None] * steps + [np.tile(terminal_values(spec, lattice), (len(ns), 1))]
    z_layers = [None] * steps
    dk_layers = [None] * steps
    rows = [f"intensity {v!r}" for v in ns]
    layers = backward_layers(lattice, spec, scheme, y_layers[-1], "penalized one-step solve", rows)
    for k, y, z, _, h_k in layers:
        y_layers[k], z_layers[k], dk_layers[k] = y, z, n_dt * np.maximum(h_k - y, 0.0)
    return SolutionTriple(tuple(y_layers), tuple(z_layers), tuple(dk_layers), lattice)


class PenalizationTrace(NamedTuple):
    """Per-intensity root values and convergence diagnostics of one sweep.

    ``monotonicity_violation[i]`` compares schedule entries i and i+1 (last
    entry 0); ``sup_gap_to_snell`` and ``negative_part_norm`` are sup-norm
    style quantities with forward-induced lattice weights.
    """

    n_values: tuple
    y0: tuple
    sup_gap_to_snell: tuple
    negative_part_norm: tuple
    monotonicity_violation: tuple
    k_t_root: tuple
    bound_quantity: tuple
    snell_y0: float


def penalized_root(lattice: Lattice, spec: ProblemSpec, n: float) -> float:
    """Y0 of the penalized solution at intensity ``n``.

    A penalized row does not depend on the other intensities, so for a
    schedule that ends in ``n`` this is ``run_sweep(...).y0[-1]`` bit for
    bit, without the other rows and the sweep diagnostics.
    """
    return float(solve_penalized(lattice, spec, [n]).y[0][0, 0])


def run_sweep(lattice: Lattice, spec: ProblemSpec, schedule) -> PenalizationTrace:
    """Solve along an increasing penalty schedule and collect diagnostics.

    One backward pass solves every intensity. The diagnostics then take two
    forward passes over all intensities at once, with the node weights
    computed once, reading one layer at a time: one sup pass over the rows
    (Y - Y_snell, (h - Y)^+, Y) and one accumulation pass over the rows
    (Z^2 dt, dK), with the exponents p / 2 and p.
    """
    ns = check_schedule(schedule)

    snell = solve_snell(lattice, spec)
    y_snell = snell.triple.y
    h = obstacle_layers(spec, lattice)
    p = spec.p_exponent
    dt = lattice.dt
    weights = lattice.node_weights()
    b = len(ns)

    batch = solve_penalized(lattice, spec, ns)
    sups = lattice_sup_moment(
        lattice,
        (
            np.concatenate((y - ys, np.maximum(hk - y, 0.0), y))
            for y, ys, hk in zip(batch.y, y_snell, h)
        ),
        p,
        weights,
    )
    accs = lattice_accumulation_moment(
        lattice,
        (np.concatenate((z * z * dt, dk)) for z, dk in zip(batch.z, batch.dk)),
        [p / 2.0] * b + [p] * b,
        weights,
    )
    k_roots = lattice_expected_total(batch.dk, weights)
    # Schedule entry i against i+1: the largest rise of Y over any node.
    mono = np.zeros(b - 1)
    for y in batch.y:
        mono = np.maximum(mono, np.max(y[:-1] - y[1:], axis=-1))

    return PenalizationTrace(
        n_values=tuple(ns),
        y0=tuple(batch.y[0][:, 0].tolist()),
        sup_gap_to_snell=tuple(m ** (1.0 / p) for m in sups[:b]),
        negative_part_norm=tuple(m ** (1.0 / p) for m in sups[b : 2 * b]),
        monotonicity_violation=tuple(mono.tolist()) + (0.0,),
        k_t_root=tuple(k_roots),
        bound_quantity=tuple(
            a + z + k for a, z, k in zip(sups[2 * b :], accs[:b], accs[b:], strict=True)
        ),
        snell_y0=float(y_snell[0][0]),
    )


class BoundReport(NamedTuple):
    """No-blow-up check: quantities stay within 1.05x the first-half maximum."""

    n_values: tuple
    quantities: tuple
    threshold: float
    max_quantity: float
    passed: bool


def check_uniform_bound(trace: PenalizationTrace) -> BoundReport:
    """Assert the p-norm quantity does not blow up along the schedule.

    The reference level is the maximum over the first half of the schedule
    (first (len+1)//2 entries); the check passes when every entry stays
    below 1.05 times that level. ``run_sweep``'s ``check_schedule`` keeps
    the trace nonempty.
    """
    q = trace.bound_quantity
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
