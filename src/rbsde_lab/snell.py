"""Backward dynamic programming for the reflected equation on a lattice.

``solve_snell`` runs the discrete analogue of the smallest-supermartingale
construction: backward through the lattice it solves the one-step equation
implicitly in y, reflects at the obstacle, and reads the pushing increment
off the reflection gap (the discrete decomposition of the resulting
supermartingale into martingale minus nondecreasing part). ``snell_root``
runs the same pass but keeps no layer, for callers that read only Y0.

``brute_force_stopping_value`` is the independent oracle: an exhaustive
max-over-stop/continue recursion on the full (non-recombining) binary tree
of branch histories, which realizes the maximum of
E[sum_{s < tau} f(t_s) dt + reward(tau)] over all adapted stopping rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, lattice_expectation
from .problem import (
    ProblemSpec,
    SolutionTriple,
    check_terminal_dominates,
    obstacle_layers,
    terminal_values,
)

FP_TOL = 1e-14
FP_MAX_ITER = 100
TIE_TOL = 1e-12
ONE_STEP = "implicit one-step solve"


class ContractionError(ValueError):
    """Raised when the one-step implicit solve is not a contraction."""


class DataOverflowError(ValueError):
    """Raised when an iterate of a one-step solve is not finite: the data overflowed."""


def _require_contraction(spec: ProblemSpec, dt: float) -> None:
    if spec.lipschitz_kappa * dt >= 1.0:
        raise ContractionError(
            f"one-step implicit solve requires lipschitz_kappa * dt < 1; "
            f"got {spec.lipschitz_kappa} * {dt} = {spec.lipschitz_kappa * dt:.6g}"
        )


@dataclass(frozen=True)
class SnellOutput:
    """Solver output: the solution triple plus per-node diagnostics.

    ``continuation[k][j]`` is the pre-reflection value (layer n_steps repeats
    the terminal payoff); ``exercise_region[k][j]`` is True where the
    obstacle attains the max, i.e. obstacle >= continuation - tie_tol
    (terminal layer: where the payoff equals the obstacle).
    """

    triple: SolutionTriple
    continuation: tuple
    exercise_region: tuple


def estimate_z(lattice: Lattice, y_next: np.ndarray, k: int) -> np.ndarray:
    """Integrand estimate at step k from next-layer values (discrete delta hedge).

    Z[k][j] = (y_next[j+1] - y_next[j]) / (x_{k+1,j+1} - x_{k+1,j})
              * sigma(t_k, x_{k,j});
    zero where the lattice spacing is degenerate (sigma = 0). A leading axis
    of ``y_next`` is a batch of layers, estimated row by row.
    """
    y_next = np.asarray(y_next, dtype=float)
    if y_next.shape[-1] != k + 2:
        raise ValueError(f"expected {k + 2} next-layer values, got {y_next.shape[-1]}")
    x_next = lattice.nodes[k + 1]
    dx = np.diff(x_next)
    dy = np.diff(y_next, axis=-1)
    slope = np.divide(dy, dx, out=np.zeros_like(dy), where=dx != 0.0)
    sigma = lattice.model.vol(lattice.times[k], lattice.nodes[k])
    return slope * sigma


def fixed_point(update, y0, step=None, what=ONE_STEP, rows=None):
    """Iterate y <- update(y) from y0 until successive iterates settle.

    The stop test is relative to the iterate scale, above the float noise
    floor: max|y_new - y| <= FP_TOL * (1 + max|y_new|), the maxima taken
    over the last axis. A leading axis makes y0 a batch of rows, each with
    its own stop test: a settled row is frozen, so it ends on exactly the
    iterate it would end on alone. Returns the last iterate.

    A row not yet frozen whose largest change is not finite (its iterate or
    the one before is not) raises DataOverflowError at once; after
    FP_MAX_ITER updates ContractionError is raised. Both messages name
    ``what``, the caller's ``step``, a node and, for a batch, the row by
    its name in ``rows``.

    The 1-D and batch stop tests stay apart for speed: a batch iteration
    also reduces its (rows,) flags (``delta.max()``, ``done.any()``,
    ``done.all()``), each numpy call about 1 us however small the array,
    against 4-5 us for the rest of a reflected step's iteration. Sent
    through the batch branch as batches of one, ``solve_snell`` and
    ``snell_root`` ran about 1.5 times as long.
    """
    y = y0
    done = np.zeros(np.shape(y0)[:-1], dtype=bool)
    for _ in range(FP_MAX_ITER):
        y_new = update(y)
        change = np.abs(y_new - y)
        delta = change.max(axis=-1)
        settled = delta <= FP_TOL * (1.0 + np.abs(y_new).max(axis=-1))
        if not done.shape:
            if not delta < math.inf:
                raise _overflow_error(y, y_new, step, what, "")
            if settled:
                return y_new
        else:
            if not delta.max() < math.inf:
                blown = ~done & ~(delta < math.inf)
                if blown.any():
                    b = int(np.argmax(blown))
                    raise _overflow_error(y[b], y_new[b], step, what, f", {rows[b]}")
            if done.any():
                y_new = np.where(done[:, None], y, y_new)
            done |= settled
            if done.all():
                return y_new
        y = y_new
    at = "" if step is None else f" at step {step}"
    row = ""
    if done.shape:
        b = int(np.argmin(done))
        change, delta = change[b], delta[b]
        row = f", {rows[b]}"
    raise ContractionError(
        f"{what} did not converge in {FP_MAX_ITER} iterations{at}, "
        f"node {int(np.argmax(change))}{row} (last change {delta:.3e}); lipschitz_kappa * dt "
        f"must lie well below 1 for the fixed point to contract"
    )


def _overflow_error(y, y_new, step, what, row) -> DataOverflowError:
    """The error at the first non-finite node of the iterate y_new, else of its predecessor y."""
    value = y if np.isfinite(y_new).all() else y_new
    j = int(np.argmin(np.isfinite(value)))
    at = "" if step is None else f" at step {step}"
    return DataOverflowError(
        f"{what} reached the non-finite value {float(value[j])!r}{at}, node {j}{row}; "
        f"the terminal, obstacle or generator values overflowed the float range"
    )


def backward_layers(lattice: Lattice, spec: ProblemSpec, step, y_terminal):
    """Backward recursion shared by the reflected and the penalized solvers.

    Starting from the terminal layer ``y_terminal``, each layer k estimates
    z from the next layer, takes the conditional expectation
    cond = E_k[Y_{k+1}], evaluates the obstacle h(t_k, .) and calls
    ``step(k, cond, z, h_k)``, which returns the layer's (y, dk). Yields
    (k, y, z, dk) for k = n_steps - 1 down to 0 and holds only the layer
    after k, so a caller that keeps nothing runs in O(n_steps) memory. A
    (rows, n_steps + 1) ``y_terminal`` makes every layer a batch of rows.
    """
    _require_contraction(spec, lattice.dt)
    check_terminal_dominates(spec, lattice.times[-1], lattice.nodes[-1])
    y = y_terminal
    for k in range(lattice.n_steps - 1, -1, -1):
        h_k = np.asarray(spec.obstacle(lattice.times[k], lattice.nodes[k]), dtype=float)
        z = estimate_z(lattice, y, k)
        cond = lattice_expectation(lattice, y, k)
        y, dk = step(k, cond, z, h_k)
        yield k, y, z, dk


def backward_induction(lattice: Lattice, spec: ProblemSpec, step, rows=None) -> SolutionTriple:
    """Every layer of ``backward_layers``, collected into a SolutionTriple.

    With ``rows`` set, every layer is a (rows, k+1) batch that starts from
    one copy of the terminal payoff per row.
    """
    n = lattice.n_steps
    g = terminal_values(spec, lattice)
    y_layers = [None] * n + [g if rows is None else np.tile(g, (rows, 1))]
    z_layers = [None] * n
    dk_layers = [None] * n
    for k, y, z, dk in backward_layers(lattice, spec, step, y_layers[-1]):
        y_layers[k], z_layers[k], dk_layers[k] = y, z, dk
    return SolutionTriple(tuple(y_layers), tuple(z_layers), tuple(dk_layers), lattice)


def _reflected_step(generator, t, x, z, cond, h, dt, k, what):
    """One reflected step at time t on the states x; returns (y, dk, continuation).

    Solves y = max(h, c) with the continuation c = cond + dt * f(t, x, y, z)
    and splits off the increment dK = (h - c)^+. ``k`` and ``what`` name the
    step in a failed solve; h = -inf gives the unreflected step.
    """
    cont = None

    def reflect(y):
        # Keep the continuation behind the newest iterate: the converged
        # y is exactly max(h, c), so dK = (h - c)^+ splits it exactly.
        nonlocal cont
        cont = cond + dt * np.asarray(generator(t, x, y, z), dtype=float)
        return np.maximum(h, cont)

    y = fixed_point(reflect, np.maximum(h, cond), k, what)
    return y, np.maximum(h - cont, 0.0), cont


def solve_snell(lattice: Lattice, spec: ProblemSpec) -> SnellOutput:
    """Solve the discrete reflected equation by backward induction.

    Each step solves y = max(h, E_k[Y_{k+1}] + dt * f(t_k, x, y, z)) with z
    estimated explicitly from the next layer, then splits the reflected value
    into continuation c = E_k[Y_{k+1}] + dt * f(t_k, x, y, z) and increment
    dK = (h - c)^+. By construction Y >= h exactly, dK >= 0, dK > 0 only
    where Y = h, and the one-step backward equation holds to solver tolerance.
    """
    cont_layers = [None] * (lattice.n_steps + 1)
    exercised = [None] * (lattice.n_steps + 1)
    times, nodes, dt = lattice.times, lattice.nodes, lattice.dt

    def step(k, cond, z, h_k):
        y, dk, cont_layers[k] = _reflected_step(
            spec.generator, times[k], nodes[k], z, cond, h_k, dt, k, ONE_STEP
        )
        exercised[k] = h_k >= cont_layers[k] - TIE_TOL
        return y, dk

    triple = backward_induction(lattice, spec, step)
    g = triple.y[-1]
    h_T = np.asarray(spec.obstacle(lattice.times[-1], lattice.nodes[-1]), dtype=float)
    cont_layers[-1] = g
    exercised[-1] = np.abs(g - h_T) <= TIE_TOL
    return SnellOutput(triple, tuple(cont_layers), tuple(exercised))


def snell_root(lattice: Lattice, spec: ProblemSpec) -> float:
    """Y0 of ``solve_snell`` bit for bit, keeping no layer: O(n_steps) memory."""

    times, nodes, dt = lattice.times, lattice.nodes, lattice.dt

    def step(k, cond, z, h_k):
        return _reflected_step(
            spec.generator, times[k], nodes[k], z, cond, h_k, dt, k, ONE_STEP
        )[:2]

    for _, y, _, _ in backward_layers(lattice, spec, step, terminal_values(spec, lattice)):
        pass
    return float(y[0])


def optimal_stopping_times(out: SnellOutput, node_paths: np.ndarray) -> np.ndarray:
    """First step at which each node-index path enters the exercise region, else n_steps."""
    node_paths = np.asarray(node_paths, dtype=np.int64)
    n = out.triple.n_steps
    stops = np.full(node_paths.shape[0], n, dtype=np.int64)
    undecided = np.ones(node_paths.shape[0], dtype=bool)
    for k in range(n + 1):
        hit = undecided & out.exercise_region[k][node_paths[:, k]]
        stops[hit] = k
        undecided &= ~hit
        if not undecided.any():
            break
    return stops


def brute_force_stopping_value(lattice: Lattice, spec: ProblemSpec) -> float:
    """Optimal stopping value by exhaustive recursion over branch histories.

    Requires a generator that does not depend on (y, z); it is evaluated at
    f(t, x, 0, 0). Stopping at step k < n_steps collects the obstacle, at
    n_steps the terminal payoff (the obstacle with overridden endpoint).
    The recursion never recombines and never reuses the solver's layer
    arithmetic, so it is an independent check of solve_snell's root value.
    """
    n = lattice.n_steps
    if n > 12:
        raise ValueError("exhaustive stopping enumeration requires n_steps <= 12")
    dt = lattice.dt
    h = list(obstacle_layers(spec, lattice))
    g = terminal_values(spec, lattice)
    zeros = [np.zeros(k + 1) for k in range(n + 1)]
    f0 = [
        np.asarray(
            spec.generator(lattice.times[k], lattice.nodes[k], zeros[k], zeros[k]),
            dtype=float,
        )
        for k in range(n)
    ]

    def best(k: int, j: int) -> float:
        if k == n:
            return float(g[j])
        p = float(lattice.up_prob[k][j])
        continue_value = float(f0[k][j]) * dt + p * best(k + 1, j + 1) + (1.0 - p) * best(k + 1, j)
        return max(float(h[k][j]), continue_value)

    return best(0, 0)
