"""Backward dynamic programming for the reflected equation on a lattice.

``solve_snell`` runs the discrete analogue of the smallest-supermartingale
construction: backward through the lattice it solves the one-step equation
implicitly in y, reflects at the obstacle, and reads the pushing increment
off the reflection gap (the discrete decomposition of the resulting
supermartingale into martingale minus nondecreasing part). ``snell_root``
runs the same pass for callers that read only Y0: it keeps no layer and
computes only Y.

The independent oracle, ``diagnostics.brute_force_stopping_value``, is an
exhaustive max-over-stop/continue recursion on the full (non-recombining)
binary tree of branch histories; only the acceptance criteria and the tests
run it.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .lattice import Lattice, branch_probability, lattice_expectation
from .problem import (
    AffineGenerator,
    ProblemSpec,
    SolutionTriple,
    check_terminal_dominates,
    terminal_values,
)

FP_TOL = 1e-14
FP_MAX_ITER = 100
TIE_TOL = 1e-12
ONE_STEP = "implicit one-step solve"


class ContractionError(ValueError):
    """Raised when the one-step implicit solve is not a contraction."""


class DataOverflowError(ValueError):
    """Raised when an exact step or an iterate is not finite: the data overflowed."""


def require_contraction(spec: ProblemSpec, dt: float) -> None:
    """Raise unless lipschitz_kappa * dt < 1, which makes the one-step implicit solve contract.

    ``ProblemSpec`` bounds an affine generator's |y_coeff| by lipschitz_kappa,
    so this also keeps the divisor 1 - y_coeff * dt of its exact step > 0.
    """
    if spec.lipschitz_kappa * dt >= 1.0:
        raise ContractionError(
            f"one-step implicit solve requires lipschitz_kappa * dt < 1; "
            f"got {spec.lipschitz_kappa} * {dt} = {spec.lipschitz_kappa * dt:.6g}"
        )


class SnellOutput(NamedTuple):
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
              * sigma(x_{k,j});
    zero where the lattice spacing is degenerate (sigma = 0). A leading axis
    of ``y_next`` is a batch of layers, estimated row by row.
    """
    y_next = np.asarray(y_next, dtype=float)
    if y_next.shape[-1] != k + 2:
        raise ValueError(f"expected {k + 2} next-layer values, got {y_next.shape[-1]}")
    x_next = lattice.nodes[k + 1]
    dx = x_next[1:] - x_next[:-1]
    dy = y_next[..., 1:] - y_next[..., :-1]
    slope = np.divide(dy, dx, out=np.zeros(dy.shape), where=dx != 0.0)
    sigma = lattice.model.vol(lattice.nodes[k])
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
    """
    y = y0
    done = np.zeros(np.shape(y0)[:-1], dtype=bool)
    for _ in range(FP_MAX_ITER):
        y_new = update(y)
        change = np.abs(y_new - y)
        delta = change.max(axis=-1)
        settled = delta <= FP_TOL * (1.0 + np.abs(y_new).max(axis=-1))
        if not delta.max() < math.inf:
            blown = ~done & ~(delta < math.inf)
            if blown.any():
                b, row = _row(blown, rows)
                raise _overflow_error(y[b], y_new[b], step, what, row)
        if done.any():
            y_new = np.where(done[..., None], y, y_new)
        done |= settled
        if done.all():
            return y_new
        y = y_new
    at = "" if step is None else f" at step {step}"
    b, row = _row(~done, rows)
    raise ContractionError(
        f"{what} did not converge in {FP_MAX_ITER} iterations{at}, "
        f"node {int(np.argmax(change[b]))}{row} (last change {delta[b]:.3e}); lipschitz_kappa "
        f"* dt must lie well below 1 for the fixed point to contract"
    )


def _row(bad, rows):
    """(index, message suffix) of the first row flagged in ``bad``: ((), "") for a single row."""
    if not np.ndim(bad):
        return (), ""
    b = int(np.argmax(bad))
    return (b,), f", {rows[b]}"


def _overflow_error(y, y_new, step, what, row) -> DataOverflowError:
    """The error at the first non-finite node of the iterate y_new, else of its predecessor y."""
    value = y if np.isfinite(y_new).all() else y_new
    j = int(np.argmin(np.isfinite(value)))
    at = "" if step is None else f" at step {step}"
    return DataOverflowError(
        f"{what} reached the non-finite value {float(value[j])!r}{at}, node {j}{row}; "
        f"the terminal, obstacle or generator values overflowed the float range"
    )


def _require_finite(y, step, what, rows=None) -> None:
    """Raise DataOverflowError at the first non-finite value of a layer or of a batch of rows.

    An exact step has no iterate for ``fixed_point`` to test, so
    ``implicit_step`` tests its value with this; the message is the one
    ``fixed_point`` raises.
    """
    finite = np.isfinite(y)
    if finite.all():
        return
    b, row = _row(~finite.all(axis=-1), rows)
    raise _overflow_error(y[b], y[b], step, what, row)


def implicit_step(generator, step, frozen, k, what, rows=None):
    """Solve one implicit step of a scheme for the generator f; returns the step's value.

    ``step(a, b)`` is the scheme's exact step for the affine generator
    f = a * y + b, and ``frozen(y)`` is f at the iterate y. An
    ``AffineGenerator`` takes one exact step at its coefficients. Any other
    f is the exact step with f frozen at the iterate, iterated by
    ``fixed_point`` from the step with f = 0. ``k``, ``what`` and ``rows``
    name the step, as in ``fixed_point``, when a value is not finite or
    the iteration does not settle.
    """
    if isinstance(generator, AffineGenerator):
        y = step(generator.y_coeff, generator.const)
        _require_finite(y, k, what, rows)
        return y
    return fixed_point(lambda y: step(0.0, frozen(y)), step(0.0, 0.0), k, what, rows)


def backward_layers(
    lattice: Lattice, spec: ProblemSpec, scheme, y_terminal, what=ONE_STEP, rows=None
):
    """Backward recursion shared by the reflected and the penalized solvers.

    Starting from the terminal layer ``y_terminal``, each layer k takes the
    conditional expectation cond = E_k[Y_{k+1}], the integrand estimate
    z = ``estimate_z`` from the next layer and the obstacle h_k = h(t_k, .),
    and solves the layer's y by one ``implicit_step``: ``scheme(cond, h_k,
    a, b)`` is the scheme's exact step for f = a * y + b, and ``what`` and
    ``rows`` name a failed solve. Yields (k, y, z, cond, h_k) for
    k = n_steps - 1 down to 0 and holds only the layer after k, so a caller
    that keeps nothing runs in O(n_steps) memory. A (rows, n_steps + 1)
    ``y_terminal`` makes every layer a batch of rows. A decorator would not
    cover the iteration, so each caller sets the ``np.errstate``.
    """
    require_contraction(spec, lattice.dt)
    check_terminal_dominates(spec, lattice.times[-1], lattice.nodes[-1])
    f = spec.generator
    y = y_terminal
    for k in range(lattice.n_steps - 1, -1, -1):
        t, x = lattice.times[k], lattice.nodes[k]
        h_k = np.asarray(spec.obstacle(t, x), dtype=float)
        cond = lattice_expectation(lattice, y, k)
        z = estimate_z(lattice, y, k)

        def frozen(v):
            return np.asarray(f(t, x, v, z), dtype=float)

        y = implicit_step(f, lambda a, b: scheme(cond, h_k, a, b), frozen, k, what, rows)
        yield k, y, z, cond, h_k


def _reflected_scheme(dt: float):
    """The reflected lattice step y = max(h, c), c = cond + dt * f, for f = a * y + b.

    Its exact step is y = max(h, (cond + b * dt) / (1 - a * dt)).
    """

    def scheme(cond, h, a, b):
        return np.maximum(h, (cond + b * dt) / (1.0 - a * dt))

    return scheme


# Data past the float range run on to inf or nan without a warning, and the
# step's finiteness check names the first such step and node.
@np.errstate(over="ignore", invalid="ignore")
def solve_snell(lattice: Lattice, spec: ProblemSpec) -> SnellOutput:
    """Solve the discrete reflected equation by backward induction.

    Each step solves y = max(h, E_k[Y_{k+1}] + dt * f(t_k, x, y, z)) with z
    estimated explicitly from the next layer, then splits the reflected value
    into continuation c = E_k[Y_{k+1}] + dt * f(t_k, x, y, z), with f
    evaluated at the solved y, and increment dK = (h - c)^+. By
    construction Y >= h exactly, dK >= 0, dK > 0 only where Y = h, and the
    one-step backward equation holds to solver tolerance.
    """
    n = lattice.n_steps
    times, nodes, dt = lattice.times, lattice.nodes, lattice.dt
    g = terminal_values(spec, lattice)
    y_layers = [None] * n + [g]
    z_layers = [None] * n
    dk_layers = [None] * n
    cont_layers = [None] * n + [g]
    exercised = [None] * (n + 1)
    for k, y, z, cond, h_k in backward_layers(lattice, spec, _reflected_scheme(dt), g):
        f = np.asarray(spec.generator(times[k], nodes[k], y, z), dtype=float)
        cont_layers[k] = cont = cond + dt * f
        exercised[k] = h_k >= cont - TIE_TOL
        y_layers[k], z_layers[k], dk_layers[k] = y, z, np.maximum(h_k - cont, 0.0)
    h_T = np.asarray(spec.obstacle(times[-1], nodes[-1]), dtype=float)
    exercised[-1] = np.abs(g - h_T) <= TIE_TOL
    triple = SolutionTriple(tuple(y_layers), tuple(z_layers), tuple(dk_layers), lattice)
    return SnellOutput(triple, tuple(cont_layers), tuple(exercised))


# as in solve_snell, a pass past the float range runs on without a warning
@np.errstate(over="ignore", invalid="ignore")
def snell_root(lattice: Lattice, spec: ProblemSpec) -> float:
    """Y0 of ``solve_snell`` bit for bit, keeping no layer: O(n_steps) memory.

    For an ``AffineGenerator`` f = a * y + b each layer is the one
    expression max(h, (p * y[1:] + q * y[:-1] + b * dt) / (1 - a * dt)):
    the operations of ``lattice_expectation`` and the reflected scheme, in
    their order, with q = 1 - p, b * dt and 1 - a * dt computed once per
    pass. Its values are checked once, at the root, where
    ``_root_check_suffices`` says that this suffices. The checked pass, the
    reflected ``backward_layers`` with nothing kept but the last y, runs
    instead for any other generator, for data that ``_root_check_suffices``
    refuses, and after a root that is not finite, to name the first
    non-finite step and node. It estimates Z on every layer.
    """
    times, nodes, dt = lattice.times, lattice.nodes, lattice.dt
    g = terminal_values(spec, lattice)
    f = spec.generator
    if isinstance(f, AffineGenerator):
        require_contraction(spec, dt)
        check_terminal_dominates(spec, times[-1], nodes[-1])
        b_dt, denom = f.const * dt, 1.0 - f.y_coeff * dt
        if _root_check_suffices(g, b_dt, denom, lattice.n_steps):
            p = branch_probability(lattice)
            q = 1.0 - p
            y = g
            for k in range(lattice.n_steps - 1, -1, -1):
                h = np.asarray(spec.obstacle(times[k], nodes[k]), dtype=float)
                y = np.maximum(h, (p * y[1:] + q * y[:-1] + b_dt) / denom)
            if math.isfinite(y[0]):
                return float(y[0])

    for _, y, _, _, _ in backward_layers(lattice, spec, _reflected_scheme(dt), g):
        pass
    return float(y[0])


def _root_check_suffices(g, b_dt: float, denom: float, n_steps: int) -> bool:
    """Whether a finite Y0 of the affine root pass from terminal ``g`` shows every layer finite.

    Every node reaches the root with a positive weight or through a product
    0 * y, so +inf and nan carry to Y0. -inf need not: a layer value of
    -inf (a continuation c of -inf where h = -inf too) makes the next
    layer's continuation -inf, which max(h, -inf) = h hides, while the
    checked pass names it. Since y = max(h, c) >= c, a layer reaches below
    0 at most as far as its continuation c = (p * y[1:] + q * y[:-1] +
    b * dt) / (1 - a * dt): as far as the layer after it, plus |b * dt|
    where b < 0, divided by 1 - a * dt and widened by six roundings. True
    when that bound, from min(g) over ``n_steps`` layers, stays above
    -2**1000, so that no continuation can reach -inf.
    """
    exponent = n_steps * math.log((1.0 + 6.0 * sys.float_info.epsilon) / min(denom, 1.0))
    low = max(-float(g.min()), 0.0) + n_steps * max(-b_dt, 0.0)
    return exponent < 700.0 and low * math.exp(exponent) < 2.0**1000
