"""Problem data for the reflected backward equation and its solution contract.

A problem instance is (f, g, h, kappa, p): generator f(t, x, y, z), terminal
payoff g(x), lower obstacle h(t, x), a Lipschitz bound kappa for f in (y, z),
and an integrability exponent p in (1, 2). The terminal condition is always
g evaluated at the forward state (Markovian data); the obstacle process is
h evaluated along the forward state.

A solution is the triple (Y, Z, K) on a lattice: Y dominates the obstacle,
K is nondecreasing with K_0 = 0 and acts only where Y touches the obstacle,
and the backward one-step equation holds at every node. ``validate_solution``
turns that contract into computed residuals.

Expectations of path functionals over a lattice are evaluated noise-free by
forward induction with the lattice's branch probabilities. Running suprema
and accumulated integrals are propagated per node by conditional averaging
(exact whenever the functional is a function of the current node, which
covers every closed-form case exercised in the tests; a deterministic
Jensen-type smoothing otherwise).

Callables must be numpy-vectorized: each is called with a scalar time and
equally-shaped state/value arrays.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .lattice import Lattice, Validated, forward_average, lattice_expectation

# the contract's tolerance for the obstacle, K's increments and the backward
# equation, and the Skorokhod sum's own
CONTRACT_TOL = 1e-10
SKOROKHOD_TOL = 1e-12


class _ProblemSpecFields(NamedTuple):
    generator: Callable
    terminal: Callable
    obstacle: Callable
    lipschitz_kappa: float
    p_exponent: float = 1.5


class ProblemSpec(Validated, _ProblemSpecFields):
    """Data (f, g, h, kappa, p) of one reflected backward problem."""

    __slots__ = ()

    def _check(self):
        if self.lipschitz_kappa < 0.0:
            raise ValueError("lipschitz_kappa must be >= 0")
        if not 1.0 < self.p_exponent < 2.0:
            raise ValueError("p must lie in (1,2)")
        a = self.generator.y_coeff if isinstance(self.generator, AffineGenerator) else 0.0
        if abs(a) > self.lipschitz_kappa:
            raise ValueError(
                f"lipschitz_kappa {self.lipschitz_kappa!r} is below the generator's Lipschitz "
                f"constant in y, {abs(a)!r}"
            )


def obstacle_layers(spec: ProblemSpec, lattice: Lattice):
    """Obstacle h(t_k, x) on each lattice layer, k = 0 .. n_steps, one layer at a time."""
    return (
        np.asarray(spec.obstacle(t, x), dtype=float) for t, x in zip(lattice.times, lattice.nodes)
    )


def terminal_values(spec: ProblemSpec, lattice: Lattice) -> np.ndarray:
    return np.asarray(spec.terminal(lattice.nodes[-1]), dtype=float)


def check_terminal_dominates(spec: ProblemSpec, t_end: float, states) -> float:
    """Max violation of g >= h(t_end, .) over the terminal states; raises if it is > 0."""
    g = np.asarray(spec.terminal(states), dtype=float)
    h_T = np.asarray(spec.obstacle(t_end, states), dtype=float)
    violation = float(np.max(h_T - g, initial=0.0))
    if violation > 0.0:
        raise ValueError(
            f"terminal payoff must dominate the obstacle at maturity "
            f"(violated by {violation:.3e})"
        )
    return violation


# ---------------------------------------------------------------------------
# Named closed-form problem ingredients
# ---------------------------------------------------------------------------

REGISTRY_FORMS = ("zero", "constant", "linear_discount", "put_payoff")


def _parse_form(name: str):
    head, sep, tail = name.partition(":")
    head = head.strip()
    if head not in REGISTRY_FORMS:
        raise ValueError(f"unknown form {name!r}; known forms: {', '.join(REGISTRY_FORMS)}")
    if head == "zero":
        if sep:
            raise ValueError("form 'zero' takes no parameter")
        return head, None
    if not sep:
        raise ValueError(f"form {head!r} needs a parameter, e.g. '{head}:0.5'")
    try:
        param = float(tail)
    except ValueError:
        raise ValueError(f"parameter of form {name!r} is not a number") from None
    if not np.isfinite(param):
        raise ValueError(f"parameter of form {name!r} must be finite")
    return head, param


class AffineGenerator(NamedTuple):
    """Generator f(t, x, y, z) = y_coeff * y + const, affine in y with constant coefficients.

    It is called like any generator. ``snell.implicit_step`` reads its
    coefficients and takes each scheme's implicit step once, in closed form,
    where any other callable iterates that step with f frozen at the iterate.
    """

    y_coeff: float
    const: float

    def __call__(self, t, x, y, z):
        y = np.asarray(y, dtype=float)
        if self.y_coeff == 0.0:
            return np.full_like(y, self.const)
        return self.y_coeff * y + self.const


def make_generator(name: str) -> Callable:
    """Generator f(t, x, y, z) from a registry name ('zero', 'constant:c', 'linear_discount:r').

    Every registry generator is an ``AffineGenerator``; 'linear_discount:r' is -r * y.
    """
    head, param = _parse_form(name)
    if head == "zero":
        return AffineGenerator(0.0, 0.0)
    if head == "constant":
        return AffineGenerator(0.0, param)
    if head == "linear_discount":
        return AffineGenerator(-param, 0.0)
    raise ValueError(f"form {name!r} cannot be used as a generator")


def _payoff(name: str, role: str) -> Callable:
    """Payoff x -> value from a registry name ('zero', 'constant:c', 'put_payoff:strike').

    Any other form is a ValueError: it cannot be used as ``role``.
    """
    head, param = _parse_form(name)
    if head == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if head == "constant":
        return lambda x: np.full_like(np.asarray(x, dtype=float), param)
    if head == "put_payoff":
        return lambda x: np.maximum(param - np.asarray(x, dtype=float), 0.0)
    raise ValueError(f"form {name!r} cannot be used as {role}")


def make_terminal(name: str) -> Callable:
    """Terminal payoff g(x) from a registry name ('zero', 'constant:c', 'put_payoff:strike')."""
    return _payoff(name, "a terminal payoff")


def make_obstacle(name: str) -> Callable:
    """Obstacle h(t, x): a terminal payoff form of the registry, read at x whatever t."""
    payoff = _payoff(name, "an obstacle")
    return lambda t, x: payoff(x)


# ---------------------------------------------------------------------------
# Noise-free lattice functionals
# ---------------------------------------------------------------------------

def _weighted_moment(weights: list, last, power):
    """E[last ** power] for the terminal layer ``last``: a float, or one per row of a batch.

    ``power`` is one exponent, or a sequence with one exponent per row.
    Data past the float range give an inf or nan moment without a warning,
    as in the solver passes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(weights[-1] * last ** np.expand_dims(power, -1), axis=-1).tolist()


def accumulated_along(lattice: Lattice, addends, weights: list):
    """Node-conditioned accumulation A[k][j] = E[sum_{s<k} a_s | node (k, j)].

    ``addends`` yields the per-node amount added over [t_k, t_{k+1}]
    (k = 0 .. n_steps-1); A is yielded one layer at a time, k = 0 .. n_steps.
    Exact expectations of the total follow by weighting the terminal layer;
    p-th moments use the same layer (conditionally averaged, hence
    deterministic and exact for node-measurable totals). A leading axis of
    the addends is a batch; ``weights`` are the lattice's ``node_weights()``.
    """
    acc = np.zeros(1)
    yield acc
    for k, a in enumerate(addends):
        acc = forward_average(lattice, weights, acc + np.asarray(a, dtype=float), k)
        yield acc


def lattice_sup_moment(lattice: Lattice, values, power: float, weights: list):
    """E[(sup_k |values_k|)^power] with lattice weights (node-conditioned sup).

    ``values`` yields one layer per step, k = 0 .. n_steps. Layers with a
    leading axis give one moment per row, as a list of floats. ``weights``
    are the lattice's ``node_weights()``.
    """
    layers = iter(values)
    sup = np.abs(np.asarray(next(layers), dtype=float))
    for k, v in enumerate(layers):
        sup = np.maximum(
            forward_average(lattice, weights, sup, k), np.abs(np.asarray(v, dtype=float))
        )
    return _weighted_moment(weights, sup, power)


def lattice_accumulation_moment(lattice: Lattice, addends, power, weights: list):
    """E[(sum_k addends_k)^power] with lattice weights (node-conditioned sum).

    ``addends`` yields one layer per step, k = 0 .. n_steps-1; a leading
    axis and ``weights`` act as in ``lattice_sup_moment``. With a batch,
    ``power`` may also give one exponent per row.
    """
    for acc in accumulated_along(lattice, addends, weights):
        pass
    return _weighted_moment(weights, acc, power)


def lattice_expected_total(addends, weights: list):
    """Exact E[sum_k addends_k]: linear, so plain forward weighting suffices.

    A leading axis and ``weights`` act as in ``lattice_sup_moment``.
    """
    total = 0.0
    for w, a in zip(weights[:-1], addends):
        total = total + np.sum(w * np.asarray(a, dtype=float), axis=-1)
    return total.tolist()


def lattice_terminal_moment(layer_values, power: float, weights: list) -> float:
    """E[|terminal values|^power] with lattice weights."""
    return _weighted_moment(weights, np.abs(np.asarray(layer_values, dtype=float)), power)


# ---------------------------------------------------------------------------
# Solution triple and its contract
# ---------------------------------------------------------------------------

class SolutionTriple(NamedTuple):
    """Node-indexed solution (Y, Z, K) of the discrete reflected equation.

    ``y`` has n_steps+1 layers; ``z`` and ``dk`` have n_steps layers each,
    where ``dk[k][j]`` is the (nonnegative) reflection increment assigned to
    node (k, j) over [t_k, t_{k+1}]. K starts at 0, so K is nondecreasing
    along every lattice path iff every increment is >= 0; node-indexed
    cumulative values are exposed via ``k_nodewise``.
    """

    y: tuple
    z: tuple
    dk: tuple
    lattice: Lattice

    @property
    def n_steps(self) -> int:
        return self.lattice.n_steps

    def k_nodewise(self) -> list:
        """Cumulative K conditioned on the current node (K[0][0] = 0)."""
        return list(accumulated_along(self.lattice, self.dk, self.lattice.node_weights()))


class ValidationReport(NamedTuple):
    """Residuals of the discrete solution contract, with per-item pass flags.

    ``all_pass`` is True iff every item passes. K_0 = 0 is not an item: a
    ``SolutionTriple`` holds only the increments dK, so K starts at 0 by
    construction.
    """

    obstacle_violation: float
    k_min_increment: float
    skorokhod_residual: float
    backward_residual: float
    tol: float
    obstacle_ok: bool
    k_monotone_ok: bool
    skorokhod_ok: bool
    backward_ok: bool
    all_pass: bool


def validate_solution(sol: SolutionTriple, spec: ProblemSpec) -> ValidationReport:
    """Check the solution contract on the solution's own lattice and report residuals.

    Items checked, in order: obstacle domination (max of h - Y over nodes),
    minimal reflection increment (K nondecreasing along every path iff
    >= 0), the Skorokhod sum, and the one-step backward equation
    |Y_k - (E_k[Y_{k+1}] + f(t_k, x, Y_k, Z_k) dt + dK_k)|. The Skorokhod
    sum passes within ``SKOROKHOD_TOL``, the other items within
    ``CONTRACT_TOL``, which the report records as ``tol``.

    The Skorokhod residual is a certified bound over all lattice paths:
    sum over steps of the worst nodewise |(Y - h) * dK|, which dominates the
    pathwise sum |sum_k (Y_k - h_k) dK_k| for every path.
    """
    lattice = sol.lattice
    n = lattice.n_steps
    if len(sol.y) != n + 1 or len(sol.z) != n or len(sol.dk) != n:
        raise ValueError("solution layers inconsistent with lattice")
    for k in range(n + 1):
        if np.asarray(sol.y[k]).shape != (k + 1,):
            raise ValueError(f"Y layer {k} has wrong shape")

    dt = lattice.dt
    k_min_increment = min(
        (float(sol.dk[k].min()) for k in range(n)), default=0.0
    )

    violations = []
    skorokhod = 0.0
    backward = 0.0
    for k, h_k in enumerate(obstacle_layers(spec, lattice)):
        violations.append(float((h_k - sol.y[k]).max()))
        if k == n:
            break
        cond = lattice_expectation(lattice, sol.y[k + 1], k)
        fval = np.asarray(
            spec.generator(lattice.times[k], lattice.nodes[k], sol.y[k], sol.z[k]),
            dtype=float,
        )
        resid = sol.y[k] - (cond + dt * fval + sol.dk[k])
        backward = max(backward, float(np.abs(resid).max()))
        skorokhod += float(np.abs((sol.y[k] - h_k) * sol.dk[k]).max())
    obstacle_violation = max(violations)

    tol = CONTRACT_TOL
    flags = {
        "obstacle_ok": obstacle_violation <= tol,
        "k_monotone_ok": k_min_increment >= -tol,
        "skorokhod_ok": skorokhod <= SKOROKHOD_TOL,
        "backward_ok": backward <= tol,
    }
    return ValidationReport(
        obstacle_violation=obstacle_violation,
        k_min_increment=k_min_increment,
        skorokhod_residual=skorokhod,
        backward_residual=backward,
        tol=tol,
        **flags,
        all_pass=all(flags.values()),
    )
