"""Discrete-time forward models on recombining lattices.

The forward diffusion dX_t = b(X_t) dt + sigma(X_t) dB_t is approximated
by a recombining binomial lattice with exact one-step conditional
expectations (arithmetic and geometric Brownian models). Every expectation
over the lattice is an exact probability-weighted sum: nothing is sampled.

Driving noise is one-dimensional; multi-dimensional drivers are a documented
extension point, not built.

The grids a config describes live here too: ``TimeGrid`` and the obstacle
PDE's ``PdeGrid``. So loading a config compiles no solver module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

ARITHMETIC = "arithmetic"
GEOMETRIC = "geometric"


class CoarseTimeStepError(ValueError):
    """Raised when no lattice on the grid matches the model (see ``build_lattice``)."""


class Validated:
    """Base of an input record: a ``NamedTuple`` of fields that checks them when it is made.

    A record is ``class R(Validated, _RFields)``, where ``_RFields`` is the
    ``NamedTuple`` of its fields, with ``__slots__ = ()`` and a ``_check``
    that raises ``ValueError`` on a bad value. Every way of making one runs
    ``_check``: the constructor, ``_make`` and so ``_replace``. Like any
    ``NamedTuple`` it refuses assignment.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TimeGridFields(NamedTuple):
    n_steps: int
    horizon: float


class TimeGrid(Validated, _TimeGridFields):
    """Uniform partition of [0, horizon] into ``n_steps``.

    Time starts at 0 in every solver: the lattice and the PDE grid both
    take their time points from ``times()``.
    """

    __slots__ = ()

    def _check(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        n = self.n_steps
        return self.horizon * np.arange(n + 1) / n


class _PdeGridFields(NamedTuple):
    x_min: float
    x_max: float
    m_nodes: int
    time: TimeGrid


class PdeGrid(Validated, _PdeGridFields):
    """Uniform space-time grid on [x_min, x_max] x [0, horizon].

    The space points are ``xs()``, the time points ``time.times()``.

    The two end nodes carry Dirichlet data with one rule: the state is held
    there (the lateral operator is not available), so each time step takes
    the one-point reflected step max(h, u_next + dt * f) at the end node,
    solved with the interior in the same implicit step. For a linear
    discounting generator that is the discounted payoff, pinned to the
    obstacle where it binds (a deep in-the-money put end), so u >= h holds
    at both ends in either scheme.
    """

    __slots__ = ()

    def _check(self):
        if self.m_nodes < 3:
            raise ValueError("m_nodes must be >= 3")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.m_nodes - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m_nodes)


class _ForwardModelFields(NamedTuple):
    kind: str
    x0: float
    drift_coeff: float = 0.0
    vol_coeff: float = 0.0


class ForwardModel(Validated, _ForwardModelFields):
    """One-dimensional forward diffusion with constant coefficients.

    Two kinds are supported:

    * ``arithmetic``: dX = b0 dt + sigma0 dB (coeffs ``drift_coeff``/``vol_coeff``)
    * ``geometric``:  dX = mu X dt + sigma X dB

    The model starts at x0 at time 0; the coefficients do not depend on t.
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in (ARITHMETIC, GEOMETRIC):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.vol_coeff < 0.0:
            raise ValueError("volatility coefficient must be >= 0")
        if self.kind == GEOMETRIC and not self.x0 > 0.0:
            raise ValueError("geometric model requires x0 > 0")

    @classmethod
    def arithmetic(cls, b0: float, sigma0: float, x0: float) -> "ForwardModel":
        return cls(ARITHMETIC, x0, b0, sigma0)

    @classmethod
    def geometric(cls, mu: float, sigma: float, x0: float) -> "ForwardModel":
        return cls(GEOMETRIC, x0, mu, sigma)

    def drift(self, x):
        if self.kind == ARITHMETIC:
            return np.full_like(np.asarray(x, dtype=float), self.drift_coeff)
        return self.drift_coeff * np.asarray(x, dtype=float)

    def vol(self, x):
        if self.kind == ARITHMETIC:
            return np.full_like(np.asarray(x, dtype=float), self.vol_coeff)
        return self.vol_coeff * np.asarray(x, dtype=float)


class Lattice(NamedTuple):
    """Recombining binomial lattice: step k holds k+1 nodes, branch j -> (j, j+1).

    ``nodes[k][j]`` is the state at step k, node j (states increasing in j);
    ``up_prob[k]`` is the probability of every j -> j+1 branch from step k,
    one ``np.float64``: the model's coefficients do not depend on time, so
    every step holds the same matched p. It is a tuple of numpy scalars, not
    one p or a Python float, because the bench's lattice tracer sums
    ``nbytes`` over ``nodes + up_prob``. ``times`` are the grid's
    ``TimeGrid.times()``, from 0 to the horizon. The layers are read-only:
    geometric states are views of two shared tables.
    """

    grid: TimeGrid
    model: ForwardModel
    times: np.ndarray
    nodes: tuple
    up_prob: tuple

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    def node_weights(self) -> list:
        """Forward-induced probability of reaching each node, one array per step."""
        w = [np.array([1.0])]
        for k in range(self.n_steps):
            p = self.up_prob[k]
            nxt = np.zeros(k + 2)
            nxt[1:] += w[k] * p
            nxt[:-1] += w[k] * (1.0 - p)
            w.append(nxt)
        return w


def _exp(exponent: float) -> float:
    """``math.exp(exponent)``, or inf where it overflows."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def _step_factor(name: str, exponent: float) -> float:
    """``math.exp(exponent)``; an overflow is a CoarseTimeStepError naming ``name``."""
    factor = _exp(exponent)
    if factor == math.inf:
        raise CoarseTimeStepError(
            f"dt too coarse for this drift/volatility at step 0: "
            f"factor {name} = exp({exponent:.6g}) overflows"
        )
    return factor


# A state past the float range becomes inf or nan without a warning, and the
# check on the last layer names it.
@np.errstate(over="ignore", invalid="ignore")
def build_lattice(model: ForwardModel, grid: TimeGrid) -> Lattice:
    """Build a recombining lattice whose one-step increments match the model.

    Arithmetic models branch to x +/- sigma0*sqrt(dt) around the drifted mean
    with probability 1/2 (both first moments exact). Geometric models use
    multiplicative factors u = exp(sigma*sqrt(dt)), d = 1/u with
    p = (exp(mu*dt) - d)/(u - d), which matches the one-step mean exactly and
    the variance to O(dt^2).

    Every ``up_prob[k]`` is the one ``np.float64`` p (see ``Lattice``).
    Arithmetic layers are one array each, the drifted mean plus every other
    entry of one offset table; geometric layers are slices of two power
    tables.

    Raises
    ------
    CoarseTimeStepError
        If the matched probability falls outside [0, 1], the factor u or
        exp(mu*dt) overflows, u rounds to 1 (geometric kind), or a state of
        any kind is not finite; the last names the first such step and node.
    """
    n = grid.n_steps
    dt = grid.dt
    p = 0.5
    if model.kind == ARITHMETIC:
        # The drift moves every layer, so each holds its own states: layer k
        # is its drifted mean plus every other entry of one offset table
        # s0*sqrt(dt)*m, m = -n..n, from m = -k to m = k.
        b0, s0 = model.drift_coeff, model.vol_coeff
        offsets = s0 * math.sqrt(dt) * np.arange(-n, n + 1, dtype=float)
        nodes = [model.x0 + b0 * k * dt + offsets[n - k : n + k + 1 : 2] for k in range(n + 1)]
        for layer in nodes:
            layer.setflags(write=False)
    elif model.vol_coeff == 0.0:
        # Deterministic ODE: exact exponential states, probabilities moot.
        mu = model.drift_coeff
        nodes = [np.full(k + 1, model.x0 * _exp(mu * k * dt)) for k in range(n + 1)]
        for layer in nodes:
            layer.setflags(write=False)
    else:
        mu, sigma = model.drift_coeff, model.vol_coeff
        u = _step_factor("exp(sigma*sqrt(dt))", sigma * math.sqrt(dt))
        if u == 1.0:
            raise CoarseTimeStepError(
                f"volatility too small for this dt at step 0: factor exp(sigma*sqrt(dt)) = "
                f"exp({sigma * math.sqrt(dt):.6g}) rounds to 1, so u - d = 0"
            )
        d = 1.0 / u
        p = (_step_factor("exp(mu*dt)", mu * dt) - d) / (u - d)
        if not 0.0 <= p <= 1.0:
            raise CoarseTimeStepError(
                f"dt too coarse for this drift/volatility at step 0: "
                f"matched up-probability {p:.6g} outside [0, 1]"
            )
        # Node j of layer k is x0 * u**(2j - k): layer k is the slice of the
        # exponents of parity (n - k) % 2 that starts at -k. Two tables of
        # about n + 1 states hold every layer; they are made read-only before
        # they are sliced, since a view takes the flag its base has then.
        powers = [np.arange(-n + par, n + 1, 2.0) for par in (0, 1)]
        tables = [model.x0 * u**m for m in powers]
        for table in tables:
            table.setflags(write=False)
        nodes = []
        for k in range(n + 1):
            par = (n - k) % 2
            start = (n - k - par) // 2
            nodes.append(tables[par][start : start + k + 1])
    # Every kind's extreme states sit on the last layer, so it alone shows
    # whether a state left the float range; only then is the first searched for.
    if not np.isfinite(nodes[-1]).all():
        k = next(k for k, layer in enumerate(nodes) if not np.isfinite(layer).all())
        j = int(np.argmin(np.isfinite(nodes[k])))
        raise CoarseTimeStepError(
            f"state at step {k}, node {j} is {float(nodes[k][j])!r}: "
            f"the forward model leaves the float range before the horizon"
        )
    return Lattice(grid, model, grid.times(), tuple(nodes), (np.float64(p),) * n)


def lattice_expectation(lattice: Lattice, values_next: np.ndarray, k: int) -> np.ndarray:
    """One-step conditional expectation: map values at step k+1 back to step k.

    ``out[j] = p[k] * values_next[j+1] + (1 - p[k]) * values_next[j]``;
    a leading axis of ``values_next`` is a batch of layers, mapped row by row.
    """
    values_next = np.asarray(values_next, dtype=float)
    if not 0 <= k < lattice.n_steps:
        raise ValueError(f"step index {k} outside [0, {lattice.n_steps - 1}]")
    if values_next.shape[-1] != k + 2:
        raise ValueError(
            f"expected {k + 2} values at step {k + 1}, got {values_next.shape[-1]}"
        )
    p = lattice.up_prob[k]
    return p * values_next[..., 1:] + (1.0 - p) * values_next[..., :-1]


def branch_probability(lattice: Lattice):
    """The probability p of every j -> j+1 branch: each step holds the same one (see ``Lattice``).

    A pass over all the steps reads p once here, and computes with it what
    ``lattice_expectation`` computes at each step, without that function's
    checks.
    """
    return lattice.up_prob[0]


def forward_average(lattice: Lattice, weights: list, stat, k: int) -> np.ndarray:
    """Layer k's statistic averaged over the branches into each node of layer k+1.

    The average is probability-weighted and is 0 at an unreachable node
    (weight 0); a leading axis is a batch of statistics, averaged row by
    row. ``weights`` are the lattice's ``node_weights()``.
    """
    p = lattice.up_prob[k]
    w = weights[k]
    # Allocate the result before the scratch numerator: when a caller keeps
    # every layer (k_nodewise), the other order leaves a freed gap next to
    # each kept layer and raises the process's peak memory.
    avg = np.zeros(stat.shape[:-1] + (k + 2,))
    num = np.zeros(avg.shape)
    num[..., 1:] += w * p * stat
    num[..., :-1] += w * (1.0 - p) * stat
    denom = weights[k + 1]
    return np.divide(num, denom, out=avg, where=denom > 0.0)
