"""Discrete-time forward models on recombining lattices.

The forward diffusion dX_t = b(t,X_t) dt + sigma(t,X_t) dB_t is approximated
by a recombining binomial lattice with exact one-step conditional
expectations (arithmetic and geometric Brownian models). Monte Carlo paths
are node-index paths drawn from the lattice's own branch law
(``sample_node_paths``, numpy's PCG64 generator).

Driving noise is one-dimensional; multi-dimensional drivers are a documented
extension point, not built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ARITHMETIC = "arithmetic"
GEOMETRIC = "geometric"


class CoarseTimeStepError(ValueError):
    """Raised when matched branch probabilities leave [0, 1]."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of a time interval of length ``horizon`` into ``n_steps``."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class ForwardModel:
    """One-dimensional forward diffusion with constant coefficients.

    Two kinds are supported:

    * ``arithmetic``: dX = b0 dt + sigma0 dB (coeffs ``drift_coeff``/``vol_coeff``)
    * ``geometric``:  dX = mu X dt + sigma X dB

    ``start_time`` places the model at an absolute time t0, so a lattice
    built on a grid with horizon ``T - t0`` covers [t0, T].
    """

    kind: str
    x0: float
    drift_coeff: float = 0.0
    vol_coeff: float = 0.0
    start_time: float = 0.0

    def __post_init__(self):
        if self.kind not in (ARITHMETIC, GEOMETRIC):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.vol_coeff < 0.0:
            raise ValueError("volatility coefficient must be >= 0")
        if self.kind == GEOMETRIC and not self.x0 > 0.0:
            raise ValueError("geometric model requires x0 > 0")

    @classmethod
    def arithmetic(cls, b0: float, sigma0: float, x0: float, start_time: float = 0.0) -> "ForwardModel":
        return cls(ARITHMETIC, x0, b0, sigma0, start_time)

    @classmethod
    def geometric(cls, mu: float, sigma: float, x0: float, start_time: float = 0.0) -> "ForwardModel":
        return cls(GEOMETRIC, x0, mu, sigma, start_time)

    def drift(self, t, x):
        if self.kind == ARITHMETIC:
            return np.full_like(np.asarray(x, dtype=float), self.drift_coeff)
        return self.drift_coeff * np.asarray(x, dtype=float)

    def vol(self, t, x):
        if self.kind == ARITHMETIC:
            return np.full_like(np.asarray(x, dtype=float), self.vol_coeff)
        return self.vol_coeff * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial lattice: step k holds k+1 nodes, branch j -> (j, j+1).

    ``nodes[k][j]`` is the state at step k, node j (states increasing in j);
    ``up_prob[k][j]`` is the probability of the j -> j+1 branch. ``times`` are
    absolute times, starting at the model's ``start_time``. The layers are
    read-only: geometric states are views of two shared tables, and every
    ``up_prob[k]`` is a view of one probability.
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


def build_lattice(model: ForwardModel, grid: TimeGrid) -> Lattice:
    """Build a recombining lattice whose one-step increments match the model.

    Arithmetic models branch to x +/- sigma0*sqrt(dt) around the drifted mean
    with probability 1/2 (both first moments exact). Geometric models use
    multiplicative factors u = exp(sigma*sqrt(dt)), d = 1/u with
    p = (exp(mu*dt) - d)/(u - d), which matches the one-step mean exactly and
    the variance to O(dt^2).

    Raises
    ------
    CoarseTimeStepError
        If the matched probability falls outside [0, 1] (geometric kind with
        dt too coarse for the drift/volatility).
    """
    n = grid.n_steps
    dt = grid.dt
    times = model.start_time + dt * np.arange(n + 1)
    p = 0.5
    if model.kind == ARITHMETIC:
        # The drift moves every layer, so each holds its own states.
        b0, s0 = model.drift_coeff, model.vol_coeff
        root = math.sqrt(dt)
        nodes = [
            model.x0 + b0 * k * dt + s0 * root * (2.0 * np.arange(k + 1) - k)
            for k in range(n + 1)
        ]
    elif model.vol_coeff == 0.0:
        # Deterministic ODE: exact exponential states, probabilities moot.
        mu = model.drift_coeff
        nodes = [np.full(k + 1, model.x0 * math.exp(mu * k * dt)) for k in range(n + 1)]
    else:
        mu, sigma = model.drift_coeff, model.vol_coeff
        u = math.exp(sigma * math.sqrt(dt))
        d = 1.0 / u
        p = (math.exp(mu * dt) - d) / (u - d)
        if not 0.0 <= p <= 1.0:
            raise CoarseTimeStepError(
                f"dt too coarse for this drift/volatility at step 0: "
                f"matched up-probability {p:.6g} outside [0, 1]"
            )
        # Node j of layer k is x0 * u**(2j - k): layer k is the slice of the
        # exponents of parity (n - k) % 2 that starts at -k. Two tables of
        # about n + 1 states hold every layer.
        tables = [model.x0 * u ** np.arange(-n + par, n + 1, 2.0) for par in (0, 1)]
        nodes = []
        for k in range(n + 1):
            par = (n - k) % 2
            start = (n - k - par) // 2
            nodes.append(tables[par][start : start + k + 1])
    for layer in nodes:
        # Geometric layers share two tables: a write into one would corrupt others.
        layer.flags.writeable = False
    up_prob = [np.broadcast_to(p, (k + 1,)) for k in range(n)]
    return Lattice(grid, model, times, tuple(nodes), tuple(up_prob))


def lattice_expectation(lattice: Lattice, values_next: np.ndarray, k: int) -> np.ndarray:
    """One-step conditional expectation: map values at step k+1 back to step k.

    ``out[j] = p[k][j] * values_next[j+1] + (1 - p[k][j]) * values_next[j]``;
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


def sample_node_paths(lattice: Lattice, n_paths: int, seed: int) -> np.ndarray:
    """Sample node-index paths (n_paths, n_steps+1) from the lattice branch law."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = lattice.n_steps
    uniforms = rng.random((n_paths, n))
    idx = np.zeros((n_paths, n + 1), dtype=np.int64)
    for k in range(n):
        p = lattice.up_prob[k][idx[:, k]]
        idx[:, k + 1] = idx[:, k] + (uniforms[:, k] < p)
    return idx

