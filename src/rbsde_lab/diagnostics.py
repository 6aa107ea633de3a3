"""Diagnostics that only the acceptance criteria and the tests run.

No command calls them, so ``cli``, ``config`` and the solver modules do not
import this module, and a command's process never compiles it.

* ``brute_force_stopping_value`` is the independent oracle for
  ``snell.solve_snell``: an exhaustive max-over-stop/continue recursion on
  the full (non-recombining) binary tree of branch histories, which
  realizes the maximum of E[sum_{s < tau} f(t_s) dt + reward(tau)] over all
  adapted stopping rules.
* ``feynman_kac_check`` ties the PDE back to the probabilistic solvers: a
  probe-wise comparison of u(t, x) against the lattice value started at
  (t, x).
* ``chi_supersolution_check`` scans for a supersolution witness of the
  exponential comparison function used in uniqueness arguments, and
  ``growth_class_check`` checks the growth class at large |x|.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import ForwardModel, Lattice, TimeGrid, build_lattice
from .pde import PdeField, PdeGrid
from .problem import AffineGenerator, ProblemSpec, obstacle_layers, terminal_values
from .snell import snell_root

EXP_SATURATION = 700.0


# ---------------------------------------------------------------------------
# Stopping-rule oracle for the lattice Snell envelope
# ---------------------------------------------------------------------------

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
        p = float(lattice.up_prob[k])
        continue_value = float(f0[k][j]) * dt + p * best(k + 1, j + 1) + (1.0 - p) * best(k + 1, j)
        return max(float(h[k][j]), continue_value)

    return best(0, 0)


# ---------------------------------------------------------------------------
# Cross-method probe: PDE value vs lattice value started at (t, x)
# ---------------------------------------------------------------------------

class ProbeComparison(NamedTuple):
    t: float
    x: float
    pde_value: float
    lattice_value: float
    abs_error: float
    rel_error: float


class FeynmanKacReport(NamedTuple):
    probes: tuple
    max_abs_error: float
    max_rel_error: float


def _started_at(spec: ProblemSpec, t: float) -> ProblemSpec:
    """``spec`` on a clock that reads 0 at time t: h and f are read at s + t.

    An ``AffineGenerator`` ignores t and is kept as it is, so its steps stay
    exact rather than going through the fixed-point iteration.
    """

    def obstacle(s, x):
        return spec.obstacle(s + t, x)

    generator = spec.generator
    if not isinstance(generator, AffineGenerator):

        def generator(s, x, y, z):
            return spec.generator(s + t, x, y, z)

    return spec._replace(generator=generator, obstacle=obstacle)


def feynman_kac_check(
    field: PdeField,
    model: ForwardModel,
    spec: ProblemSpec,
    probe_points,
    lattice_steps: int = 2048,
) -> FeynmanKacReport:
    """Compare u(t, x) against the backward lattice value started at (t, x).

    For each probe a fresh lattice over [0, T - t] from the probed state is
    solved by ``snell_root`` on the data started at t (``_started_at``); at
    t = T the lattice value degenerates to the terminal payoff. Probes must
    lie inside the grid.
    """
    horizon = field.grid.time.horizon
    rows = []
    for t, x in probe_points:
        u_val = field.interpolate(float(t), float(x))
        remaining = horizon - float(t)
        if remaining <= 1e-12:
            y_val = float(np.asarray(spec.terminal(np.array([float(x)])))[0])
        else:
            probe_model = model._replace(x0=float(x))
            probe_lattice = build_lattice(probe_model, TimeGrid(lattice_steps, remaining))
            y_val = snell_root(probe_lattice, _started_at(spec, float(t)))
        abs_err = abs(u_val - y_val)
        rel_err = abs_err / max(abs(y_val), 1e-12)
        rows.append(ProbeComparison(float(t), float(x), u_val, y_val, abs_err, rel_err))
    return FeynmanKacReport(
        probes=tuple(rows),
        max_abs_error=max(r.abs_error for r in rows),
        max_rel_error=max(r.rel_error for r in rows),
    )


# ---------------------------------------------------------------------------
# Exponential comparison function and growth-class diagnostics
# ---------------------------------------------------------------------------

def log_bump(x) -> np.ndarray:
    """psi(x) = (ln sqrt(x^2 + 1) + 1)^2 (>= 1, even, slowly growing)."""
    x = np.asarray(x, dtype=float)
    return (0.5 * np.log1p(x * x) + 1.0) ** 2


C_SCAN_GRID = tuple(float(2**i) for i in range(11))


class ChiScanRow(NamedTuple):
    time_slope: float
    window_start: float
    n_slices: int
    min_operator: float | None
    evaluable: bool
    reason: str = ""


class ChiSupersolutionReport(NamedTuple):
    rows: tuple
    passed: bool
    witness_time_slope: float | None


def chi_supersolution_check(
    terminal_weight: float,
    model: ForwardModel,
    kappa: float,
    grid: PdeGrid,
) -> ChiSupersolutionReport:
    """Scan time slopes c for a strict supersolution witness on [window_start, T].

    The comparison function is chi(t, x) = exp[(c * (T - t) + terminal_weight)
    * psi(x)], psi = ``log_bump``, on the window [T - terminal_weight / c, T];
    terminal_weight must be > 0. For each candidate slope the discrete operator
    -d_t chi - (1/2) sigma^2 chi_xx - b chi_x - kappa chi - kappa |sigma chi_x|
    (central differences in t and x) is evaluated at every interior grid node
    whose time lies in the window; the scan passes when some slope yields a
    strictly positive minimum. Slopes whose window contains no interior time
    slice, or whose exponents overflow, are reported as not evaluable.
    """
    if not terminal_weight > 0.0:
        raise ValueError(f"terminal_weight must be > 0, got {terminal_weight!r}")
    xs = grid.xs()
    times = grid.time.times()
    horizon = grid.time.horizon
    dt = grid.time.dt
    dx = grid.dx
    n = grid.time.n_steps
    psi = log_bump(xs)
    sig = model.vol(xs[1:-1])
    drift = model.drift(xs[1:-1])

    rows = []
    witness = None
    for c in C_SCAN_GRID:
        window_start = horizon - terminal_weight / c
        ks = [k for k in range(1, n) if times[k] >= window_start - 1e-12]
        if not ks:
            rows.append(
                ChiScanRow(c, window_start, 0, None, False, "no interior time slice in window")
            )
            continue
        k_lo = ks[0] - 1
        expo = (c * (horizon - times[k_lo:, None]) + terminal_weight) * psi[None, :]
        if float(np.max(expo)) > EXP_SATURATION:
            rows.append(
                ChiScanRow(c, window_start, len(ks), None, False, "exponent overflow")
            )
            continue
        chi = np.exp(expo)  # rows k_lo .. n inclusive

        min_val = math.inf
        for k in ks:
            r = k - k_lo
            dchi_dt = (chi[r + 1] - chi[r - 1]) / (2.0 * dt)
            chi_x = (chi[r, 2:] - chi[r, :-2]) / (2.0 * dx)
            chi_xx = (chi[r, 2:] - 2.0 * chi[r, 1:-1] + chi[r, :-2]) / dx**2
            op = (
                -dchi_dt[1:-1]
                - 0.5 * sig**2 * chi_xx
                - drift * chi_x
                - kappa * chi[r, 1:-1]
                - kappa * np.abs(sig * chi_x)
            )
            min_val = min(min_val, float(np.min(op)))
        rows.append(ChiScanRow(c, window_start, len(ks), min_val, True))
        if witness is None and min_val > 0.0:
            witness = c
    return ChiSupersolutionReport(tuple(rows), witness is not None, witness)


class GrowthReport(NamedTuple):
    radii: tuple
    factors: tuple
    passed: bool


def growth_class_check(values, weight: float, radii) -> GrowthReport:
    """Check |values(x)| * exp(-weight * (ln x)^2) decays along the tail radii.

    ``radii`` must be increasing, all >= 2, with at least three entries; the
    check passes when the damped factors strictly decrease over the last
    three radii.
    """
    rs = [float(r) for r in radii]
    if len(rs) < 3:
        raise ValueError("need at least three radii")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    if rs[0] < 2.0:
        raise ValueError("radii must be >= 2")
    factors = [
        abs(float(values(r))) * math.exp(-weight * math.log(r) ** 2) for r in rs
    ]
    tail = factors[-3:]
    passed = tail[0] > tail[1] > tail[2]
    return GrowthReport(tuple(rs), tuple(factors), passed)
