"""Finite-difference solvers for the obstacle problem

    min[ u - h, -du/dt - (1/2) sigma^2 u_xx - b u_x - f(t, x, u, sigma u_x) ] = 0,
    u(T, x) = g(x),

on a truncated space-time grid over [0, T], whose time points come from
the same ``TimeGrid.times()`` as the lattice's. The diagnostics that tie
the PDE back to the probabilistic solvers (the Feynman-Kac probe against
the lattice value started at (t, x), the supersolution scan for the
exponential comparison function chi, and the growth-class check at large
|x|) live in ``rbsde_lab.diagnostics``: only the acceptance criteria and
the tests run them.

Two schemes are provided, and one kernel solves each implicit step of
both: policy (Howard) iteration on the active set {v < h}, one tridiagonal
(Thomas) solve per iteration, until the active set stops changing. The
projected scheme solves the step's linear complementarity problem exactly:
active rows are pinned to the obstacle, v = h. The penalized scheme replaces
the constraint by the driver term n * (u - h)^- and never projects: active
rows carry n * dt on the diagonal and n * dt * h on the right-hand side,
which makes each iteration a Newton step for the piecewise-linear equation.
The active set is warm-started from the previous solve, so most solves take
one iteration, and the matrix of an active set is factored once: while the
set holds, a solve only sweeps its right-hand side. Each time step is one
``snell.implicit_step``: for f = a * y + b, -a * dt joins the diagonal and
b * dt the right-hand side of one LCP solve. An affine generator takes
that solve once; any other f is lagged, frozen at the previous iterate with
z = sigma * u_x, so each solve of the iteration stays (piecewise) linear.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lattice import ForwardModel, PdeGrid
from .problem import ProblemSpec, check_schedule, check_terminal_dominates
from .snell import FP_TOL, implicit_step, require_contraction

POLICY_MAX_ITER = 100


class LcpConvergenceError(RuntimeError):
    """Raised when policy iteration on the active set does not settle."""


class PdeField(NamedTuple):
    """Grid values u[k][i] (time-major), with solver metadata.

    ``complementarity`` is the worst nodewise product residual * (u - h)
    observed over all time steps and ``min_operator_residual`` the most
    negative operator residual, where the residual is A v - rhs of the
    step's implicit solve: for the projected scheme the LCP multiplier, for
    the penalized scheme the penalty force. Both schemes count the most
    policy iterations one LCP solve took and the most LCP solves one time
    step took: 1 for an affine generator; for any other generator the
    lagged solves of the step, the start solve with f = 0 included.
    """

    u: np.ndarray
    grid: PdeGrid
    complementarity: float
    min_operator_residual: float
    max_policy_iterations: int
    max_lag_iterations: int

    def interpolate(self, t: float, x: float) -> float:
        """Bilinear interpolation of u at an interior point (t, x)."""
        times = self.grid.time.times()
        xs = self.grid.xs()
        if not (times[0] - 1e-12 <= t <= times[-1] + 1e-12):
            raise ValueError(f"probe time {t} outside grid")
        if not (xs[0] - 1e-12 <= x <= xs[-1] + 1e-12):
            raise ValueError(f"probe state {x} outside grid")
        k = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        k = max(k, 0)
        i = min(int(np.searchsorted(xs, x, side="right")) - 1, len(xs) - 2)
        i = max(i, 0)
        wt = (t - times[k]) / (times[k + 1] - times[k])
        wx = (x - xs[i]) / (xs[i + 1] - xs[i])
        u00, u01 = self.u[k, i], self.u[k, i + 1]
        u10, u11 = self.u[k + 1, i], self.u[k + 1, i + 1]
        return float(
            (1 - wt) * ((1 - wx) * u00 + wx * u01) + wt * ((1 - wx) * u10 + wx * u11)
        )


def _step_matrix(grid: PdeGrid, sig: np.ndarray, drift: np.ndarray):
    """Tridiagonal rows of I - dt*L at the interior nodes.

    ``sig`` and ``drift`` are the model's coefficients at those nodes. They
    do not depend on time, so one matrix serves every time step.
    """
    dx = grid.dx
    dt = grid.time.dt
    a = 0.5 * sig**2 / dx**2
    c = drift / (2.0 * dx)
    lower = -dt * (a - c)
    diag = 1.0 + 2.0 * dt * a
    upper = -dt * (a + c)
    return lower, diag, upper


def _gradient(full_u: np.ndarray, dx: float) -> np.ndarray:
    """Central x-gradient at the interior nodes of a full space row."""
    return (full_u[2:] - full_u[:-2]) / (2.0 * dx)


def _factor(lower, diag, upper):
    """Elimination coefficients of a tridiagonal matrix, for ``_sweep``.

    Elimination without pivoting: beta_i = diag_i - lower_i * c_{i-1} and
    c_i = upper_i / beta_i. ``lower[0]`` must be zero and ``upper[-1]`` is
    not read. Stable for the strictly diagonally dominant rows of an
    implicit step. Returns (lower, beta, c) as lists, with c in the order
    back-substitution reads it: reversed, without its last entry.
    """
    lows = lower.tolist()
    betas, cs = [], []
    c_prev = 0.0
    for a, b, c in zip(lows, diag.tolist(), upper.tolist()):
        beta = b - a * c_prev
        c_prev = c / beta
        betas.append(beta)
        cs.append(c_prev)
    return lows, betas, cs[-2::-1]


def _sweep(factors, rhs) -> np.ndarray:
    """Solve the tridiagonal system that ``_factor`` factored for the right-hand side ``rhs``."""
    lows, betas, c_back = factors
    d_rows = []
    d_prev = 0.0
    for a, beta, d in zip(lows, betas, rhs.tolist()):
        d_prev = (d - a * d_prev) / beta
        d_rows.append(d_prev)
    x = d_prev
    out = [x]
    for c, d in zip(c_back, d_rows[-2::-1]):
        x = d - c * x
        out.append(x)
    out.reverse()
    return np.array(out)


def _policy_lcp(matrix, rhs, h, weight, active, factored, step):
    """Policy (Howard) iteration for one implicit step on the active set.

    ``matrix`` is (lower, diag, upper, row_norm): A is the tridiagonal
    matrix (lower, diag, upper), lower[0] = upper[-1] = 0, and row_norm =
    |lower| + diag + |upper|. This solves min(A v - rhs, v - h) = 0 when
    ``weight`` is None (projected) and A v = rhs + weight * (h - v)^+
    otherwise (penalized). Each iteration is one tridiagonal solve in which
    the active rows are replaced: the projected scheme pins v = h there,
    the penalized scheme adds ``weight`` to the diagonal and weight * h to
    the right-hand side. A row joins the active set where v < h and leaves
    it where A v - rhs (the multiplier, or the penalty force) falls below
    the float noise floor of the row, -FP_TOL * (1 + |rhs| + row_norm * |h|),
    so rows tied at the obstacle cannot cycle.

    ``active`` is the warm start, and ``factored`` the last factorization,
    (matrix, active set, ``_factor``'s factors), or None: an iteration on
    that matrix and active set only sweeps (``_sweep``), and any other
    factors its own in its place. Returns (v, A v - rhs, active set,
    iterations, factored), with each entry of A v - rhs inside its row's
    noise floor set to 0; rows are interior grid nodes, so row i is node
    i + 1 in the error raised after POLICY_MAX_ITER solves.
    """
    lower, diag, upper, row_norm = matrix
    noise = -FP_TOL * (1.0 + np.abs(rhs) + row_norm * np.abs(h))
    push = None if weight is None else weight * h
    for iteration in range(1, POLICY_MAX_ITER + 1):
        key = active.tobytes()
        if factored is None or factored[0] is not matrix or factored[1] != key:
            if weight is None:
                factors = _factor(
                    np.where(active, 0.0, lower),
                    np.where(active, 1.0, diag),
                    np.where(active, 0.0, upper),
                )
            else:
                factors = _factor(lower, diag + weight * active, upper)
            factored = matrix, key, factors
        if weight is None:
            v = _sweep(factored[2], np.where(active, h, rhs))
        else:
            # only active rows get the push, so a weight * h past the float
            # range cannot turn an inactive row into (+-inf) * 0 = nan
            v = _sweep(factored[2], rhs + np.where(active, push, 0.0))
        resid = diag * v - rhs
        resid[1:] += lower[1:] * v[:-1]
        resid[:-1] += upper[:-1] * v[1:]
        settled = np.where(active, resid >= noise, v < h)
        if (settled == active).all():
            # inside its row's noise floor a residual is the solve's rounding,
            # which a large u - h would scale into a false complementarity gap
            # (|noise|, not -noise: a first np.negative call in the process
            # raised the bench's `pde` peak memory by about 0.1 MB)
            resid = np.where(np.abs(resid) <= np.abs(noise), 0.0, resid)
            return v, resid, active, iteration, factored
        active, previous = settled, active
    gap = np.minimum(resid, v - h)
    moving = np.flatnonzero(active != previous)
    worst = int(moving[np.argmax(np.abs(gap[moving]))])
    raise LcpConvergenceError(
        f"policy iteration did not settle in {POLICY_MAX_ITER} iterations at step {step}; "
        f"worst node {worst + 1}, value {v[worst]:.6g}, "
        f"residual min(Av - b, v - h) = {gap[worst]:.3e}"
    )


# A step whose data pass 2**1000 in magnitude is solved on the data times
# 2**-64: the elimination and the Dirichlet coupling multiply the data by
# row entries, which would leave the float range on a finite answer.
# Scaling by a power of two is exact, so only a value past the float range
# itself becomes inf.
_LARGE = 2.0**1000
_DOWN = 2.0**-64
_UP = 2.0**64


# Data past the float range run on to inf or nan without a warning, and the
# step's finiteness check names the first such step and node.
@np.errstate(over="ignore", invalid="ignore")
def _backward_solve(grid, spec, model, n):
    """Backward time loop shared by the projected (n None) and penalized schemes.

    Each time step is one ``snell.implicit_step`` on the full space row, so
    an error names a grid node. Its step for f = a * y + b takes, at the two
    end nodes, the held state's reflected step max(h, (u_next + b * dt) /
    (1 - a * dt)), and on the interior one ``_policy_lcp`` call with -a * dt
    on the diagonal, b * dt on the right-hand side and those end values as
    Dirichlet data. A generator that is not affine is frozen on the whole
    row at the previous iterate, with z = sigma * u_x inside and z = 0 at
    the held ends. Every call is warm-started from the active set and the
    factorization of the previous call, and a step whose data pass
    2**1000 is solved on scaled data.
    """
    dt = grid.time.dt
    require_contraction(spec, dt)
    xs = grid.xs()
    times = grid.time.times()
    check_terminal_dominates(spec, times[-1], xs)
    x_int = xs[1:-1]
    dx = grid.dx
    ends = slice(None, None, grid.m_nodes - 1)  # nodes 0 and m_nodes - 1
    sig_int = model.vol(x_int)
    lower, diag, upper = _step_matrix(grid, sig_int, model.drift(x_int))
    edge_lower, edge_upper = lower[0], upper[-1]
    lower[0] = upper[-1] = 0.0
    weight = None if n is None else n * dt

    u = np.empty((grid.time.n_steps + 1, grid.m_nodes))
    u[-1] = np.asarray(spec.terminal(xs), dtype=float)
    active = np.zeros(x_int.shape, dtype=bool)
    factored = resid = None
    worst_comp = worst_resid = 0.0
    max_policy = max_lag = 0
    # the matrix with diag - dt * a for each a a step is called with: one
    # per solve, since an affine generator passes its own a and any other
    # f passes 0
    matrices = {}

    def step(a, b):
        nonlocal resid, lag, active, factored, max_policy
        # 1 - a * dt > 0 (|a| <= kappa and kappa * dt < 1) keeps the rows
        # strictly diagonally dominant
        matrix = matrices.get(a)
        if matrix is None:
            diag_a = diag - dt * a
            matrix = matrices[a] = lower, diag_a, upper, np.abs(lower) + diag_a + np.abs(upper)
        cont = u[k + 1] + b * dt
        row = np.empty(grid.m_nodes)
        row[ends] = np.maximum(h[ends], cont[ends] / (1.0 - a * dt))
        data = cont[1:-1], h[1:-1], row[0], row[-1]
        large = max(np.abs(cont).max(), np.abs(h).max()) > _LARGE
        if large:
            data = [value * _DOWN for value in data]
        rhs, h_int, first, last = data
        # 0.0 - x rather than -x: a zero product gives +0.0, not -0.0
        bc = np.zeros(x_int.shape)
        bc[0] -= edge_lower * first
        bc[-1] -= edge_upper * last
        v, resid, active, iterations, factored = _policy_lcp(
            matrix, rhs + bc, h_int, weight, active, factored, k
        )
        max_policy = max(max_policy, iterations)
        if large:
            v, resid = v * _UP, resid * _UP
        row[1:-1] = v
        lag += 1
        return row

    def frozen(row):
        z = np.zeros(grid.m_nodes)
        z[1:-1] = sig_int * _gradient(row, dx)
        return np.asarray(spec.generator(t, xs, row, z), dtype=float)

    for k in range(grid.time.n_steps - 1, -1, -1):
        t = times[k]
        h = np.asarray(spec.obstacle(t, xs), dtype=float)
        lag = 0
        u[k] = implicit_step(spec.generator, step, frozen, k, "PDE time step")
        max_lag = max(max_lag, lag)
        gap = u[k][1:-1] - h[1:-1]
        worst_resid = min(worst_resid, float(np.min(resid)))
        worst_comp = max(worst_comp, float(np.max(np.abs(resid * gap))))

    return PdeField(u, grid, worst_comp, worst_resid, max_policy, max_lag)


def solve_pde_projected(grid: PdeGrid, spec: ProblemSpec, model: ForwardModel) -> PdeField:
    """Implicit scheme with the obstacle enforced by projection.

    Each backward step solves the linear complementarity problem of the
    discretized operator exactly by policy iteration, once for an affine
    generator and once per lagged iterate for any other. The solution
    dominates the obstacle exactly at every grid point.
    """
    return _backward_solve(grid, spec, model, None)


def solve_pde_penalized(
    grid: PdeGrid, spec: ProblemSpec, model: ForwardModel, n: float
) -> PdeField:
    """Unconstrained implicit scheme with penalty driver f + n * (u - h)^-."""
    check_schedule([n])
    return _backward_solve(grid, spec, model, float(n))
