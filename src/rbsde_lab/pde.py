"""Finite-difference solvers for the obstacle problem

    min[ u - h, -du/dt - (1/2) sigma^2 u_xx - b u_x - f(t, x, u, sigma u_x) ] = 0,
    u(T, x) = g(x),

on a truncated space-time grid, plus the diagnostics that tie the PDE back
to the probabilistic solvers: a probe-wise comparison of u(t, x) against the
lattice value started at (t, x), a supersolution witness scan for the
exponential comparison function used in uniqueness arguments, and growth
class checks at large |x|.

Two schemes are provided, and one kernel solves each implicit step of
both: policy (Howard) iteration on the active set {v < h}, one tridiagonal
Thomas solve per iteration, until the active set stops changing. The
projected scheme solves the step's linear complementarity problem exactly:
active rows are pinned to the obstacle, v = h. The penalized scheme replaces
the constraint by the driver term n * (u - h)^- and never projects: active
rows carry n * dt on the diagonal and n * dt * h on the right-hand side,
which makes each iteration a Newton step for the piecewise-linear equation.
The active set is warm-started from the previous solve, so most solves take
one iteration. Each time step is one ``snell.implicit_step``: for
f = a * y + b, -a * dt joins the diagonal and b * dt the right-hand side of
one LCP solve. An affine generator takes that solve once; any other f is
lagged, frozen at the previous iterate with z = sigma * u_x, so each solve
of the iteration stays (piecewise) linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ForwardModel, TimeGrid, build_lattice
from .problem import ProblemSpec, check_terminal_dominates
from .snell import FP_TOL, _require_contraction, implicit_step, snell_root

POLICY_MAX_ITER = 100
EXP_SATURATION = 700.0


class LcpConvergenceError(RuntimeError):
    """Raised when policy iteration on the active set does not settle."""


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space-time grid on [x_min, x_max] x [0, horizon].

    The two end nodes carry Dirichlet data with one rule: the state is held
    there (the lateral operator is not available), so each time step takes
    the one-point reflected step max(h, u_next + dt * f) at the end node,
    solved with the interior in the same implicit step. For a linear
    discounting generator that is the discounted payoff, pinned to the
    obstacle where it binds (a deep in-the-money put end), so u >= h holds
    at both ends in either scheme.
    """

    x_min: float
    x_max: float
    m_nodes: int
    time: TimeGrid

    def __post_init__(self):
        if self.m_nodes < 3:
            raise ValueError("m_nodes must be >= 3")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.m_nodes - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m_nodes)

    def times(self) -> np.ndarray:
        n = self.time.n_steps
        return self.time.horizon * np.arange(n + 1) / n


@dataclass(frozen=True)
class PdeField:
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
        times = self.grid.times()
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


def _step_matrix(grid: PdeGrid, model: ForwardModel):
    """Tridiagonal rows of I - dt*L at the interior nodes.

    The model's coefficients are constant in time, so one matrix serves
    every time step.
    """
    x_int = grid.xs()[1:-1]
    dx = grid.dx
    dt = grid.time.dt
    sig = np.asarray(model.vol(0.0, x_int), dtype=float)
    drift = np.asarray(model.drift(0.0, x_int), dtype=float)
    a = 0.5 * sig**2 / dx**2
    c = drift / (2.0 * dx)
    lower = -dt * (a - c)
    diag = 1.0 + 2.0 * dt * a
    upper = -dt * (a + c)
    return lower, diag, upper


def _gradient(full_u: np.ndarray, dx: float) -> np.ndarray:
    """Central x-gradient at the interior nodes of a full space row."""
    return (full_u[2:] - full_u[:-2]) / (2.0 * dx)


def _thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system by elimination without pivoting.

    ``lower[0]`` must be zero and ``upper[-1]`` is not read. Stable for the
    strictly diagonally dominant rows of an implicit step.
    """
    c_rows, d_rows = [], []
    c_prev = d_prev = 0.0
    for a, b, c, d in zip(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()):
        beta = b - a * c_prev
        c_prev = c / beta
        d_prev = (d - a * d_prev) / beta
        c_rows.append(c_prev)
        d_rows.append(d_prev)
    x = d_rows[-1]
    out = [x]
    for c, d in zip(reversed(c_rows[:-1]), reversed(d_rows[:-1])):
        x = d - c * x
        out.append(x)
    out.reverse()
    return np.array(out)


def _policy_lcp(lower, diag, upper, rhs, h, weight, active, step):
    """Policy (Howard) iteration for one implicit step on the active set.

    With A the tridiagonal matrix (lower, diag, upper), lower[0] = upper[-1]
    = 0, this solves min(A v - rhs, v - h) = 0 when ``weight`` is None
    (projected) and A v = rhs + weight * (h - v)^+ otherwise (penalized).
    Each iteration is one Thomas solve in which the active rows are replaced:
    the projected scheme pins v = h there, the penalized scheme adds
    ``weight`` to the diagonal and weight * h to the right-hand side. A row
    joins the active set where v < h and leaves it where A v - rhs (the
    multiplier, or the penalty force) falls below the float noise floor of
    the row, -FP_TOL * (1 + |rhs| + (|lower| + diag + |upper|) * |h|), so
    rows tied at the obstacle cannot cycle.
    ``active`` is the warm start. Returns (v, A v - rhs, active set,
    iterations); rows are interior grid nodes, so row i is node i + 1 in the
    error raised after POLICY_MAX_ITER solves.
    """
    row_norm = np.abs(lower) + diag + np.abs(upper)
    noise = -FP_TOL * (1.0 + np.abs(rhs) + row_norm * np.abs(h))
    for iteration in range(1, POLICY_MAX_ITER + 1):
        if weight is None:
            v = _thomas(
                np.where(active, 0.0, lower),
                np.where(active, 1.0, diag),
                np.where(active, 0.0, upper),
                np.where(active, h, rhs),
            )
        else:
            v = _thomas(lower, diag + weight * active, upper, rhs + weight * h * active)
        resid = diag * v - rhs
        resid[1:] += lower[1:] * v[:-1]
        resid[:-1] += upper[:-1] * v[1:]
        settled = np.where(active, resid >= noise, v < h)
        if (settled == active).all():
            return v, resid, active, iteration
        active, previous = settled, active
    gap = np.minimum(resid, v - h)
    moving = np.flatnonzero(active != previous)
    worst = int(moving[np.argmax(np.abs(gap[moving]))])
    raise LcpConvergenceError(
        f"policy iteration did not settle in {POLICY_MAX_ITER} iterations at step {step}; "
        f"worst node {worst + 1}, value {v[worst]:.6g}, "
        f"residual min(Av - b, v - h) = {gap[worst]:.3e}"
    )


def check_start_time(model: ForwardModel) -> None:
    """Reject a model that does not start at t = 0, where the PDE grid starts."""
    if model.start_time != 0.0:
        raise ValueError(
            f"the PDE grid covers [0, horizon], so the model must start at 0; "
            f"got start_time = {model.start_time!r}"
        )


def _backward_solve(grid, spec, model, n):
    """Backward time loop shared by the projected (n None) and penalized schemes.

    Each time step is one ``snell.implicit_step`` on the full space row, so
    an error names a grid node. Its step for f = a * y + b takes, at the two
    end nodes, the held state's reflected step max(h, (u_next + b * dt) /
    (1 - a * dt)), and on the interior one ``_policy_lcp`` call with -a * dt
    on the diagonal, b * dt on the right-hand side and those end values as
    Dirichlet data. A generator that is not affine is frozen on the whole
    row at the previous iterate, with z = sigma * u_x inside and z = 0 at
    the held ends. Every call is warm-started from the active set of the
    previous call.
    """
    dt = grid.time.dt
    _require_contraction(spec, dt)
    check_start_time(model)
    xs = grid.xs()
    times = grid.times()
    check_terminal_dominates(spec, times[-1], xs)
    x_int = xs[1:-1]
    dx = grid.dx
    ends = slice(None, None, grid.m_nodes - 1)  # nodes 0 and m_nodes - 1
    lower, diag, upper = _step_matrix(grid, model)
    edge_lower, edge_upper = lower[0], upper[-1]
    lower[0] = upper[-1] = 0.0
    sig_int = np.asarray(model.vol(0.0, x_int), dtype=float)
    weight = None if n is None else n * dt

    u = np.empty((grid.time.n_steps + 1, grid.m_nodes))
    u[-1] = np.asarray(spec.terminal(xs), dtype=float)
    active = np.zeros(x_int.shape, dtype=bool)
    resid = None
    worst_comp = worst_resid = 0.0
    max_policy = max_lag = 0
    # diag - dt * a for each a a step is called with: one per solve, since an
    # affine generator passes its own a and any other f passes 0
    shifted = {}

    def step(a, b):
        nonlocal active, resid, lag, max_policy
        # 1 - a * dt > 0 (checked by _require_contraction) keeps the rows
        # strictly diagonally dominant
        diag_a = shifted.get(a)
        if diag_a is None:
            diag_a = shifted[a] = diag - dt * a
        cont = u[k + 1] + b * dt
        row = np.empty(grid.m_nodes)
        row[ends] = np.maximum(h[ends], cont[ends] / (1.0 - a * dt))
        # 0.0 - x rather than -x: a zero product gives +0.0, not -0.0
        bc = np.zeros(x_int.shape)
        bc[0] -= edge_lower * row[0]
        bc[-1] -= edge_upper * row[-1]
        row[1:-1], resid, active, iterations = _policy_lcp(
            lower, diag_a, upper, cont[1:-1] + bc, h[1:-1], weight, active, k
        )
        lag += 1
        max_policy = max(max_policy, iterations)
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
    if not 0.0 <= n < math.inf:
        raise ValueError(f"penalty intensity must be finite and >= 0, got {n!r}")
    return _backward_solve(grid, spec, model, float(n))


# ---------------------------------------------------------------------------
# Cross-method probe: PDE value vs lattice value started at (t, x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeComparison:
    t: float
    x: float
    pde_value: float
    lattice_value: float
    abs_error: float
    rel_error: float


@dataclass(frozen=True)
class FeynmanKacReport:
    probes: tuple
    max_abs_error: float
    max_rel_error: float


def feynman_kac_check(
    field: PdeField,
    model: ForwardModel,
    spec: ProblemSpec,
    probe_points,
    lattice_steps: int = 2048,
) -> FeynmanKacReport:
    """Compare u(t, x) against the backward lattice value started at (t, x).

    For each probe a fresh lattice over [t, T] with the probed initial state
    is solved by ``snell_root``; at t = T the lattice value degenerates to
    the terminal payoff. Probes must lie inside the grid.
    """
    horizon = field.grid.time.horizon
    rows = []
    for t, x in probe_points:
        u_val = field.interpolate(float(t), float(x))
        remaining = horizon - float(t)
        if remaining <= 1e-12:
            y_val = float(np.asarray(spec.terminal(np.array([float(x)])))[0])
        else:
            probe_model = ForwardModel(
                model.kind, float(x), model.drift_coeff, model.vol_coeff, float(t)
            )
            probe_lattice = build_lattice(probe_model, TimeGrid(lattice_steps, remaining))
            y_val = snell_root(probe_lattice, spec)
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


@dataclass(frozen=True)
class ChiScanRow:
    time_slope: float
    window_start: float
    n_slices: int
    min_operator: float | None
    evaluable: bool
    reason: str = ""


@dataclass(frozen=True)
class ChiSupersolutionReport:
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
    times = grid.times()
    horizon = grid.time.horizon
    dt = grid.time.dt
    dx = grid.dx
    n = grid.time.n_steps
    psi = log_bump(xs)

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
            sig = np.asarray(model.vol(times[k], xs[1:-1]), dtype=float)
            drift = np.asarray(model.drift(times[k], xs[1:-1]), dtype=float)
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


@dataclass(frozen=True)
class GrowthReport:
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
