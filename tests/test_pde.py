import math

import numpy as np
import pytest

from helpers import far_obstacle, plain, put_model, thomas

from rbsde_lab import pde
from rbsde_lab.diagnostics import (
    C_SCAN_GRID,
    chi_supersolution_check,
    feynman_kac_check,
    growth_class_check,
)
from rbsde_lab.lattice import ForwardModel, PdeGrid, TimeGrid, build_lattice
from rbsde_lab.pde import LcpConvergenceError, solve_pde_penalized, solve_pde_projected
from rbsde_lab.problem import (
    ContractionError,
    DataOverflowError,
    ProblemSpec,
    make_generator,
    make_obstacle,
    make_terminal,
)
from rbsde_lab.snell import snell_root


def frozen_model():
    return ForwardModel.arithmetic(0.0, 0.0, 1.0)


def constant_spec():
    return ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        PdeGrid(0.0, 1.0, 2, TimeGrid(4, 1.0))
    with pytest.raises(ValueError):
        PdeGrid(1.0, 0.0, 11, TimeGrid(4, 1.0))


def test_constant_solution_on_every_slice():
    grid = PdeGrid(0.0, 2.0, 21, TimeGrid(16, 1.0))
    field = solve_pde_projected(grid, constant_spec(), frozen_model())
    assert np.allclose(field.u, 1.0, atol=1e-12)
    assert field.complementarity <= 1e-8


def test_pure_discounting_reduces_to_exponential():
    grid = PdeGrid(0.0, 2.0, 11, TimeGrid(8192, 1.0))
    spec = ProblemSpec(
        make_generator("linear_discount:0.1"),
        make_terminal("constant:1"),
        far_obstacle,
        lipschitz_kappa=0.1,
    )
    field = solve_pde_projected(grid, spec, frozen_model())
    interior = field.u[0][1:-1]
    assert np.all(np.abs(interior - math.exp(-0.1)) <= 1e-6)
    # the held boundary state carries the same discounted terminal value
    assert field.u[0][-1] == pytest.approx(math.exp(-0.1), abs=1e-6)


def test_put_value_matches_lattice_to_half_percent(put_pde_field, put_snell_2048):
    u0 = put_pde_field.interpolate(0.0, 36.0)
    y0 = float(put_snell_2048.triple.y[0][0])
    assert abs(u0 - y0) / y0 <= 0.005


def test_projected_complementarity_contract(put_pde_field):
    assert put_pde_field.complementarity <= 1e-8
    assert put_pde_field.min_operator_residual >= -1e-8
    # the obstacle is enforced exactly at every grid point
    grid = put_pde_field.grid
    xs = grid.xs()
    payoff = np.maximum(40.0 - xs, 0.0)
    assert np.all(put_pde_field.u >= payoff[None, :] - 0.0)


def test_penalized_zero_intensity_matches_projected_without_obstacle():
    model = frozen_model()
    spec = constant_spec()
    grid = PdeGrid(0.0, 2.0, 21, TimeGrid(16, 1.0))
    proj = solve_pde_projected(grid, spec, model)
    pen = solve_pde_penalized(grid, spec, model, 0.0)
    assert np.allclose(pen.u, proj.u, atol=1e-10)


@pytest.mark.parametrize("intensity", [10.0, 1e4])
def test_penalized_constant_instance(intensity):
    grid = PdeGrid(0.0, 2.0, 21, TimeGrid(16, 1.0))
    field = solve_pde_penalized(grid, constant_spec(), frozen_model(), intensity)
    assert np.allclose(field.u, 1.0, atol=1e-12)


@pytest.mark.parametrize("intensity", [-1.0, math.nan, math.inf])
def test_penalized_rejects_a_negative_or_non_finite_intensity(intensity):
    grid = PdeGrid(0.0, 2.0, 21, TimeGrid(16, 1.0))
    with pytest.raises(ValueError, match="penalty intensities must be finite and >= 0"):
        solve_pde_penalized(grid, constant_spec(), frozen_model(), intensity)


def test_both_schemes_keep_the_obstacle_on_the_boundary_columns(
    put_spec, put_pde_field, put_pde_penalized_family
):
    # each end node takes the held state's step reflected at h, in both
    # schemes: at x = 0 the put's obstacle binds at every time
    grid = put_pde_field.grid
    ends = grid.xs()[[0, -1]]
    for field in (put_pde_field, put_pde_penalized_family[1e3]):
        for k, t in enumerate(grid.time.times()):
            assert np.all(field.u[k, [0, -1]] >= put_spec.obstacle(t, ends))
        assert np.all(field.u[:, 0] == 40.0)


def test_penalized_family_ordered_below_projected(put_pde_field, put_pde_penalized_family):
    prev = None
    for n in (1e2, 1e3, 1e4):
        pen = put_pde_penalized_family[n]
        assert float(np.max(pen.u - put_pde_field.u)) <= 1e-8
        if prev is not None:
            assert float(np.min(pen.u - prev.u)) >= -1e-8
        prev = pen
    gap = put_pde_field.interpolate(0.0, 36.0) - put_pde_penalized_family[1e4].interpolate(0.0, 36.0)
    assert 0.0 <= gap <= 1e-2


def test_grid_refinement_contract(put_spec, put_fwd, put_pde_field):
    # halving dx and dt moves u(0, x0) by strictly less than the previous halving
    values = [put_pde_field.interpolate(0.0, 36.0)]  # 401 x 400 level
    for m_nodes, n_steps in ((201, 200), (801, 800)):
        grid = PdeGrid(0.0, 160.0, m_nodes, TimeGrid(n_steps, 1.0))
        values.append(solve_pde_projected(grid, put_spec, put_fwd).interpolate(0.0, 36.0))
    coarse_change = abs(values[0] - values[1])
    fine_change = abs(values[2] - values[0])
    assert fine_change < coarse_change


def test_comparison_principle_on_randomized_instances():
    rng = np.random.default_rng(17)
    model = put_model(sigma=0.3)
    grid = PdeGrid(0.0, 120.0, 61, TimeGrid(40, 1.0))
    for _ in range(5):
        rate = float(rng.uniform(0.0, 0.2))
        g_bump = float(rng.uniform(0.0, 2.0))
        f_bump = float(rng.uniform(0.0, 1.0))
        h_bump = float(rng.uniform(0.0, 1.0)) * min(g_bump, 1.0)

        def build(sg, sf, sh):
            def gen(t, x, y, z):
                return -rate * np.asarray(y, dtype=float) + sf

            def term(x):
                return np.maximum(40.0 - np.asarray(x, dtype=float), 0.0) + 1.0 + sg

            def obst(t, x):
                return np.maximum(40.0 - np.asarray(x, dtype=float), 0.0) + sh

            return ProblemSpec(gen, term, obst, rate)

        low = solve_pde_projected(grid, build(0.0, 0.0, 0.0), model)
        high = solve_pde_projected(grid, build(g_bump, f_bump, h_bump), model)
        assert float(np.min(high.u - low.u)) >= -1e-8


def random_lcp(rng, m):
    # strictly diagonally dominant rows; row 1 gets a positive off-diagonal
    # entry, as at the first interior node of a geometric grid on [0, 120]
    # when sigma^2 < r * dx (not an M-matrix row)
    lower = -rng.uniform(0.0, 1.0, m)
    upper = -rng.uniform(0.0, 1.0, m)
    lower[1] = 0.5
    lower[0] = upper[-1] = 0.0
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 1.0, m)
    rhs = rng.normal(0.0, 1.0, m)
    h = rng.normal(0.0, 1.0, m)
    return lower, diag, upper, rhs, h


def tridiagonal_product(lower, diag, upper, v):
    left = np.concatenate(([0.0], v[:-1]))
    right = np.concatenate((v[1:], [0.0]))
    return lower * left + diag * v + upper * right


def kernel_matrix(lower, diag, upper):
    """The (lower, diag, upper, row_norm) that ``pde._policy_lcp`` takes."""
    return lower, diag, upper, np.abs(lower) + diag + np.abs(upper)


def test_policy_kernel_solves_random_lcps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        lower, diag, upper, rhs, h = random_lcp(rng, 40)
        matrix = kernel_matrix(lower, diag, upper)
        # warm starts from an empty and from a full active set
        for start in (np.zeros(40, dtype=bool), np.ones(40, dtype=bool)):
            v, _, _, _, _ = pde._policy_lcp(matrix, rhs, h, None, start, None, 0)
            resid = tridiagonal_product(lower, diag, upper, v) - rhs
            assert np.max(np.abs(np.minimum(resid, v - h))) <= 1e-12
            assert np.all(v >= h)
            for weight in (0.0, 10.0, 1e4):
                v, _, _, _, _ = pde._policy_lcp(matrix, rhs, h, weight, start, None, 0)
                penalty = weight * np.maximum(h - v, 0.0)
                resid = tridiagonal_product(lower, diag, upper, v) - rhs - penalty
                # the penalty term carries weight times the rounding of v
                assert np.max(np.abs(resid)) <= 1e-12 * (1.0 + weight)


def test_factor_and_sweep_are_the_one_pass_elimination_bit_for_bit():
    # random strictly diagonally dominant systems with random active sets,
    # as the projected and the penalized scheme replace their rows
    rng = np.random.default_rng(11)
    for m in (2, 3, 40, 119):
        for _ in range(10):
            lower, diag, upper, rhs, h = random_lcp(rng, m)
            active = rng.uniform(size=m) < 0.4
            systems = [
                (
                    np.where(active, 0.0, lower),
                    np.where(active, 1.0, diag),
                    np.where(active, 0.0, upper),
                    np.where(active, h, rhs),
                ),
                (lower, diag + 37.5 * active, upper, rhs + 37.5 * h * active),
            ]
            for low, dia, up, b in systems:
                factors = pde._factor(low, dia, up)
                expected = thomas(low, dia, up, b)
                assert pde._sweep(factors, b).tobytes() == expected.tobytes()
                # a factorization serves every right-hand side
                other = rng.normal(0.0, 1e3, m)
                assert pde._sweep(factors, other).tobytes() == thomas(low, dia, up, other).tobytes()


def test_policy_kernel_reuses_the_factorization_of_an_unchanged_active_set(monkeypatch):
    rng = np.random.default_rng(5)
    lower, diag, upper, rhs, h = random_lcp(rng, 40)
    matrix = kernel_matrix(lower, diag, upper)
    calls = []
    factor = pde._factor

    def counted(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(pde, "_factor", counted)
    for weight in (None, 100.0):
        calls.clear()
        start = np.zeros(40, dtype=bool)
        v, resid, active, iterations, factored = pde._policy_lcp(
            matrix, rhs, h, weight, start, None, 0
        )
        # one factorization per active set tried: the last one is kept
        assert iterations > 1
        assert len(calls) == iterations and factored[1] == active.tobytes()
        again = pde._policy_lcp(matrix, rhs, h, weight, active, factored, 0)
        assert len(calls) == iterations and again[3] == 1
        assert again[0].tobytes() == v.tobytes() and again[4] is factored
        # another matrix is factored afresh, even on the same active set
        pde._policy_lcp(kernel_matrix(lower, diag, upper), rhs, h, weight, active, factored, 0)
        assert len(calls) == iterations + 1


def test_policy_kernel_settles_on_rows_tied_at_the_obstacle():
    # g = h = const and f = 0: every row ties at the obstacle up to rounding
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1.7"), make_obstacle("constant:1.7"), 0.0
    )
    grid = PdeGrid(0.0, 120.0, 121, TimeGrid(20, 1.0))
    for field in (
        solve_pde_projected(grid, spec, put_model()),
        solve_pde_penalized(grid, spec, put_model(), 100.0),
    ):
        assert np.allclose(field.u, 1.7, rtol=0.0, atol=1e-12)


def test_policy_iteration_cap_carries_diagnostics(put_spec, put_fwd, monkeypatch):
    monkeypatch.setattr(pde, "POLICY_MAX_ITER", 1)
    grid = PdeGrid(0.0, 160.0, 101, TimeGrid(50, 1.0))
    with pytest.raises(
        LcpConvergenceError, match=r"at step 49; worst node \d+, value .*, residual .* = -?\d"
    ):
        solve_pde_projected(grid, put_spec, put_fwd)


def fast_discount_spec(terminal, obstacle):
    # kappa * dt = 0.9 on a 10-step grid: below 1, yet too close to 1 for
    # the fixed-point iterations to settle within their caps. A plain
    # callable: the affine registry form would be solved exactly.
    return ProblemSpec(
        plain(make_generator("linear_discount:9")),
        make_terminal(terminal),
        make_obstacle(obstacle),
        9.0,
    )


def test_lagged_step_rejects_unconverged_fixed_point_where_nothing_binds():
    # the end nodes iterate in the same step as the interior
    grid = PdeGrid(0.0, 160.0, 81, TimeGrid(10, 1.0))
    with pytest.raises(ContractionError, match="^PDE time step did not converge .* at step 9,"):
        solve_pde_projected(grid, fast_discount_spec("constant:1", "zero"), put_model())


def test_lagged_generator_iteration_rejects_unconverged_step():
    grid = PdeGrid(0.0, 160.0, 81, TimeGrid(10, 1.0))
    with pytest.raises(ContractionError, match="at step 9"):
        solve_pde_projected(grid, fast_discount_spec("put_payoff:40", "put_payoff:40"), put_model())


def test_a_non_finite_time_step_names_its_grid_node(put_spec, put_fwd, monkeypatch):
    # interior row i of the LCP is grid node i + 1
    real = pde._policy_lcp

    def overflowing(*args):
        v, *rest = real(*args)
        v[4] = math.inf
        return (v, *rest)

    monkeypatch.setattr(pde, "_policy_lcp", overflowing)
    grid = PdeGrid(0.0, 160.0, 81, TimeGrid(10, 1.0))
    with pytest.raises(DataOverflowError, match=r"^PDE time step reached .* inf at step 9, node 5;"):
        solve_pde_projected(grid, put_spec, put_fwd)


def test_pde_requires_terminal_domination():
    grid = PdeGrid(0.0, 160.0, 81, TimeGrid(10, 1.0))
    spec = ProblemSpec(
        make_generator("linear_discount:0.06"), make_terminal("zero"),
        make_obstacle("put_payoff:40"), 0.06,
    )
    with pytest.raises(ValueError, match="dominate the obstacle"):
        solve_pde_projected(grid, spec, put_model())
    with pytest.raises(ValueError, match="dominate the obstacle"):
        solve_pde_penalized(grid, spec, put_model(), 100.0)


def test_feynman_kac_terminal_probe_is_exact(put_pde_field, put_fwd, put_spec):
    report = feynman_kac_check(put_pde_field, put_fwd, put_spec, [(1.0, 36.0)], lattice_steps=8)
    assert report.max_abs_error == 0.0


def test_feynman_kac_constant_instance():
    grid = PdeGrid(0.0, 2.0, 21, TimeGrid(16, 1.0))
    model = ForwardModel.arithmetic(0.0, 0.1, 1.0)
    spec = constant_spec()
    field = solve_pde_projected(grid, spec, model)
    report = feynman_kac_check(
        field, model, spec, [(0.0, 1.0), (0.5, 1.2), (1.0, 0.8)], lattice_steps=32
    )
    assert report.max_abs_error <= 1e-10


def test_feynman_kac_put_probes(put_pde_field, put_fwd, put_spec):
    report = feynman_kac_check(
        put_pde_field, put_fwd, put_spec, [(0.0, 36.0), (0.5, 36.0), (0.0, 44.0)]
    )
    assert report.max_rel_error <= 0.01


def test_feynman_kac_probe_reads_its_data_from_the_probe_time():
    # f and h read t, and the probe's lattice runs on its own clock from 0:
    # at t = 0.5 it must see them at s + 0.5
    def generator(t, x, y, z):
        return -0.05 * y + 0.1 * t * np.sin(y) + 0.001 * z

    def obstacle(t, x):
        return np.maximum(40.0 - x, 0.0) * (1.0 - 0.1 * t)

    def terminal(x):
        return obstacle(0.0, x)

    spec = ProblemSpec(generator, terminal, obstacle, 0.2)
    grid = PdeGrid(0.0, 160.0, 41, TimeGrid(20, 1.0))
    field = solve_pde_projected(grid, spec, put_model())
    report = feynman_kac_check(field, put_model(), spec, [(0.5, 36.0)], lattice_steps=32)
    shifted = ProblemSpec(
        lambda s, x, y, z: generator(s + 0.5, x, y, z),
        terminal,
        lambda s, x: obstacle(s + 0.5, x),
        0.2,
    )
    lattice = build_lattice(put_model(), TimeGrid(32, 0.5))
    assert report.probes[0].lattice_value == snell_root(lattice, shifted)
    assert report.probes[0].lattice_value != snell_root(lattice, spec)


def test_probe_outside_grid_rejected(put_pde_field, put_fwd, put_spec):
    with pytest.raises(ValueError, match="^probe state 500.0 outside grid$"):
        feynman_kac_check(put_pde_field, put_fwd, put_spec, [(0.0, 500.0)], lattice_steps=8)
    with pytest.raises(ValueError, match="^probe time 2.0 outside grid$"):
        feynman_kac_check(put_pde_field, put_fwd, put_spec, [(2.0, 36.0)], lattice_steps=8)


# -- comparison function and growth diagnostics ----------------------------


def test_chi_params_validation():
    grid = PdeGrid(-100.0, 100.0, 51, TimeGrid(64, 1.0))
    with pytest.raises(ValueError, match="terminal_weight must be > 0"):
        chi_supersolution_check(0.0, put_model(), 1.0, grid)


def test_supersolution_scan_finds_witness_for_gbm():
    model = put_model()
    grid = PdeGrid(-100.0, 100.0, 201, TimeGrid(512, 1.0))
    report = chi_supersolution_check(1.0, model, 1.0, grid)
    assert report.passed
    assert report.witness_time_slope is not None
    row = next(r for r in report.rows if r.time_slope == report.witness_time_slope)
    assert row.min_operator > 0.0


def test_supersolution_control_positive_for_every_slope():
    grid = PdeGrid(-100.0, 100.0, 101, TimeGrid(4096, 1.0))
    report = chi_supersolution_check(
        1.0, ForwardModel.arithmetic(0.0, 0.0, 0.0), 0.0, grid
    )
    evaluable = [r for r in report.rows if r.evaluable]
    assert len(evaluable) == len(report.rows)
    assert all(r.min_operator > 0.0 for r in evaluable)


def test_supersolution_scan_reports_unevaluable_windows():
    model = put_model()
    grid = PdeGrid(-100.0, 100.0, 51, TimeGrid(64, 1.0))
    report = chi_supersolution_check(1.0, model, 1.0, grid)
    skipped = [r for r in report.rows if not r.evaluable]
    assert skipped and all(r.reason == "no interior time slice in window" for r in skipped)
    # a terminal weight of 30 puts every slope's window inside the grid, and
    # exp of its exponents past the float range
    report = chi_supersolution_check(30.0, model, 1.0, grid)
    assert [r.reason for r in report.rows] == ["exponent overflow"] * len(C_SCAN_GRID)
    assert not report.passed and report.witness_time_slope is None


def test_growth_class_checks():
    bounded = growth_class_check(lambda x: 1.0, 1.0, [10.0, 100.0, 1000.0])
    assert bounded.passed
    linear = growth_class_check(lambda x: x, 1.0, [10.0, 100.0, 1000.0])
    assert linear.passed
    # growth dominating the damping factor must be flagged
    runaway = growth_class_check(
        lambda x: math.exp(2.0 * math.log(x) ** 2), 1.0, [10.0, 100.0, 1000.0]
    )
    assert not runaway.passed


def test_growth_class_validation():
    with pytest.raises(ValueError):
        growth_class_check(lambda x: 1.0, 1.0, [10.0, 100.0])
    with pytest.raises(ValueError):
        growth_class_check(lambda x: 1.0, 1.0, [10.0, 5.0, 100.0])
    with pytest.raises(ValueError):
        growth_class_check(lambda x: 1.0, 1.0, [1.0, 10.0, 100.0])
