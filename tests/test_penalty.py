import math

import numpy as np
import pytest

from helpers import batch_row, far_obstacle, plain, put_model, put_problem

from rbsde_lab.lattice import ForwardModel, TimeGrid, build_lattice
from rbsde_lab.penalty import (
    check_uniform_bound,
    penalized_root,
    run_sweep,
    solve_penalized,
)
from rbsde_lab.problem import (
    ContractionError,
    ProblemSpec,
    lattice_expected_total,
    make_generator,
    make_obstacle,
    make_terminal,
    obstacle_layers,
    validate_solution,
)
from rbsde_lab.snell import solve_snell


def test_zero_intensity_reduces_to_plain_backward_equation():
    lat = build_lattice(put_model(), TimeGrid(64, 1.0))
    spec = put_problem()
    pen = batch_row(solve_penalized(lat, spec, [0.0]), 0)
    assert all(np.all(layer == 0.0) for layer in pen.dk)
    free = ProblemSpec(spec.generator, spec.terminal, far_obstacle, spec.lipschitz_kappa)
    plain = solve_snell(lat, free).triple
    for k in range(lat.n_steps + 1):
        assert np.allclose(pen.y[k], plain.y[k], atol=1e-11)


def test_unconverged_branch_names_the_step_and_node():
    # kappa * dt = 0.9: the one-step fixed point cannot settle in its cap (a
    # plain callable: the affine registry form would be solved exactly)
    lat = build_lattice(put_model(), TimeGrid(10, 1.0))
    spec = ProblemSpec(
        plain(make_generator("linear_discount:9")),
        make_terminal("put_payoff:40"),
        make_obstacle("put_payoff:40"),
        9.0,
    )
    with pytest.raises(
        ContractionError, match=r"penalized one-step solve did not converge .* at step 9, node \d"
    ):
        solve_penalized(lat, spec, [100.0])


def test_the_contraction_check_names_the_penalized_step():
    lat = build_lattice(put_model(), TimeGrid(10, 1.0))
    spec = put_problem()._replace(lipschitz_kappa=10.0)
    with pytest.raises(
        ContractionError, match=r"^penalized one-step solve requires lipschitz_kappa \* dt < 1;"
    ):
        solve_penalized(lat, spec, [100.0])


@pytest.mark.parametrize("intensity", [1.0, 100.0, 1e4])
def test_inactive_penalty_on_dominated_obstacle(intensity):
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(16, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    sol = batch_row(solve_penalized(lat, spec, [intensity]), 0)
    for k in range(lat.n_steps + 1):
        assert np.allclose(sol.y[k], 1.0, atol=1e-13)
    assert all(np.all(layer == 0.0) for layer in sol.dk)


def test_put_sweep_diagnostics(put_sweep_512, put_penalized_512, put_lattice_512, put_spec):
    trace = put_sweep_512
    # discrete comparison in the penalty intensity
    assert max(trace.monotonicity_violation) <= 1e-10
    # penalized values never exceed the reflected solution, at any intensity
    snell = solve_snell(put_lattice_512, put_spec).triple
    worst = max(float(np.max(ya - yb)) for ya, yb in zip(put_penalized_512.y, snell.y))
    assert worst <= 1e-10
    # negative part decays (monotone up to tiny slack) and the root gap closes
    neg = trace.negative_part_norm
    assert all(b <= a + 1e-10 for a, b in zip(neg, neg[1:]))
    assert trace.sup_gap_to_snell[-1] < trace.sup_gap_to_snell[0]


def test_penalty_acts_only_below_the_obstacle(put_penalized_512, put_lattice_512, put_spec):
    h = list(obstacle_layers(put_spec, put_lattice_512))
    sol = batch_row(put_penalized_512, 5)
    crossing = 0.0
    for k in range(put_lattice_512.n_steps):
        above = np.maximum(sol.y[k] - h[k], 0.0)
        crossing = max(crossing, float(np.max(above * sol.dk[k])))
        active = sol.dk[k] > 0.0
        assert np.all(sol.y[k][active] < h[k][active])
    assert crossing == 0.0


def test_skorokhod_residual_shrinks_with_intensity(put_penalized_512, put_spec):
    residuals = []
    for b in range(len(put_penalized_512.y[0])):
        rep = validate_solution(batch_row(put_penalized_512, b), put_spec)
        assert rep.backward_ok and rep.k_monotone_ok
        residuals.append(rep.skorokhod_residual)
    assert residuals[0] > 0.0
    assert residuals[-1] < residuals[0]
    # roughly O(1/n): three orders of intensity shrink it by at least one order
    assert residuals[-1] <= residuals[0] / 10.0


def test_k_root_converges_along_the_tail(put_sweep_512, put_snell_512, put_lattice_512):
    k_snell = lattice_expected_total(put_snell_512.triple.dk, put_lattice_512.node_weights())
    errs = [abs(k - k_snell) for k in put_sweep_512.k_t_root]
    assert errs[-1] < errs[-2] < errs[-3]


def test_undershoot_reported_when_obstacle_sits_above_continuation():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(32, 1.0))
    horizon = 1.0

    def lofty_obstacle(t, x):
        # high plateau that drops to 0 at the terminal date (keeps g >= h(T))
        base = np.zeros_like(np.asarray(x, dtype=float))
        return base + (5.0 if t < horizon - 1e-9 else 0.0)

    spec = ProblemSpec(make_generator("zero"), make_terminal("constant:1"), lofty_obstacle, 0.0)
    trace = run_sweep(lat, spec, [1000.0])
    assert trace.negative_part_norm[0] > 0.0
    sol = batch_row(solve_penalized(lat, spec, [1000.0]), 0)
    h = list(obstacle_layers(spec, lat))
    assert any(np.any(sol.y[k] < h[k]) for k in range(lat.n_steps))


def test_uniform_bound_constant_instance():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(16, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    trace = run_sweep(lat, spec, [1.0, 2.0, 4.0, 8.0])
    assert np.allclose(trace.bound_quantity, trace.bound_quantity[0], rtol=1e-12)
    report = check_uniform_bound(trace)
    assert report.passed


def test_uniform_bound_single_entry():
    lat = build_lattice(put_model(), TimeGrid(32, 1.0))
    trace = run_sweep(lat, put_problem(), [0.0])
    report = check_uniform_bound(trace)
    assert report.passed


def test_uniform_bound_on_put(put_sweep_512):
    report = check_uniform_bound(put_sweep_512)
    assert report.passed


def test_sweep_schedule_validation():
    lat = build_lattice(put_model(), TimeGrid(8, 1.0))
    spec = put_problem()
    with pytest.raises(ValueError, match="strictly increasing"):
        run_sweep(lat, spec, [1.0, 1.0])
    with pytest.raises(ValueError, match=">= 0"):
        run_sweep(lat, spec, [-1.0, 2.0])
    with pytest.raises(ValueError, match="nonempty"):
        run_sweep(lat, spec, [])
    with pytest.raises(ValueError):
        solve_penalized(lat, spec, [-3.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="penalty intensities must be finite"):
            run_sweep(lat, spec, [1.0, bad])
        with pytest.raises(ValueError, match="penalty intensities must be finite"):
            solve_penalized(lat, spec, [1.0, bad])


@pytest.mark.parametrize("intensity", [-1.0, math.nan, math.inf])
def test_penalized_root_rejects_a_negative_or_non_finite_intensity(intensity):
    lat = build_lattice(put_model(), TimeGrid(8, 1.0))
    with pytest.raises(ValueError, match="penalty intensities must be finite and >= 0"):
        penalized_root(lat, put_problem(), intensity)


def test_compensator_instance_pushes_against_negative_drift():
    # constant obstacle equal to the terminal value with a negative generator:
    # K must act to keep Y on the obstacle
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(32, 1.0))
    spec = ProblemSpec(
        make_generator("constant:-1"),
        make_terminal("constant:1"),
        make_obstacle("constant:1"),
        0.0,
    )
    weights = lat.node_weights()
    sol = batch_row(solve_penalized(lat, spec, [4096.0]), 0)
    assert lattice_expected_total(sol.dk, weights) > 0.5
    snell = solve_snell(lat, spec).triple
    assert lattice_expected_total(snell.dk, weights) == pytest.approx(1.0, abs=1e-10)
    assert float(np.max(np.abs(sol.y[0][0] - snell.y[0][0]))) <= 1e-3


def seeded_put(seed, kind, n_steps=16):
    """A put drawn from a seed. Its discount rate is high enough (r * dt up to
    0.5) that the one-step fixed points take many slowly shrinking steps."""
    rng = np.random.default_rng(seed)
    x0, sigma, mu = rng.uniform(32.0, 48.0), rng.uniform(0.2, 0.45), rng.uniform(0.02, 0.08)
    if kind == "geometric":
        model = ForwardModel.geometric(mu, sigma, x0)
    else:
        model = ForwardModel.arithmetic(mu * x0, sigma * x0, x0)
    return build_lattice(model, TimeGrid(n_steps, 1.0)), put_problem(r=rng.uniform(4.0, 8.0))


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("kind", ["geometric", "arithmetic"])
def test_batched_solve_is_bit_identical_to_one_intensity_solves(kind, seed):
    # every row of the batch must follow exactly the iterates it follows
    # alone, including rows that settle before the others
    lat, spec = seeded_put(seed, kind)
    schedule = [0.0, 1.0, 3.0, 64.0, 4096.0]
    batch = solve_penalized(lat, spec, schedule)
    assert all(len(layer) == len(schedule) for layer in batch.y)
    for b, n in enumerate(schedule):
        sol, alone = batch_row(batch, b), batch_row(solve_penalized(lat, spec, [n]), 0)
        for field in ("y", "z", "dk"):
            layers, reference = getattr(sol, field), getattr(alone, field)
            assert len(layers) == len(reference)
            for k, (a, b) in enumerate(zip(layers, reference)):
                assert np.array_equal(a, b), f"n={n} {field}[{k}]"
    assert all(np.all(layer == 0.0) for layer in batch_row(batch, 0).dk)


@pytest.mark.parametrize(
    "generator",
    [
        pytest.param(make_generator("linear_discount:0.06"), id="affine"),
        pytest.param(lambda t, x, y, z: -0.06 * y + 0.05 * z, id="z-reading"),
    ],
)
def test_penalized_increments_are_the_penalty_at_the_solved_y(generator):
    # dK = n * dt * (h - Y)^+ on every row, bit for bit
    lat = build_lattice(put_model(), TimeGrid(64, 1.0))
    spec = put_problem()._replace(generator=generator)
    ns = [0.0] + [2.0**i for i in range(11)]
    batch = solve_penalized(lat, spec, ns)
    for k, h in zip(range(lat.n_steps), obstacle_layers(spec, lat)):
        for b, n in enumerate(ns):
            expected = n * lat.dt * np.maximum(h - batch.y[k][b], 0.0)
            assert batch.dk[k][b].tobytes() == expected.tobytes(), (k, n)
