import math
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    american_put_tree,
    enumerate_markov_stopping_rules,
    far_obstacle,
    optimal_stopping_times,
    put_model,
    put_problem,
    random_stopping_instance,
    sample_node_paths,
)

from rbsde_lab import problem, snell
from rbsde_lab.diagnostics import brute_force_stopping_value, feynman_kac_check
from rbsde_lab.lattice import ForwardModel, PdeGrid, TimeGrid, build_lattice, lattice_expectation
from rbsde_lab.pde import solve_pde_projected
from rbsde_lab.penalty import solve_penalized
from rbsde_lab.problem import (
    ContractionError,
    DataOverflowError,
    ProblemSpec,
    fixed_point,
    make_generator,
    make_obstacle,
    make_terminal,
    validate_solution,
)
from rbsde_lab.snell import estimate_z, snell_root, solve_snell


def constant_one_instance(n_steps=16):
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(n_steps, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    return lat, spec


def test_martingale_above_dominated_obstacle():
    lat, spec = constant_one_instance()
    out = solve_snell(lat, spec)
    for k in range(lat.n_steps + 1):
        assert np.allclose(out.triple.y[k], 1.0, atol=1e-14)
    for k in range(lat.n_steps):
        assert np.all(out.triple.z[k] == 0.0)
        assert np.all(out.triple.dk[k] == 0.0)


def test_pure_generator_accrual_without_obstacle():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(20, 1.0))
    spec = ProblemSpec(make_generator("constant:1"), make_terminal("zero"), far_obstacle, 0.0)
    out = solve_snell(lat, spec)
    assert float(out.triple.y[0][0]) == pytest.approx(1.0, abs=1e-12)
    for k in range(lat.n_steps):
        # Y_t = horizon - t and no pushing anywhere
        assert np.allclose(out.triple.y[k], 1.0 - lat.times[k], atol=1e-12)
        assert np.all(out.triple.dk[k] == 0.0)


def test_american_put_matches_direct_tree_oracle(put_snell_2048):
    oracle = american_put_tree(36.0, 40.0, 0.06, 0.4, 1.0, 2048)
    assert float(put_snell_2048.triple.y[0][0]) == pytest.approx(oracle, abs=1e-12)


def test_definition_contract_on_put(put_snell_2048, put_spec):
    report = validate_solution(put_snell_2048.triple, put_spec)
    assert report.all_pass
    assert report.obstacle_violation <= 0.0


def test_supermartingale_split_and_skorokhod(put_snell_512, put_lattice_512, put_spec):
    out = put_snell_512
    h_at = put_spec.obstacle
    for k in range(out.triple.n_steps):
        y, c, dk = out.triple.y[k], out.continuation[k], out.triple.dk[k]
        assert np.all(y >= c - 1e-14)
        off = ~out.exercise_region[k]
        assert np.allclose(y[off], c[off], atol=1e-14)
        h = h_at(put_lattice_512.times[k], put_lattice_512.nodes[k])
        # pushing only while touching the obstacle, exactly
        assert np.all((dk == 0.0) | (y == h))
        assert float(np.max(np.abs((y - h) * dk))) <= 1e-12


def test_exercise_region_labels_terminal_layer():
    lat, spec = constant_one_instance(4)
    out = solve_snell(lat, spec)
    # terminal payoff 1 never equals the zero obstacle
    assert not out.exercise_region[-1].any()
    put = put_problem()
    lat2 = build_lattice(put_model(), TimeGrid(4, 1.0))
    out2 = solve_snell(lat2, put)
    assert np.array_equal(out2.exercise_region[-1], np.ones(5, dtype=bool))


def test_estimate_z_constant_layer_is_zero():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.2, 10.0), TimeGrid(6, 1.0))
    assert np.all(estimate_z(lat, np.full(4, 7.7), 2) == 0.0)


def test_estimate_z_unit_slope_on_arithmetic_lattice():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(6, 1.0))
    z = estimate_z(lat, lat.nodes[3], 2)
    assert np.allclose(z, 1.0, atol=1e-14)


def test_estimate_z_degenerate_spacing_gives_zero():
    lat = build_lattice(ForwardModel.arithmetic(1.0, 0.0, 0.0), TimeGrid(4, 1.0))
    assert np.all(estimate_z(lat, np.ones(3), 1) == 0.0)


@pytest.mark.parametrize(
    "model",
    [ForwardModel.geometric(0.06, 0.4, 36.0), ForwardModel.arithmetic(0.3, 0.0, 2.0)],
    ids=["spaced", "zero-spacing"],
)
def test_estimate_z_batch_is_the_diff_formula_bit_for_bit(model):
    lat = build_lattice(model, TimeGrid(9, 1.0))
    k = 6
    y_next = np.random.default_rng(5).normal(size=(11, k + 2))
    dx = np.diff(lat.nodes[k + 1])
    slope = np.divide(np.diff(y_next, axis=-1), dx, out=np.zeros((11, k + 1)), where=dx != 0.0)
    reference = slope * model.vol(lat.nodes[k])
    z = estimate_z(lat, y_next, k)
    assert z.tobytes() == reference.tobytes()
    assert np.all(z[:, dx == 0.0] == 0.0)
    assert np.all(dx == 0.0) == (model.vol_coeff == 0.0)


def test_estimate_z_shape_check():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(4, 1.0))
    with pytest.raises(ValueError):
        estimate_z(lat, np.ones(5), 1)


def test_put_z_against_bump_and_revalue(put_snell_2048, put_spec):
    n = 2048
    u = math.exp(0.4 * math.sqrt(1.0 / n))
    delta = 36.0 * (u - 1.0 / u) / 2.0  # half lattice spacing cancels sawtooth

    def y0(x0):
        lat = build_lattice(ForwardModel.geometric(0.06, 0.4, x0), TimeGrid(n, 1.0))
        return float(solve_snell(lat, put_spec).triple.y[0][0])

    fd_delta = (y0(36.0 + delta) - y0(36.0 - delta)) / (2.0 * delta)
    z_oracle = fd_delta * 0.4 * 36.0
    assert abs(float(put_snell_2048.triple.z[0][0]) - z_oracle) <= 1e-3


def test_stopping_time_never_fires_without_obstacle():
    lat = build_lattice(ForwardModel.geometric(0.06, 0.4, 36.0), TimeGrid(12, 1.0))
    spec = ProblemSpec(
        make_generator("linear_discount:0.06"), make_terminal("put_payoff:40"), far_obstacle, 0.06
    )
    out = solve_snell(lat, spec)
    paths = sample_node_paths(lat, 50, seed=3)
    assert np.all(optimal_stopping_times(out, paths) == 12)


def test_stopping_time_immediate_when_obstacle_dominates():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(6, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:5"), make_obstacle("constant:5"), 0.0
    )
    out = solve_snell(lat, spec)
    paths = sample_node_paths(lat, 20, seed=5)
    assert np.all(optimal_stopping_times(out, paths) == 0)


def test_stopping_replay_recovers_root_value(put_snell_512, put_lattice_512):
    lat = put_lattice_512
    out = put_snell_512
    paths = sample_node_paths(lat, 10_000, seed=777)
    stops = optimal_stopping_times(out, paths)
    rate, strike = 0.06, 40.0
    states = np.array([lat.nodes[stops[i]][paths[i, stops[i]]] for i in range(len(stops))])
    rewards = np.maximum(strike - states, 0.0) * (1.0 + rate * lat.dt) ** (-stops)
    se = rewards.std(ddof=1) / math.sqrt(len(rewards))
    assert abs(rewards.mean() - float(out.triple.y[0][0])) <= 3.0 * se


def test_brute_force_trivials():
    lat, spec = constant_one_instance(3)
    assert brute_force_stopping_value(lat, spec) == pytest.approx(1.0, abs=1e-15)
    lat2 = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(3, 1.0))
    spec2 = ProblemSpec(make_generator("constant:1"), make_terminal("zero"), far_obstacle, 0.0)
    assert brute_force_stopping_value(lat2, spec2) == pytest.approx(1.0, abs=1e-14)


def test_brute_force_refuses_large_trees():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(13, 1.0))
    spec = ProblemSpec(make_generator("zero"), make_terminal("zero"), make_obstacle("zero"), 0.0)
    with pytest.raises(ValueError, match="n_steps <= 12"):
        brute_force_stopping_value(lat, spec)


def test_three_way_oracle_agreement_on_tiny_tree():
    # solver vs exhaustive history recursion vs literal rule enumeration
    rng = np.random.default_rng(99)
    for _ in range(5):
        model = ForwardModel.arithmetic(
            float(rng.normal()), float(rng.uniform(0.2, 1.0)), float(rng.normal())
        )
        strike = model.x0 + float(rng.normal())
        spec = ProblemSpec(
            make_generator(f"constant:{float(rng.normal())}"),
            make_terminal(f"put_payoff:{strike}"),
            make_obstacle(f"put_payoff:{strike}"),
            0.0,
        )
        lat = build_lattice(model, TimeGrid(4, 1.0))
        y0 = float(solve_snell(lat, spec).triple.y[0][0])
        bf = brute_force_stopping_value(lat, spec)
        rules = enumerate_markov_stopping_rules(lat, spec)
        assert y0 == pytest.approx(bf, abs=1e-12)
        assert y0 == pytest.approx(rules, abs=1e-12)


def test_oracle_equality_on_randomized_instances():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    for _ in range(50):
        lattice, spec = random_stopping_instance(rng)
        y0 = float(solve_snell(lattice, spec).triple.y[0][0])
        bf = brute_force_stopping_value(lattice, spec)
        assert abs(y0 - bf) <= 1e-12 * (1.0 + abs(y0))
    assert time.perf_counter() - start < 5.0


def test_comparison_raising_data_never_lowers_y():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lattice, spec = random_stopping_instance(rng)
        bump = float(rng.uniform(0.0, 1.0))

        def lifted_terminal(x, base=spec.terminal, b=bump):
            return base(x) + b

        lifted = ProblemSpec(
            spec.generator, lifted_terminal, spec.obstacle, spec.lipschitz_kappa, spec.p_exponent
        )
        low = solve_snell(lattice, spec).triple
        high = solve_snell(lattice, lifted).triple
        for k in range(lattice.n_steps + 1):
            assert np.all(high.y[k] >= low.y[k] - 1e-12)


def test_contraction_guard():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(2, 1.0))
    spec = ProblemSpec(make_generator("zero"), make_terminal("zero"), make_obstacle("zero"), 2.1)
    with pytest.raises(
        ContractionError, match="^implicit one-step solve requires lipschitz_kappa \\* dt < 1"
    ):
        solve_snell(lat, spec)


# one row, and the same row as a batch of one named row: the batch ends on
# the same bits and names its row at the end of the node
ONE_ROW = pytest.mark.parametrize(
    "rows, suffix", [(None, ""), (["row a"], ", row a")], ids=["row", "batch"]
)


def _fixed_point_on(rows, update, y0, step):
    if rows is None:
        return fixed_point(update, y0, step, snell.ONE_STEP)
    return fixed_point(update, y0[None], step, snell.ONE_STEP, rows=rows)[0]


@ONE_ROW
def test_fixed_point_settles_or_raises(rows, suffix):
    # the same recursion in Python floats, stopped by the same test
    y = 0.0
    while True:
        y_new = 1.0 - 0.5 * y
        if abs(y_new - y) <= problem.FP_TOL * (1.0 + abs(y_new)):
            break
        y = y_new
    assert _fixed_point_on(rows, lambda y: 1.0 - 0.5 * y, np.zeros(3), 2).tolist() == [y_new] * 3
    # contraction factor 0.9: 0.9^100 is far above the relative stop test
    y = 0.0
    for _ in range(problem.FP_MAX_ITER):
        y_new = 1.0 - 0.9 * y
        change, y = abs(y_new - y), y_new
    with pytest.raises(ContractionError) as err:
        _fixed_point_on(rows, lambda y: 1.0 - 0.9 * y, np.zeros(1), 2)
    assert str(err.value) == (
        f"implicit one-step solve did not converge in 100 iterations at step 2, node 0{suffix} "
        f"(last change {change:.3e}); lipschitz_kappa * dt must lie well below 1 for the "
        f"fixed point to contract"
    )


@ONE_ROW
def test_fixed_point_names_an_overflowed_iterate_not_the_contraction(rows, suffix):
    with np.errstate(over="ignore"):
        # the iterate squares past the float range on the second update
        with pytest.raises(DataOverflowError) as err:
            _fixed_point_on(rows, lambda y: y * y + 1e200, np.zeros(2), 4)
    assert str(err.value) == (
        f"implicit one-step solve reached the non-finite value inf at step 4, node 0{suffix}; "
        f"the terminal, obstacle or generator values overflowed the float range"
    )


def test_fixed_point_names_the_overflowed_row_of_a_batch():
    def update(y):
        # rows 0 and 2 settle; row 1 leaves the float range at node 2
        out = np.ones_like(y)
        out[1, 2] = y[1, 2] * 1e300 + 1e300
        return out

    with np.errstate(over="ignore"):
        with pytest.raises(DataOverflowError, match=r"value inf at step 7, node 2, row b;") as err:
            fixed_point(update, np.zeros((3, 4)), 7, snell.ONE_STEP, ["row a", "row b", "row c"])
    assert "lipschitz" not in str(err.value)


def _root_instance(kind, generator, n_steps):
    if kind == "geometric":
        model, strike = ForwardModel.geometric(0.06, 0.4, 36.0), 40.0
    elif kind == "sigma-zero":
        model, strike = ForwardModel.geometric(0.06, 0.0, 36.0), 40.0
    else:
        model, strike = ForwardModel.arithmetic(0.3, 4.0, 36.0), 38.0
    spec = ProblemSpec(
        generator if callable(generator) else make_generator(generator),
        make_terminal(f"put_payoff:{strike}"),
        make_obstacle(f"put_payoff:{strike}"),
        0.06,
    )
    return build_lattice(model, TimeGrid(n_steps, 1.0)), spec


@pytest.mark.parametrize("n_steps", [1, 2, 3, 64, 384])
@pytest.mark.parametrize(
    "generator",
    [
        "zero",
        "constant:0.5",
        "linear_discount:0.06",
        # not affine and reads z: the root pass estimates Z only for it
        pytest.param(lambda t, x, y, z: -0.06 * y + 0.05 * z, id="z-reading"),
    ],
)
@pytest.mark.parametrize("kind", ["geometric", "arithmetic", "sigma-zero"])
def test_root_solve_is_the_full_solves_root_bit_for_bit(kind, generator, n_steps):
    lat, spec = _root_instance(kind, generator, n_steps)
    assert snell_root(lat, spec) == solve_snell(lat, spec).triple.y[0][0]


def _raised(solver, lat, spec) -> str:
    with pytest.raises(DataOverflowError) as err:
        solver(lat, spec)
    return str(err.value)


def test_a_root_solve_names_the_non_finite_layer_the_full_solve_names():
    # the root pass checks only Y0; an obstacle of +inf before t = 0.3
    # makes every layer from step 4 down inf, and so Y0
    lat = build_lattice(put_model(), TimeGrid(16, 1.0))
    put = make_obstacle("put_payoff:40")

    def lofty(t, x):
        return np.full_like(x, math.inf) if t < 0.3 else put(t, x)

    spec = ProblemSpec(make_generator("linear_discount:0.06"), put_problem().terminal, lofty, 0.06)
    message = _raised(lambda *args: solve_snell(*args).triple, lat, spec)
    assert "value inf at step 4, node 0;" in message
    assert _raised(snell_root, lat, spec) == message


def test_a_root_solve_names_a_minus_inf_layer_that_the_max_hides():
    # g = f = -1e308: y falls by dt * 1e308 a step and reaches -inf at step
    # 3, where h = -inf lets it through; from step 2 on h = 0 and
    # max(0, -inf) = 0, so Y0 = 0 is finite, yet the layer was not
    def sinking(t, x):
        return np.full_like(x, -math.inf if t > 0.15 else 0.0)

    lat = build_lattice(put_model(), TimeGrid(16, 1.0))
    spec = ProblemSpec(
        make_generator("constant:-1e308"), make_terminal("constant:-1e308"), sinking, 0.0
    )
    message = _raised(lambda *args: solve_snell(*args).triple, lat, spec)
    assert "value -inf at step 3, node 0;" in message
    assert _raised(snell_root, lat, spec) == message


def _count_layer_calls(monkeypatch) -> tuple:
    """The step k of every ``estimate_z`` call and the (k, what) of every
    ``implicit_step`` call from now on, each list in call order."""
    steps, solves = [], []
    estimate, solve = snell.estimate_z, snell.implicit_step

    def counted_estimate(lattice, y_next, k):
        steps.append(k)
        return estimate(lattice, y_next, k)

    def counted_solve(generator, step, frozen, k, what, rows=None):
        solves.append((k, what))
        return solve(generator, step, frozen, k, what, rows)

    monkeypatch.setattr(snell, "estimate_z", counted_estimate)
    monkeypatch.setattr(snell, "implicit_step", counted_solve)
    return steps, solves


def test_the_fast_root_pass_never_estimates_z_for_an_affine_generator(
    monkeypatch, put_spec, put_fwd
):
    # an affine f never reads z, and the fast root pass of an affine
    # generator computes only Y: the root passes of convergence and the
    # Feynman-Kac probes make no Z estimate and no implicit solve on data
    # the root check accepts, while solve_snell makes one of each a layer
    steps, solves = _count_layer_calls(monkeypatch)
    lat = build_lattice(put_fwd, TimeGrid(64, 1.0))
    snell_root(lat, put_spec)
    grid = PdeGrid(0.0, 160.0, 41, TimeGrid(40, 1.0))
    field = solve_pde_projected(grid, put_spec, put_fwd)
    feynman_kac_check(field, put_fwd, put_spec, [(0.0, 36.0), (0.5, 40.0)], lattice_steps=64)
    assert steps == [] and solves == []
    solve_snell(lat, put_spec)
    assert steps == list(range(63, -1, -1))
    assert solves == [(k, snell.ONE_STEP) for k in range(63, -1, -1)]


def test_the_checked_root_pass_estimates_z_once_a_layer(monkeypatch, put_spec, put_fwd):
    # g = h = -1e302 lies past the range the root check accepts, so
    # snell_root runs the checked pass, which estimates Z and solves once
    # on every layer and gives solve_snell's root bit for bit
    lat = build_lattice(put_fwd, TimeGrid(64, 1.0))
    far = make_terminal("constant:-1e302")
    spec = put_spec._replace(terminal=far, obstacle=make_obstacle("constant:-1e302"))
    steps, solves = _count_layer_calls(monkeypatch)
    root = snell_root(lat, spec)
    assert steps == list(range(63, -1, -1))
    assert solves == [(k, snell.ONE_STEP) for k in range(63, -1, -1)]
    assert root == float(solve_snell(lat, spec).triple.y[0][0])


def test_the_penalized_pass_estimates_z_and_solves_once_a_layer(monkeypatch, put_spec, put_fwd):
    # three intensities are one batch: one Z estimate and one implicit
    # solve a layer, not one per intensity
    lat = build_lattice(put_fwd, TimeGrid(64, 1.0))
    steps, solves = _count_layer_calls(monkeypatch)
    solve_penalized(lat, put_spec, [1.0, 8.0, 64.0])
    assert steps == list(range(63, -1, -1))
    assert solves == [(k, "penalized one-step solve") for k in range(63, -1, -1)]


@pytest.mark.parametrize(
    "generator",
    [
        # the README put's generator, and one that is not affine and reads z
        pytest.param(make_generator("linear_discount:0.06"), id="affine"),
        pytest.param(lambda t, x, y, z: -0.06 * y + 0.05 * z, id="z-reading"),
    ],
)
def test_the_continuation_is_the_generator_at_the_solved_y(generator):
    # c = E_k[Y_{k+1}] + dt * f(t, x, Y, Z) and dK = (h - c)^+, bit for bit;
    # a continuation from f at an earlier iterate of a non-affine f misses
    # it in the last bits on a few nodes
    lat = build_lattice(put_model(), TimeGrid(64, 1.0))
    spec = put_problem()._replace(generator=generator)
    out = solve_snell(lat, spec)
    y, z, dk = out.triple.y, out.triple.z, out.triple.dk
    for k in range(lat.n_steps):
        t, x = lat.times[k], lat.nodes[k]
        f = np.asarray(generator(t, x, y[k], z[k]), dtype=float)
        cont = lattice_expectation(lat, y[k + 1], k) + lat.dt * f
        h = np.asarray(spec.obstacle(t, x), dtype=float)
        assert out.continuation[k].tobytes() == cont.tobytes(), k
        assert dk[k].tobytes() == np.maximum(h - cont, 0.0).tobytes(), k


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_root_solve_and_geometric_build_run_in_linear_memory(put_spec):
    # N = 1024: a full solve keeps Y, Z, K, the continuation and the
    # exercise flags of every layer, about 17 MB; a root solve keeps a few
    # layers, and the geometric lattice two tables of about N + 1 states
    grid = TimeGrid(1024, 1.0)
    build_peak = _peak_traced_bytes(lambda: build_lattice(put_model(), grid))
    lat = build_lattice(put_model(), grid)
    root_peak = _peak_traced_bytes(lambda: snell_root(lat, put_spec))
    full_peak = _peak_traced_bytes(lambda: solve_snell(lat, put_spec))
    assert build_peak < 1e6
    assert root_peak < 1e6
    assert full_peak > 10e6
