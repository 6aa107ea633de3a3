import math

import numpy as np
import pytest

from helpers import far_obstacle, put_problem

from rbsde_lab.lattice import ForwardModel, TimeGrid, build_lattice
from rbsde_lab.problem import (
    ProblemSpec,
    SolutionTriple,
    check_terminal_dominates,
    lattice_accumulation_moment,
    lattice_expected_total,
    lattice_sup_moment,
    make_generator,
    make_obstacle,
    make_terminal,
    mp_norm,
    sp_norm,
    validate_solution,
)
from rbsde_lab.snell import solve_snell


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 0.3])
def test_exponent_range(p):
    paths = np.ones((2, 3))
    with pytest.raises(ValueError, match=r"p must lie in \(1,2\)"):
        sp_norm(paths, p)
    with pytest.raises(ValueError, match=r"p must lie in \(1,2\)"):
        mp_norm(paths, 0.1, p)


def test_problem_spec_validation():
    with pytest.raises(ValueError, match=r"p must lie in \(1,2\)"):
        put_problem(p=2.5)
    with pytest.raises(ValueError):
        ProblemSpec(make_generator("zero"), make_terminal("zero"), make_obstacle("zero"), -1.0)


def test_registry_forms():
    g = make_generator("linear_discount:0.1")
    assert np.allclose(g(0.0, np.zeros(3), np.array([1.0, -2.0, 0.0]), np.zeros(3)), [-0.1, 0.2, 0.0])
    term = make_terminal("put_payoff:40")
    assert np.allclose(term(np.array([30.0, 50.0])), [10.0, 0.0])
    obst = make_obstacle("constant:2.5")
    assert np.allclose(obst(0.3, np.array([1.0, 9.0])), 2.5)
    zero = make_generator("zero")
    assert np.all(zero(0.0, np.zeros(2), np.ones(2), np.ones(2)) == 0.0)


@pytest.mark.parametrize(
    "factory,name",
    [
        (make_generator, "put_payoff:40"),
        (make_terminal, "linear_discount:0.1"),
        (make_obstacle, "linear_discount:0.1"),
        (make_generator, "unknown_form"),
        (make_generator, "constant"),
        (make_generator, "zero:3"),
        (make_generator, "constant:abc"),
        (make_terminal, "put_payoff:nan"),
        (make_obstacle, "constant:inf"),
        (make_generator, "linear_discount:-inf"),
    ],
)
def test_registry_rejects_bad_forms(factory, name):
    with pytest.raises(ValueError):
        factory(name)


def test_terminal_domination_check():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.2, 36.0), TimeGrid(8, 1.0))
    ok = put_problem()
    assert check_terminal_dominates(ok, lat.times[-1], lat.nodes[-1]) == 0.0
    bad = ProblemSpec(
        make_generator("zero"), make_terminal("zero"), make_obstacle("constant:1"), 0.0
    )
    with pytest.raises(ValueError, match="dominate the obstacle"):
        check_terminal_dominates(bad, lat.times[-1], lat.nodes[-1])


# -- empirical norms -------------------------------------------------------


def test_sp_norm_constant_process():
    paths = np.full((11, 5), 3.0)
    assert sp_norm(paths, 1.5) == pytest.approx(3.0, abs=1e-14)


def test_sp_norm_single_path_sup():
    assert sp_norm(np.array([0.0, -2.0, 1.0]), 1.5) == pytest.approx(2.0, abs=1e-15)


def test_sp_norm_matches_independent_accumulation():
    rng = np.random.default_rng(31)
    paths = np.exp(rng.normal(0.0, 0.3, size=(10_000, 16))).cumprod(axis=1)
    p = 1.5
    got = sp_norm(paths, p)
    # brute-force recomputation with a different summation order
    acc = math.fsum(sorted(float(np.max(np.abs(row))) ** p for row in paths))
    expected = (acc / paths.shape[0]) ** (1.0 / p)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_norms_are_positively_homogeneous(lam):
    rng = np.random.default_rng(7)
    paths = rng.normal(size=(50, 9))
    p = 1.7
    assert sp_norm(lam * paths, p) == pytest.approx(lam * sp_norm(paths, p), rel=1e-12)
    assert mp_norm(lam * paths, 0.1, p) == pytest.approx(lam * mp_norm(paths, 0.1, p), rel=1e-12)


def test_sp_norm_monotone_under_domination():
    rng = np.random.default_rng(8)
    small = rng.normal(size=(40, 6))
    large = small * rng.uniform(1.0, 2.0, size=small.shape)
    assert sp_norm(large, 1.5) >= sp_norm(small, 1.5)


def test_mp_norm_values():
    assert mp_norm(np.zeros((4, 10)), 0.1, 1.5) == 0.0
    # Z == 1 on [0, 1]: integral of 1 is 1 for any p
    assert mp_norm(np.ones((3, 10)), 0.1, 1.5) == pytest.approx(1.0, abs=1e-14)
    # Z == c on [0, T]: (c^2 T)^(1/2) = c sqrt(T)
    c, horizon, steps = 2.5, 0.81, 27
    z = np.full((5, steps), c)
    assert mp_norm(z, horizon / steps, 1.9) == pytest.approx(c * math.sqrt(horizon), rel=1e-13)


def test_norms_reject_empty_and_bad_dt():
    with pytest.raises(ValueError):
        sp_norm(np.empty((0, 4)), 1.5)
    with pytest.raises(ValueError):
        mp_norm(np.empty((0, 4)), 0.1, 1.5)
    with pytest.raises(ValueError):
        mp_norm(np.ones((2, 2)), 0.0, 1.5)


# -- lattice functionals ---------------------------------------------------


def test_accumulation_functional_exact_for_deterministic_addends():
    lat = build_lattice(ForwardModel.geometric(0.05, 0.3, 10.0), TimeGrid(6, 1.2))
    addends = [np.full(k + 1, 0.25) for k in range(6)]
    weights = lat.node_weights()
    assert lattice_expected_total(addends, weights) == pytest.approx(1.5, abs=1e-13)
    assert lattice_accumulation_moment(lat, addends, 1.5, weights) == pytest.approx(
        1.5**1.5, rel=1e-13
    )


def test_sup_functional_exact_for_constant_field():
    lat = build_lattice(ForwardModel.geometric(0.05, 0.3, 10.0), TimeGrid(5, 1.0))
    values = [np.full(k + 1, -2.0) for k in range(6)]
    assert lattice_sup_moment(lat, values, 1.5, lat.node_weights()) == pytest.approx(
        2.0**1.5, rel=1e-14
    )


@pytest.mark.parametrize("kind", ["geometric", "arithmetic"])
def test_a_batch_of_layers_gives_each_row_its_own_moment_exactly(kind):
    # a (B, k+1) layer is B statistics side by side: the batched forward
    # pass must give every row bit for bit what the row gives alone
    rng = np.random.default_rng(29)
    x0, sigma, mu = rng.uniform(32.0, 48.0), rng.uniform(0.2, 0.45), rng.uniform(0.02, 0.08)
    if kind == "geometric":
        model = ForwardModel.geometric(mu, sigma, x0)
    else:
        model = ForwardModel.arithmetic(mu * x0, sigma * x0, x0)
    lat = build_lattice(model, TimeGrid(24, 1.0))
    weights = lat.node_weights()
    rows = 5
    values = [rng.normal(0.0, 3.0, size=(rows, k + 1)) for k in range(lat.n_steps + 1)]
    addends = [rng.exponential(0.5, size=(rows, k + 1)) for k in range(lat.n_steps)]

    sups = lattice_sup_moment(lat, iter(values), 1.5, weights)
    accs = lattice_accumulation_moment(lat, iter(addends), 0.75, weights)
    totals = lattice_expected_total(iter(addends), weights)
    assert len(sups) == len(accs) == len(totals) == rows
    for b in range(rows):
        assert sups[b] == lattice_sup_moment(lat, (v[b] for v in values), 1.5, weights)
        assert accs[b] == lattice_accumulation_moment(lat, (a[b] for a in addends), 0.75, weights)
        assert totals[b] == lattice_expected_total((a[b] for a in addends), weights)


# -- solution contract -----------------------------------------------------


def test_validate_solution_passes_on_exact_snell_output(put_lattice_512, put_spec, put_snell_512):
    report = validate_solution(put_snell_512.triple, put_spec, put_lattice_512)
    assert report.all_pass
    assert report.obstacle_violation <= 0.0
    assert report.skorokhod_residual <= 1e-12
    assert report.backward_residual <= 1e-10


def test_validate_solution_reports_hand_built_obstacle_violation():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(2, 1.0))
    spec = ProblemSpec(make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0)
    y = [np.array([1.0]), np.array([1.0, -0.5]), np.array([1.0, 1.0, 1.0])]
    z = [np.zeros(1), np.zeros(2)]
    dk = [np.zeros(1), np.zeros(2)]
    sol = SolutionTriple(tuple(y), tuple(z), tuple(dk), lat)
    report = validate_solution(sol, spec, lat)
    assert not report.obstacle_ok
    assert report.obstacle_violation == pytest.approx(0.5)


def test_validate_solution_shape_mismatch():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(2, 1.0))
    spec = ProblemSpec(make_generator("zero"), make_terminal("zero"), make_obstacle("zero"), 0.0)
    y = [np.zeros(1), np.zeros(2)]
    with pytest.raises(ValueError):
        validate_solution(SolutionTriple(tuple(y), (np.zeros(1),), (np.zeros(1),), lat), spec, lat)


def test_no_obstacle_solution_is_plain_backward_equation():
    model = ForwardModel.geometric(0.06, 0.4, 36.0)
    lat = build_lattice(model, TimeGrid(32, 1.0))
    spec = ProblemSpec(
        make_generator("linear_discount:0.06"),
        make_terminal("put_payoff:40"),
        far_obstacle,
        lipschitz_kappa=0.06,
    )
    sol = solve_snell(lat, spec).triple
    assert all(np.all(layer == 0.0) for layer in sol.dk)
    report = validate_solution(sol, spec, lat)
    assert report.all_pass
