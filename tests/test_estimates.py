import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import batch_row, far_obstacle, put_model, put_problem

from rbsde_lab.cli import append_report_jsonl
from rbsde_lab.estimates import (
    check_k_estimate,
    check_stability,
    check_y_estimate,
    check_z_estimate,
    solution_moments,
)
from rbsde_lab.lattice import ForwardModel, TimeGrid, build_lattice
from rbsde_lab.penalty import solve_penalized
from rbsde_lab.problem import (
    ProblemSpec,
    make_generator,
    make_obstacle,
    make_terminal,
    validate_solution,
)
from rbsde_lab.snell import solve_snell

BASELINES = json.loads(
    (Path(__file__).parent / "data" / "estimate_baselines.json").read_text()
)


def solve(lattice, spec):
    return solve_snell(lattice, spec).triple


def moments(sol, spec):
    return solution_moments(sol, spec, validate_solution(sol, spec))


def test_all_zero_instance_has_zero_ratio():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(12, 1.0))
    spec = ProblemSpec(make_generator("zero"), make_terminal("zero"), far_obstacle, 0.0)
    sol = solve(lat, spec)
    report = check_y_estimate(moments(sol, spec))
    assert report.lhs == 0.0
    assert report.empirical_ratio == 0.0


def test_constant_instance_ratio_one():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(12, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    sol = solve(lat, spec)
    report = check_y_estimate(moments(sol, spec))
    assert report.lhs == pytest.approx(1.0, abs=1e-13)
    assert report.rhs_data_functional == pytest.approx(1.0, abs=1e-13)
    assert report.empirical_ratio == pytest.approx(1.0, abs=1e-12)


def test_z_estimate_zero_integrand():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(12, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    report = check_z_estimate(moments(solve(lat, spec), spec))
    assert report.lhs == 0.0


def test_z_estimate_linear_terminal_hand_value():
    # driftless arithmetic state with unit volatility and identity payoff:
    # Y is the state itself, Z == 1, so the integral norm is horizon^(p/2)
    horizon, p = 0.64, 1.5
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 3.0), TimeGrid(16, horizon))
    spec = ProblemSpec(
        make_generator("zero"), lambda x: np.asarray(x, dtype=float), far_obstacle, 0.0, p
    )
    sol = solve(lat, spec)
    assert all(np.allclose(z, 1.0, atol=1e-13) for z in sol.z)
    report = check_z_estimate(moments(sol, spec))
    assert report.lhs == pytest.approx(horizon ** (p / 2.0), rel=1e-12)
    assert report.rhs_data_functional > 0.0


def test_k_estimate_zero_when_obstacle_never_binds():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(12, 1.0))
    spec = ProblemSpec(
        make_generator("zero"), make_terminal("constant:1"), make_obstacle("zero"), 0.0
    )
    report = check_k_estimate(moments(solve(lat, spec), spec))
    assert report.lhs == 0.0


def test_k_estimate_compensated_drift_is_positive():
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(24, 1.0))
    spec = ProblemSpec(
        make_generator("constant:-1"),
        make_terminal("constant:1"),
        make_obstacle("constant:1"),
        0.0,
    )
    report = check_k_estimate(moments(solve(lat, spec), spec))
    assert report.lhs > 0.0
    assert report.empirical_ratio > 0.0


@pytest.mark.parametrize("sigma", [0.2, 0.3, 0.4])
def test_put_family_ratios_stay_within_recorded_baselines(sigma):
    model = put_model(sigma=sigma)
    spec = put_problem()
    lat = build_lattice(model, TimeGrid(256, 1.0))
    sol = solve(lat, spec)
    base = BASELINES[f"american_put_sigma_{sigma}"]
    m = moments(sol, spec)
    assert check_y_estimate(m).empirical_ratio <= base["y_ratio"] * 1.01
    assert check_z_estimate(m).empirical_ratio <= base["z_ratio"] * 1.01
    assert check_k_estimate(m).empirical_ratio <= base["k_ratio"] * 1.01


def test_estimates_reject_unreflected_solutions(put_lattice_512, put_spec):
    pen = batch_row(solve_penalized(put_lattice_512, put_spec, [4.0]), 0)
    report = validate_solution(pen, put_spec)
    with pytest.raises(ValueError, match="Skorokhod"):
        solution_moments(pen, put_spec, report)


def test_scale_covariance_of_y_estimate():
    lam, p = 2.0, 1.5
    lat = build_lattice(ForwardModel.geometric(0.0, 0.3, 10.0), TimeGrid(16, 1.0))

    def build(scale):
        return ProblemSpec(
            make_generator(f"constant:{-0.5 * scale}"),
            make_terminal(f"constant:{1.0 * scale}"),
            make_obstacle(f"constant:{0.75 * scale}"),
            0.0,
            p,
        )

    one = build(1.0)
    two = build(lam)
    r1 = check_y_estimate(moments(solve(lat, one), one))
    r2 = check_y_estimate(moments(solve(lat, two), two))
    assert r2.lhs == pytest.approx(lam**p * r1.lhs, rel=1e-12)
    assert r2.rhs_data_functional == pytest.approx(lam**p * r1.rhs_data_functional, rel=1e-12)
    assert r2.empirical_ratio == pytest.approx(r1.empirical_ratio, rel=1e-12)


def test_stability_identical_specs_is_uniqueness():
    lat = build_lattice(put_model(), TimeGrid(128, 1.0))
    spec = put_problem()
    a = solve(lat, spec)
    b = solve(lat, spec)
    report = check_stability(moments(a, spec), moments(b, spec))
    assert report.delta_y_norm <= 1e-12
    assert report.delta_data_norm == 0.0


def test_stability_epsilon_shift_respects_exponential_bound():
    kappa, eps, horizon = 0.06, 0.05, 1.0
    lat = build_lattice(put_model(), TimeGrid(256, horizon))
    spec_a = put_problem()

    def g_shifted(x):
        return np.maximum(40.0 - np.asarray(x, dtype=float), 0.0) + eps

    spec_b = ProblemSpec(spec_a.generator, g_shifted, spec_a.obstacle, kappa)
    sol_a, sol_b = solve(lat, spec_a), solve(lat, spec_b)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(sol_a.y, sol_b.y))
    assert worst <= eps * math.exp(kappa * horizon)
    report = check_stability(moments(sol_a, spec_a), moments(sol_b, spec_b))
    assert report.delta_y_norm <= (eps * math.exp(kappa * horizon)) ** spec_a.p_exponent
    assert report.ratio > 0.0


# check_stability of criterion 9's pair on the 16-step put lattice: the
# terminal shifted by eps = 0.05, as written when each check computed its own
# moments.
STABILITY_16_SHIFTED_TERMINAL = (
    '{"delta_data_norm": 0.011180339887499027, "delta_f_term": 0.0, '
    '"delta_obstacle_term": 0.0, "delta_xi_term": 0.011180339887499027, '
    '"delta_y_norm": 0.011180339887499027, "psi_t": 131.0262330709213, "ratio": 1.0}\n'
)


def test_stability_of_a_real_pair_is_unchanged(tmp_path):
    lat = build_lattice(put_model(), TimeGrid(16, 1.0))
    spec_a = put_problem()

    def shifted(x):
        return spec_a.terminal(x) + 0.05

    spec_b = ProblemSpec(spec_a.generator, shifted, spec_a.obstacle, spec_a.lipschitz_kappa)
    report = check_stability(
        moments(solve(lat, spec_a), spec_a), moments(solve(lat, spec_b), spec_b)
    )
    path = tmp_path / "stability.jsonl"
    append_report_jsonl(report, path)
    assert path.read_text() == STABILITY_16_SHIFTED_TERMINAL


def test_growth_sign_of_exponential_factor():
    # with a pure growth generator the discrete factor is (1 - kappa*dt)^-n;
    # it converges to e^(kappa*T) from above as the grid refines
    kappa, eps, n, horizon = 0.5, 0.01, 512, 1.0
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(n, horizon))

    def grower(t, x, y, z):
        return kappa * np.asarray(y, dtype=float)

    spec_a = ProblemSpec(grower, make_terminal("constant:1"), far_obstacle, kappa)
    spec_b = ProblemSpec(grower, make_terminal(f"constant:{1.0 + eps}"), far_obstacle, kappa)
    sol_a, sol_b = solve(lat, spec_a), solve(lat, spec_b)
    ratio = float(np.abs(sol_b.y[0][0] - sol_a.y[0][0])) / eps
    dt = horizon / n
    exact_discrete = (1.0 - kappa * dt) ** (-n)
    assert ratio == pytest.approx(exact_discrete, rel=1e-10)
    assert math.exp(kappa * horizon) <= ratio <= math.exp(kappa * horizon) * (
        1.0 + 2.0 * kappa**2 * horizon * dt
    )


def test_stability_lowered_obstacle_orders_solutions():
    lat = build_lattice(put_model(), TimeGrid(128, 1.0))
    spec_a = put_problem()

    def lowered(t, x):
        return np.maximum(40.0 - np.asarray(x, dtype=float), 0.0) - 1.0

    spec_b = ProblemSpec(spec_a.generator, spec_a.terminal, lowered, spec_a.lipschitz_kappa)
    sol_a, sol_b = solve(lat, spec_a), solve(lat, spec_b)
    for ya, yb in zip(sol_a.y, sol_b.y):
        assert np.all(yb <= ya + 1e-12)


@pytest.mark.parametrize(
    "other, message",
    [
        ((put_model(), TimeGrid(32, 1.0)), "solutions have mismatched step counts"),
        (
            (put_model(x0=37.0), TimeGrid(16, 1.0)),
            "solutions were not computed on one lattice",
        ),
    ],
    ids=["steps", "states"],
)
def test_stability_lattice_mismatch_rejected(other, message):
    spec = put_problem()
    a = moments(solve(build_lattice(put_model(), TimeGrid(16, 1.0)), spec), spec)
    b = moments(solve(build_lattice(*other), spec), spec)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_stability(a, b)


def test_reports_append_as_json_lines(tmp_path):
    lat = build_lattice(put_model(), TimeGrid(32, 1.0))
    spec = put_problem()
    sol = solve(lat, spec)
    path = tmp_path / "reports.jsonl"
    m = moments(sol, spec)
    append_report_jsonl(check_y_estimate(m, "put"), path)
    append_report_jsonl(check_z_estimate(m, "put"), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["instance_id"] == "put"
    assert rows[0]["lhs"] >= 0.0
