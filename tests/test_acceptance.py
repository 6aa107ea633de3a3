"""Acceptance suite: every release criterion at its stated tolerance.

Tests register their criterion label in ``CRITERIA``; a conftest hook prints
one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line per criterion as the suite
runs, whatever the capture mode.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from helpers import ordered_instance_pair, random_stopping_instance

from rbsde_lab.diagnostics import (
    brute_force_stopping_value,
    chi_supersolution_check,
    feynman_kac_check,
    growth_class_check,
)
from rbsde_lab.estimates import check_stability, solution_moments
from rbsde_lab.lattice import ForwardModel, PdeGrid, TimeGrid
from rbsde_lab.pde import solve_pde_projected
from rbsde_lab.penalty import run_sweep
from rbsde_lab.problem import ProblemSpec, validate_solution
from rbsde_lab.snell import solve_snell


CRITERIA = {}


def criterion(label):
    def wrap(fn):
        CRITERIA[fn.__name__] = label
        return fn

    return wrap


@criterion("1 oracle-equivalence")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240915)
    start = time.perf_counter()
    for _ in range(50):
        lattice, spec = random_stopping_instance(rng)
        y0 = float(solve_snell(lattice, spec).triple.y[0][0])
        oracle = brute_force_stopping_value(lattice, spec)
        assert abs(y0 - oracle) <= 1e-12
    assert time.perf_counter() - start < 5.0


@criterion("2 solution-contract")
def test_criterion_2_definition_contract(put_snell_512, put_spec, put_snell_2048):
    rng = np.random.default_rng(77)
    cases = [
        (put_snell_512.triple, put_spec),
        (put_snell_2048.triple, put_spec),
    ]
    for _ in range(10):
        lattice, spec = random_stopping_instance(rng)
        cases.append((solve_snell(lattice, spec).triple, spec))
    for sol, spec in cases:
        report = validate_solution(sol, spec)
        assert report.all_pass
        assert report.obstacle_violation <= 0.0
        assert report.k_min_increment >= 0.0
        assert report.skorokhod_residual <= 1e-12
        assert report.backward_residual <= 1e-10


@criterion("3 penalization-monotone-convergence")
def test_criterion_3_penalization(put_lattice_512, put_spec):
    start = time.perf_counter()
    trace = run_sweep(put_lattice_512, put_spec, [2.0**i for i in range(11)])
    elapsed = time.perf_counter() - start
    assert max(trace.monotonicity_violation) <= 1e-10
    gaps = [trace.snell_y0 - y for y in trace.y0]
    assert gaps[-1] <= 1e-3 * trace.snell_y0
    for i in (7, 8, 9):
        ratio = gaps[i] / gaps[i + 1]
        assert 1.5 <= ratio <= 2.5
    assert elapsed < 30.0


@criterion("4 comparison-principle")
def test_criterion_4_comparison():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        lattice, low_spec, high_spec = ordered_instance_pair(rng)
        low = solve_snell(lattice, low_spec).triple
        high = solve_snell(lattice, high_spec).triple
        for k in range(lattice.n_steps + 1):
            assert np.all(high.y[k] >= low.y[k] - 1e-10)


@criterion("5 feynman-kac-identity")
def test_criterion_5_feynman_kac(put_spec, put_fwd):
    start = time.perf_counter()
    grid = PdeGrid(0.0, 160.0, 401, TimeGrid(400, 1.0))
    field = solve_pde_projected(grid, put_spec, put_fwd)
    report = feynman_kac_check(
        field, put_fwd, put_spec, [(0.0, 36.0), (0.5, 36.0), (0.0, 44.0)], lattice_steps=2048
    )
    elapsed = time.perf_counter() - start
    assert report.max_rel_error <= 0.01
    assert elapsed < 20.0


@criterion("6 penalized-pde-consistency")
def test_criterion_6_penalized_pde(put_pde_field, put_pde_penalized_family):
    for n, pen in put_pde_penalized_family.items():
        assert float(np.max(pen.u - put_pde_field.u)) <= 1e-8
    tail = put_pde_penalized_family[1e4]
    gap = abs(tail.interpolate(0.0, 36.0) - put_pde_field.interpolate(0.0, 36.0))
    assert gap <= 1e-2


@criterion("7 supersolution-witness")
def test_criterion_7_chi_witness(put_fwd):
    grid = PdeGrid(-100.0, 100.0, 201, TimeGrid(512, 1.0))
    report = chi_supersolution_check(1.0, put_fwd, kappa=1.0, grid=grid)
    assert report.passed
    witness = next(r for r in report.rows if r.time_slope == report.witness_time_slope)
    assert witness.min_operator > 0.0

    control_grid = PdeGrid(-100.0, 100.0, 101, TimeGrid(4096, 1.0))
    control = chi_supersolution_check(
        1.0, ForwardModel.arithmetic(0.0, 0.0, 0.0), kappa=0.0, grid=control_grid
    )
    assert all(r.evaluable and r.min_operator > 0.0 for r in control.rows)


@criterion("8 growth-class")
def test_criterion_8_growth_class():
    radii = [10.0, 100.0, 1000.0, 10000.0]
    positive = growth_class_check(lambda x: 1.0, 1.0, radii)
    assert positive.passed
    negative = growth_class_check(
        lambda x: math.exp(2.0 * math.log(x) ** 2), 1.0, radii
    )
    assert not negative.passed


@criterion("9 uniqueness-and-stability")
def test_criterion_9_uniqueness_stability(put_lattice_512, put_spec, put_sweep_512):
    # two independent routes agree within the recorded penalization gap
    snell_y0 = put_sweep_512.snell_y0
    assert abs(put_sweep_512.y0[-1] - snell_y0) <= 1e-3 * snell_y0
    # the same route run twice is exact
    again = solve_snell(put_lattice_512, put_spec).triple
    base = solve_snell(put_lattice_512, put_spec).triple
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(again.y, base.y)) <= 1e-12
    # terminal-value shift of eps moves Y by at most eps * e^(kappa T)
    eps, kappa = 0.05, put_spec.lipschitz_kappa

    def shifted(x):
        return put_spec.terminal(x) + eps

    spec_b = ProblemSpec(put_spec.generator, shifted, put_spec.obstacle, kappa)
    sol_b = solve_snell(put_lattice_512, spec_b).triple
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(base.y, sol_b.y))
    assert worst <= eps * math.exp(kappa * 1.0)
    # the same pair through the stability estimate: E sup |Y - Y'|^p is at
    # most the p-th power of that sup bound
    stability = check_stability(
        solution_moments(base, put_spec, validate_solution(base, put_spec)),
        solution_moments(sol_b, spec_b, validate_solution(sol_b, spec_b)),
    )
    assert stability.delta_y_norm <= (eps * math.exp(kappa * 1.0)) ** put_spec.p_exponent


@criterion("10 determinism")
def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "experiment.cfg"
    config.write_text(
        "[run]\ncommand = penalize\nseed = 99\n\n"
        "[problem]\nkind = geometric\nmu = 0.06\nsigma = 0.4\nx0 = 36.0\n"
        "generator = linear_discount:0.06\nterminal = put_payoff:40\n"
        "obstacle = put_payoff:40\nkappa = 0.06\np = 1.5\n\n"
        "[lattice]\nn_steps = 64\nhorizon = 1.0\n\n"
        "[penalize]\nschedule = 1,16,256\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rbsde_lab.cli", "--config", str(config), "--out", str(out), "--quiet"],
            capture_output=True,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out)
    for name in ("penalization.csv", "bound.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
