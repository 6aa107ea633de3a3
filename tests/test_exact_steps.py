"""Exact one-step solves of affine generators against the general path.

Every registry generator is an ``AffineGenerator``: ``snell.implicit_step``
takes each scheme's exact step at its coefficients. The same f wrapped as a
plain callable takes the same step with f frozen at the iterate, iterated by
``snell.fixed_point``, so it is the reference for the exact steps. With
y_coeff = 0 the two paths evaluate one formula and agree bit for bit.
"""

import json

import numpy as np
import pytest

from helpers import batch_row, ordered_instance_pair, plain

from rbsde_lab import cli, snell
from rbsde_lab.config import DEFAULT_SCHEDULE
from rbsde_lab.lattice import TimeGrid, build_lattice
from rbsde_lab.pde import PdeGrid, solve_pde_penalized, solve_pde_projected
from rbsde_lab.penalty import solve_penalized
from rbsde_lab.problem import (
    AffineGenerator,
    ProblemSpec,
    make_generator,
    make_obstacle,
    make_terminal,
    validate_solution,
)
from rbsde_lab.snell import snell_root, solve_snell

# Agreement of the two paths, relative to the largest |Y| (or |u|) of the solution.
AGREE_REL = 1e-12


@pytest.fixture(scope="module")
def plain_spec(put_spec):
    assert isinstance(put_spec.generator, AffineGenerator)
    return put_spec._replace(generator=plain(put_spec.generator))


def _gap(layers_a, layers_b) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in zip(layers_a, layers_b, strict=True))


def _scale(y_layers) -> float:
    return max(float(np.max(np.abs(y))) for y in y_layers)


def test_lattice_exact_steps_agree_with_the_fixed_point(put_spec, plain_spec, put_fwd):
    lat = build_lattice(put_fwd, TimeGrid(128, 1.0))
    exact, general = solve_snell(lat, put_spec), solve_snell(lat, plain_spec)
    scale = _scale(general.triple.y)
    for field in ("y", "z", "dk"):
        gap = _gap(getattr(exact.triple, field), getattr(general.triple, field))
        assert gap <= AGREE_REL * scale, field
    assert _gap(exact.continuation, general.continuation) <= AGREE_REL * scale
    root = snell_root(lat, plain_spec)
    assert abs(snell_root(lat, put_spec) - root) <= AGREE_REL * abs(root)

    exact = solve_penalized(lat, put_spec, DEFAULT_SCHEDULE)
    general = solve_penalized(lat, plain_spec, DEFAULT_SCHEDULE)
    for b in range(len(DEFAULT_SCHEDULE)):
        row_exact, row_general = batch_row(exact, b), batch_row(general, b)
        scale = _scale(row_general.y)
        for field in ("y", "z", "dk"):
            gap = _gap(getattr(row_exact, field), getattr(row_general, field))
            assert gap <= AGREE_REL * scale, (DEFAULT_SCHEDULE[b], field)


@pytest.mark.parametrize("penalty_n", [None, 1000.0])
def test_pde_exact_steps_agree_with_the_lagged_iteration(put_spec, plain_spec, put_fwd, penalty_n):
    grid = PdeGrid(0.0, 160.0, 121, TimeGrid(100, 1.0))

    def solve(spec):
        if penalty_n is None:
            return solve_pde_projected(grid, spec, put_fwd)
        return solve_pde_penalized(grid, spec, put_fwd, penalty_n)

    exact, lagged = solve(put_spec), solve(plain_spec)
    assert np.max(np.abs(exact.u - lagged.u)) <= AGREE_REL * np.max(np.abs(lagged.u))
    assert exact.max_lag_iterations == 1 < lagged.max_lag_iterations


def _same_bits(layers_a, layers_b) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(layers_a, layers_b, strict=True))


@pytest.mark.parametrize("generator", ["zero", "constant:1.5"])
def test_a_zero_y_coeff_gives_the_same_bits_on_both_paths(put_fwd, generator):
    # with a = 0 the exact step and the step with f frozen at the iterate are
    # one formula, so the iteration ends on the exact step's bits
    spec = ProblemSpec(
        make_generator(generator),
        make_terminal("put_payoff:40"),
        make_obstacle("put_payoff:40"),
        0.0,
    )
    general = spec._replace(generator=plain(spec.generator))
    lat = build_lattice(put_fwd, TimeGrid(128, 1.0))

    exact, iterated = solve_snell(lat, spec), solve_snell(lat, general)
    for field in ("y", "z", "dk"):
        assert _same_bits(getattr(exact.triple, field), getattr(iterated.triple, field)), field
    assert _same_bits(exact.continuation, iterated.continuation)
    assert snell_root(lat, spec) == snell_root(lat, general)

    exact = solve_penalized(lat, spec, DEFAULT_SCHEDULE)
    iterated = solve_penalized(lat, general, DEFAULT_SCHEDULE)
    for field in ("y", "z", "dk"):
        assert _same_bits(getattr(exact, field), getattr(iterated, field)), field

    grid = PdeGrid(0.0, 160.0, 121, TimeGrid(100, 1.0))
    assert np.array_equal(
        solve_pde_projected(grid, spec, put_fwd).u, solve_pde_projected(grid, general, put_fwd).u
    )
    assert np.array_equal(
        solve_pde_penalized(grid, spec, put_fwd, 1000.0).u,
        solve_pde_penalized(grid, general, put_fwd, 1000.0).u,
    )


@pytest.mark.parametrize("rate", ["-9", "9"])
def test_a_kappa_below_the_affine_y_coefficient_is_rejected_at_construction(rate):
    # f = 9y (or -9y) with a declared kappa of 0.06: kappa * dt = 0.0075
    # would pass the contraction check, while for f = 9y 1 - 9 * dt < 0 turns
    # the exact step's division upside down; so no solver receives such a spec
    with pytest.raises(
        ValueError,
        match=r"^lipschitz_kappa 0\.06 is below the generator's Lipschitz constant in y, 9\.0$",
    ):
        ProblemSpec(
            make_generator(f"linear_discount:{rate}"),
            make_terminal("put_payoff:40"),
            make_obstacle("put_payoff:40"),
            0.06,
        )
    # kappa = |y_coeff| is the Lipschitz constant itself
    spec = ProblemSpec(AffineGenerator(9.0, 1.0), make_terminal("zero"), make_obstacle("zero"), 9.0)
    assert spec.lipschitz_kappa == abs(spec.generator.y_coeff)


# The README's put config; `pde` also gets penalty_n (the one command that
# reads it), so that it runs both schemes.
README_CONFIG = """\
[run]
command = {command}
seed = 1234
tol = 0.02

[problem]
kind = geometric
mu = 0.06
sigma = 0.4
x0 = 36.0
generator = linear_discount:0.06
terminal = put_payoff:40
obstacle = put_payoff:40
kappa = 0.06
p = 1.5

[lattice]
n_steps = 512
horizon = 1.0

[pde]
x_min = 0.0
x_max = 160.0
m_nodes = 401
n_steps = 400
boundary = dirichlet-obstacle
{penalty_n}
[penalize]
schedule = default
"""


@pytest.mark.parametrize("command", ["solve", "penalize", "pde", "crosscheck"])
def test_readme_commands_never_iterate(tmp_path, monkeypatch, command):
    def no_fixed_point(*args, **kwargs):
        raise AssertionError("an affine generator reached fixed_point")

    monkeypatch.setattr(snell, "fixed_point", no_fixed_point)
    path = tmp_path / "put.cfg"
    penalty_n = "penalty_n = 1000\n" if command == "pde" else ""
    path.write_text(README_CONFIG.format(command=command, penalty_n=penalty_n))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    if command == "pde":
        assert json.loads((out / "pde_report.json").read_text())["max_lag_iterations"] == 1


def test_the_penalized_equation_holds_on_every_row_of_both_paths():
    # dK = n * dt * (h - Y)^+, so the backward residual of a penalized row is
    # its penalized one-step equation; each spec's f = -r * y + shift is a
    # plain callable, solved next to the same f as an AffineGenerator
    rng = np.random.default_rng(30)
    ns = [0.0, 1.0, 64.0, 2.0**14]
    for _ in range(20):
        lattice, *specs = ordered_instance_pair(rng)
        for spec in specs:
            shift = float(spec.generator(0.0, 0.0, 0.0, 0.0))
            affine = spec._replace(generator=AffineGenerator(-spec.lipschitz_kappa, shift))
            general = solve_penalized(lattice, spec, ns)
            exact = solve_penalized(lattice, affine, ns)
            for b, n in enumerate(ns):
                row_general, row_exact = batch_row(general, b), batch_row(exact, b)
                assert validate_solution(row_general, spec).backward_ok, n
                assert validate_solution(row_exact, affine).backward_ok, n
                scale = _scale(row_general.y)
                for field in ("y", "z", "dk"):
                    gap = _gap(getattr(row_exact, field), getattr(row_general, field))
                    assert gap <= AGREE_REL * scale, (n, field)
