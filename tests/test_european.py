"""Closed-form European puts: the lattice and the PDE against exact values.

With obstacle ``zero`` and a put terminal, Y >= 0 holds without reflection,
so Y is the European put price: Black-Scholes under the geometric model
with mu = r, and the Bachelier price discounted by e^(-rT) under the
arithmetic one. Every other root check compares the lab's methods with each
other; these compare each with the truth.

Each relative error was measured once and is allowed 3x its size, and the
error must fall when the grid is refined.
"""

import pytest

from rbsde_lab import pde
from rbsde_lab.config import DEFAULT_SCHEDULE
from rbsde_lab.diagnostics import feynman_kac_check
from rbsde_lab.lattice import ForwardModel, PdeGrid, TimeGrid, build_lattice
from rbsde_lab.pde import solve_pde_projected
from rbsde_lab.penalty import penalized_root
from rbsde_lab.problem import ProblemSpec, make_generator, make_obstacle, make_terminal
from rbsde_lab.snell import snell_root

from helpers import bachelier_put, black_scholes_put

X0, STRIKE, RATE, HORIZON = 36.0, 40.0, 0.06, 1.0
MODELS = {
    "geometric": ForwardModel.geometric(RATE, 0.4, X0),
    # b0 = r * x0 and sigma0 = 0.4 * x0: the geometric model's moves at x0
    "arithmetic": ForwardModel.arithmetic(2.16, 14.4, X0),
}


def exact_put(kind, x, maturity) -> float:
    """The exact European put of the model ``kind`` at state x with ``maturity`` left."""
    if kind == "geometric":
        return black_scholes_put(x, STRIKE, RATE, 0.4, maturity)
    return bachelier_put(x, STRIKE, RATE, 2.16, 14.4, maturity)


EXACT = {kind: exact_put(kind, X0, HORIZON) for kind in MODELS}
# relative errors of the root, by lattice steps
LATTICE_ERRORS = {
    "geometric": {128: 1.54e-3, 512: -3.83e-4},
    "arithmetic": {128: 1.01e-3, 512: 4.06e-4},
}
# relative errors of u(0, x0), by (space nodes, time steps)
PDE_ERRORS = {
    "geometric": {(121, 100): -1.43e-3, (401, 400): -3.17e-4},
    "arithmetic": {(121, 100): -1.49e-3, (401, 400): -3.29e-4},
}
# [x_min, x_max] by space nodes: x0 is a grid node on each
PDE_DOMAINS = {
    "geometric": {121: (0.0, 120.0), 401: (0.0, 160.0)},
    "arithmetic": {121: (X0 - 60.0, X0 + 60.0), 401: (X0 - 80.0, X0 + 80.0)},
}
# Feynman-Kac probes (t, x) and the relative errors there against the
# European put of maturity T - t: u(t, x) by (space nodes, time steps), and
# the lattice started at (t, x) by its steps
PROBES = ((0.0, 36.0), (0.5, 36.0), (0.0, 44.0), (0.5, 30.0))
PROBE_ERRORS = {
    "geometric": {
        (121, 100): (-1.43e-3, -2.15e-3, -2.86e-3, -4.97e-5),
        (401, 400): (-3.17e-4, -4.74e-4, -6.53e-4, 4.50e-6),
        512: (-3.83e-4, 8.66e-5, 5.14e-4, 7.22e-5),
    },
    "arithmetic": {
        (121, 100): (-1.49e-3, -2.18e-3, -3.38e-3, -9.34e-5),
        (401, 400): (-3.29e-4, -4.76e-4, -7.54e-4, -6.27e-6),
        512: (4.06e-4, 1.49e-4, 2.34e-5, -7.95e-5),
    },
}
PROBE_LATTICE_STEPS = 512


def european_put() -> ProblemSpec:
    return ProblemSpec(
        make_generator(f"linear_discount:{RATE}"),
        make_terminal(f"put_payoff:{STRIKE}"),
        make_obstacle("zero"),
        RATE,
    )


def lattice_error(lattice, kind) -> float:
    return snell_root(lattice, european_put()) / EXACT[kind] - 1.0


def pde_field(kind, m_nodes, n_steps):
    x_min, x_max = PDE_DOMAINS[kind][m_nodes]
    grid = PdeGrid(x_min, x_max, m_nodes, TimeGrid(n_steps, HORIZON))
    return solve_pde_projected(grid, european_put(), MODELS[kind])


def pde_error(kind, m_nodes, n_steps) -> float:
    return pde_field(kind, m_nodes, n_steps).interpolate(0.0, X0) / EXACT[kind] - 1.0


def probe_errors(kind, m_nodes, n_steps) -> tuple:
    """(PDE errors, lattice errors) at PROBES against the exact put of maturity T - t."""
    report = feynman_kac_check(
        pde_field(kind, m_nodes, n_steps), MODELS[kind], european_put(), PROBES,
        lattice_steps=PROBE_LATTICE_STEPS,
    )
    exact = [exact_put(kind, r.x, HORIZON - r.t) for r in report.probes]
    return (
        [r.pde_value / e - 1.0 for r, e in zip(report.probes, exact)],
        [r.lattice_value / e - 1.0 for r, e in zip(report.probes, exact)],
    )


def probe_misses(kind) -> list:
    """(probe, where, error) of each error past 3x its measured size.

    ``where`` is the PDE grid size or the lattice steps; it is "refinement"
    where the PDE error does not fall from the coarse to the fine grid.
    """
    measured = PROBE_ERRORS[kind]
    misses = []
    pde_errors = {}
    for size in ((121, 100), (401, 400)):
        pde_errors[size], lattice_errors = probe_errors(kind, *size)
        for probe, error, m in zip(PROBES, pde_errors[size], measured[size]):
            if not within_measured(error, m):
                misses.append((probe, size, error))
        for probe, error, m in zip(PROBES, lattice_errors, measured[PROBE_LATTICE_STEPS]):
            if not within_measured(error, m):
                misses.append((probe, PROBE_LATTICE_STEPS, error))
    for probe, coarse, fine in zip(PROBES, pde_errors[(121, 100)], pde_errors[(401, 400)]):
        if not abs(fine) < abs(coarse):
            misses.append((probe, "refinement", (coarse, fine)))
    return misses


def within_measured(error, measured) -> bool:
    return abs(error) <= 3.0 * abs(measured)


def test_the_closed_forms_give_the_published_values():
    assert EXACT["geometric"] == pytest.approx(6.711399, abs=5e-7)
    assert EXACT["arithmetic"] == pytest.approx(6.320750, abs=5e-7)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_lattice_root_is_the_european_put(kind):
    errors = {
        n: lattice_error(build_lattice(MODELS[kind], TimeGrid(n, HORIZON)), kind)
        for n in LATTICE_ERRORS[kind]
    }
    for n, measured in LATTICE_ERRORS[kind].items():
        assert within_measured(errors[n], measured), (n, errors[n])
    assert abs(errors[512]) < abs(errors[128])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_pde_root_is_the_european_put(kind):
    errors = {size: pde_error(kind, *size) for size in PDE_ERRORS[kind]}
    for size, measured in PDE_ERRORS[kind].items():
        assert within_measured(errors[size], measured), (size, errors[size])
    assert abs(errors[(401, 400)]) < abs(errors[(121, 100)])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_penalized_root_at_the_last_intensity_is_the_european_put(kind):
    # the zero obstacle never binds, so the penalty never acts: the
    # penalized root is the reflected root bit for bit
    for n, measured in LATTICE_ERRORS[kind].items():
        lattice = build_lattice(MODELS[kind], TimeGrid(n, HORIZON))
        y0 = penalized_root(lattice, european_put(), DEFAULT_SCHEDULE[-1])
        assert y0 == snell_root(lattice, european_put()), n
        assert within_measured(y0 / EXACT[kind] - 1.0, measured), n


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_feynman_kac_probes_are_the_european_put_at_t_and_x(kind):
    assert probe_misses(kind) == []


def test_a_fair_coin_on_the_geometric_lattice_misses_black_scholes():
    # the matched p is 0.49779 at N = 128: a fair coin is off by -4.8 %
    lattice = build_lattice(MODELS["geometric"], TimeGrid(128, HORIZON))
    fair = lattice._replace(up_prob=(0.5,) * 128)
    error = lattice_error(fair, "geometric")
    assert error == pytest.approx(-0.048, abs=1e-3)
    assert not within_measured(error, LATTICE_ERRORS["geometric"][128])


def test_a_flipped_pde_drift_misses_black_scholes(monkeypatch):
    step_matrix = pde._step_matrix
    monkeypatch.setattr(
        pde, "_step_matrix", lambda grid, sig, drift: step_matrix(grid, sig, -drift)
    )
    error = pde_error("geometric", 121, 100)
    assert error == pytest.approx(0.316, abs=1e-3)
    assert not within_measured(error, PDE_ERRORS["geometric"][(121, 100)])
    # the same plant leaves the probes too
    assert probe_misses("geometric")
