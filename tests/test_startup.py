"""What a command's process compiles and builds before it runs.

Every ``rbsde-lab`` command is a fresh process, and with
``PYTHONDONTWRITEBYTECODE=1`` that process compiles each module it imports.
So ``import rbsde_lab.cli`` loads only what loading a config needs, and
each command then loads only the solver modules it runs. The diagnostics
that only the acceptance criteria and the tests call live in
``rbsde_lab.diagnostics``, which no command imports.

Creating a frozen dataclass execs six generated methods, and the
``dataclasses`` module (with ``copy``, which only it pulls in) costs an
import of its own, so no class of the package is one. The records a
command passes around are ``NamedTuple``s. The four input records
(``TimeGrid``, ``ForwardModel``, ``PdeGrid``, ``ProblemSpec``) are
``NamedTuple``s that check their fields however they are made, through
the constructor or ``_replace``. No record can be assigned to.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbsde_lab
from rbsde_lab.config import ExperimentConfig, load_config
from rbsde_lab.estimates import (
    EstimateReport,
    SolutionMoments,
    StabilityReport,
    check_stability,
    check_y_estimate,
    solution_moments,
)
from rbsde_lab.lattice import ForwardModel, Lattice, PdeGrid, TimeGrid, build_lattice
from rbsde_lab.pde import PdeField, solve_pde_projected
from rbsde_lab.penalty import BoundReport, PenalizationTrace, check_uniform_bound, run_sweep
from rbsde_lab.problem import (
    AffineGenerator,
    ProblemSpec,
    SolutionTriple,
    ValidationReport,
    make_generator,
    validate_solution,
)
from rbsde_lab.snell import SnellOutput, solve_snell

# what loading a config needs; every process of the CLI loads these
CONFIG_MODULES = {"rbsde_lab", "cli", "config", "lattice", "problem"}
# the solver modules each command runs (penalty and pde import snell)
COMMAND_MODULES = {
    "solve": {"snell"},
    "convergence": {"snell"},
    "verify": {"snell", "estimates"},
    "penalize": {"penalty", "snell"},
    "pde": {"pde", "snell"},
    "crosscheck": {"snell", "penalty", "pde"},
}
# names that moved to rbsde_lab.diagnostics
DIAGNOSTICS = (
    "brute_force_stopping_value",
    "feynman_kac_check",
    "chi_supersolution_check",
    "growth_class_check",
    "log_bump",
    "C_SCAN_GRID",
    "EXP_SATURATION",
)
RECORDS = (
    TimeGrid,
    ForwardModel,
    PdeGrid,
    ProblemSpec,
    ExperimentConfig,
    Lattice,
    AffineGenerator,
    SolutionTriple,
    ValidationReport,
    SnellOutput,
    PenalizationTrace,
    BoundReport,
    PdeField,
    EstimateReport,
    StabilityReport,
    SolutionMoments,
)

# argv: "load" and a config path, or "run", a config path and an output directory
PROBE = (
    "import sys\n"
    "from rbsde_lab.cli import load_config, main\n"
    "if sys.argv[1] == 'load':\n"
    "    load_config(sys.argv[2])\n"
    "    code = 0\n"
    "else:\n"
    "    code = main(['--config', sys.argv[2], '--out', sys.argv[3], '--quiet'])\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'rbsde_lab')\n"
    "print(sys.modules['rbsde_lab'].__file__)\n"
    "print(code)\n"
    "print(' '.join(loaded))\n"
    "print(' '.join(sorted({n for m in loaded for n in vars(sys.modules[m])})))\n"
    "print(sorted(m for m in ('copy', 'dataclasses') if m in sys.modules))\n"
)

CONFIG = """\
[run]
command = pde
tol = 0.5

[problem]
kind = geometric
mu = 0.06
sigma = 0.4
x0 = 36.0
generator = linear_discount:0.06
terminal = put_payoff:40
obstacle = put_payoff:40
kappa = 0.06

[lattice]
n_steps = 8
horizon = 1.0

[pde]
x_min = 0.0
x_max = 120.0
m_nodes = 25
n_steps = 8
"""


def _probe(*args) -> tuple:
    """Run ``PROBE`` in a fresh process; its exit code and the ``rbsde_lab`` modules it loaded.

    The process compiles what it imports, as a command's process does, and
    must load neither a name of ``rbsde_lab.diagnostics`` nor the
    ``dataclasses`` machinery.
    """
    package_root = Path(rbsde_lab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    origin, code, loaded, names, builders = done.stdout.splitlines()
    assert Path(origin).resolve() == Path(rbsde_lab.__file__).resolve()
    assert not set(DIAGNOSTICS) & set(names.split())
    assert builders == "[]"
    modules = {name.partition(".")[2] or name for name in loaded.split()}
    return int(code), modules


def _write_config(tmp_path, command: str) -> Path:
    path = tmp_path / f"{command}.cfg"
    path.write_text(CONFIG.replace("command = pde", f"command = {command}"))
    return path


def test_the_cli_loads_only_the_modules_a_command_runs(tmp_path):
    # importing the CLI and loading a config compiles no solver module
    assert _probe("load", _write_config(tmp_path, "crosscheck")) == (0, CONFIG_MODULES)


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_solver_modules(tmp_path, command):
    path = _write_config(tmp_path, command)
    assert _probe("run", path, tmp_path / "out") == (0, CONFIG_MODULES | COMMAND_MODULES[command])


def test_a_config_error_loads_no_solver_module(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("kappa = 0.06", "kapa = 0.06"))
    assert _probe("run", path, tmp_path / "out") == (2, CONFIG_MODULES)


def test_no_record_is_a_dataclass():
    assert [r.__name__ for r in RECORDS if dataclasses.is_dataclass(r)] == []
    assert all(issubclass(r, tuple) and hasattr(r, "_fields") for r in RECORDS)


def _one_of_each(tmp_path) -> dict:
    """An instance of every record, made by the calls a command or an acceptance criterion makes.

    ``StabilityReport`` comes from criterion 9's pair: the config's put, and
    the same put with its terminal shifted by eps = 0.05.
    """
    path = tmp_path / "put.cfg"
    path.write_text(CONFIG)
    cfg = load_config(path)
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    result = solve_snell(lattice, cfg.spec)
    report = validate_solution(result.triple, cfg.spec)
    trace = run_sweep(lattice, cfg.spec, (1.0, 8.0))
    moments = solution_moments(result.triple, cfg.spec, report)
    eps = 0.05
    shifted = cfg.spec._replace(terminal=lambda x: cfg.spec.terminal(x) + eps)
    moved = solve_snell(lattice, shifted).triple
    moved_moments = solution_moments(moved, shifted, validate_solution(moved, shifted))
    found = [
        cfg.lattice_grid,
        cfg.model,
        cfg.pde_grid,
        cfg.spec,
        cfg,
        lattice,
        cfg.spec.generator,
        result.triple,
        report,
        result,
        trace,
        check_uniform_bound(trace),
        solve_pde_projected(cfg.pde_grid, cfg.spec, cfg.model),
        check_y_estimate(moments),
        check_stability(moments, moved_moments),
        moments,
    ]
    return {type(r): r for r in found}


def test_every_record_refuses_assignment(tmp_path):
    records = _one_of_each(tmp_path)
    assert set(records) == set(RECORDS)
    for cls, record in records.items():
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, cls._fields[0])


@pytest.mark.parametrize(
    "good, bad, message",
    [
        (TimeGrid(8, 1.0), {"n_steps": 0}, "n_steps must be >= 1"),
        (TimeGrid(8, 1.0), {"horizon": 0.0}, "horizon must be > 0"),
        (ForwardModel.geometric(0.06, 0.4, 36.0), {"kind": "gamma"}, "unknown model kind 'gamma'"),
        (
            ForwardModel.arithmetic(0.0, 1.0, 0.0),
            {"vol_coeff": -0.1},
            "volatility coefficient must be >= 0",
        ),
        (ForwardModel.geometric(0.06, 0.4, 36.0), {"x0": 0.0}, "geometric model requires x0 > 0"),
        (PdeGrid(0.0, 1.0, 11, TimeGrid(4, 1.0)), {"m_nodes": 2}, "m_nodes must be >= 3"),
        (PdeGrid(0.0, 1.0, 11, TimeGrid(4, 1.0)), {"x_min": 1.0}, "x_min must be < x_max"),
        (
            ProblemSpec(make_generator("linear_discount:0.06"), abs, max, 0.06),
            {"lipschitz_kappa": 0.01},
            "lipschitz_kappa 0.01 is below the generator's Lipschitz constant in y, 0.06",
        ),
        (
            ProblemSpec(make_generator("zero"), abs, max, 0.0),
            {"lipschitz_kappa": -1.0},
            "lipschitz_kappa must be >= 0",
        ),
        (ProblemSpec(make_generator("zero"), abs, max, 0.0), {"p_exponent": 2.5}, "p must lie in (1,2)"),
    ],
    ids=[
        "TimeGrid-n_steps",
        "TimeGrid-horizon",
        "ForwardModel-kind",
        "ForwardModel-vol_coeff",
        "ForwardModel-x0",
        "PdeGrid-m_nodes",
        "PdeGrid-x_min",
        "ProblemSpec-kappa-below-a",
        "ProblemSpec-kappa",
        "ProblemSpec-p",
    ],
)
def test_every_input_record_checks_its_fields_however_it_is_made(good, bad, message):
    cls = type(good)
    with pytest.raises(ValueError) as made:
        cls(**{**good._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        good._replace(**bad)
    assert str(made.value) == str(replaced.value) == message
    # the fields of a valid record are kept, whichever way it is made
    assert cls._make(good) == good._replace() == good
