"""Flat key-value experiment configuration (INI sections, diff-friendly).

A config file describes one experiment: the forward model and problem data
(closed forms selected from the registry in ``rbsde_lab.problem``), lattice
and PDE grid sizes, a penalty schedule, and run controls. Example::

    [run]
    command = crosscheck
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

    [penalize]
    schedule = default

``schedule = default`` expands to the doubling schedule 2^0 .. 2^10.
"""

from __future__ import annotations

import configparser
import contextlib
import math
from dataclasses import dataclass

from .lattice import ForwardModel, TimeGrid
from .pde import BOUNDARY_OBSTACLE, PdeGrid
from .problem import ProblemSpec, make_generator, make_obstacle, make_terminal

COMMANDS = ("solve", "penalize", "pde", "verify", "convergence", "crosscheck")
DEFAULT_SCHEDULE = tuple(float(2**i) for i in range(11))

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration parse or validation failure, with field diagnostics."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    model: ForwardModel
    spec: ProblemSpec
    lattice_grid: TimeGrid
    pde_grid: PdeGrid | None
    pde_penalty_n: float | None
    schedule: tuple
    seed: int
    tol: float
    out_dir: str
    quiet: bool = False


def _get(cp, section: str, key: str, cast, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required field [{section}] {key}")
        return default
    return _cast(section, key, cast, cp.get(section, key))


def _cast(section: str, key: str, cast, raw):
    """``cast(raw)``; a failed cast, a NaN or an infinite float names the field."""
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be a finite number, got {raw!r}")
    return value


@contextlib.contextmanager
def _section_errors(prefix: str):
    """Re-raise a ValueError from the block as ConfigError("<prefix>: ...").

    A ConfigError raised in the block passes through unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def _parse_schedule(raw: str) -> tuple:
    raw = raw.strip()
    if raw == "default":
        return DEFAULT_SCHEDULE
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"schedule must be 'default' or comma-separated numbers, got {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"schedule entries must be finite numbers, got {raw!r}")
    if not values:
        raise ValueError("schedule is empty")
    return values


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; ``overrides`` win over file values.

    Raises ConfigError naming the offending section/field on any problem.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None

    overrides = overrides or {}
    for section in ("run", "problem", "lattice"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    command = _get(cp, "run", "command", str).strip()
    if command not in COMMANDS:
        raise ConfigError(
            f"[run] command: unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    seed = int(overrides.get("seed", _get(cp, "run", "seed", int, 0)))
    tol = _cast("run", "tol", float, overrides.get("tol", _get(cp, "run", "tol", float, 0.02)))
    out_dir = str(overrides.get("out", _get(cp, "run", "out", str, ".")))
    quiet = bool(overrides.get("quiet", False))

    kind = _get(cp, "problem", "kind", str).strip()
    x0 = _get(cp, "problem", "x0", float)
    start_time = _get(cp, "problem", "start_time", float, 0.0)
    with _section_errors("[problem] model"):
        if kind == "geometric":
            model = ForwardModel.geometric(
                _get(cp, "problem", "mu", float),
                _get(cp, "problem", "sigma", float),
                x0,
                start_time,
            )
        elif kind == "arithmetic":
            model = ForwardModel.arithmetic(
                _get(cp, "problem", "b0", float),
                _get(cp, "problem", "sigma0", float),
                x0,
                start_time,
            )
        else:
            raise ConfigError(
                f"[problem] kind: expected 'geometric' or 'arithmetic', got {kind!r}"
            )

    with _section_errors("[problem]"):
        spec = ProblemSpec(
            generator=_get(cp, "problem", "generator", make_generator),
            terminal=_get(cp, "problem", "terminal", make_terminal),
            obstacle=_get(cp, "problem", "obstacle", make_obstacle),
            lipschitz_kappa=_get(cp, "problem", "kappa", float),
            p_exponent=_get(cp, "problem", "p", float, 1.5),
        )

    with _section_errors("[lattice]"):
        lattice_grid = TimeGrid(
            _get(cp, "lattice", "n_steps", int), _get(cp, "lattice", "horizon", float)
        )

    pde_grid = None
    pde_penalty_n = None
    if cp.has_section("pde"):
        with _section_errors("[pde]"):
            pde_grid = PdeGrid(
                x_min=_get(cp, "pde", "x_min", float),
                x_max=_get(cp, "pde", "x_max", float),
                m_nodes=_get(cp, "pde", "m_nodes", int),
                time=TimeGrid(_get(cp, "pde", "n_steps", int), lattice_grid.horizon),
                boundary_mode=_get(cp, "pde", "boundary", str, BOUNDARY_OBSTACLE).strip(),
            )
        pde_penalty_n = _get(cp, "pde", "penalty_n", float, None)
        if pde_penalty_n is not None and pde_penalty_n < 0.0:
            raise ConfigError(f"[pde] penalty_n: must be >= 0, got {pde_penalty_n!r}")
        if not pde_grid.x_min < model.x0 < pde_grid.x_max:
            raise ConfigError(
                f"[pde]: x0 = {model.x0} must lie strictly inside "
                f"({pde_grid.x_min}, {pde_grid.x_max})"
            )

    schedule = DEFAULT_SCHEDULE
    if cp.has_section("penalize"):
        schedule = _get(cp, "penalize", "schedule", _parse_schedule, DEFAULT_SCHEDULE)

    if command in ("pde", "crosscheck") and pde_grid is None:
        raise ConfigError(f"command {command!r} requires a [pde] section")

    return ExperimentConfig(
        command=command,
        model=model,
        spec=spec,
        lattice_grid=lattice_grid,
        pde_grid=pde_grid,
        pde_penalty_n=pde_penalty_n,
        schedule=schedule,
        seed=seed,
        tol=tol,
        out_dir=out_dir,
        quiet=quiet,
    )
