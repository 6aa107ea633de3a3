"""Flat key-value experiment configuration (INI sections, diff-friendly).

A config file describes one experiment: the forward model and problem data
(closed forms selected from the registry in ``rbsde_lab.problem``), lattice
and PDE grid sizes, a penalty schedule, and run controls. The README's
``ini`` block is the example config, with every key the loader reads.

``schedule = default`` expands to the doubling schedule 2^0 .. 2^10. Text
after a whitespace-preceded ``;`` is a comment. The keys ``load_config``
reads are the only keys it accepts: once every value has loaded, a section
or a key of the file that was never read is a ConfigError, so a misspelled
key cannot fall back to its default. A key is read only where it matters:
``mu``/``sigma`` under ``kind = geometric``, ``b0``/``sigma0`` under
``kind = arithmetic`` and ``[pde] penalty_n`` for the ``pde`` command.
``[run] seed`` is read and discarded, because the bench writes it.
"""

from __future__ import annotations

import configparser
import contextlib
import math
from typing import NamedTuple

from .lattice import ForwardModel, TimeGrid
from .pde import PdeGrid
from .penalty import check_schedule
from .problem import ProblemSpec, make_generator, make_obstacle, make_terminal

COMMANDS = ("solve", "penalize", "pde", "verify", "convergence", "crosscheck")
DEFAULT_SCHEDULE = tuple(float(2**i) for i in range(11))
# the PDE's one boundary rule (``pde.PdeGrid``); the key may name it
BOUNDARY = "dirichlet-obstacle"

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration parse or validation failure, with field diagnostics."""


class ExperimentConfig(NamedTuple):
    command: str
    model: ForwardModel
    spec: ProblemSpec
    lattice_grid: TimeGrid
    pde_grid: PdeGrid | None
    pde_penalty_n: float | None
    schedule: tuple
    tol: float


class _Parser(configparser.ConfigParser):
    """An INI parser that records, in ``asked``, each key the loader asks for."""

    def __init__(self):
        super().__init__(interpolation=None, inline_comment_prefixes=(";",))
        self.asked = {}  # section -> its keys, in the order they were asked for


def _get(cp, section: str, key: str, cast, default=_REQUIRED):
    """``cast`` of ``[section] key``, or ``default`` when the file has no such key.

    A failed cast, a NaN or an infinite float names the field.
    """
    cp.asked.setdefault(section, []).append(key)
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required field [{section}] {key}")
        return default
    raw = cp.get(section, key)
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


def _check_all_read(cp) -> None:
    """Raise ConfigError at the first section or key of the file never read."""
    for section in cp.sections():
        known = cp.asked.get(section)
        if known is None:
            raise ConfigError(
                f"[{section}]: unknown section; expected one of "
                + ", ".join(f"[{name}]" for name in cp.asked)
            )
        for key in cp.options(section):
            if key not in known:
                raise ConfigError(
                    f"[{section}] {key}: unknown key; expected one of {', '.join(known)}"
                )


def _parse_schedule(raw: str) -> tuple:
    """'default' or comma-separated intensities, checked as ``penalty`` checks them."""
    raw = raw.strip()
    if raw == "default":
        return DEFAULT_SCHEDULE
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"schedule must be 'default' or comma-separated numbers, got {raw!r}")
    return tuple(check_schedule(values))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file.

    Raises ConfigError naming the offending section/field on any problem.
    """
    cp = _Parser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        text = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"config parse error in {path}: {text}") from None

    command = _get(cp, "run", "command", str).strip()
    if command not in COMMANDS:
        raise ConfigError(
            f"[run] command: unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    tol = _get(cp, "run", "tol", float, 0.02)
    if tol < 0.0:
        raise ConfigError(f"[run] tol: must be >= 0, got {tol!r}")
    _get(cp, "run", "seed", str, None)  # no command reads it; the bench writes it

    kind = _get(cp, "problem", "kind", str).strip()
    x0 = _get(cp, "problem", "x0", float)
    with _section_errors("[problem] model"):
        if kind == "geometric":
            model = ForwardModel.geometric(
                _get(cp, "problem", "mu", float),
                _get(cp, "problem", "sigma", float),
                x0,
            )
        elif kind == "arithmetic":
            model = ForwardModel.arithmetic(
                _get(cp, "problem", "b0", float),
                _get(cp, "problem", "sigma0", float),
                x0,
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
    cp.asked["pde"] = []  # a known section, whether or not the file has it
    if cp.has_section("pde"):
        with _section_errors("[pde]"):
            pde_grid = PdeGrid(
                x_min=_get(cp, "pde", "x_min", float),
                x_max=_get(cp, "pde", "x_max", float),
                m_nodes=_get(cp, "pde", "m_nodes", int),
                time=TimeGrid(_get(cp, "pde", "n_steps", int), lattice_grid.horizon),
            )
        boundary = _get(cp, "pde", "boundary", str, BOUNDARY).strip()
        if boundary != BOUNDARY:
            raise ConfigError(
                f"[pde] boundary: the only boundary rule is {BOUNDARY!r}, got {boundary!r}"
            )
        if command == "pde":  # only pde solves the penalized scheme
            pde_penalty_n = _get(cp, "pde", "penalty_n", float, None)
            if pde_penalty_n is not None:
                with _section_errors("[pde] penalty_n"):
                    check_schedule([pde_penalty_n])
        if not pde_grid.x_min < model.x0 < pde_grid.x_max:
            raise ConfigError(
                f"[pde]: x0 = {model.x0} must lie strictly inside "
                f"({pde_grid.x_min}, {pde_grid.x_max})"
            )

    schedule = _get(cp, "penalize", "schedule", _parse_schedule, DEFAULT_SCHEDULE)

    _check_all_read(cp)
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
        tol=tol,
    )
