"""Command-line front end: config-driven experiments with file outputs.

Every command writes machine-readable artifacts (CSV/JSON) under the output
directory and a short human-readable summary to stdout. This module is the
only one that writes artifacts: the solvers return arrays and records
(``NamedTuple``s), and the writers below format them. Every CSV table goes
through one block writer, ``_write_table``: one block (a lattice layer, a
PDE time row, a whole sweep) is one table of cells and one write, and a
float is formatted with ``repr`` only where its bits differ from those of
the same state in an earlier block and of the earlier column its table
pairs it with. Outputs are a pure function of the config: re-running the
same experiment produces byte-identical files.
Any invariant failure yields exit status 1 and one stderr line that names
each failed check.

Each command is a fresh process, so it compiles only the modules it runs.
Importing this module loads what loading a config needs: ``config``,
``lattice`` and ``problem``. ``run`` then loads the solver modules of its
command: ``snell`` for ``solve`` and ``convergence``, ``snell`` and
``estimates`` for ``verify``, ``penalty`` for ``penalize``, ``pde`` for
``pde``, and ``snell``, ``penalty`` and ``pde`` for ``crosscheck``
(``penalty`` imports ``snell`` itself). Loading a module
binds here the names this module calls from it (``_SOLVER_NAMES``), and the
commands call them as globals of this module, because ``bench/tracing.py``
swaps them for wrappers here. Reading such a name from outside before its
module has loaded loads the module (``__getattr__``, PEP 562), and loading
never rebinds a name that is already bound, so a wrapper installed first is
what the command calls.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .lattice import build_lattice
from .problem import SKOROKHOD_TOL, ProblemSpec, ValidationReport, validate_solution

if TYPE_CHECKING:
    from .pde import PdeField
    from .penalty import PenalizationTrace
    from .snell import SnellOutput

# the names this module calls from each solver module, bound when it loads
_SOLVER_NAMES = {
    "snell": ("snell_root", "solve_snell"),
    "penalty": ("check_uniform_bound", "penalized_root", "run_sweep"),
    "pde": ("solve_pde_penalized", "solve_pde_projected"),
    "estimates": (
        "check_k_estimate",
        "check_stability",  # no command calls it; bench/tracing.py hooks it under this name
        "check_y_estimate",
        "check_z_estimate",
        "solution_moments",
    ),
}


MONOTONICITY_TOL = 1e-10
# complementarity of the projected PDE field, and how far the penalized
# field may rise above it
PDE_TOL = 1e-8
# a PDE cell counts as exercised where u - h <= EXERCISE_TIE_TOL
EXERCISE_TIE_TOL = 1e-8

_FLAG_TEXTS = np.array(["0\n", "1\n"], dtype=object)


def _floats(values) -> list:
    """``repr`` of each value as a Python float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_table(path, header: str, blocks, texts=(), lag=1, shift=0, same=None):
    """Write ``header``, then each block of ``blocks`` as CSV rows.

    A block is ``(lead, values, flags)``: ``lead`` is the text of its first
    column in every row (None: the table has no such column), ``values`` its
    float columns as a (columns, rows) array, and ``flags`` a boolean mask
    for a last 0/1 column (None: no such column). ``texts`` (row j's at j)
    is a column of the same texts in every block, after the lead. No block
    has more rows than ``texts``, or, without ``texts``, than the first block.

    Every cell of a block, separators included, sits in one object table
    that is allocated once, with its separators and ``texts``, and a block
    is one ``"".join`` and one write. A float whose bits equal those of row
    j - ``shift`` of its column, ``lag`` blocks back, reuses that text, and
    so does one in float column ``same[0]`` whose bits equal those of column
    ``same[1]`` in its row. Only the other values go through ``_floats``.
    Equal bits give equal ``repr``; 0.0 and -0.0, or two NaN payloads,
    differ in their bits and never share a text. Only the last ``lag``
    blocks' bits and texts are kept.
    """
    kept = deque(maxlen=lag)
    cells = None
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lead, values, flags in blocks:
            values = np.array(values, dtype=float)
            bits = values.view(np.int64)
            n = values.shape[1]
            if cells is None:
                first = 2 * ((lead is not None) + bool(texts))
                width = first + 2 * len(values) + (flags is not None)
                cells = np.full((len(texts) or n, width), ",", dtype=object)
                cells[:, -1] = "\n"
                if texts:
                    cells[:, first - 2] = texts
            table = cells[:n]
            if lead is not None:
                table[:, 0] = lead
            if flags is not None:
                table[:, -1] = _FLAG_TEXTS[np.asarray(flags, dtype=np.intp)]
            floats = np.empty(values.shape, dtype=object)
            known = np.zeros(values.shape, dtype=bool)
            if len(kept) == lag:
                old_bits, old_texts = kept[0]
                hi = max(shift, min(n, old_bits.shape[1] + shift))
                window = known[:, shift:hi]
                np.equal(bits[:, shift:hi], old_bits[:, : hi - shift], out=window)
                floats[:, shift:hi][window] = old_texts[:, : hi - shift][window]
            if same is not None:
                copied = (bits[same[0]] == bits[same[1]]) & ~known[same[0]]
                known[same[0]] |= copied
            fresh = ~known
            floats[fresh] = _floats(values[fresh])
            if same is not None:
                floats[same[0]][copied] = floats[same[1]][copied]
            kept.append((bits, floats))
            table[:, first : first + 2 * len(values) : 2] = floats.T
            fh.write("".join(table.ravel().tolist()))


def _write_json(payload: dict, path, mode="w", indent=2) -> None:
    """Write ``payload`` as JSON with sorted keys, then a newline (``mode`` "a" appends).

    JSON has no NaN or infinity: a field that holds one is a ValueError
    naming the file and the field, raised before anything is written.
    """
    for key, value in sorted(payload.items()):
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(
                f"{Path(path).name}: field {key} is {value!r}, and JSON has no NaN or infinity"
            ) from None
    with open(path, mode) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False) + "\n")


def snell_to_csv(out: SnellOutput, path) -> None:
    """CSV export with header ``k,j,state,Y,Z,K,continuation,exercised``.

    K is the node-conditioned cumulative pushing process; terminal-layer Z
    is written as 0 (no integrand is attached to the final date).
    """
    triple = out.triple
    nodes = triple.lattice.nodes
    k_cum = triple.k_nodewise()
    n = triple.n_steps
    # Node j of layer k and node j - 1 of layer k - 2 are one state on the
    # geometric lattice (views of one parity table), and Y = h(x) where it
    # stops, Y = Z = continuation = 0 where the payoff cannot be reached;
    # where a node continues, its continuation often has the bits of its Y.

    def layer(k):
        z = triple.z[k] if k < n else np.zeros(k + 1)
        values = (nodes[k], triple.y[k], z, k_cum[k], out.continuation[k])
        return str(k), values, out.exercise_region[k]

    blocks = (layer(k) for k in range(n + 1))
    header = "k,j,state,Y,Z,K,continuation,exercised"
    texts = [str(j) for j in range(n + 1)]
    _write_table(path, header, blocks, texts, lag=2, shift=1, same=(4, 1))


def pde_field_to_csv(field: PdeField, spec: ProblemSpec, path) -> None:
    """CSV export with header ``t,x,u,u_minus_h,exercised``, one block per time row."""
    xs = field.grid.xs()

    def row(k, t):
        gap = field.u[k] - np.asarray(spec.obstacle(t, xs), dtype=float)
        return repr(float(t)), (field.u[k], gap), gap <= EXERCISE_TIE_TOL

    # the previous time row at the same x: u = h(x) and u - h = 0 where
    # exercised; u - h is u itself wherever h = 0
    blocks = (row(k, t) for k, t in enumerate(field.grid.time.times()))
    header = "t,x,u,u_minus_h,exercised"
    _write_table(path, header, blocks, _floats(xs), lag=1, shift=0, same=(1, 0))


def emit_convergence_table(trace: PenalizationTrace, path) -> None:
    """Write a sweep as CSV with header ``n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity``."""
    columns = (
        trace.n_values,
        trace.y0,
        trace.sup_gap_to_snell,
        trace.negative_part_norm,
        trace.k_t_root,
        trace.bound_quantity,
    )
    header = "n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity"
    _write_table(path, header, [(None, columns, None)])


def append_report_jsonl(report, path) -> None:
    """Append one report record to a JSON-lines file."""
    _write_json(report._asdict(), path, "a", None)


def _exit_status(cfg: ExperimentConfig, failed: list) -> int:
    """0 when no check failed; else 1, after one stderr line naming each failed check."""
    if not failed:
        return 0
    print(f"{cfg.command}: " + "; ".join(failed), file=sys.stderr)
    return 1


def _contract_failures(report: ValidationReport) -> list:
    """Each failed item of the solution contract, with its residual and tol."""
    tol = report.tol
    items = (
        (report.obstacle_ok, f"obstacle_violation {report.obstacle_violation:.3e} > tol {tol:.3e}"),
        (report.k_monotone_ok, f"k_min_increment {report.k_min_increment:.3e} < -tol {-tol:.3e}"),
        (
            report.skorokhod_ok,
            f"skorokhod_residual {report.skorokhod_residual:.3e} > tol {SKOROKHOD_TOL:.3e}",
        ),
        (report.backward_ok, f"backward_residual {report.backward_residual:.3e} > tol {tol:.3e}"),
    )
    return [message for ok, message in items if not ok]


def _cmd_solve(cfg: ExperimentConfig, out: Path, say) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    result = solve_snell(lattice, cfg.spec)
    report = validate_solution(result.triple, cfg.spec)
    snell_to_csv(result, out / "snell.csv")
    _write_json(report._asdict(), out / "validation.json")
    say(f"Y0={float(result.triple.y[0][0])!r}")
    return _exit_status(cfg, _contract_failures(report))


def _cmd_penalize(cfg: ExperimentConfig, out: Path, say) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    trace = run_sweep(lattice, cfg.spec, cfg.schedule)
    emit_convergence_table(trace, out / "penalization.csv")
    bound = check_uniform_bound(trace)
    _write_json(bound._asdict(), out / "bound.json")
    worst_mono = max(trace.monotonicity_violation)
    say(f"snell_Y0={trace.snell_y0!r}")
    for i, n in enumerate(trace.n_values):
        say(f"n={n:g} Y0={trace.y0[i]!r} sup_gap={trace.sup_gap_to_snell[i]!r}")
    failed = []
    if not worst_mono <= MONOTONICITY_TOL:
        failed.append(f"monotonicity violation {worst_mono:.3e} > {MONOTONICITY_TOL:.3e}")
    if not bound.passed:
        failed.append(
            f"uniform bound: max quantity {bound.max_quantity:.3e} "
            f"> threshold {bound.threshold:.3e}"
        )
    return _exit_status(cfg, failed)


def _cmd_pde(cfg: ExperimentConfig, out: Path, say) -> int:
    field = solve_pde_projected(cfg.pde_grid, cfg.spec, cfg.model)
    pde_field_to_csv(field, cfg.spec, out / "pde.csv")
    u0 = field.interpolate(0.0, cfg.model.x0)
    say(f"u0={u0!r}")
    failed = []
    if not field.complementarity <= PDE_TOL:
        failed.append(f"complementarity {field.complementarity:.3e} > tol {PDE_TOL:.3e}")
    if cfg.pde_penalty_n is not None:
        pen = solve_pde_penalized(cfg.pde_grid, cfg.spec, cfg.model, cfg.pde_penalty_n)
        pde_field_to_csv(pen, cfg.spec, out / "pde_penalized.csv")
        gap = float(np.max(pen.u - field.u))
        say(f"u0_penalized={pen.interpolate(0.0, cfg.model.x0)!r}")
        if not gap <= PDE_TOL:
            failed.append(f"penalized gap max(u_penalized - u) {gap:.3e} > tol {PDE_TOL:.3e}")
    _write_json(
        {
            "u0": u0,
            "complementarity": field.complementarity,
            "min_operator_residual": field.min_operator_residual,
            "max_policy_iterations": field.max_policy_iterations,
            "max_lag_iterations": field.max_lag_iterations,
        },
        out / "pde_report.json",
    )
    return _exit_status(cfg, failed)


def _cmd_verify(cfg: ExperimentConfig, out: Path, say) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    result = solve_snell(lattice, cfg.spec)
    report = validate_solution(result.triple, cfg.spec)
    _write_json(report._asdict(), out / "validation.json")

    jsonl = out / "estimates.jsonl"
    jsonl.unlink(missing_ok=True)
    moments = solution_moments(result.triple, cfg.spec, report)
    for check in (check_y_estimate, check_z_estimate, check_k_estimate):
        append_report_jsonl(check(moments, instance_id=cfg.command), jsonl)
    say(f"validation_all_pass={report.all_pass}")
    return _exit_status(cfg, _contract_failures(report))


def _cmd_convergence(cfg: ExperimentConfig, out: Path, say) -> int:
    grid = cfg.lattice_grid
    ns = [grid.n_steps * mult for mult in (1, 2, 4)]
    y0s = []
    for n in ns:
        lattice = build_lattice(cfg.model, type(grid)(n, grid.horizon))
        y0s.append(snell_root(lattice, cfg.spec))
    texts = [str(n) for n in ns]
    _write_table(out / "convergence.csv", "n_steps,Y0", [(None, [y0s], None)], texts)
    first = abs(y0s[1] - y0s[0])
    second = abs(y0s[2] - y0s[1])
    for n, y0 in zip(ns, y0s):
        say(f"n_steps={n} Y0={y0!r}")
    say(f"refinement_deltas={first!r},{second!r}")
    failed = []
    # a constant root (both deltas 0) has converged; a first delta of 0 alone has not
    if not (second < first or first == second == 0.0):
        failed.append(
            f"refinement delta {second:.3e} (n_steps {ns[1]} to {ns[2]}) "
            f"is not smaller than {first:.3e} (n_steps {ns[0]} to {ns[1]})"
        )
    return _exit_status(cfg, failed)


def _cmd_crosscheck(cfg: ExperimentConfig, out: Path, say) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    snell_y0 = float(solve_snell(lattice, cfg.spec).triple.y[0][0])
    pen_y0 = penalized_root(lattice, cfg.spec, cfg.schedule[-1])
    field = solve_pde_projected(cfg.pde_grid, cfg.spec, cfg.model)
    pde_u0 = field.interpolate(0.0, cfg.model.x0)

    scale = max(abs(snell_y0), 1e-12)
    gap_pen = abs(snell_y0 - pen_y0) / scale
    gap_pde = abs(snell_y0 - pde_u0) / scale
    gap_cross = abs(pen_y0 - pde_u0) / scale
    payload = {
        "snell_y0": snell_y0,
        "penalized_tail_y0": pen_y0,
        "pde_u0": pde_u0,
        "rel_gap_snell_penalized": gap_pen,
        "rel_gap_snell_pde": gap_pde,
        "rel_gap_penalized_pde": gap_cross,
        "tol": cfg.tol,
    }
    _write_json(payload, out / "crosscheck.json")
    say(f"snell_Y0={snell_y0!r}")
    say(f"penalized_tail_Y0={pen_y0!r}")
    say(f"pde_u0={pde_u0!r}")
    say(f"gaps: pen={gap_pen:.3e} pde={gap_pde:.3e} cross={gap_cross:.3e}")
    failed = [
        f"{name} {payload[name]:.3e} > tol {cfg.tol:.3e}"
        for name in ("rel_gap_snell_penalized", "rel_gap_snell_pde", "rel_gap_penalized_pde")
        if not payload[name] <= cfg.tol
    ]
    return _exit_status(cfg, failed)


_DISPATCH = {
    "solve": _cmd_solve,
    "penalize": _cmd_penalize,
    "pde": _cmd_pde,
    "verify": _cmd_verify,
    "convergence": _cmd_convergence,
    "crosscheck": _cmd_crosscheck,
}
# the solver modules each command runs
_COMMAND_SOLVERS = {
    "solve": ("snell",),
    "penalize": ("penalty",),
    "pde": ("pde",),
    "verify": ("snell", "estimates"),
    "convergence": ("snell",),
    "crosscheck": ("snell", "penalty", "pde"),
}


def _load(module: str) -> None:
    """Import solver ``module`` and bind each of its names that this module does not hold yet.

    A name already bound is kept: it may be a wrapper that
    ``bench/tracing.py`` installed before the module loaded.
    """
    solver = importlib.import_module(f".{module}", __package__)
    for name in _SOLVER_NAMES[module]:
        globals().setdefault(name, getattr(solver, name))


def __getattr__(name: str):
    """A solver's name read from outside before its module has loaded: load it (PEP 562)."""
    for module, names in _SOLVER_NAMES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run(config: ExperimentConfig, out_dir, quiet: bool) -> int:
    """Execute one experiment, writing its files under ``out_dir``; returns the exit status.

    The stdout summary is printed unless ``quiet``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    say = (lambda message: None) if quiet else print
    for module in _COMMAND_SOLVERS[config.command]:
        _load(module)
    return _DISPATCH[config.command](config, out, say)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbsde-lab",
        description="Config-driven experiments for reflected backward equations.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config, args.out, args.quiet)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
