"""Command-line front end: config-driven experiments with file outputs.

Every command writes machine-readable artifacts (CSV/JSON) under the output
directory and a short human-readable summary to stdout. Outputs are a pure
function of (config, seed): re-running the same experiment produces
byte-identical files. Any invariant failure yields a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .estimates import (
    append_report_jsonl,
    check_k_estimate,
    check_stability,
    check_y_estimate,
    check_z_estimate,
)
from .lattice import build_lattice
from .pde import check_start_time, pde_field_to_csv, solve_pde_penalized, solve_pde_projected
from .penalty import PenalizationTrace, check_uniform_bound, penalized_root, run_sweep
from .problem import validate_solution
from .snell import snell_to_csv, solve_snell


MONOTONICITY_TOL = 1e-10


def emit_convergence_table(trace: PenalizationTrace, path) -> None:
    """Write a sweep as CSV with header ``n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity``."""
    if not trace.n_values:
        raise ValueError("trace is empty")
    with open(path, "w") as fh:
        fh.write("n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity\n")
        for i, n in enumerate(trace.n_values):
            fh.write(
                f"{n!r},{trace.y0[i]!r},{trace.sup_gap_to_snell[i]!r},"
                f"{trace.negative_part_norm[i]!r},{trace.k_t_root[i]!r},"
                f"{trace.bound_quantity[i]!r}\n"
            )


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _say(cfg: ExperimentConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


def _exit_status(cfg: ExperimentConfig, failed: list) -> int:
    """0 when no check failed; else 1, after one stderr line naming each failed check."""
    if not failed:
        return 0
    print(f"{cfg.command}: " + "; ".join(failed), file=sys.stderr)
    return 1


def _cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    result = solve_snell(lattice, cfg.spec)
    report = validate_solution(result.triple, cfg.spec, lattice)
    snell_to_csv(result, out / "snell.csv")
    _write_json(report.to_dict(), out / "validation.json")
    _say(cfg, f"Y0={float(result.triple.y[0][0])!r}")
    return 0 if report.all_pass else 1


def _cmd_penalize(cfg: ExperimentConfig, out: Path) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    trace = run_sweep(lattice, cfg.spec, cfg.schedule)
    emit_convergence_table(trace, out / "penalization.csv")
    bound = check_uniform_bound(trace, cfg.spec)
    _write_json(bound.to_dict(), out / "bound.json")
    worst_mono = max(trace.monotonicity_violation)
    _say(cfg, f"snell_Y0={trace.snell_y0!r}")
    for i, n in enumerate(trace.n_values):
        _say(cfg, f"n={n:g} Y0={trace.y0[i]!r} sup_gap={trace.sup_gap_to_snell[i]!r}")
    failed = []
    if not worst_mono <= MONOTONICITY_TOL:
        failed.append(f"monotonicity violation {worst_mono:.3e} > {MONOTONICITY_TOL:.3e}")
    if not bound.passed:
        failed.append(
            f"uniform bound: max quantity {bound.max_quantity:.3e} "
            f"> threshold {bound.threshold:.3e}"
        )
    return _exit_status(cfg, failed)


def _cmd_pde(cfg: ExperimentConfig, out: Path) -> int:
    field = solve_pde_projected(cfg.pde_grid, cfg.spec, cfg.model)
    pde_field_to_csv(field, cfg.spec, out / "pde.csv")
    u0 = field.interpolate(0.0, cfg.model.x0)
    _say(cfg, f"u0={u0!r}")
    ok = field.complementarity <= 1e-8
    if cfg.pde_penalty_n is not None:
        pen = solve_pde_penalized(cfg.pde_grid, cfg.spec, cfg.model, cfg.pde_penalty_n)
        pde_field_to_csv(pen, cfg.spec, out / "pde_penalized.csv")
        gap = float(np.max(pen.u - field.u))
        _say(cfg, f"u0_penalized={pen.interpolate(0.0, cfg.model.x0)!r}")
        ok = ok and gap <= 1e-8
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
    return 0 if ok else 1


def _cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    result = solve_snell(lattice, cfg.spec)
    report = validate_solution(result.triple, cfg.spec, lattice)
    _write_json(report.to_dict(), out / "validation.json")

    jsonl = out / "estimates.jsonl"
    jsonl.unlink(missing_ok=True)
    ok = report.all_pass
    for check in (check_y_estimate, check_z_estimate, check_k_estimate):
        est = check(result.triple, cfg.spec, lattice, instance_id=cfg.command)
        append_report_jsonl(est, jsonl)
    stability = check_stability(result.triple, result.triple, cfg.spec, cfg.spec, lattice)
    append_report_jsonl(stability, jsonl)
    ok = ok and stability.delta_y_norm <= 1e-12
    _say(cfg, f"validation_all_pass={report.all_pass} self_stability={stability.delta_y_norm!r}")
    return 0 if ok else 1


def _cmd_convergence(cfg: ExperimentConfig, out: Path) -> int:
    base = cfg.lattice_grid.n_steps
    rows = []
    for mult in (1, 2, 4):
        grid = type(cfg.lattice_grid)(base * mult, cfg.lattice_grid.horizon)
        lattice = build_lattice(cfg.model, grid)
        y0 = float(solve_snell(lattice, cfg.spec).triple.y[0][0])
        rows.append((base * mult, y0))
    with open(out / "convergence.csv", "w") as fh:
        fh.write("n_steps,Y0\n")
        for n, y0 in rows:
            fh.write(f"{n},{y0!r}\n")
    first = abs(rows[1][1] - rows[0][1])
    second = abs(rows[2][1] - rows[1][1])
    for n, y0 in rows:
        _say(cfg, f"n_steps={n} Y0={y0!r}")
    _say(cfg, f"refinement_deltas={first!r},{second!r}")
    return 0 if second < first or first == 0.0 else 1


def _cmd_crosscheck(cfg: ExperimentConfig, out: Path) -> int:
    check_start_time(cfg.model)
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    snell_y0 = float(solve_snell(lattice, cfg.spec).triple.y[0][0])
    pen_y0 = penalized_root(lattice, cfg.spec, cfg.schedule)
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
    _say(cfg, f"snell_Y0={snell_y0!r}")
    _say(cfg, f"penalized_tail_Y0={pen_y0!r}")
    _say(cfg, f"pde_u0={pde_u0!r}")
    _say(cfg, f"gaps: pen={gap_pen:.3e} pde={gap_pde:.3e} cross={gap_cross:.3e}")
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


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[config.command](config, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbsde-lab",
        description="Config-driven experiments for reflected backward equations.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    args = parser.parse_args(argv)

    overrides = {"quiet": args.quiet}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.tol is not None:
        overrides["tol"] = args.tol

    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (ValueError, RuntimeError) as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
