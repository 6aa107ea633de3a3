"""Reference values and the correctness gate for one experiment's artifacts.

The reference is a direct binomial tree, written here against plain arrays
and sharing no code with ``rbsde_lab``: max(payoff, discounted expectation)
with the implicit-Euler discount 1 / (1 + r dt), which is what the lab's
generator ``linear_discount:r`` solves to. It covers both model kinds and is
run at a finer step count than any experiment, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import ARTIFACTS, HORIZON, STRIKE

REFERENCE_STEPS = {"full": 8192, "smoke": 1024}
# Stated tolerance of every reported root value against the reference,
# relative to the reference, by command. Over a sweep of the corners of the
# instance box (x0 = 48, sigma = 0.2, r = 0.08 is worst everywhere), the
# lattice commands, at 256 steps or more, are at most 0.24 % off. ``pde``
# and ``crosscheck`` run the coarse sizes: a 121x100 PDE grid, whose error
# is first order in the space step, is at most 1.06 % off, and the 128-step
# lattice 0.77 %, so they get 2 %, the same as their own cross-check
# tolerance. Smoke sizes are coarse grids.
REL_TOL = {
    "full": {"solve": 0.01, "verify": 0.01, "convergence": 0.01, "penalize": 0.01,
             "pde": 0.02, "crosscheck": 0.02},
    "smoke": dict.fromkeys(ARTIFACTS, 0.1),
}


def reference_value(inst, n_steps: int) -> float:
    """American put on a recombining binomial tree with ``n_steps`` steps."""
    dt = HORIZON / n_steps
    disc = 1.0 / (1.0 + inst.rate * dt)
    j = np.arange(n_steps + 1, dtype=float)
    if inst.kind == "geometric":
        u = math.exp(inst.sigma * math.sqrt(dt))
        p = (math.exp(inst.rate * dt) - 1.0 / u) / (u - 1.0 / u)
        up_powers = u ** (2.0 * j)

        def states(k):
            return inst.x0 * u ** (-k) * up_powers[: k + 1]

    else:
        step = inst.sigma0 * math.sqrt(dt)
        p = 0.5

        def states(k):
            return inst.x0 + inst.b0 * k * dt + step * (2.0 * j[: k + 1] - k)

    v = np.maximum(STRIKE - states(n_steps), 0.0)
    for k in range(n_steps - 1, -1, -1):
        v = np.maximum(STRIKE - states(k), disc * (p * v[1:] + (1.0 - p) * v[:-1]))
    return float(v[0])


def digests(out_dir: Path) -> dict:
    """SHA-256 of every file an experiment wrote, by file name."""
    result = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        result[path.name] = h.hexdigest()
    return result


def _csv_rows(path: Path) -> list:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _snell_root(path: Path) -> float:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        first = dict(zip(header, fh.readline().strip().split(",")))
    if first.get("k") != "0":
        raise ValueError("snell.csv does not start with row k=0")
    return float(first["Y"])


def root_values(command: str, out_dir: Path) -> dict:
    """Root values an experiment reports, by the name of where they came from."""
    if command == "solve":
        return {"snell.csv:Y0": _snell_root(out_dir / "snell.csv")}
    if command == "convergence":
        return {
            f"convergence.csv:N={row['n_steps']}": float(row["Y0"])
            for row in _csv_rows(out_dir / "convergence.csv")
        }
    if command == "penalize":
        # Only the last, strongest intensity approximates the reflected value.
        last = _csv_rows(out_dir / "penalization.csv")[-1]
        return {f"penalization.csv:n={last['n']}": float(last["Y0"])}
    if command == "pde":
        report = json.loads((out_dir / "pde_report.json").read_text())
        return {"pde_report.json:u0": float(report["u0"])}
    if command == "crosscheck":
        report = json.loads((out_dir / "crosscheck.json").read_text())
        return {
            f"crosscheck.json:{key}": float(report[key])
            for key in ("snell_y0", "penalized_tail_y0", "pde_u0")
        }
    return {}


def known_defect(command: str, exit_code, out_dir: Path):
    """Why a nonzero exit is the program's known convergence defect, or None.

    ``rbsde-lab convergence`` exits 1 unless the second refinement delta is
    smaller than the first. Binomial American-put values converge
    non-monotonically, so values that match the reference can fail that
    check. Only this case is recognised: exit code 1 from ``convergence``
    with the failing check recomputed from ``convergence.csv``.
    """
    if command != "convergence" or exit_code != 1:
        return None
    y0 = [float(row["Y0"]) for row in _csv_rows(out_dir / "convergence.csv")]
    if len(y0) != 3:
        return None
    first, second = abs(y0[1] - y0[0]), abs(y0[2] - y0[1])
    if second < first or first == 0.0:
        return None
    return f"convergence: refinement deltas {first!r}, {second!r} do not shrink"


def check_outputs(command: str, out_dir: Path, reference: float, rel_tol: float) -> tuple:
    """Gate the artifacts of one finished experiment.

    Returns (problems, relative errors by root-value name). Each problem is
    a one-line description; an empty list means the outputs are correct.
    """
    problems = []
    missing = [name for name in ARTIFACTS[command] if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing], {}
    if "validation.json" in ARTIFACTS[command]:
        if json.loads((out_dir / "validation.json").read_text()).get("all_pass") is not True:
            problems.append("validation.json: all_pass is not true")
    if command == "crosscheck":
        report = json.loads((out_dir / "crosscheck.json").read_text())
        gaps = {k: v for k, v in report.items() if k.startswith("rel_gap_")}
        for key, gap in sorted(gaps.items()):
            if not gap <= report["tol"]:
                problems.append(f"crosscheck.json: {key}={gap!r} exceeds tol={report['tol']!r}")
    errors = {}
    for name, value in root_values(command, out_dir).items():
        err = abs(value - reference) / abs(reference)
        errors[name] = err
        if not err <= rel_tol:
            problems.append(
                f"{name}={value!r} is {err:.3e} from the reference {reference!r} (tol {rel_tol})"
            )
    return problems, errors
