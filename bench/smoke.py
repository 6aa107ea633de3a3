"""Self-test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Checks that every workload prints each metric of BENCHMARK.json with its
unit and sample count, traced and untraced; that a deliberately wrong
reference value is counted as a failed experiment and makes the run exit
nonzero; that a nonzero exit fails an experiment unless it is exactly the
known convergence defect; and that without the program's sources the
benchmark exits nonzero without printing a result. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    run_py = Path(cwd) / "bench" / "run.py"
    return subprocess.run(
        [sys.executable, str(run_py), "--seed", str(SEED), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, workload: str, trace: int, failures: list) -> None:
    proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    line = last_json(proc)
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        failures.append(f"{where}: attempted={line['attempted']!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    printed = {}
    for text in proc.stdout.splitlines()[:-1]:
        parts = text.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            printed[parts[0]] = parts[2]
    expected = dict(names) if trace else {**names, **run.UNBOUNDED}
    for name, unit in expected.items():
        if printed.get(name) != unit:
            failures.append(f"{where}: {name} not printed with unit {unit} and a sample count")


def check_wrong_reference(failures: list) -> None:
    proc = bench("--workload", "lattice-report", "--trace", "0", "--smoke", "--wrong-reference")
    line = last_json(proc)
    if proc.returncode == 0 or line["correct"] or line["failed"] < 1:
        failures.append(
            f"wrong reference went unnoticed: exit {proc.returncode}, "
            f"correct={line['correct']}, failed={line['failed']}"
        )
    elif "from the reference" not in proc.stdout:
        failures.append("wrong reference failed the run but no reference failure was printed")


def check_exit_codes(failures: list) -> None:
    """A nonzero exit fails an experiment, except the known convergence defect."""
    inst = workloads.draw_instances(SEED)[0]
    out_dir = ROOT / ".bench_out" / "smoke-exit"
    cases = (
        # (command, exit code, convergence.csv Y0 column, expected to fail)
        ("convergence", 1, (1.00, 1.01, 1.015), True),  # deltas shrink: the exit is unexplained
        ("convergence", 1, (1.00, 1.01, 1.00), False),  # the known defect
        ("convergence", 2, (1.00, 1.01, 1.00), True),  # only exit code 1 is the defect
        ("convergence", 0, (1.00, 1.01, 1.015), False),
    )
    for command, code, y0s, should_fail in cases:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        rows = "".join(f"{64 << i},{y!r}\n" for i, y in enumerate(y0s))
        (out_dir / "convergence.csv").write_text("n_steps,Y0\n" + rows)
        gate = run.Gate({inst.index: 1.0}, oracle.REL_TOL["smoke"])
        exp = workloads.Experiment(inst, command, "")
        rec = gate.check(exp, out_dir, {"exit_code": code})
        if bool(rec["problems"]) != should_fail:
            failures.append(f"exit {code} with Y0 {y0s}: problems {rec['problems']}")
    shutil.rmtree(out_dir, ignore_errors=True)


def check_without_program(failures: list) -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "lattice-report", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = workloads.load_spec()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_metrics(spec, workload, trace, failures)
    check_wrong_reference(failures)
    check_exit_codes(failures)
    check_without_program(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
