"""Benchmark of the rbsde-lab command line, run from the root of a checkout.

    python3 bench/run.py --workload lattice-report --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Untraced (``--trace 0``), each experiment is one fresh ``rbsde-lab --config
... --quiet`` process on a generated config, one after the other (a closed
loop with one client), and the end-to-end metrics are printed. Traced
(``--trace 1``), the same experiments are replayed in this process through
``rbsde_lab.cli.main``, once plain and once with spans around each layer,
and the per-layer metrics are printed. The last line of standard output is
one JSON object; the full result, the artifact digests and the spans go to
``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Printed and saved with the end-to-end metrics but not in BENCHMARK.json.
# The machine's speed drifts by up to half from one minute to the next, so
# times are bounded only through the gauge: cpu_per_gauge, and setup_s, the
# setup probe scaled to GAUGE_NOMINAL_S (see bench/README.md, Noise).
# wall_per_gauge is not bounded: with one client and a single-threaded
# program it says what cpu_per_gauge says, and only the latter would show
# added threads.
# fail_frac is 0 on a correct run and max_rel_err is set by which instances
# a seed draws, so neither can carry a regression bound; the JSON line
# carries them as "failed"/"attempted" and "correct" instead.
UNBOUNDED = {
    "setup_wall_s": "s",
    "wall_per_gauge": "ratio",
    "wall_s": "s",
    "cpu_s": "s",
    "gauge_s": "s",
    "fail_frac": "ratio",
    "max_rel_err": "ratio",
}

# The layers predicted to take most of the traced time on each workload.
PREDICTED = {
    "lattice-report": ("snell.csv",),
    "lattice-refine": (
        "penalty.solve",
        "penalty.sweep",
        "problem.validate",
        "problem.sup_moment",
        "problem.accumulation_moment",
        "problem.k_nodewise",
        "snell.solve",
    ),
    "pde-crosscheck": ("pde.projected", "pde.penalized", "pde.csv"),
}

MIN_PASSES = 3
# The gauge's median wall time on the 2-vCPU 2.1 GHz Xeon the bounds were
# set on. setup_s is the set-up time on a machine where the gauge takes
# this long: the median of the setup probe over the gauge next to it, times
# this.
GAUGE_NOMINAL_S = 0.17
EXPERIMENT_TIMEOUT_S = 60.0
MB = float(1 << 20)

# An experiment reports its own peak RSS (VmHWM) on its last stderr line. The
# ru_maxrss of os.wait4 cannot be used for it: a child holds this process's
# pages until it execs, so its ru_maxrss is never below this process's RSS.
ENTRY = (
    "import sys\n"
    "from rbsde_lab.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(''.join(line for line in fh if line.startswith('VmHWM:')))\n"
    "sys.exit(code)\n"
)
# A fixed piece of work that does not touch rbsde_lab: a fresh interpreter
# imports numpy, runs a loop of small array operations and formats floats,
# the same kinds of work as an experiment. Its time follows the machine's
# speed and nothing else. Like an experiment it is a whole process, start-up
# and numpy import included: its time tracks the experiments' better than
# that of its loop alone does.
GAUGE = (
    "import numpy as np\n"
    "v = np.linspace(0.0, 80.0, 257)\n"
    "for _ in range(10000):\n"
    "    v = np.maximum(40.0 - v, 0.5 * (v[:-1] + v[1:]).repeat(2)[:257] * 0.999)\n"
    "rows = [','.join(repr(float(y) * 1.000001) for y in v[i::7]) for i in range(7)] * 400\n"
    "print(len('\\n'.join(rows)))\n"
)
SETUP_PROBE = (
    "import sys\n"
    "import rbsde_lab\n"
    "from rbsde_lab.cli import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "print(rbsde_lab.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """The environment of every process the benchmark starts.

    The program calls no BLAS routine, but numpy starts a BLAS thread pool
    on import whose second thread spins on the other CPU when that CPU is
    free. That spin adds CPU time that comes and goes with the machine's
    load, so the pool is held to one thread.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdout_path: Path, stderr_path: Path) -> dict:
    """Run one process to completion; its wall time and its own rusage."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
    timer = threading.Timer(EXPERIMENT_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit_code": proc.returncode,
    }


class Gate:
    """Checks each finished experiment and remembers artifact digests.

    A repeat of an experiment must write byte-identical files; the first
    digests of each experiment are what ``digests.json`` records.
    """

    def __init__(self, references: dict, rel_tol: dict):
        self.references = references
        self.rel_tol = rel_tol
        self.first_digests = {}
        self.errors = []

    def check(self, exp, out_dir: Path, record: dict) -> dict:
        """Add the experiment's problems to ``record``; its outputs are deleted.

        A nonzero exit is a problem, except the one known defect of the
        program that ``oracle.known_defect`` recognises; that is recorded
        under ``known_defect`` instead.
        """
        code = record["exit_code"]
        if out_dir.is_dir():
            problems, errors = oracle.check_outputs(
                exp.command, out_dir, self.references[exp.instance.index], self.rel_tol[exp.command]
            )
            self.errors += errors.values()
            record["rel_err"] = errors
            digests = oracle.digests(out_dir)
            earlier = self.first_digests.setdefault(exp.ident, digests)
            problems += [
                f"{name} differs from an earlier run of {exp.ident}"
                for name in sorted(set(earlier) | set(digests))
                if earlier.get(name) != digests.get(name)
            ]
            if code != 0 and not problems:
                defect = oracle.known_defect(exp.command, code, out_dir)
                if defect:
                    record["known_defect"] = defect
            shutil.rmtree(out_dir)
        else:
            problems = ["no output directory"]
        if code != 0 and "known_defect" not in record:
            problems.insert(0, f"exit code {code}")
        record["problems"] = problems
        return record


class Workspace:
    """Configs and per-experiment output directories under .bench_out/."""

    def __init__(self, tag: str):
        self.result_dir = OUT / tag
        self.work = OUT / f"work-{tag}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.result_dir.mkdir(parents=True, exist_ok=True)
        self._runs = Counter()

    def config(self, exp) -> Path:
        path = self.work / f"{exp.ident}.cfg"
        if not path.exists():
            path.write_text(exp.config)
        return path

    def fresh_out(self, exp) -> Path:
        self._runs[exp.ident] += 1
        return self.work / f"{exp.ident}.out{self._runs[exp.ident]}"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class Probe:
    """Wall and CPU time of a fresh interpreter running ``code``, one sample per call.

    The first run warms the bytecode and page caches, once per checkout, and
    is not kept; its standard output is kept as ``output``.
    """

    def __init__(self, ws: Workspace, name: str, code: str, args=()):
        self.name = name
        self.argv = [sys.executable, "-c", code, *map(str, args)]
        self.out, self.err = ws.work / f"{name}.out", ws.work / f"{name}.err"
        self.wall, self.cpu = [], []
        self.sample()
        self.output = self.out.read_text()
        self.wall.clear()
        self.cpu.clear()

    def sample(self) -> None:
        rec = run_child(self.argv, self.out, self.err)
        if rec["exit_code"] != 0:
            raise BenchError(f"{self.name} probe failed: {self.err.read_text().strip()}")
        self.wall.append(rec["wall_s"])
        self.cpu.append(rec["cpu_s"])


def run_untraced(exps, ws: Workspace, gate: Gate, seconds: float) -> dict:
    """Whole passes over the workload's experiments until the time is used.

    A pass runs every command on every instance once, each as a fresh
    process. At least MIN_PASSES passes are run, so every experiment is
    timed the same number of times and each is repeated. The gauge runs
    right before each experiment, and the setup probe right before every
    other gauge. The machine's speed changes from one second to the next,
    so each experiment and each setup probe is divided by the gauge that
    ran next to it. The setup probe imports rbsde_lab and loads every
    config of the workload: everything an experiment does before its first
    solver call.
    """
    setup = Probe(ws, "setup", SETUP_PROBE, [ws.config(e) for e in exps])
    origin = Path(setup.output.strip()).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"rbsde_lab was imported from {origin}, not from {SRC}")
    gauge = Probe(ws, "gauge", GAUGE)
    records = []
    setup_per_gauge = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, exp in enumerate(exps):
            if i % 2 == 0:
                setup.sample()
            gauge.sample()
            if i % 2 == 0:
                setup_per_gauge.append(setup.wall[-1] / gauge.wall[-1])
            out_dir = ws.fresh_out(exp)
            argv = [sys.executable, "-c", ENTRY, "--config", str(ws.config(exp)),
                    "--out", str(out_dir), "--quiet"]
            rec = run_child(argv, ws.work / "child.out", ws.work / "child.err")
            stderr = (ws.work / "child.err").read_text()
            rec.update(experiment=exp.ident, run_pass=passes, rss_mb=reported_rss_mb(stderr),
                       gauge_wall_s=gauge.wall[-1], gauge_cpu_s=gauge.cpu[-1])
            if rec["exit_code"] != 0:
                rec["stderr"] = stderr[-2000:]
            records.append(gate.check(exp, out_dir, rec))
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    return {"passes": passes, "records": records, "setup": setup, "gauge": gauge,
            "setup_per_gauge": setup_per_gauge}


def reported_rss_mb(stderr: str) -> float:
    """The peak RSS that ENTRY wrote on stderr; 0 if the process died first."""
    hwm = [line.split()[1] for line in stderr.splitlines() if line.startswith("VmHWM:")]
    return int(hwm[-1]) * 1024 / MB if hwm else 0.0


def pass_time(records, key: str, per: str = None) -> float:
    """One pass over all experiments: the sum of each experiment's median.

    With ``per``, each sample is first divided by the record's ``per``.
    """
    samples = {}
    for rec in records:
        samples.setdefault(rec["experiment"], []).append(rec[key] / (rec[per] if per else 1.0))
    return sum(statistics.median(v) for v in samples.values())


def run_traced(exps, ws: Workspace, gate: Gate, seconds: float) -> dict:
    """Replay whole passes, each experiment plain and traced, until the time is used.

    At least one pass is run, so every experiment is traced.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbsde_lab
    from rbsde_lab import cli

    origin = Path(rbsde_lab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"rbsde_lab was imported from {origin}, not from {SRC}")

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli", cli.main)
    records = []
    plain_total = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # Alternate which replay goes first, so neither always runs warm.
        order = ("plain", "traced") if passes % 2 == 0 else ("traced", "plain")
        for exp in exps:
            for mode in order:
                out_dir = ws.fresh_out(exp)
                argv = ["--config", str(ws.config(exp)), "--out", str(out_dir), "--quiet"]
                tracer.experiment = f"{exp.ident}.{mode}"
                t0 = time.perf_counter()
                try:
                    if mode == "traced":
                        with tracing.instrument(tracer):
                            code = traced_main(argv)
                    else:
                        code = cli.main(argv)
                except Exception as exc:  # a crash is a failed experiment, not a bench error
                    code = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                if mode == "plain":
                    plain_total += wall
                rec = {"experiment": exp.ident, "mode": mode, "wall_s": wall, "exit_code": code}
                records.append(gate.check(exp, out_dir, rec))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return {
        "records": records,
        "passes": passes,
        "plain_total_s": plain_total,
        "tracer": tracer,
    }


def layer_report(tracer: tracing.Tracer, passes: int, plain_total: float, workload: str) -> tuple:
    """Per-layer metrics (per pass over all experiments) and the layer breakdown."""
    own = tracer.self_times()
    self_s = Counter()
    calls = Counter()
    counts = Counter()
    max_lattice_bytes = 0
    for span, t in zip(tracer.spans, own):
        self_s[span.name] += t
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.name == "lattice.build":
            max_lattice_bytes = max(max_lattice_bytes, span.counts["bytes"])
    total = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    per = 1.0 / passes

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    shares = {layer: self_s[layer] / total for layer in tracing.LAYERS}
    predicted = PREDICTED[workload]
    measured = max(tracing.LAYERS, key=lambda layer: shares[layer])
    metrics = {
        "config.load_s": self_s["config.load"] * per,
        "lattice.build_s": self_s["lattice.build"] * per,
        "lattice.nodes": counts["lattice.build.nodes"] * per,
        "lattice.array_mb": max_lattice_bytes / MB,
        "lattice.node_weights_s": self_s["lattice.node_weights"] * per,
        "lattice.node_weights_per_lattice": rate(calls["lattice.node_weights"], calls["lattice.build"]),
        "snell.solve_s": self_s["snell.solve"] * per,
        "snell.solve_calls": calls["snell.solve"] * per,
        "snell.nodes_per_s": rate(counts["snell.solve.nodes"], self_s["snell.solve"]),
        "snell.csv_s": self_s["snell.csv"] * per,
        "snell.csv_mb": counts["snell.csv.bytes"] * per / MB,
        "penalty.solve_s": self_s["penalty.solve"] * per,
        "penalty.solve_calls": calls["penalty.solve"] * per,
        "penalty.sweep_self_s": self_s["penalty.sweep"] * per,
        "problem.validate_s": self_s["problem.validate"] * per,
        "problem.sup_moment_s": self_s["problem.sup_moment"] * per,
        "problem.accumulation_moment_s": self_s["problem.accumulation_moment"] * per,
        "problem.k_nodewise_s": self_s["problem.k_nodewise"] * per,
        "estimates.self_s": self_s["estimates"] * per,
        "pde.projected_s": self_s["pde.projected"] * per,
        "pde.penalized_s": self_s["pde.penalized"] * per,
        "pde.cells": (counts["pde.projected.cells"] + counts["pde.penalized.cells"]) * per,
        "pde.cells_per_s": rate(
            counts["pde.projected.cells"] + counts["pde.penalized.cells"],
            self_s["pde.projected"] + self_s["pde.penalized"],
        ),
        "pde.csv_s": self_s["pde.csv"] * per,
        "pde.csv_mb": counts["pde.csv.bytes"] * per / MB,
        "cli.self_s": self_s["cli"] * per,
        "trace.total_s": total * per,
        "trace.overhead_frac": (total - plain_total) / plain_total,
        "trace.predicted_share": sum(shares[layer] for layer in predicted),
    }
    breakdown = {
        "traced_total_s": total,
        "self_sum_s": sum(own),
        "passes": passes,
        "layers": {
            layer: {"self_s": self_s[layer], "calls": calls[layer], "share": shares[layer]}
            for layer in tracing.LAYERS
        },
        "predicted_dominant": list(predicted),
        "measured_dominant": measured,
        "prediction_holds": measured in predicted,
    }
    return metrics, breakdown


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return facts


def units(spec: dict, group: str) -> dict:
    """Metric name -> unit for the "end_to_end" or "per_layer" group of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec[group]}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool, size: str,
                 wrong_reference: bool) -> dict:
    exps = workloads.experiments(workload, seed, size)
    instances = workloads.draw_instances(seed)
    references = {
        inst.index: oracle.reference_value(inst, oracle.REFERENCE_STEPS[size]) for inst in instances
    }
    if wrong_reference:
        references[0] *= 1.5
    gate = Gate(references, oracle.REL_TOL[size])
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if size == "smoke" else "")
    ws = Workspace(tag)
    try:
        result = {
            "workload": workload,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "size": size,
            "machine": machine_facts(),
            "instances": [vars(inst) for inst in instances],
            "references": references,
            "rel_tol": gate.rel_tol,
        }
        if trace:
            run = run_traced(exps, ws, gate, seconds)
            metrics, breakdown = layer_report(
                run["tracer"], run["passes"], run["plain_total_s"], workload
            )
            metrics["check.max_rel_err"] = max(gate.errors, default=0.0)
            names = units(spec, "per_layer")
            samples = {name: run["passes"] for name in names}
            samples["check.max_rel_err"] = len(gate.errors)
            result["layers"] = breakdown
            (ws.result_dir / "spans.json").write_text(json.dumps(run["tracer"].to_records()) + "\n")
        else:
            run = run_untraced(exps, ws, gate, seconds)
            passes, setup, gauge, records = run["passes"], run["setup"], run["gauge"], run["records"]
            wall, cpu = pass_time(records, "wall_s"), pass_time(records, "cpu_s")
            metrics = {
                "wall_per_gauge": pass_time(records, "wall_s", "gauge_wall_s"),
                "cpu_per_gauge": pass_time(records, "cpu_s", "gauge_cpu_s"),
                "peak_rss_mb": max(r["rss_mb"] for r in records),
                "setup_s": statistics.median(run["setup_per_gauge"]) * GAUGE_NOMINAL_S,
                "setup_wall_s": statistics.median(setup.wall),
                "wall_s": wall,
                "cpu_s": cpu,
                "gauge_s": statistics.median(gauge.wall),
                "fail_frac": sum(1 for r in records if r["problems"]) / len(records),
                "max_rel_err": max(gate.errors, default=0.0),
            }
            names = {**units(spec, "end_to_end"), **UNBOUNDED}
            samples = {
                "wall_per_gauge": passes,
                "cpu_per_gauge": passes,
                "peak_rss_mb": len(records),
                "setup_s": len(setup.wall),
                "setup_wall_s": len(setup.wall),
                "wall_s": passes,
                "cpu_s": passes,
                "gauge_s": len(gauge.wall),
                "fail_frac": len(records),
                "max_rel_err": len(gate.errors),
            }
            result["passes"] = passes
            result["pass_wall_s"] = [
                sum(r["wall_s"] for r in records if r["run_pass"] == i) for i in range(passes)
            ]
            result["setup_samples_s"] = setup.wall
            result["gauge_samples_s"] = {"wall": gauge.wall, "cpu": gauge.cpu}
        records = run["records"]
        result.update({
            "metrics": {
                name: {"value": metrics[name], "unit": unit, "samples": samples[name]}
                for name, unit in names.items()
            },
            "attempted": len(records),
            "failed": sum(1 for r in records if r["problems"]),
            "correct": not any(r["problems"] for r in records),
            "known_defects": sorted({
                f"{r['experiment']}: {r['known_defect']}" for r in records if "known_defect" in r
            }),
            "experiments": records,
        })
        (ws.result_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        (ws.result_dir / "digests.json").write_text(
            json.dumps(gate.first_digests, indent=1, sort_keys=True) + "\n"
        )
        return result
    finally:
        ws.close()


def print_report(result: dict) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  trace={int(result['trace'])}  "
        f"size={result['size']}  experiments={result['attempted']}  failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    if "layers" in result:
        lay = result["layers"]
        print(f"  {'layer (whole traced run)':30s} {'self_s':>10s} {'calls':>7s} {'share':>7s}")
        for layer, row in lay["layers"].items():
            print(f"  {layer:30s} {row['self_s']:10.4f} {row['calls']:7d} {row['share']:7.1%}")
        print(
            f"  traced total {lay['traced_total_s']:.4f} s, self times sum to "
            f"{lay['self_sum_s']:.4f} s over {lay['passes']} pass(es)"
        )
        print(
            f"  predicted dominant: {'+'.join(lay['predicted_dominant'])}; measured: "
            f"{lay['measured_dominant']} ({'holds' if lay['prediction_holds'] else 'does not hold'})"
        )
    for rec in result["experiments"]:
        for problem in rec["problems"]:
            print(f"  FAILED {rec['experiment']}: {problem}")
    for defect in result["known_defects"]:
        print(f"  KNOWN DEFECT {defect}")
    m = result["machine"]
    print(
        f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} caches={m['caches']} "
        f"python={m['python']} numpy={m['numpy']} commit={m['git_commit']}"
    )


def contract_line(result: dict, names) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
            for name in names
        },
    }


def main(argv=None) -> int:
    spec = workloads.load_spec()
    workload_names = sorted(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument(
        "--wrong-reference",
        action="store_true",
        help="scale one reference value by 1.5, to show the gate fails",
    )
    args = parser.parse_args(argv)

    if not (SRC / "rbsde_lab" / "cli.py").is_file():
        print(f"bench: no rbsde_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = workload_names if args.workload == "all" else [args.workload]
    size = "smoke" if args.smoke else "full"
    try:
        results = [
            run_workload(spec, w, args.seed, args.seconds, bool(args.trace), size, args.wrong_reference)
            for w in names
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_report(result)
    metric_names = units(spec, "per_layer" if args.trace else "end_to_end")
    if len(results) == 1:
        line = contract_line(results[0], metric_names)
    else:
        lines = {r["workload"]: contract_line(r, metric_names) for r in results}
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {
                f"{w}.{name}": value for w, v in lines.items() for name, value in v["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
