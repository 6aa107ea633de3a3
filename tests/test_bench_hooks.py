"""The benchmark traces the program by swapping named functions for wrappers.

``bench/tracing.py`` lists each hook as (module or class, attribute). A
refactor that renames one of them, moves it, or turns a method into a
cached property would silently stop ``bench/run.py --trace 1`` from
attributing that layer; these tests fail instead.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rbsde_lab
from rbsde_lab.cli import main
from rbsde_lab.config import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"

CROSSCHECK_CONFIG = """\
[run]
command = crosscheck
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
n_steps = 16
horizon = 1.0

[pde]
x_min = 0.0
x_max = 120.0
m_nodes = 41
n_steps = 20
"""


def traced_run(tracing, tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    return tracer.spans


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_trace_hook_resolves_to_a_plain_function(tracing):
    assert tracing.PATCHES
    for target, attr, _ in tracing.PATCHES:
        owner = tracing._resolve(target)
        assert hasattr(owner, attr), f"{target} has no attribute {attr}"
        assert inspect.isfunction(getattr(owner, attr)), f"{target}.{attr} is not a plain function"


def test_crosscheck_traces_one_snell_and_one_penalized_solve(tracing, tmp_path):
    # crosscheck reads only the penalized root at the schedule's last
    # intensity: no sweep, no path functionals, one solve per method
    spans = Counter(span.name for span in traced_run(tracing, tmp_path, CROSSCHECK_CONFIG))
    assert spans["penalty.solve"] == 1
    assert spans["snell.solve"] == 1
    for layer in ("penalty.sweep", "problem.sup_moment", "lattice.node_weights"):
        assert spans[layer] == 0, layer


def test_penalize_traces_one_batched_solve_and_one_node_weights(tracing, tmp_path):
    # the sweep solves every intensity in one pass and computes the node
    # weights once; one sup pass over (gap, negative part, Y) and one
    # accumulation pass over (Z, K) cover all intensities; the Snell
    # reference is reached through its hooked name in penalty
    text = CROSSCHECK_CONFIG.replace("command = crosscheck", "command = penalize")
    spans = Counter(span.name for span in traced_run(tracing, tmp_path, text))
    assert spans["penalty.solve"] == 1
    assert spans["snell.solve"] == 1
    assert spans["lattice.node_weights"] == 1
    assert spans["problem.sup_moment"] == 1
    assert spans["problem.accumulation_moment"] == 1


@pytest.mark.parametrize("command, count", [("verify", 1), ("solve", 1)])
def test_each_check_computes_the_node_weights_once(tracing, tmp_path, command, count):
    # verify: one table shared by the Y, Z and K estimates; solve: one for
    # the K column of the CSV
    text = CROSSCHECK_CONFIG.replace("command = crosscheck", f"command = {command}")
    spans = Counter(span.name for span in traced_run(tracing, tmp_path, text))
    assert spans["lattice.node_weights"] == count
    if command == "verify":
        # one validation; one sup pass over (Y, h+); one accumulation pass
        # over (f, Z, K)
        assert spans["problem.validate"] == 1
        assert spans["problem.sup_moment"] == 1
        assert spans["problem.accumulation_moment"] == 1


@pytest.mark.parametrize(
    "command, extra, layer, count",
    [("solve", "", "snell.csv", 1), ("pde", "penalty_n = 1000\n", "pde.csv", 2)],
    ids=["solve", "pde"],
)
def test_csv_writers_trace_one_span_per_file(tracing, tmp_path, command, extra, layer, count):
    # the CLI must reach each CSV writer through its hooked name in cli;
    # extra lines land in [pde], the config's last section
    text = CROSSCHECK_CONFIG.replace("command = crosscheck", f"command = {command}") + extra
    spans = traced_run(tracing, tmp_path, text)
    writes = [span for span in spans if span.name == layer]
    assert len(writes) == count
    assert all(span.counts["bytes"] > 0 for span in writes)


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_every_bench_config_loads(workloads, tmp_path, size):
    # the bench writes keys the loader must keep accepting: [run] seed,
    # which it ignores, and [pde] boundary
    for workload in workloads.WORKLOADS:
        for exp in workloads.experiments(workload, 7, size):
            path = tmp_path / f"{workload}-{exp.ident}.cfg"
            path.write_text(exp.config)
            assert load_config(path).command == exp.command, path.name


# The tests above run in this process, where every solver module has long
# been imported. A command's process loads a solver module only when it runs
# it, so the order of hooking and loading is checked in fresh processes.
# argv: a config path and an output directory for each command; prints the
# span counts of each run, and whether a solver module had loaded before the
# tracer was installed
FRESH_TRACE = """\
import json, sys
from collections import Counter
import tracing
from rbsde_lab.cli import main

solvers = ("snell", "penalty", "pde", "estimates")
early = [m for m in solvers if f"rbsde_lab.{m}" in sys.modules]
counts = []
with tracing.instrument(tracing.Tracer()) as tracer:
    for path, out in zip(sys.argv[1::2], sys.argv[2::2]):
        first = len(tracer.spans)
        assert main(["--config", path, "--out", out, "--quiet"]) == 0
        counts.append(Counter(span.name for span in tracer.spans[first:]))
print(json.dumps({"early": early, "counts": counts}))
"""
# as bench/run.py --trace 1 replays an experiment: plain first, then traced
PLAIN_THEN_TRACED = """\
import json, sys
from collections import Counter
import tracing
from rbsde_lab import cli, snell

argv = ["--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]
assert cli.main(argv) == 0
with tracing.instrument(tracing.Tracer()) as tracer:
    assert tracer.wrap("cli", cli.main)(argv) == 0
restored = cli.solve_snell is snell.solve_snell
print(json.dumps({"counts": Counter(span.name for span in tracer.spans), "restored": restored}))
"""


def fresh_run(script, tmp_path, commands):
    """Run ``script`` in a fresh process on ``CROSSCHECK_CONFIG`` under each command."""
    argv = []
    for command in commands:
        path = tmp_path / f"{command}.cfg"
        path.write_text(CROSSCHECK_CONFIG.replace("command = crosscheck", f"command = {command}"))
        argv += [str(path), str(tmp_path / f"{command}-out")]
    package_root = Path(rbsde_lab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), str(BENCH), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_hooks_installed_before_the_solvers_load_trace_every_layer(tmp_path):
    # the tracer resolves the hooks in cli, which loads every solver module;
    # the command's own load must keep the wrappers it finds there
    found = fresh_run(FRESH_TRACE, tmp_path, ["penalize", "crosscheck"])
    assert found["early"] == []
    penalize, crosscheck = found["counts"]
    for layer in ("penalty.solve", "snell.solve", "lattice.node_weights"):
        assert penalize[layer] == 1, layer
    assert penalize["problem.sup_moment"] == penalize["problem.accumulation_moment"] == 1
    # run_sweep and check_uniform_bound, both hooked in cli
    assert penalize["penalty.sweep"] == 2
    assert crosscheck["penalty.solve"] == crosscheck["snell.solve"] == 1
    assert crosscheck["pde.projected"] == 1
    for layer in ("penalty.sweep", "problem.sup_moment", "lattice.node_weights"):
        assert crosscheck.get(layer, 0) == 0, layer


def test_a_plain_run_then_a_traced_one_traces_every_layer(tmp_path):
    found = fresh_run(PLAIN_THEN_TRACED, tmp_path, ["solve"])
    counts = found["counts"]
    for layer in ("snell.solve", "problem.validate", "lattice.node_weights", "snell.csv"):
        assert counts.get(layer) == 1, layer
    assert found["restored"]
