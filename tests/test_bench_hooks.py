"""The benchmark traces the program by swapping named functions for wrappers.

``bench/tracing.py`` lists each hook as (module or class, attribute). A
refactor that renames one of them, moves it, or turns a method into a
cached property would silently stop ``bench/run.py --trace 1`` from
attributing that layer; these tests fail instead.
"""

import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

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
