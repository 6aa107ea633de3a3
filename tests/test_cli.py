import dataclasses
import json

import numpy as np
import pytest

from rbsde_lab import cli, penalty
from rbsde_lab.cli import emit_convergence_table, main
from rbsde_lab.config import ConfigError, load_config
from rbsde_lab.lattice import TimeGrid, build_lattice
from rbsde_lab.penalty import run_sweep

from helpers import put_model, put_problem

BASE_CONFIG = """\
[run]
command = {command}
seed = 11
tol = 0.05

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
n_steps = 64
horizon = 1.0

[pde]
x_min = 0.0
x_max = 160.0
m_nodes = 81
n_steps = 60

[penalize]
schedule = 1,8,64,512
"""


def write_config(tmp_path, command, **edits):
    text = BASE_CONFIG.format(command=command)
    for key, value in edits.items():
        if f"{key} = " in text:
            lines = [
                f"{key} = {value}" if line.startswith(f"{key} = ") else line
                for line in text.splitlines()
            ]
            text = "\n".join(lines) + "\n"
        else:  # unseen keys go into the [pde] section
            text = text.replace("[pde]\n", f"[pde]\n{key} = {value}\n")
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_config(tmp_path, "solve"))
    assert cfg.command == "solve"
    assert cfg.model.kind == "geometric"
    assert cfg.lattice_grid.n_steps == 64
    assert cfg.schedule == (1.0, 8.0, 64.0, 512.0)
    assert cfg.pde_grid is not None and cfg.pde_grid.m_nodes == 81


def test_default_schedule(tmp_path):
    path = write_config(tmp_path, "penalize", schedule="default")
    cfg = load_config(path)
    assert cfg.schedule == tuple(float(2**i) for i in range(11))


def test_config_rejects_out_of_range_exponent(tmp_path, capsys):
    path = write_config(tmp_path, "solve", p="2.5")
    with pytest.raises(ConfigError, match=r"p must lie in \(1,2\)"):
        load_config(path)
    # the CLI surfaces the same message and exits nonzero
    code = main(["--config", str(path)])
    assert code == 2
    assert "p must lie in (1,2)" in capsys.readouterr().err


def test_config_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="unknown command"):
        load_config(write_config(tmp_path, "explode"))


def test_config_rejects_missing_field(tmp_path):
    text = BASE_CONFIG.format(command="solve").replace("kappa = 0.06\n", "")
    path = tmp_path / "broken.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"\[problem\] kappa"):
        load_config(path)


def test_config_rejects_bad_schedule(tmp_path):
    with pytest.raises(ConfigError, match="schedule"):
        load_config(write_config(tmp_path, "penalize", schedule="3,two,1"))


def test_config_requires_x0_inside_pde_domain(tmp_path):
    with pytest.raises(ConfigError, match="strictly inside"):
        load_config(write_config(tmp_path, "pde", x0="200.0"))


def test_solve_command_writes_summary_and_files(tmp_path, capsys):
    path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("Y0=")
    assert (out / "snell.csv").exists()
    report = json.loads((out / "validation.json").read_text())
    assert report["all_pass"]


def test_penalize_and_verify_and_convergence(tmp_path, capsys):
    for command in ("penalize", "verify", "convergence"):
        path = write_config(tmp_path, command)
        out = tmp_path / command
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (tmp_path / "penalize" / "penalization.csv").exists()
    assert (tmp_path / "penalize" / "bound.json").exists()
    assert (tmp_path / "verify" / "estimates.jsonl").exists()
    lines = (tmp_path / "convergence" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n_steps,Y0"
    assert len(lines) == 4


def test_crosscheck_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, "crosscheck")
    out = tmp_path / "ok"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["rel_gap_snell_pde"] <= 0.05
    # the penalized root is the sweep's last entry, bit for bit
    cfg = load_config(path)
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    assert payload["penalized_tail_y0"] == run_sweep(lattice, cfg.spec, cfg.schedule).y0[-1]
    # impossible tolerance must flip the exit status and name every gap over it
    assert main(["--config", str(path), "--out", str(tmp_path / "strict"), "--quiet", "--tol", "1e-9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crosscheck: ") and err.count("\n") == 1
    for name in ("rel_gap_snell_penalized", "rel_gap_snell_pde", "rel_gap_penalized_pde"):
        assert f"{name} " in err
    assert err.count("> tol 1.000e-09") == 3


def test_crosscheck_rejects_a_decreasing_schedule(tmp_path, capsys):
    path = write_config(tmp_path, "crosscheck", schedule="4,2")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "schedule must be strictly increasing" in capsys.readouterr().err


def test_crosscheck_names_the_step_of_an_inconsistent_penalty_branch(tmp_path, capsys, monkeypatch):
    # force the two branches to disagree: y >= h lands below h, y < h above it
    def disagreeing(update, y0, step, what):
        return np.full_like(y0, -1e9 if "y >= h" in what else 1e9)

    monkeypatch.setattr(penalty, "fixed_point", disagreeing)
    path = write_config(tmp_path, "crosscheck")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crosscheck: no consistent branch in penalized one-step solve")
    assert "at step 63, node 0" in err
    assert "Traceback" not in err


def test_penalize_names_a_failed_uniform_bound(tmp_path, capsys, monkeypatch):
    real = cli.check_uniform_bound
    monkeypatch.setattr(
        cli,
        "check_uniform_bound",
        lambda trace, spec: dataclasses.replace(real(trace, spec), passed=False),
    )
    path = write_config(tmp_path, "penalize")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("penalize: uniform bound: max quantity ")
    assert "> threshold " in err and "monotonicity" not in err


def test_pde_command(tmp_path, capsys):
    path = write_config(tmp_path, "pde", penalty_n="1000")
    out = tmp_path / "pde"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (out / "pde.csv").exists()
    assert (out / "pde_penalized.csv").exists()
    assert json.loads((out / "pde_report.json").read_text())["complementarity"] <= 1e-8


def test_pde_rejects_unconverged_lagged_iteration(tmp_path, capsys):
    # kappa * dt = 0.9: the lagged generator loop cannot settle
    path = write_config(tmp_path, "pde", generator="linear_discount:9", kappa="9", n_steps="10")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pde: lagged generator iteration did not converge")
    assert "at step 9" in err


def test_solve_names_the_step_and_node_of_an_unconverged_fixed_point(tmp_path, capsys):
    # kappa * dt = 0.9: the reflected one-step fixed point cannot settle
    path = write_config(tmp_path, "solve", generator="linear_discount:9", kappa="9", n_steps="10")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: implicit one-step solve did not converge")
    assert "at step 9, node 5 (last change" in err


def test_pde_report_counts_are_deterministic(tmp_path):
    path = write_config(
        tmp_path, "pde", generator="zero", terminal="constant:1", obstacle="zero", kappa="0"
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    for name in ("pde.csv", "pde_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "pde_report.json").read_text())
    assert report["max_policy_iterations"] == 1
    assert report["max_lag_iterations"] == 1


@pytest.mark.parametrize("command", ["pde", "crosscheck"])
def test_pde_commands_reject_a_nonzero_start_time(tmp_path, capsys, command):
    text = BASE_CONFIG.format(command=command).replace(
        "kappa = 0.06\n", "kappa = 0.06\nstart_time = 0.5\n"
    )
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "start_time = 0.5" in capsys.readouterr().err


def test_crosscheck_rejects_a_nonzero_start_time_before_any_lattice_work(
    tmp_path, capsys, monkeypatch
):
    def no_lattice(*args):
        raise AssertionError("build_lattice ran before the start_time check")

    monkeypatch.setattr(cli, "build_lattice", no_lattice)
    text = BASE_CONFIG.format(command="crosscheck").replace(
        "kappa = 0.06\n", "kappa = 0.06\nstart_time = 0.5\n"
    )
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "start_time = 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pde", "crosscheck"])
def test_pde_commands_require_terminal_domination(tmp_path, capsys, command):
    path = write_config(tmp_path, command, terminal="zero")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "terminal payoff must dominate the obstacle at maturity" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    path = write_config(tmp_path, "penalize")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == 0
    assert main(["--config", str(path), "--out", str(out_b), "--quiet"]) == 0
    for name in ("penalization.csv", "bound.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_emit_convergence_table_round_trip(tmp_path):
    lattice = build_lattice(put_model(), TimeGrid(32, 1.0))
    spec = put_problem()
    single = run_sweep(lattice, spec, [8.0])
    path_one = tmp_path / "one.csv"
    emit_convergence_table(single, path_one)
    lines = path_one.read_text().splitlines()
    assert lines[0] == "n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity"
    assert len(lines) == 2

    sweep = run_sweep(lattice, spec, [2.0**i for i in range(11)])
    path_many = tmp_path / "many.csv"
    emit_convergence_table(sweep, path_many)
    rows = path_many.read_text().splitlines()[1:]
    assert len(rows) == 11
    parsed = [[float(tok) for tok in row.split(",")] for row in rows]
    ns = [row[0] for row in parsed]
    assert ns == sorted(ns) and len(set(ns)) == 11
    # values survive the parse round trip exactly
    assert parsed[3][1] == sweep.y0[3]
    emit_convergence_table(sweep, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path_many.read_bytes()
