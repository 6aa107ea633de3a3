import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from rbsde_lab import cli, config, pde, problem, snell
from rbsde_lab.cli import emit_convergence_table, main, pde_field_to_csv, snell_to_csv
from rbsde_lab.config import ConfigError, load_config
from rbsde_lab.lattice import ForwardModel, TimeGrid, build_lattice
from rbsde_lab.pde import PdeGrid, solve_pde_penalized, solve_pde_projected
from rbsde_lab.penalty import run_sweep
from rbsde_lab.snell import solve_snell

from helpers import plain, put_model, put_problem

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


@pytest.fixture
def plain_generators(monkeypatch):
    """Registry generators as plain callables: commands run the fixed-point and lagged paths."""
    registry = config.make_generator
    monkeypatch.setattr(config, "make_generator", lambda name: plain(registry(name)))


def write_config(tmp_path, command, **edits):
    text = BASE_CONFIG.format(command=command)
    if edits.get("kind") == "arithmetic":  # b0 and sigma0 in place of mu and sigma
        text = text.replace(*ARITHMETIC)
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


@pytest.mark.parametrize(
    "schedule, message",
    [
        ("3,two,1", "schedule must be 'default' or comma-separated numbers, got '3,two,1'"),
        ("1,-2", "penalty intensities must be finite and >= 0, got [1.0, -2.0]"),
        ("1,1", "schedule must be strictly increasing"),
        (",", "schedule must be nonempty"),
    ],
)
def test_config_rejects_bad_schedule(tmp_path, schedule, message):
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, "penalize", schedule=schedule))
    assert str(exc.value) == f"[penalize] schedule: {message}"


def test_config_requires_x0_inside_pde_domain(tmp_path):
    with pytest.raises(ConfigError, match="strictly inside"):
        load_config(write_config(tmp_path, "pde", x0="200.0"))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"sigma": "-0.4"}, "[problem] model: volatility coefficient must be >= 0"),
        ({"x0": "0"}, "[problem] model: geometric model requires x0 > 0"),
        ({"p": "2.5"}, "[problem]: p must lie in (1,2)"),
        # f = 9y with kappa = 0.06: kappa * dt passes the contraction check,
        # and the solve used to blame lipschitz_kappa * dt for a fixed point
        # that blew up
        (
            {"generator": "linear_discount:-9"},
            "[problem]: lipschitz_kappa 0.06 is below the generator's Lipschitz constant "
            "in y, 9.0",
        ),
        ({"n_steps": "0"}, "[lattice]: n_steps must be >= 1"),
        ({"m_nodes": "2"}, "[pde]: m_nodes must be >= 3"),
        ({"tol": "-1"}, "[run] tol: must be >= 0, got -1.0"),
    ],
    ids=["model", "model-x0", "problem", "problem-kappa", "lattice", "pde", "run"],
)
def test_config_names_the_section_of_an_invalid_value(tmp_path, capsys, edit, message):
    path = write_config(tmp_path, "solve", **edit)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == message
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


ARITHMETIC = ("kind = geometric\nmu = 0.06\nsigma = 0.4\n", "kind = arithmetic\nb0 = 2.0\nsigma0 = 14.0\n")
# the number sits inside these fields' text
NUMBER_IN = {
    "generator": "linear_discount:{}",
    "terminal": "put_payoff:{}",
    "obstacle": "put_payoff:{}",
    "schedule": "1,{}",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("run", "tol"),
        ("problem", "mu"),
        ("problem", "sigma"),
        ("problem", "b0"),
        ("problem", "sigma0"),
        ("problem", "x0"),
        ("problem", "kappa"),
        ("problem", "p"),
        ("problem", "generator"),
        ("problem", "terminal"),
        ("problem", "obstacle"),
        ("lattice", "horizon"),
        ("pde", "x_min"),
        ("pde", "x_max"),
        ("pde", "penalty_n"),
        ("penalize", "schedule"),
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, capsys, section, key, value):
    # a NaN or an infinity must not reach a solver: it would run and then
    # fail with a wrong diagnosis, or make every comparison fail
    text = BASE_CONFIG.format(command="pde" if key == "penalty_n" else "crosscheck")
    if key in ("b0", "sigma0"):
        text = text.replace(*ARITHMETIC)
    line = f"{key} = {NUMBER_IN.get(key, '{}').format(value)}\n"
    lines = text.splitlines(keepends=True)
    at = [i for i, old in enumerate(lines) if old.startswith(f"{key} = ")]
    if at:
        lines[at[0]] = line
    else:
        lines.insert(lines.index(f"[{section}]\n") + 1, line)
    path = tmp_path / "experiment.cfg"
    path.write_text("".join(lines))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}: ") and err.count("\n") == 1
    assert "unknown key" not in err
    assert not (tmp_path / "out").exists()


def test_a_zero_tol_is_accepted(tmp_path):
    assert load_config(write_config(tmp_path, "solve", tol="0")).tol == 0.0
    assert load_config(write_config(tmp_path, "solve", tol="-0.0")).tol == 0.0


def test_a_leftover_run_seed_is_ignored(tmp_path):
    # no command draws a random path, so [run] seed is not read: any value
    # loads, and the files are those of a config without it
    text = write_config(tmp_path, "solve", n_steps="8").read_text()
    written = []
    for name, seed_line in [("none", ""), ("small", "seed = -5\n"), ("huge", "seed = 1e999\n")]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(text.replace("seed = 11\n", seed_line))
        out = tmp_path / name
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert written[0] and written[0] == written[1] == written[2]


# the [problem] keys read after the model's
PROBLEM_FIELDS = "generator, terminal, obstacle, kappa, p"


@pytest.mark.parametrize(
    "command, section, line, message",
    [
        # pde would run without its penalized scheme and exit 0
        ("pde", "pde", "penalty_m = 1000", "[pde] penalty_m: unknown key; expected one of "
         "x_min, x_max, m_nodes, n_steps, boundary, penalty_n"),
        # only pde solves the penalized scheme: crosscheck would run and
        # ignore the intensity
        ("crosscheck", "pde", "penalty_n = 1000", "[pde] penalty_n: unknown key; "
         "expected one of x_min, x_max, m_nodes, n_steps, boundary"),
        # tol and schedule would fall back to their defaults
        ("pde", "run", "tols = 0.5", "[run] tols: unknown key; expected one of "
         "command, tol, seed"),
        # the output directory is the --out flag's alone
        ("solve", "run", "out = .", "[run] out: unknown key; expected one of "
         "command, tol, seed"),
        ("pde", "penalize", "schedul = 1,2", "[penalize] schedul: unknown key; expected one of "
         "schedule"),
        # time starts at 0 in every solver: there is no start to set
        ("pde", "problem", "start_time = 0.5", "[problem] start_time: unknown key; "
         f"expected one of kind, x0, mu, sigma, {PROBLEM_FIELDS}"),
        ("pde", None, "[pdee]\nx_min = 0.0", "[pdee]: unknown section; expected one of "
         "[run], [problem], [lattice], [pde], [penalize]"),
    ],
    ids=["pde", "crosscheck", "run", "out", "penalize", "start_time", "section"],
)
def test_a_key_the_loader_never_reads_exits_2(tmp_path, capsys, command, section, line, message):
    text = BASE_CONFIG.format(command=command)
    if section is None:
        text += f"\n{line}\n"
    else:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, key",
    [("geometric", "b0"), ("geometric", "sigma0"), ("arithmetic", "mu"), ("arithmetic", "sigma")],
)
def test_a_model_key_of_the_other_kind_exits_2(tmp_path, capsys, kind, key):
    # sigma0 = 99 under a geometric model would run with the geometric
    # sigma and exit 0; the loader reads only the keys of the file's kind
    text = BASE_CONFIG.format(command="solve")
    if kind == "arithmetic":
        text = text.replace(*ARITHMETIC)
    model = "mu, sigma" if kind == "geometric" else "b0, sigma0"
    path = tmp_path / "experiment.cfg"
    path.write_text(text.replace(f"kind = {kind}\n", f"kind = {kind}\n{key} = 99\n"))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    message = f"[problem] {key}: unknown key; expected one of kind, x0, {model}, {PROBLEM_FIELDS}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_config_without_a_run_section_names_its_first_required_key(tmp_path, capsys):
    text = BASE_CONFIG.format(command="solve")
    path = tmp_path / "experiment.cfg"
    path.write_text(text[text.index("[problem]") :])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: missing required field [run] command\n"
    assert not out.exists()


def test_there_is_no_seed_flag(tmp_path, capsys):
    path = write_config(tmp_path, "solve")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_there_is_no_tol_flag(tmp_path, capsys):
    # [run] tol sets the crosscheck tolerance; a flag would set it twice
    path = write_config(tmp_path, "crosscheck")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(tmp_path / "out"), "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_errors_inside_a_section_pass_through_unchanged(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, "solve", kind="cubic"))
    assert str(exc.value) == "[problem] kind: expected 'geometric' or 'arithmetic', got 'cubic'"
    text = BASE_CONFIG.format(command="solve").replace("m_nodes = 81\n", "")
    path = tmp_path / "no_m_nodes.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == "missing required field [pde] m_nodes"


def test_solve_command_writes_summary_and_files(tmp_path, capsys):
    path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("Y0=")
    assert (out / "snell.csv").exists()
    report = json.loads((out / "validation.json").read_text())
    assert report["all_pass"]


@pytest.mark.parametrize("blocked", ["out", "artifact"])
def test_an_output_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys, blocked):
    # --out naming a file, or a directory where snell.csv goes: the OSError
    # is reported like any other error that stops a run
    path = write_config(tmp_path, "solve", n_steps="8")
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("")
    else:
        (out / "snell.csv").mkdir(parents=True)
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: [Errno ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err


COARSE = "dt too coarse for this drift/volatility at step 0: "
TINY = "volatility too small for this dt at step 0: factor exp(sigma*sqrt(dt)) = "
STATE = "state at step {}: the forward model leaves the float range before the horizon"


@pytest.mark.parametrize("command", ["solve", "verify", "penalize", "convergence", "crosscheck"])
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"mu": "1e6"}, COARSE + "factor exp(mu*dt) = exp(125000) overflows"),
        ({"sigma": "1e4"}, COARSE + "factor exp(sigma*sqrt(dt)) = exp(3535.53) overflows"),
        ({"mu": "1e6", "sigma": "0"}, STATE.format("1, node 0 is inf")),
        # exp(708) is finite, but x0 * exp(708) is not: unchecked, solve
        # exits 0 with inf states in snell.csv
        ({"mu": "708", "sigma": "0"}, STATE.format("8, node 0 is inf")),
        # u = exp(106.066) is finite, but u**7 is not
        ({"sigma": "300"}, STATE.format("7, node 7 is inf")),
        # b0 * k overflows from k = 2 on
        ({"kind": "arithmetic", "b0": "1e308"}, STATE.format("2, node 0 is inf")),
        # an offset table entry s0 * sqrt(dt) * m overflows from |m| = 6 on;
        # the build must not warn, since a RuntimeWarning fails this test
        ({"kind": "arithmetic", "sigma0": "1e308"}, STATE.format("6, node 0 is -inf")),
        # u rounds to 1, so p = (exp(mu*dt) - d) / (u - d) divided by zero
        ({"sigma": "1e-20"}, TINY + "exp(3.53553e-21) rounds to 1, so u - d = 0"),
        ({"horizon": "1e-300"}, TINY + "exp(1.41421e-151) rounds to 1, so u - d = 0"),
    ],
    ids=[
        "mu", "sigma", "deterministic", "deterministic-product", "state",
        "arithmetic-drift", "arithmetic-volatility", "tiny-sigma", "tiny-horizon",
    ],
)
def test_a_lattice_factor_that_overflows_exits_1_with_one_line(
    tmp_path, capsys, command, edit, message
):
    # every command that builds a lattice stops there: an OverflowError or a
    # ZeroDivisionError would end the run in a traceback, and an inf state
    # would reach the solvers
    path = write_config(tmp_path, command, n_steps="8", **edit)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"{command}: {message}\n"
    assert not (tmp_path / "out" / "snell.csv").exists()


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
    # f = 1e300 puts u - h near 1e298, which once scaled the PDE solve's
    # rounding past the float range (a RuntimeWarning, an error under pytest)
    path = write_config(tmp_path, "crosscheck", generator="constant:1e300")
    assert main(["--config", str(path), "--out", str(tmp_path / "huge"), "--quiet"]) == 0
    # impossible tolerance must flip the exit status and name every gap over it
    path = write_config(tmp_path, "crosscheck", tol="1e-9")
    assert main(["--config", str(path), "--out", str(tmp_path / "strict"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crosscheck: ") and err.count("\n") == 1
    for name in ("rel_gap_snell_penalized", "rel_gap_snell_pde", "rel_gap_penalized_pde"):
        assert f"{name} " in err
    assert err.count("> tol 1.000e-09") == 3


def test_crosscheck_rejects_a_decreasing_schedule(tmp_path, capsys):
    # the loader checks the schedule, so no solver runs before the error
    path = write_config(tmp_path, "crosscheck", schedule="4,2")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: [penalize] schedule: schedule must be strictly increasing\n"
    assert not (tmp_path / "out").exists()


def test_config_accepts_only_the_one_pde_boundary_rule(tmp_path, capsys):
    path = write_config(tmp_path, "pde", boundary="dirichlet-obstacle")
    assert load_config(path).pde_grid.m_nodes == 81
    path = write_config(tmp_path, "pde", boundary="dirichlet-terminal-extrapolation")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: [pde] boundary: the only boundary rule is 'dirichlet-obstacle', "
        "got 'dirichlet-terminal-extrapolation'\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_penalize_names_the_intensity_of_an_unconverged_row(
    tmp_path, capsys, monkeypatch, plain_generators
):
    # only the row of intensity 8 never settles in the one-step solve, at node 3
    real = snell.fixed_point

    def stuck(update, y0, step, what, rows):
        def update_row_1(y):
            out = update(y)
            if what == "penalized one-step solve":
                out[1, 3] = y[1, 3] + 1.0
            return out

        return real(update_row_1, y0, step, what, rows=rows)

    monkeypatch.setattr(snell, "fixed_point", stuck)
    path = write_config(tmp_path, "penalize")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("penalize: penalized one-step solve did not converge")
    assert "at step 63, node 3, intensity 8.0 (last change " in err
    assert err.count("\n") == 1 and "Traceback" not in err


# penalization.csv of the config above with schedule 0,1,2, as written since
# affine one-step equations are solved in closed form; an n = 0 row has no
# y < h branch.
SCHEDULE_012_CSV = """\
n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity
0.0,6.696328820470956,0.6532668151815381,0.386306852261542,0.0,61.652198624319325
1.0,6.8073574911607375,0.4848128850755277,0.3055942893926363,0.11496184724318899,62.564224497734294
2.0,6.875554249891591,0.38110809634638776,0.252058615609077,0.18582433289414932,63.184752601121644
"""


def test_penalize_csv_of_a_schedule_from_zero_is_unchanged(tmp_path):
    path = write_config(tmp_path, "penalize", schedule="0,1,2")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (tmp_path / "out" / "penalization.csv").read_bytes() == SCHEDULE_012_CSV.encode()


# estimates.jsonl and validation.json of `verify` on the config above with
# n_steps = 16, as written since affine one-step equations are solved in
# closed form.
VERIFY_16_ESTIMATES_JSONL = """\
{"empirical_ratio": 0.6574429840226513, "instance_id": "verify", "lhs": 43.019901312914655, "p": 1.5, "rhs_data_functional": 65.43518199812816}
{"empirical_ratio": 0.5078945399763737, "instance_id": "verify", "lhs": 21.84957298715178, "p": 1.5, "rhs_data_functional": 43.019901312914655}
{"empirical_ratio": 0.00830747149517012, "instance_id": "verify", "lhs": 0.3573866038820701, "p": 1.5, "rhs_data_functional": 43.019901312914655}
"""
VERIFY_16_VALIDATION_JSON = """\
{
  "all_pass": true,
  "backward_ok": true,
  "backward_residual": 1.7763568394002505e-15,
  "k_min_increment": 0.0,
  "k_monotone_ok": true,
  "obstacle_ok": true,
  "obstacle_violation": 0.0,
  "skorokhod_ok": true,
  "skorokhod_residual": 0.0,
  "tol": 1e-10
}
"""


def test_verify_artifacts_are_unchanged(tmp_path):
    path = write_config(tmp_path, "verify", n_steps="16")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    out = tmp_path / "out"
    assert (out / "estimates.jsonl").read_bytes() == VERIFY_16_ESTIMATES_JSONL.encode()
    assert (out / "validation.json").read_bytes() == VERIFY_16_VALIDATION_JSON.encode()


# sha256 of every artifact of `solve` with n_steps = 16 and of `pde` on a
# 41x20 grid with penalty_n = 1000, on the config above, as written since
# affine one-step equations are solved in closed form (validation.json:
# since the contract report dropped its K_0 keys; pde_report.json: since a
# residual inside its row's noise floor counts as 0, which makes
# complementarity and min_operator_residual 0.0 on this grid).
ARTIFACT_DIGESTS = {
    "solve": {
        "snell.csv": "90cd90eb515454d3b11e3b6c4c4506a72dd7df0308909f3ef39d27ecd9919900",
        "validation.json": "6de5a06781e91397b711be9b4366cc4a2f7b61576174ba02a914e8a873faaf6e",
    },
    "dirichlet-obstacle": {
        "pde.csv": "0e0b49dde0fc5b225cb59ac2250c97d9dff10c47f9b068f0e7413dc2420e190f",
        "pde_penalized.csv": "3fae87db3d287d216f9519e662ad7f6cafb7ce49d13e329e6487120330190dde",
        "pde_report.json": "622cc7d1adc316737c86d828aad571950fe280da9574a553e6db9815053552a3",
    },
}


@pytest.mark.parametrize("run", sorted(ARTIFACT_DIGESTS))
def test_solve_and_pde_artifacts_are_unchanged(tmp_path, run):
    if run == "solve":
        path = write_config(tmp_path, "solve", n_steps="16")
    else:
        path = write_config(
            tmp_path, "pde", m_nodes="41", n_steps="20", penalty_n="1000", boundary=run
        )
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == ARTIFACT_DIGESTS[run]


def test_penalize_names_a_failed_uniform_bound(tmp_path, capsys, monkeypatch):
    real = cli.check_uniform_bound
    monkeypatch.setattr(
        cli,
        "check_uniform_bound",
        lambda trace: real(trace)._replace(passed=False),
    )
    path = write_config(tmp_path, "penalize")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("penalize: uniform bound: max quantity ")
    assert "> threshold " in err and "monotonicity" not in err

    # a sweep whose Y falls at some node from one intensity to the next:
    # the line names both failed checks
    sweep = cli.run_sweep
    monkeypatch.setattr(
        cli,
        "run_sweep",
        lambda *args: sweep(*args)._replace(monotonicity_violation=(0.0, 1.0, 0.0, 0.0)),
    )
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("penalize: monotonicity violation 1.000e+00 > 1.000e-10; uniform bound")
    assert err.count("\n") == 1


def test_pde_command(tmp_path, capsys):
    # an obstacle far below the solution: u - h is about 1e7 (1e9) off it,
    # and the solve's rounding in A v - rhs must not be scaled by it into a
    # complementarity gap (both exited 1 before rounding counted as 0)
    for obstacle in ("put_payoff:40", "constant:-1e7", "constant:-1e9"):
        path = write_config(tmp_path, "pde", penalty_n="1000", obstacle=obstacle)
        out = tmp_path / obstacle
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "pde.csv").exists()
        assert (out / "pde_penalized.csv").exists()
        assert json.loads((out / "pde_report.json").read_text())["complementarity"] <= 1e-8


def test_pde_fails_a_solve_that_misses_its_equation(tmp_path, capsys, monkeypatch):
    # one interior value of every tridiagonal solve off by a relative 1e-6:
    # the residual leaves its noise floor and complementarity names the error
    sweep = pde._sweep

    def planted(*args):
        v = sweep(*args)
        v[len(v) // 2] *= 1.0 + 1e-6
        return v

    monkeypatch.setattr(pde, "_sweep", planted)
    path = write_config(tmp_path, "pde", m_nodes="41", n_steps="20", penalty_n="1000")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == "pde: complementarity 2.968e-07 > tol 1.000e-08\n"


def test_config_rejects_a_negative_pde_penalty(tmp_path, capsys):
    # a negative intensity used to pass the loader: `pde` then wrote pde.csv
    # and stopped with exit 1 before writing pde_report.json
    path = write_config(tmp_path, "pde", penalty_n="-5")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: [pde] penalty_n: penalty intensities must be finite and >= 0, got [-5.0]\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


PDE_SECTION = "[pde]\nx_min = 0.0\nx_max = 160.0\nm_nodes = 81\nn_steps = 60\n\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("missing.cfg", None, "cannot read config {path}: [Errno 2] No such file or directory"),
        ("folder.cfg", None, "cannot read config {path}: [Errno 21] Is a directory"),
        (
            "no-header.cfg",
            "not an ini\n",
            "config parse error in {path}: File contains no section headers. "
            "file: '{path}', line: 1 'not an ini\\n'",
        ),
        (
            "bare-key.cfg",
            "[run]\ncommand\n",
            "config parse error in {path}: Source contains parsing errors: '{path}' "
            "[line  2]: 'command\\n'",
        ),
        (
            "pde.cfg",
            BASE_CONFIG.format(command="pde").replace(PDE_SECTION, ""),
            "command 'pde' requires a [pde] section",
        ),
        (
            "crosscheck.cfg",
            BASE_CONFIG.format(command="crosscheck").replace(PDE_SECTION, ""),
            "command 'crosscheck' requires a [pde] section",
        ),
    ],
    ids=["missing", "directory", "no-section-header", "bare-key", "pde", "crosscheck"],
)
def test_a_config_that_cannot_load_is_one_line(tmp_path, capsys, name, text, message):
    # configparser's own text spans up to three lines, the second indented
    path = tmp_path / name
    if name == "folder.cfg":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message.format(path=path)}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_pde_rejects_unconverged_lagged_iteration(tmp_path, capsys, plain_generators):
    # kappa * dt = 0.9: the lagged generator loop cannot settle
    path = write_config(tmp_path, "pde", generator="linear_discount:9", kappa="9", n_steps="10")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pde: PDE time step did not converge")
    assert "at step 9" in err


def test_solve_names_the_step_and_node_of_an_unconverged_fixed_point(
    tmp_path, capsys, plain_generators
):
    # kappa * dt = 0.9: the reflected one-step fixed point cannot settle
    path = write_config(tmp_path, "solve", generator="linear_discount:9", kappa="9", n_steps="10")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: implicit one-step solve did not converge")
    assert "at step 9, node 5 (last change" in err


@pytest.mark.parametrize(
    "command, what",
    [
        ("solve", "implicit one-step solve"),
        ("pde", "PDE time step"),
        ("convergence", "implicit one-step solve"),
        ("crosscheck", "implicit one-step solve"),
    ],
)
def test_overflowed_data_is_named_and_not_blamed_on_the_contraction(
    tmp_path, capsys, command, what
):
    # g = 1e308 and f = 1e308: Y grows by dt * 1e308 a step and first leaves
    # the float range at step 3, in every solver; the data before it are
    # finite, and no numpy warning is printed (the suite makes one an error)
    path = write_config(
        tmp_path,
        command,
        generator="constant:1e308",
        terminal="constant:1e308",
        obstacle="zero",
        n_steps="16",
    )
    code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"{command}: {what} reached the non-finite value inf at step 3, node 0; "
    )
    assert "overflowed" in err and "lipschitz" not in err
    assert err.count("\n") == 1 and "Traceback" not in err


FAR_COMMANDS = ("solve", "penalize", "pde", "verify", "convergence", "crosscheck")
FAR_KINDS = {
    "geometric": (("x_min = 0.0\nx_max = 160.0\n",) * 2, ()),
    "arithmetic": (
        ("x_min = 0.0\nx_max = 160.0\n", "x_min = -40.0\nx_max = 112.0\n"),
        (ARITHMETIC[0], "kind = arithmetic\nb0 = 2.16\nsigma0 = 14.4\n"),
    ),
}


def far_config(tmp_path, command, kind, obstacle, penalty_n):
    """The README put (tol 0.02, default schedule) at 64 lattice steps on a 41x20 PDE grid."""
    domain, model = FAR_KINDS[kind]
    text = (
        BASE_CONFIG.format(command=command)
        .replace("tol = 0.05\n", "tol = 0.02\n")
        .replace("obstacle = put_payoff:40\n", f"obstacle = {obstacle}\n")
        .replace("m_nodes = 81\nn_steps = 60\n", "m_nodes = 41\nn_steps = 20\n")
        .replace("schedule = 1,8,64,512\n", "schedule = default\n")
        .replace(*domain)
    )
    if model:
        text = text.replace(*model)
    if penalty_n is not None:  # read by pde only
        text = text.replace("n_steps = 20\n", f"n_steps = 20\npenalty_n = {penalty_n}\n")
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "command, obstacle, penalty_n",
    [(command, "constant:-1e308", "1000" if command == "pde" else None) for command in FAR_COMMANDS]
    + [("pde", "constant:-1e301", "1e9")],
    ids=[*FAR_COMMANDS, "pde-1e9"],
)
@pytest.mark.parametrize("kind", FAR_KINDS)
def test_an_obstacle_that_never_binds_never_fails(
    tmp_path, capsys, kind, command, obstacle, penalty_n
):
    # an obstacle near -1e308 never binds, so every penalty term is 0; the
    # root the penalized lattice step does not take (n * dt * h = -inf) and
    # the PDE penalty on an inactive row (1e9 * -1e301 times 0 = nan) once
    # made penalize, crosscheck and pde exit 1 on these data
    path = far_config(tmp_path, command, kind, obstacle, penalty_n)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    cfg = load_config(path)
    lattice = build_lattice(cfg.model, cfg.lattice_grid)
    y0 = float(solve_snell(lattice, cfg.spec).triple.y[0][0])
    if command == "penalize":
        rows = (out / "penalization.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [repr(y0)] * len(cfg.schedule)
    if command == "crosscheck":
        report = json.loads((out / "crosscheck.json").read_text())
        assert report["penalized_tail_y0"] == report["snell_y0"] == y0
    if command == "pde":
        said = dict(line.split("=", 1) for line in captured.out.splitlines())
        assert said["u0_penalized"] == said["u0"]


@pytest.mark.parametrize(
    "command, name, message",
    [
        ("verify", "estimates.jsonl", "field empirical_ratio is nan"),
        ("penalize", "bound.json", "field max_quantity is inf"),
    ],
    ids=["verify", "penalize"],
)
def test_a_report_that_json_cannot_hold_exits_1_naming_the_file_and_field(
    tmp_path, capsys, command, name, message
):
    # f = 1e308 overflows the moments: unchecked, the reports hold Infinity
    # and NaN, which is not JSON, and penalize writes "passed": true into
    # bound.json
    path = write_config(tmp_path, command, generator="constant:1e308")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"{command}: {name}: {message}, and JSON has no NaN or infinity\n"
    )
    assert not (out / name).exists()


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


# Row-by-row reference formatters: the f-string loops the writers used
# before they were built column by column. Every float goes through
# float(...)!r, so a column formatted from numpy scalars (repr
# 'np.float64(1.5)') or a flag written as True/False cannot match.


def reference_snell_csv(out):
    triple = out.triple
    lattice = triple.lattice
    k_cum = triple.k_nodewise()
    n = triple.n_steps
    lines = ["k,j,state,Y,Z,K,continuation,exercised\n"]
    for k in range(n + 1):
        zc = triple.z[k] if k < n else np.zeros(k + 1)
        for j in range(k + 1):
            lines.append(
                f"{k},{j},{float(lattice.nodes[k][j])!r},{float(triple.y[k][j])!r},"
                f"{float(zc[j])!r},{float(k_cum[k][j])!r},{float(out.continuation[k][j])!r},"
                f"{int(out.exercise_region[k][j])}\n"
            )
    return "".join(lines)


def reference_pde_csv(field, spec):
    xs = field.grid.xs()
    lines = ["t,x,u,u_minus_h,exercised\n"]
    for k, t in enumerate(field.grid.time.times()):
        gap = field.u[k] - np.asarray(spec.obstacle(t, xs), dtype=float)
        for i, x in enumerate(xs):
            lines.append(
                f"{float(t)!r},{float(x)!r},{float(field.u[k, i])!r},{float(gap[i])!r},"
                f"{int(gap[i] <= 1e-8)}\n"
            )
    return "".join(lines)


def reference_sweep_csv(trace):
    lines = ["n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity\n"]
    for i, n in enumerate(trace.n_values):
        lines.append(
            f"{n!r},{trace.y0[i]!r},{trace.sup_gap_to_snell[i]!r},"
            f"{trace.negative_part_norm[i]!r},{trace.k_t_root[i]!r},"
            f"{trace.bound_quantity[i]!r}\n"
        )
    return "".join(lines)


@pytest.fixture
def counted_reprs(monkeypatch):
    """The number of values the CSV writers pass through ``repr``."""
    counts = [0]
    real = cli._floats

    def counting(values):
        counts[0] += np.size(values)
        return real(values)

    monkeypatch.setattr(cli, "_floats", counting)
    return counts


# the share of float cells that go through repr: the geometric lattice
# reuses every inner state and the stopping region's Y from two layers back,
# and the continuation reuses Y's text in its row where the two are equal
@pytest.mark.parametrize(
    "case, repr_share", [("geometric-16", 0.55), ("geometric-512", 0.35), ("arithmetic-256", 0.7)]
)
def test_snell_csv_matches_the_row_by_row_reference(
    tmp_path, request, counted_reprs, case, repr_share
):
    if case == "geometric-16":
        out = solve_snell(build_lattice(put_model(), TimeGrid(16, 1.0)), put_problem())
    elif case == "geometric-512":
        out = request.getfixturevalue("put_snell_512")
    else:
        model = ForwardModel.arithmetic(b0=2.16, sigma0=14.4, x0=36.0)
        out = solve_snell(build_lattice(model, TimeGrid(256, 1.0)), put_problem())
    path = tmp_path / "snell.csv"
    snell_to_csv(out, path)
    assert path.read_text() == reference_snell_csv(out)
    assert {line[-1] for line in path.read_text().splitlines()[1:]} == {"0", "1"}
    n = out.triple.n_steps
    assert counted_reprs[0] <= repr_share * 5 * (n + 1) * (n + 2) / 2


@pytest.mark.parametrize(
    "case, repr_share",
    [("5x2", 0.5), ("121x100-projected", 0.45), ("121x100-penalized", 0.55)],
)
def test_pde_csv_matches_the_row_by_row_reference(
    tmp_path, put_spec, counted_reprs, case, repr_share
):
    if case == "5x2":
        grid = PdeGrid(0.0, 80.0, 5, TimeGrid(2, 1.0))
    else:
        grid = PdeGrid(0.0, 120.0, 121, TimeGrid(100, 1.0))
    if case.endswith("penalized"):
        field = solve_pde_penalized(grid, put_spec, put_model(), 1000.0)
    else:
        field = solve_pde_projected(grid, put_spec, put_model())
    path = tmp_path / "pde.csv"
    pde_field_to_csv(field, put_spec, path)
    assert path.read_text() == reference_pde_csv(field, put_spec)
    assert {line[-1] for line in path.read_text().splitlines()[1:]} == {"0", "1"}
    # x once, then u and u - h in every time row; u - h reuses u's text
    # where h = 0
    m, rows = grid.m_nodes, grid.time.n_steps + 1
    assert counted_reprs[0] <= repr_share * (m + 2 * m * rows)


def test_sweep_csv_matches_the_row_by_row_reference(tmp_path):
    lattice = build_lattice(put_model(), TimeGrid(16, 1.0))
    trace = run_sweep(lattice, put_problem(), [1.0, 8.0, 64.0])
    path = tmp_path / "penalization.csv"
    emit_convergence_table(trace, path)
    assert path.read_text() == reference_sweep_csv(trace)


def test_convergence_csv_matches_the_row_by_row_reference(tmp_path):
    # the command solves only the roots; the reference keeps every layer
    path = write_config(tmp_path, "convergence", n_steps="8")
    arithmetic = path.read_text().replace("kind = geometric", "kind = arithmetic")
    arithmetic = arithmetic.replace("mu = 0.06", "b0 = 0.3").replace("sigma = 0.4", "sigma0 = 4.0")
    for kind, text in (("geometric", path.read_text()), ("arithmetic", arithmetic)):
        path.write_text(text)
        out = tmp_path / kind
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
        cfg = load_config(path)
        assert cfg.model.kind == kind
        lines = ["n_steps,Y0\n"]
        for n in (8, 16, 32):
            lattice = build_lattice(cfg.model, TimeGrid(n, 1.0))
            lines.append(f"{n},{float(solve_snell(lattice, cfg.spec).triple.y[0][0])!r}\n")
        assert (out / "convergence.csv").read_text() == "".join(lines)


@pytest.fixture
def formatted(monkeypatch):
    """The float64 bits of the values each ``_floats`` call formats, one list per call."""
    calls = []
    real = cli._floats

    def recording(values):
        calls.append(np.asarray(values, dtype=float).view(np.int64).tolist())
        return real(values)

    monkeypatch.setattr(cli, "_floats", recording)
    return calls


def bits_of(*values):
    return sorted(np.array(values, dtype=float).view(np.int64).tolist())


@pytest.mark.parametrize("rows", [3, 64, 65], ids=["short", "chunk", "chunk+1"])
def test_table_writer_matches_joined_rows(tmp_path, rows):
    # the block writer against the one-row-at-a-time zip and join, on
    # blocks of 3, 64 and 65 rows with a one-row block between them
    special = [-0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324, 0.1, -2.5]
    values = np.resize(np.array(special), rows)
    blocks = [(str(k), (values[:k], -values[:k]), values[:k] > 0.0) for k in (rows, 1, rows)]

    expected = ["k,j,a,b,flag\n"]
    for lead, (a, b), flags in blocks:
        columns = ([lead] * len(a), map(str, range(len(a))), map(repr, a.tolist()),
                   map(repr, b.tolist()), map(str, flags.astype(int).tolist()))
        expected.extend(",".join(row) + "\n" for row in zip(*columns))
    path = tmp_path / "block.csv"
    cli._write_table(path, "k,j,a,b,flag", blocks, [str(j) for j in range(rows)])
    assert path.read_text() == "".join(expected)
    assert "-0.0,0.0," in path.read_text() and "nan,nan" in path.read_text()
    # no lead, no row texts and no flags: the last float ends the row
    cli._write_table(path, "a,b", [(None, (values, -values), None)])
    rows_ab = [f"{a!r},{b!r}\n" for a, b in zip(values.tolist(), (-values).tolist())]
    assert path.read_text() == "a,b\n" + "".join(rows_ab)


def test_table_writer_reuses_only_texts_of_equal_bits(tmp_path, formatted):
    # two columns, lag 2, shift 1: row j of a block is compared with row
    # j - 1 of the same column two blocks back, as in snell_to_csv
    nan_bits = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.int64)
    nan, other_nan = nan_bits.view(float)
    special = [0.0, -0.0, nan, float("inf"), -float("inf"), 5e-324, 1e16, 0.1]
    blocks = [
        # first block: nothing to compare with; without row texts it sets
        # the table's 10 rows
        special + [11.0, 12.0],
        [1.0, 2.0],
        [7.0, -0.0, 0.0, nan, float("inf"), -float("inf"), 5e-324, 1e16, 0.1, 3.0],
        [nan],  # a single row has no row j - 1 to compare with
        [5.0, 7.0, 8.0],  # shorter than the block it is compared with
        [6.0, other_nan],
    ]
    blocks = [np.array(values) for values in blocks]
    path = tmp_path / "reuse.csv"
    cli._write_table(path, "a,b", [(None, (v, -v), None) for v in blocks], lag=2, shift=1)
    rows = [f"{a!r},{b!r}\n" for v in blocks for a, b in zip(v.tolist(), (-v).tolist())]
    assert path.read_text() == "a,b\n" + "".join(rows)
    assert len(formatted) == len(blocks)
    for k in (0, 1, 3):
        assert sorted(formatted[k]) == bits_of(*blocks[k], *-blocks[k])
    # 0.0 two blocks back and -0.0 now, and the other way round, are
    # formatted anew; the same bits (rows 3 to 8) reuse the text in both columns
    assert sorted(formatted[2]) == bits_of(7.0, -0.0, 0.0, 3.0, -7.0, 0.0, -0.0, -3.0)
    assert sorted(formatted[4]) == bits_of(5.0, 8.0, -5.0, -8.0)
    # another NaN payload prints the same but is formatted anew
    assert sorted(formatted[5]) == bits_of(6.0, other_nan, -6.0, -other_nan)


def test_table_writer_reuses_the_text_of_an_earlier_column_only_on_equal_bits(
    tmp_path, formatted
):
    # column 1 takes column 0's text in its row (same = (1, 0)), and the
    # rows of the second block take their texts from the first (lag 1)
    nan_bits = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.int64)
    nan, other_nan = nan_bits.view(float)
    a = np.array([0.0, nan, 1.5, -0.0, 2.0, nan, float("inf")])
    b = np.array([-0.0, other_nan, 1.5, -0.0, 3.0, nan, float("inf")])
    a2 = np.array([0.0, 4.0, 1.5, 6.0, 2.0, -1.0, 9.0])
    b2 = np.array([0.0, 4.0, 1.5, 7.0, 3.0, -1.0, 9.0])
    blocks = [("x", (a, b), a > 1.0), ("y", (a2, b2), a2 > 1.0)]
    path = tmp_path / "same.csv"
    cli._write_table(path, "t,a,b,flag", blocks, same=(1, 0))
    expected = "".join(
        f"{lead},{u!r},{v!r},{int(u > 1.0)}\n"
        for lead, (us, vs), _ in blocks
        for u, v in zip(us.tolist(), vs.tolist())
    )
    assert path.read_text() == "t,a,b,flag\n" + expected
    # 0.0 beside -0.0 and two NaN payloads are each formatted on their own
    assert sorted(formatted[0]) == bits_of(*a, -0.0, other_nan, 3.0)
    # rows 0, 2 and 4 of column 0 and rows 2 and 4 of column 1 come from the
    # first block; a value new to column 0 gives its text to column 1 in its row
    assert sorted(formatted[1]) == bits_of(4.0, 6.0, -1.0, 9.0, 7.0)


def test_table_writer_keeps_only_the_blocks_it_compares_with():
    # 513-row blocks as in snell_to_csv at N = 512: rows below 400 repeat
    # row j - 1 of two blocks back, the others are new in every block
    j = np.arange(513)

    def peak(n_blocks):
        values = (np.where(j < 400, (2 * j - k) * 0.1, k + j / 7.0) for k in range(n_blocks))
        blocks = ((None, (v, -v), None) for v in values)
        tracemalloc.start()
        try:
            cli._write_table(os.devnull, "a,b", blocks, lag=2, shift=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(100), peak(1000)
    assert many <= 1.1 * few, (few, many)


def test_snell_csv_export(tmp_path, put_snell_512):
    path = tmp_path / "snell.csv"
    snell_to_csv(put_snell_512, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,j,state,Y,Z,K,continuation,exercised"
    n = put_snell_512.triple.n_steps
    assert len(lines) == 1 + (n + 1) * (n + 2) // 2
    k, j, state, y, z, kk, cont, ex = lines[1].split(",")
    assert (int(k), int(j)) == (0, 0)
    assert float(kk) == 0.0  # K starts at zero
    assert ex in ("0", "1")


def test_pde_csv_export(tmp_path, put_spec):
    grid = PdeGrid(0.0, 80.0, 5, TimeGrid(2, 1.0))
    field = solve_pde_projected(grid, put_spec, put_model())
    path = tmp_path / "pde.csv"
    pde_field_to_csv(field, put_spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u,u_minus_h,exercised"
    assert len(lines) == 1 + 3 * 5
    t, x, u, gap, flag = lines[1].split(",")
    assert float(u) - float(gap) == pytest.approx(max(40.0 - float(x), 0.0), abs=1e-12)


def test_json_reports_keep_their_keys(tmp_path):
    contract = {
        "obstacle_violation",
        "k_min_increment",
        "skorokhod_residual",
        "backward_residual",
        "tol",
        "obstacle_ok",
        "k_monotone_ok",
        "skorokhod_ok",
        "backward_ok",
    }
    estimate = {"lhs", "rhs_data_functional", "empirical_ratio", "instance_id", "p"}
    for command in ("verify", "penalize"):
        path = write_config(tmp_path, command, n_steps="16")
        assert main(["--config", str(path), "--out", str(tmp_path / command), "--quiet"]) == 0
    validation = json.loads((tmp_path / "verify" / "validation.json").read_text())
    assert set(validation) == contract | {"all_pass"} and validation["all_pass"] is True
    rows = [
        json.loads(line)
        for line in (tmp_path / "verify" / "estimates.jsonl").read_text().splitlines()
    ]
    assert [set(row) for row in rows] == [estimate] * 3
    bound = json.loads((tmp_path / "penalize" / "bound.json").read_text())
    assert set(bound) == {"n_values", "quantities", "threshold", "max_quantity", "passed"}


def strict_validation(monkeypatch):
    # a backward residual of a few ulps fails a tol of 1e-300
    monkeypatch.setattr(problem, "CONTRACT_TOL", 1e-300)


def test_solve_names_each_failed_contract_item(tmp_path, capsys, monkeypatch):
    strict_validation(monkeypatch)
    path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("Y0=")
    assert captured.err.startswith("solve: backward_residual ")
    assert captured.err.endswith(" > tol 1.000e-300\n") and captured.err.count("\n") == 1
    assert json.loads((out / "validation.json").read_text())["all_pass"] is False


def test_verify_names_each_failed_contract_item(tmp_path, capsys, monkeypatch):
    strict_validation(monkeypatch)
    path = write_config(tmp_path, "verify", n_steps="16")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: backward_residual ") and err.count("\n") == 1
    assert err.endswith(" > tol 1.000e-300\n")


def test_pde_names_complementarity_and_the_penalized_gap(tmp_path, capsys, monkeypatch):
    projected, penalized = cli.solve_pde_projected, cli.solve_pde_penalized

    def raised(*args):
        field = penalized(*args)
        return field._replace(u=field.u + 1.0)

    monkeypatch.setattr(
        cli,
        "solve_pde_projected",
        lambda *args: projected(*args)._replace(complementarity=1.0),
    )
    monkeypatch.setattr(cli, "solve_pde_penalized", raised)
    path = write_config(tmp_path, "pde", penalty_n="1000")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pde: complementarity 1.000e+00 > tol 1.000e-08; ")
    assert "penalized gap max(u_penalized - u) " in err and err.count("\n") == 1


def test_convergence_names_both_refinement_deltas(tmp_path, capsys):
    # README put with x0 = 41: the 128 -> 256 delta exceeds the 64 -> 128 one
    path = write_config(tmp_path, "convergence", x0="41")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "refinement_deltas=0.00084177273734376,0.003010931214199708" in captured.out
    assert captured.err == (
        "convergence: refinement delta 3.011e-03 (n_steps 128 to 256) "
        "is not smaller than 8.418e-04 (n_steps 64 to 128)\n"
    )
