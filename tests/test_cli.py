import dataclasses
import hashlib
import json

import numpy as np
import pytest

from rbsde_lab import cli, penalty
from rbsde_lab.cli import emit_convergence_table, main, pde_field_to_csv, snell_to_csv
from rbsde_lab.config import ConfigError, load_config
from rbsde_lab.lattice import TimeGrid, build_lattice
from rbsde_lab.pde import PdeGrid, solve_pde_projected
from rbsde_lab.penalty import run_sweep
from rbsde_lab.snell import solve_snell

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


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"sigma": "-0.4"}, "[problem] model: volatility coefficient must be >= 0"),
        ({"p": "2.5"}, "[problem]: p must lie in (1,2)"),
        ({"n_steps": "0"}, "[lattice]: n_steps must be >= 1"),
        ({"m_nodes": "2"}, "[pde]: m_nodes must be >= 3"),
    ],
    ids=["model", "problem", "lattice", "pde"],
)
def test_config_names_the_section_of_an_invalid_value(tmp_path, edit, message):
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, "solve", **edit))
    assert str(exc.value) == message


ARITHMETIC = ("kind = geometric\nmu = 0.06\nsigma = 0.4\n", "kind = arithmetic\nb0 = 2.0\nsigma0 = 14.0\n")
# the number sits inside these fields' text
NUMBER_IN = {"terminal": "put_payoff:{}", "schedule": "1,{}"}


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
        ("problem", "start_time"),
        ("problem", "kappa"),
        ("problem", "p"),
        ("problem", "terminal"),
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
    text = BASE_CONFIG.format(command="crosscheck")
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_tol_override_is_a_config_error(tmp_path, capsys, value):
    path = write_config(tmp_path, "crosscheck")
    assert main(["--config", str(path), "--tol", value]) == 2
    assert capsys.readouterr().err == f"config error: [run] tol: must be a finite number, got {value}\n"


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
    def disagreeing(update, y0, step, what, rows):
        return np.full_like(y0, -1e9 if "y >= h" in what else 1e9)

    monkeypatch.setattr(penalty, "fixed_point", disagreeing)
    path = write_config(tmp_path, "crosscheck")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crosscheck: no consistent branch in penalized one-step solve")
    assert "at step 63, node 0" in err
    assert "Traceback" not in err


def test_penalize_names_the_intensity_of_an_unconverged_row(tmp_path, capsys, monkeypatch):
    # only the row of intensity 8 never settles in the y < h branch, at node 3
    real = penalty.fixed_point

    def stuck(update, y0, step, what, rows):
        def update_row_1(y):
            out = update(y)
            if "y < h" in what:
                out[1, 3] = y[1, 3] + 1.0
            return out

        return real(update_row_1, y0, step, what, rows=rows)

    monkeypatch.setattr(penalty, "fixed_point", stuck)
    path = write_config(tmp_path, "penalize")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("penalize: penalized one-step solve (branch y < h) did not converge")
    assert "at step 63, node 3, intensity 8.0 (last change " in err
    assert err.count("\n") == 1 and "Traceback" not in err


# penalization.csv of the config above with schedule 0,1,2, as written before
# the intensities were solved in one batch; an n = 0 row has no y < h branch.
SCHEDULE_012_CSV = """\
n,Y0,sup_gap,neg_part_norm,K_T,bound_quantity
0.0,6.6963288204709706,0.653266815181529,0.3863068522615353,0.0,61.65219862431942
1.0,6.807357491160748,0.4848128850755236,0.3055942893926317,0.11496184724318692,62.56422449773435
2.0,6.875554249891602,0.38110809634638576,0.25205861560907405,0.18582433289414677,63.184752601121694
"""


def test_penalize_csv_of_a_schedule_from_zero_is_unchanged(tmp_path):
    path = write_config(tmp_path, "penalize", schedule="0,1,2")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (tmp_path / "out" / "penalization.csv").read_bytes() == SCHEDULE_012_CSV.encode()


# estimates.jsonl and validation.json of `verify` on the config above with
# n_steps = 16, as written before the lattice statistics took their node
# weights from the caller.
VERIFY_16_ESTIMATES_JSONL = """\
{"empirical_ratio": 0.657442984022651, "instance_id": "verify", "lhs": 43.019901312914634, "p": 1.5, "rhs_data_functional": 65.43518199812816}
{"empirical_ratio": 0.507894539976374, "instance_id": "verify", "lhs": 21.849572987151785, "p": 1.5, "rhs_data_functional": 43.019901312914634}
{"empirical_ratio": 0.008307471495170131, "instance_id": "verify", "lhs": 0.35738660388207044, "p": 1.5, "rhs_data_functional": 43.019901312914634}
{"delta_data_norm": 0.0, "delta_f_term": 0.0, "delta_obstacle_term": 0.0, "delta_xi_term": 0.0, "delta_y_norm": 0.0, "psi_t": 130.87036399625632, "ratio": 0.0}
"""
VERIFY_16_VALIDATION_JSON = """\
{
  "all_pass": true,
  "backward_ok": true,
  "backward_residual": 4.440892098500626e-16,
  "k_initial": 0.0,
  "k_initial_ok": true,
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
# 41x20 grid with penalty_n = 1000, on the config above, as written before
# the PDE boundary flow took the lattice's reflected step.
ARTIFACT_DIGESTS = {
    "solve": {
        "snell.csv": "99e789a836a1543d138fef1b5298868f00b9451617c9188a0d6191e678afce9b",
        "validation.json": "6a6cb944d32feb510b4a62869a8f3445eef6627a918fa5629d4487a542f77d4d",
    },
    "dirichlet-obstacle": {
        "pde.csv": "727d916bf4558185e1c83729f6938a19f4a565d034229cf1f2cec25db4839a9b",
        "pde_penalized.csv": "33cbff6ab6a860cc368418bfd537576d8213dc30561e29b8421321e539d9dd58",
        "pde_report.json": "d1359a7f0cd1ff693871ddcf63df497c75b3dffa7627edd9574250dd6c925616",
    },
    "dirichlet-terminal-extrapolation": {
        "pde.csv": "7b61ad65c913ef693aa7e0458bcad8507e947d8c08b2f53c0c430c9659f99e33",
        "pde_penalized.csv": "48fad59a514903fab8e672cc85acf1fe36a40d42182b246d1973d5010e0845c0",
        "pde_report.json": "d1359a7f0cd1ff693871ddcf63df497c75b3dffa7627edd9574250dd6c925616",
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
        lambda trace: dataclasses.replace(real(trace), passed=False),
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


def test_config_rejects_a_negative_pde_penalty(tmp_path, capsys):
    # a negative intensity used to pass the loader: `pde` then wrote pde.csv
    # and stopped with exit 1 before writing pde_report.json
    path = write_config(tmp_path, "pde", penalty_n="-5")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: [pde] penalty_n: must be >= 0, got -5.0\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "command, what",
    [("solve", "implicit one-step solve"), ("pde", "boundary flow at x = 0.0")],
)
def test_overflowed_data_is_named_and_not_blamed_on_the_contraction(
    tmp_path, capsys, command, what
):
    # g = 1e308 and f = 1e308: Y grows by dt * 1e308 a step and leaves the float range
    path = write_config(
        tmp_path,
        command,
        generator="constant:1e308",
        terminal="constant:1e308",
        obstacle="zero",
        n_steps="16",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: {what} reached the non-finite value inf at step ")
    assert "overflowed" in err and "lipschitz" not in err
    assert err.count("\n") == 1 and "Traceback" not in err


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
    for k, t in enumerate(field.grid.times()):
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


def test_snell_csv_matches_the_row_by_row_reference(tmp_path):
    out = solve_snell(build_lattice(put_model(), TimeGrid(16, 1.0)), put_problem())
    path = tmp_path / "snell.csv"
    snell_to_csv(out, path)
    assert path.read_text() == reference_snell_csv(out)
    assert {line[-1] for line in path.read_text().splitlines()[1:]} == {"0", "1"}


def test_pde_csv_matches_the_row_by_row_reference(tmp_path, put_spec):
    field = solve_pde_projected(PdeGrid(0.0, 80.0, 5, TimeGrid(2, 1.0)), put_spec, put_model())
    path = tmp_path / "pde.csv"
    pde_field_to_csv(field, put_spec, path)
    assert path.read_text() == reference_pde_csv(field, put_spec)
    assert {line[-1] for line in path.read_text().splitlines()[1:]} == {"0", "1"}


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
        "k_initial",
        "skorokhod_residual",
        "backward_residual",
        "tol",
        "obstacle_ok",
        "k_monotone_ok",
        "k_initial_ok",
        "skorokhod_ok",
        "backward_ok",
    }
    estimate = {"lhs", "rhs_data_functional", "empirical_ratio", "instance_id", "p"}
    stability = {
        "delta_y_norm",
        "delta_xi_term",
        "delta_f_term",
        "delta_obstacle_term",
        "psi_t",
        "delta_data_norm",
        "ratio",
    }
    for command in ("verify", "penalize"):
        path = write_config(tmp_path, command, n_steps="16")
        assert main(["--config", str(path), "--out", str(tmp_path / command), "--quiet"]) == 0
    validation = json.loads((tmp_path / "verify" / "validation.json").read_text())
    assert set(validation) == contract | {"all_pass"} and validation["all_pass"] is True
    rows = [
        json.loads(line)
        for line in (tmp_path / "verify" / "estimates.jsonl").read_text().splitlines()
    ]
    assert [set(row) for row in rows] == [estimate] * 3 + [stability]
    bound = json.loads((tmp_path / "penalize" / "bound.json").read_text())
    assert set(bound) == {"n_values", "quantities", "threshold", "max_quantity", "passed"}


def strict_validation(monkeypatch):
    # a backward residual of a few ulps fails a tol of 1e-300
    real = cli.validate_solution
    monkeypatch.setattr(
        cli, "validate_solution", lambda sol, spec, lattice: real(sol, spec, lattice, tol=1e-300)
    )


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


def test_verify_names_the_contract_and_the_self_stability_check(tmp_path, capsys, monkeypatch):
    strict_validation(monkeypatch)
    real = cli.check_stability
    monkeypatch.setattr(
        cli,
        "check_stability",
        lambda *args: dataclasses.replace(real(*args), delta_y_norm=1.0),
    )
    path = write_config(tmp_path, "verify", n_steps="16")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: backward_residual ") and err.count("\n") == 1
    assert err.endswith("; self_stability 1.000e+00 > tol 1.000e-12\n")


def test_pde_names_complementarity_and_the_penalized_gap(tmp_path, capsys, monkeypatch):
    projected, penalized = cli.solve_pde_projected, cli.solve_pde_penalized

    def raised(*args):
        field = penalized(*args)
        return dataclasses.replace(field, u=field.u + 1.0)

    monkeypatch.setattr(
        cli,
        "solve_pde_projected",
        lambda *args: dataclasses.replace(projected(*args), complementarity=1.0),
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
    assert "refinement_deltas=0.0008417727373410955,0.003010931214199708" in captured.out
    assert captured.err == (
        "convergence: refinement delta 3.011e-03 (n_steps 128 to 256) "
        "is not smaller than 8.418e-04 (n_steps 64 to 128)\n"
    )
