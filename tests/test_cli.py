"""End-to-end tests of the command-line interface (in-process, plus one
subprocess smoke test)."""

import gc
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qubitfeedback import cli, lq
from qubitfeedback.bellman import GridSpec, ValueGrid, solve_backward
from qubitfeedback.cli import main
from qubitfeedback.filters import ModelParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_angle_noise_free_zero_cost(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "angle-lq", "--alpha", "0",
        "--x0", "0", "--n-paths", "8", "--dt", "0.1", "--no-timings",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "simulate"
    assert summary["model"] == "angle-lq"
    assert summary["mean_cost"] == 0.0
    assert summary["stderr"] == 0.0
    assert summary["n_paths"] == 8


def test_simulate_ground_state_fixed_point(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "diffusive-qubit", "--x0", "0,0,-1",
        "--policy", "zero", "--n-paths", "16", "--dt", "0.1", "--no-timings",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["mean_cost"] == pytest.approx(2.0)
    assert summary["stderr"] == 0.0


def test_simulate_deterministic_output(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    argv = (
        "simulate", "--model", "counting-qubit", "--n-paths", "32",
        "--dt", "0.05", "--seed", "11", "--csv", str(csv_path), "--no-timings",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    first = csv_path.read_bytes()
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out1 == out2
    assert csv_path.read_bytes() == first
    assert first.startswith(b"t,px,py,pz,u_plus,u_minus,dW_or_dN,dY,running_cost\n")


@pytest.mark.parametrize("command", ["simulate", "solve", "evaluate", "compare", "lq"])
def test_threads_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_unknown_policy_alias_is_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "angle-lq", "--policy", "lq")
    assert code == 2
    assert "unknown policy 'lq'" in err


# ---------------------------------------------------------------------------
# configuration file


def test_ini_config_with_flag_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nmodel = angle-lq\nalpha = 0.3\n"
        "[run]\nn_paths = 5\ndt = 0.1\nx0 = 0.5\nseed = 3\n"
    )
    # flag wins over the file: alpha 0 makes the run deterministic
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(ini), "--alpha", "0", "--no-timings",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["n_paths"] == 5
    assert summary["dt"] == 0.1
    assert summary["mean_cost"] == pytest.approx(0.25)


def test_ini_rejects_unknown_keys(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    for text, key in (("[model]\nmodle = angle-lq\n", "modle"),
                      ("[run]\nthreads = 2\n", "threads")):
        ini.write_text(text)
        code, _, err = run_cli(capsys, "simulate", "--config", str(ini))
        assert code == 2
        assert key in err


def test_ini_keys_the_command_does_not_take_are_left_out(tmp_path, capsys):
    # one INI file shared between commands: lq takes no kappa_s_sq, so the
    # file's out-of-range value is checked as a number but never applied,
    # while a key lq does take still applies
    ini = tmp_path / "k.ini"
    ini.write_text("[model]\nkappa_s_sq = 2\n")
    argv = ("lq", "--t", "0", "--theta", "0", "--no-timings")
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--config", str(ini)) == plain
    ini.write_text("[model]\nkappa_s_sq = 2\nalpha = 0.25\n")
    shared = run_cli(capsys, *argv, "--config", str(ini))
    assert shared == run_cli(capsys, *argv, "--alpha", "0.25")
    assert shared[0] == 0 and shared != plain


@pytest.mark.parametrize("command, key, flag, section, value, message", [
    ("simulate", "alpha", "--alpha", "model", "x",
     "error: invalid number for model.alpha: 'x'\n"),
    ("simulate", "n_paths", "--n-paths", "run", "1.5",
     "error: invalid integer for run.n_paths: '1.5'\n"),
    ("solve", "method", "--method", "grid", "xx",
     "error: method must be one of ('fd', 'dp'), got 'xx'\n"),
    ("solve", "mode", "--mode", "grid", "xx",
     "error: mode must be one of ('closed-form', 'exhaustive'), got 'xx'\n"),
], ids=["alpha", "n_paths", "method", "mode"])
def test_flag_and_ini_share_one_parser(tmp_path, capsys, command, key, flag, section,
                                       value, message):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli(capsys, command, flag, value) == (2, "", message)
    assert run_cli(capsys, command, "--config", str(ini)) == (2, "", message)


COMMON_OPTIONS = {"-h", "--help", "--config", "--no-timings"}
MODEL_OPTIONS = {"--model", "--kappa-s-sq", "--alpha", "--horizon-t"}
RUN_OPTIONS = {"--x0", "--dt", "--n-paths", "--seed"}


def test_each_subcommand_accepts_exactly_its_options():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    got = {name: set(sub._option_string_actions) for name, sub in subs.items()}
    with_output = COMMON_OPTIONS | {"--output"} | MODEL_OPTIONS
    assert got == {
        "simulate": with_output | RUN_OPTIONS | {"--policy", "--csv"},
        "solve": with_output | {"--n-nodes", "--n-steps", "--control-box",
                                "--control-resolution", "--method", "--mode", "--grid"},
        "evaluate": with_output | RUN_OPTIONS | {"--grid"},
        "compare": with_output | RUN_OPTIONS | {"--policy", "--table"},
        "lq": COMMON_OPTIONS | {"--alpha", "--horizon-t", "--csv", "--t", "--theta"},
    }


@pytest.mark.parametrize("flag, value", [("--output", "x.json"), ("--kappa-s-sq", "0.3")])
def test_lq_rejects_the_flags_it_never_read(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["lq", flag, value, "--no-timings"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve and evaluate


def test_solve_angle_reports_and_persists(tmp_path, capsys):
    grid = tmp_path / "angle.vgrid"
    code, out, _ = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "101",
        "--n-steps", "1000", "--grid", str(grid), "--no-timings",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["slices"] == 1001
    assert summary["method"] == "fd"
    assert summary["value_min"] >= 0.0
    assert abs(summary["j0_at_theta_1"] - lq.value(0.0, 1.0, 1.0, 0.5)) < 0.05
    vg = ValueGrid.load(grid)
    assert vg.spec.model == "angle"
    assert vg.spec.n_steps == 1000


def test_solve_dp_exhaustive_records_mode(tmp_path, capsys):
    grid = tmp_path / "dp.vgrid"
    code, out, _ = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
        "--n-steps", "50", "--method", "dp", "--mode", "exhaustive",
        "--control-box", "20", "--control-resolution", "41",
        "--grid", str(grid), "--no-timings",
    )
    assert code == 0
    assert json.loads(out)["control_mode"] == "exhaustive"
    assert ValueGrid.load(grid).control_mode == "exhaustive"


@pytest.mark.parametrize("n_steps, warned", [(100, False), (1600, True)])
def test_solve_dp_warns_on_stderr_when_h2_over_delta_exceeds_1(tmp_path, capsys, n_steps, warned):
    # 201 nodes: h^2/delta is 0.098 at 100 steps and 1.56 at 1600; stdout is the
    # same JSON summary either way
    code, out, err = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "201", "--n-steps", str(n_steps),
        "--method", "dp", "--grid", str(tmp_path / "a.vgrid"), "--no-timings",
    )
    assert code == 0
    assert json.loads(out)["n_steps"] == n_steps
    lines = [line for line in err.splitlines() if line.startswith("warning: h^2/delta")]
    assert lines == (["warning: h^2/delta = 1.56 > 1 with the smallest spacing h; the DP's "
                      "interpolation error grows with it: use fewer steps or more nodes"]
                     if warned else [])


@pytest.mark.parametrize("via", ["flag", "ini"])
def test_solve_fd_rejects_a_given_mode_before_any_work(tmp_path, capsys, monkeypatch, via):
    # the fd sweep always takes the closed-form control, so a mode is an error
    for name in ("solve_backward", "solve_dp"):
        monkeypatch.setattr(cli, name, _no_work)
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nmethod = fd\nmode = exhaustive\n")
    given = ["--mode", "exhaustive"] if via == "flag" else ["--config", str(ini)]
    code, out, err = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "51", "--n-steps", "200",
        "--grid", str(tmp_path / "a.vgrid"), *given, "--no-timings",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: grid.mode ")
    assert not (tmp_path / "a.vgrid").exists()


def test_solve_fd_rejects_a_given_control_resolution_before_any_work(tmp_path, capsys,
                                                                     monkeypatch):
    # the fd sweep scans no control grid: a resolution would go into the
    # .vgrid header unread
    for name in ("solve_backward", "solve_dp"):
        monkeypatch.setattr(cli, name, _no_work)
    code, out, err = run_cli(
        capsys, "solve", "--model", "counting-qubit", "--method", "fd", "--control-box", "1",
        "--control-resolution", "9", "--n-nodes", "9", "--n-steps", "100",
        "--grid", str(tmp_path / "c.vgrid"), "--no-timings",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: grid.control_resolution applies to --method dp only")
    assert not (tmp_path / "c.vgrid").exists()


def test_solve_closed_form_dp_rejects_a_given_control_resolution_before_any_work(
        tmp_path, capsys, monkeypatch):
    # only the exhaustive scan reads the resolution; closed form would write
    # it into the .vgrid header unread
    for name in ("solve_backward", "solve_dp"):
        monkeypatch.setattr(cli, name, _no_work)
    for mode in ((), ("--mode", "closed-form")):
        code, out, err = run_cli(
            capsys, "solve", "--model", "counting-qubit", "--method", "dp", *mode,
            "--control-box", "1", "--control-resolution", "9", "--n-nodes", "9",
            "--n-steps", "100", "--horizon-t", "0.5", "--grid", str(tmp_path / "c.vgrid"),
            "--no-timings",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: grid.control_resolution applies to --mode exhaustive only")
        assert not (tmp_path / "c.vgrid").exists()


def test_main_leaves_no_argparse_objects_to_the_cyclic_collector(capsys):
    # the parser is built once per process: one parser per call left some 900
    # objects in reference cycles, holding freed heap memory until a collection
    run_cli(capsys, "lq", "--t", "0", "--theta", "0", "--no-timings")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(capsys, "lq", "--t", "0", "--theta", "0", "--no-timings")[0] == 0
        gc.collect()
        leftover = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leftover == []


def test_evaluate_grid_policy_matches_closed_form_cost(tmp_path, capsys):
    grid = tmp_path / "fine.vgrid"
    code, _, _ = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "201",
        "--n-steps", "2500", "--grid", str(grid), "--no-timings",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "evaluate", "--grid", str(grid), "--x0", "1.0",
        "--dt", "0.01", "--n-paths", "2000", "--seed", "5", "--no-timings",
    )
    assert code == 0
    ev = json.loads(out)
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "angle-lq", "--policy", "lq-closed-form",
        "--x0", "1.0", "--dt", "0.01", "--n-paths", "2000", "--seed", "5",
        "--no-timings",
    )
    assert code == 0
    ref = json.loads(out)
    spread = 3.0 * (ev["stderr"] + ref["stderr"])
    assert abs(ev["mean_cost"] - ref["mean_cost"]) < spread + 1e-3


def test_evaluate_rejects_model_mismatch(tmp_path, capsys):
    grid = tmp_path / "angle.vgrid"
    run_cli(capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
            "--n-steps", "200", "--grid", str(grid), "--no-timings")
    code, _, err = run_cli(
        capsys, "evaluate", "--grid", str(grid), "--model", "diffusive-qubit",
    )
    assert code == 2
    assert "mismatch" in err


def test_evaluate_rejects_zero_paths(tmp_path, capsys):
    grid = tmp_path / "angle.vgrid"
    run_cli(capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
            "--n-steps", "200", "--grid", str(grid), "--no-timings")
    code, _, err = run_cli(
        capsys, "evaluate", "--grid", str(grid), "--n-paths", "0",
    )
    assert code == 2
    assert "n_paths" in err


def test_evaluate_rejects_a_hand_edited_grid(tmp_path, capsys):
    grid = tmp_path / "counting.vgrid"
    code, _, _ = run_cli(capsys, "solve", "--model", "counting-qubit", "--n-nodes", "5",
                         "--n-steps", "3", "--horizon-t", "0.003", "--grid", str(grid),
                         "--no-timings")
    assert code == 0
    # a NaN control at the centre node of slice 1
    vg = ValueGrid.load(grid)
    raw = bytearray(grid.read_bytes())
    at = raw.index(b"\n") + 1 + 8 * (
        vg.values.size + int(np.ravel_multi_index((1, 0, 2, 2, 2), vg.controls.shape)))
    raw[at : at + 8] = np.array(np.nan, dtype="<f8").tobytes()
    grid.write_bytes(bytes(raw))
    code, out, err = run_cli(capsys, "evaluate", "--grid", str(grid), "--no-timings")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {grid}: controls slice 1 must be finite exactly on the active nodes, "
        "but holds nan at active index (0, 2, 2, 2)\n"
    )


@pytest.mark.parametrize("argv, key", [
    (("evaluate", "--grid", "{grid}", "--alpha", "nan"), "alpha"),
    (("evaluate", "--grid", "{grid}", "--kappa-s-sq", "nan"), "kappa_s_sq"),
    (("evaluate", "--grid", "{grid}", "--horizon-t", "nan"), "horizon_T"),
    (("evaluate", "--grid", "{grid}", "--dt", "nan"), "dt"),
    (("simulate", "--model", "angle-lq", "--dt", "nan"), "dt"),
    (("compare", "--model", "angle-lq", "--policy", "zero",
      "--policy", "lq-closed-form", "--dt", "nan"), "dt"),
])
def test_nan_overrides_are_config_errors_naming_the_key(tmp_path, capsys, argv, key):
    grid = tmp_path / "angle.vgrid"
    run_cli(capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
            "--n-steps", "200", "--grid", str(grid), "--no-timings")
    code, _, err = run_cli(
        capsys, *(a.format(grid=grid) for a in argv), "--n-paths", "4", "--no-timings",
    )
    assert code == 2, err
    assert key in err


def test_evaluate_rejects_malformed_grid_header(tmp_path, capsys):
    grid = tmp_path / "angle.vgrid"
    run_cli(capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
            "--n-steps", "200", "--grid", str(grid), "--no-timings")
    raw = grid.read_bytes()
    newline = raw.find(b"\n")
    for key, value in (("horizon_T", None), ("n_nodes", 16), ("delta", None),
                       ("kappa_s_sq", None), ("n_steps", None), ("model", ["x"]),
                       ("bounds", [[-1.0, 1.0]]), ("periodic", [False])):
        header = json.loads(raw[:newline])
        header[key] = value
        bad = tmp_path / f"bad-{key}.vgrid"
        bad.write_bytes(json.dumps(header).encode() + raw[newline:])
        code, _, err = run_cli(capsys, "evaluate", "--grid", str(bad))
        assert code == 2, (key, err)
        assert key in err


def test_missing_grid_file_is_a_runtime_error(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--grid", "/nonexistent/x.vgrid")
    assert code == 1
    assert "error" in err


def test_solve_requires_grid_path(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "51",
        "--n-steps", "100",
    )
    assert code == 2
    assert "grid" in err


def test_unstable_solve_exits_with_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "solve", "--model", "angle-lq", "--n-nodes", "201",
        "--n-steps", "100", "--grid", str(tmp_path / "x.vgrid"),
    )
    assert code == 2
    assert "stability" in err


def test_unknown_model_is_config_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "qubit3000")
    assert code == 2
    assert "qubit3000" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_policies_share_random_numbers(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--model", "angle-lq", "--policy", "zero",
        "--policy", "zero", "--n-paths", "500", "--dt", "0.02", "--no-timings",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "policy,mean,stderr,n"
    a, b = lines[1].split(","), lines[2].split(",")
    assert a == b


def test_compare_ranks_lq_first(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--model", "angle-lq",
        "--policy", "zero", "--policy", "lq-closed-form",
        "--policy", "constant:-0.4",
        "--n-paths", "2000", "--dt", "0.01", "--seed", "1", "--no-timings",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split(",")[0] == "lq-closed-form"
    means = [float(l.split(",")[1]) for l in lines[1:]]
    assert means == sorted(means)


def test_compare_needs_two_policies(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--model", "angle-lq", "--policy", "zero",
    )
    assert code == 2
    assert "two" in err


def test_compare_table_file_with_json_summary(tmp_path, capsys):
    table = tmp_path / "rank.csv"
    code, out, _ = run_cli(
        capsys, "compare", "--model", "angle-lq", "--policy", "zero",
        "--policy", "constant:-0.4", "--n-paths", "200", "--dt", "0.02",
        "--table", str(table), "--no-timings",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["table"] == str(table)
    assert summary["best"] == "constant:-0.4"
    body = table.read_text().splitlines()
    assert body[0] == "policy,mean,stderr,n"
    assert len(body) == 3


def test_compare_writes_its_summary_without_a_table(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nmodel = angle-lq\n"
        "[run]\nn_paths = 50\ndt = 0.02\npolicies = zero; constant:-0.4\n"
        f"[output]\njson = {tmp_path / 'ini.json'}\n"
    )
    code, out_ini, _ = run_cli(capsys, "compare", "--config", str(ini), "--no-timings")
    assert code == 0
    code, out_flags, _ = run_cli(
        capsys, "compare", "--model", "angle-lq", "--policy", "zero",
        "--policy", "constant:-0.4", "--n-paths", "50", "--dt", "0.02",
        "--output", str(tmp_path / "flags.json"), "--no-timings",
    )
    assert code == 0
    # the ranking CSV still goes to stdout, the summary to the JSON path
    assert out_ini == out_flags
    assert out_ini.splitlines()[0] == "policy,mean,stderr,n"
    summary = json.loads((tmp_path / "ini.json").read_text())
    assert (tmp_path / "flags.json").read_text() == (tmp_path / "ini.json").read_text()
    assert summary["table"] is None
    assert summary["policies"] == [line.split(",")[0] for line in out_ini.splitlines()[1:]]


def test_compare_grid_policy_spec(tmp_path, capsys):
    grid = tmp_path / "angle.vgrid"
    run_cli(capsys, "solve", "--model", "angle-lq", "--n-nodes", "201",
            "--n-steps", "2500", "--grid", str(grid), "--no-timings")
    code, out, _ = run_cli(
        capsys, "compare", "--model", "angle-lq",
        "--policy", f"grid:{grid}", "--policy", "zero",
        "--n-paths", "500", "--dt", "0.02", "--seed", "2", "--no-timings",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[0].startswith("grid:")


def _no_work(*args, **kwargs):
    raise AssertionError("a simulation or solve ran before the settings were checked")


@pytest.mark.parametrize("bad, code, message", [
    ("bogus", 2, "error: unknown policy 'bogus'; expected zero, constant:<values>, "
                 "lq-closed-form, or grid:<path>\n"),
    ("grid:/nonexistent/x.vgrid", 1,
     "error: [Errno 2] No such file or directory: '/nonexistent/x.vgrid'\n"),
], ids=["unknown", "missing-grid"])
def test_compare_rejects_a_bad_policy_before_any_simulation(capsys, monkeypatch, bad, code,
                                                            message):
    monkeypatch.setattr(cli, "run_batches", _no_work)
    monkeypatch.setattr(cli, "run_batch", _no_work)
    got, out, err = run_cli(
        capsys, "compare", "--model", "counting-qubit", "--policy", "zero",
        "--policy", bad, "--n-paths", "50", "--dt", "0.01", "--no-timings",
    )
    assert (got, out, err) == (code, "", message)


@pytest.fixture(scope="module")
def angle_grid(tmp_path_factory):
    """An angle grid solved at the CLI's defaults: kappa_s_sq 0.5, alpha 0.5, T 1."""
    path = tmp_path_factory.mktemp("grids") / "angle.vgrid"
    spec = GridSpec(model="angle", n_nodes=51, n_steps=200, horizon_T=1.0)
    solve_backward(spec, ModelParams(kappa_s_sq=0.5, alpha=0.5, horizon_T=1.0)).save(path)
    return path


GRID_RUNS = {
    "simulate": ("simulate", "--model", "angle-lq", "--policy", "grid:{grid}"),
    "compare": ("compare", "--model", "angle-lq", "--policy", "grid:{grid}",
                "--policy", "zero"),
    "evaluate": ("evaluate", "--grid", "{grid}"),
}


@pytest.mark.parametrize("key, flag, value, stored", [
    ("model", "--model", "diffusive-qubit", None),
    ("kappa_s_sq", "--kappa-s-sq", "0.9", 0.5),
    ("alpha", "--alpha", "0.25", 0.5),
    ("horizon_T", "--horizon-t", "0.5", 1.0),
], ids=["model", "kappa_s_sq", "alpha", "horizon_T"])
@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_a_grid_solved_for_other_settings_is_refused_before_any_run(
        capsys, monkeypatch, angle_grid, command, key, flag, value, stored):
    monkeypatch.setattr(cli, "run_batches", _no_work)
    monkeypatch.setattr(cli, "run_batch", _no_work)
    argv = [a.format(grid=angle_grid) for a in GRID_RUNS[command]]
    # a repeated flag takes its last value, so the override wins over the base run
    code, out, err = run_cli(capsys, *argv, flag, value, "--n-paths", "2", "--no-timings")
    if key == "model":
        want = f"{angle_grid} holds angle-lq, the run uses diffusive-qubit"
    else:
        want = f"config says {float(value)!r}, {angle_grid} was solved with {stored!r}"
    assert (code, out, err) == (2, "", f"error: {key} mismatch: {want}\n")


SUMMARY_KEYS = {
    "simulate": {"command", "model", "x0", "mean_cost", "stderr", "n_paths", "seed", "dt",
                 "horizon_T", "policy"},
    "solve": {"command", "model", "method", "control_mode", "grid", "n_nodes", "n_steps",
              "delta", "slices", "value_min", "value_max", "j0_at_theta_1"},
    "evaluate": {"command", "model", "x0", "mean_cost", "stderr", "n_paths", "seed", "dt",
                 "horizon_T", "grid"},
    "compare": {"command", "model", "table", "policies", "best", "n_paths", "seed"},
}


@pytest.mark.parametrize("timings", [True, False], ids=["timings", "no-timings"])
@pytest.mark.parametrize("command", sorted(SUMMARY_KEYS))
def test_each_summary_has_its_keys_and_wall_time_exactly_with_timings(
        tmp_path, capsys, angle_grid, command, timings):
    run = ("--n-paths", "2", "--dt", "0.1")
    argv = {
        "simulate": ("simulate", "--model", "angle-lq", *run),
        "solve": ("solve", "--model", "angle-lq", "--n-nodes", "11", "--n-steps", "20",
                  "--grid", str(tmp_path / "s.vgrid")),
        "evaluate": ("evaluate", "--grid", str(angle_grid), *run),
        "compare": ("compare", "--model", "angle-lq", "--policy", "zero",
                    "--policy", "lq-closed-form", "--output", str(tmp_path / "c.json"), *run),
    }[command]
    code, out, err = run_cli(capsys, *argv, *(() if timings else ("--no-timings",)))
    assert code == 0, err
    summary = json.loads((tmp_path / "c.json").read_text() if command == "compare" else out)
    assert set(summary) == SUMMARY_KEYS[command] | ({"wall_time_s"} if timings else set())
    if timings:
        assert summary["wall_time_s"] > 0.0


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--seed", "-1"), "error: seed must be nonnegative, got -1\n"),
    (("simulate", "--kappa-s-sq", "2"), "error: kappa_s_sq must lie in [0, 1], got 2.0\n"),
    (("compare", "--policy", "zero", "--policy", "lq-closed-form", "--seed", "-1"),
     "error: seed must be nonnegative, got -1\n"),
], ids=["seed-simulate", "kappa-simulate", "seed-compare"])
def test_out_of_range_run_settings_name_their_key(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--model", "angle-lq", "--n-paths", "2",
                             "--no-timings")
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv, key", [
    (("solve", "--n-nodes", "51", "--n-steps", "200", "--grid", "{missing}/z.vgrid"), "grid"),
    (("solve", "--n-nodes", "51", "--n-steps", "200", "--grid", "{tmp}/z.vgrid",
      "--output", "{missing}/s.json"), "json"),
    (("simulate", "--csv", "{missing}/x.csv"), "csv"),
    (("simulate", "--output", "{missing}/s.json"), "json"),
    (("evaluate", "--grid", "{tmp}/absent.vgrid", "--output", "{missing}/s.json"), "json"),
    (("compare", "--policy", "zero", "--policy", "lq-closed-form",
      "--table", "{missing}/t.csv"), "table"),
    (("compare", "--policy", "zero", "--policy", "lq-closed-form",
      "--output", "{missing}/s.json"), "json"),
    (("lq", "--csv", "{missing}/m.csv"), "csv"),
], ids=["solve-grid", "solve-json", "simulate-csv", "simulate-json", "evaluate-json",
        "compare-table", "compare-json", "lq-csv"])
def test_a_missing_output_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                          argv, key):
    for name in ("run_batch", "run_batches", "simulate", "solve_backward", "solve_dp"):
        monkeypatch.setattr(cli, name, _no_work)
    missing = tmp_path / "absent" / "dir"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    argv += {"lq": [], "solve": ["--model", "angle-lq"]}.get(
        argv[0], ["--model", "angle-lq", "--n-paths", "2"])
    code, out, err = run_cli(capsys, *argv, "--no-timings")
    assert (code, out) == (2, "")
    assert err == f"error: output.{key}: directory '{missing}' does not exist\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# recorded before compare advanced its policies in lockstep
PINNED_COUNTING_COMPARE = [
    "policy,mean,stderr,n",
    "{grid},1.4023651889141573,0.017537211497482576,300",
    "zero,1.6398654071895542,0.0095368527442547795,300",
]


def test_compare_counting_grid_policy_csv_is_pinned(tmp_path, capsys):
    grid = tmp_path / "counting.vgrid"
    code, _, _ = run_cli(capsys, "solve", "--model", "counting-qubit", "--n-nodes", "9",
                         "--n-steps", "100", "--control-box", "1", "--grid", str(grid),
                         "--no-timings")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "compare", "--model", "counting-qubit", "--x0", "1,0,0",
        "--policy", f"grid:{grid}", "--policy", "zero",
        "--n-paths", "300", "--dt", "0.01", "--seed", "4", "--no-timings",
    )
    assert code == 0
    want = [line.format(grid=f"grid:{grid}") for line in PINNED_COUNTING_COMPARE]
    assert out.splitlines() == want


# ---------------------------------------------------------------------------
# lq mesh printer


def test_lq_mesh_csv(capsys):
    code, out, _ = run_cli(
        capsys, "lq", "--t", "0,0.5", "--theta=-1:1:3", "--no-timings",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,theta,value,control"
    assert len(lines) == 7
    t, theta, v, b = (float(x) for x in lines[1].split(","))
    assert (t, theta) == (0.0, -1.0)
    assert v == pytest.approx(lq.value(0.0, -1.0, 1.0, 0.5))
    assert b == pytest.approx(lq.optimal_B(0.0, -1.0, 1.0))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--t", "2.0", "--theta", "0"], "inside"),
        (["--t", "0", "--theta=0:1:2", "--alpha", "nan"], "alpha"),
        (["--t", "0", "--theta=0:1:2", "--alpha", "-1"], "alpha"),
        (["--t", "0", "--theta=0:1:2", "--horizon-t", "inf"], "horizon_T"),
        (["--t", "nan", "--theta=0:1:2"], "t mesh points must be finite"),
        (["--t", "0", "--theta", "nan"], "theta mesh points must be finite"),
        (["--t", "0:inf:3", "--theta", "0"], "t mesh points must be finite"),
    ],
    ids=["t-outside", "alpha-nan", "alpha-negative", "horizon-inf", "t-nan", "theta-nan",
         "inf-end"],
)
def test_lq_rejects_time_outside_horizon(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "lq", *argv)
    assert code == 2
    assert message in err
    # the error line alone: no numpy warning ahead of it
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1


def test_lq_meshes_are_flags_only(tmp_path, capsys):
    ini = tmp_path / "mesh.ini"
    for text in ("[run]\nt = 0\n", "[grid]\ntheta = 0\n", "[None]\nt = 0\n"):
        ini.write_text(text)
        code, _, err = run_cli(capsys, "lq", "--config", str(ini))
        assert code == 2
        assert err.startswith("error: unknown ")


@pytest.mark.parametrize("command, argv", [
    ("lq", ["--t", "0", "--theta", "1"]),
    ("compare", ["--model", "angle-lq", "--policy", "zero", "--policy", "lq-closed-form",
                 "--n-paths", "2", "--dt", "0.1"]),
])
def test_main_calls_the_command_by_its_module_global_name(monkeypatch, capsys, command,
                                                          argv):
    seen = []
    original = getattr(cli, f"cmd_{command}")
    monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg: seen.append(cfg) or original(cfg))
    assert run_cli(capsys, command, *argv, "--no-timings")[0] == 0
    assert len(seen) == 1


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qubitfeedback", "lq", "--t", "0",
         "--theta", "1", "--no-timings"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,theta,value,control"
    _, _, v, _ = (float(x) for x in lines[1].split(","))
    assert v == pytest.approx(0.2 + 0.25 * np.log(5.0))
