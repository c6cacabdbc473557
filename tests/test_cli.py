import json

import pytest

from filippov import cli
from filippov.cli import main
from filippov.expr import MAX_DEPTH
from filippov.hybrid import EventConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    return str(path)


NORMAL_FORM_STABLE = {
    "fL": ["-0.8*x1 + x2", "-4.8*x1 + x3", "-5*x1"],
    "fR": ["-1", "0.2", "-1"],
    "H": "x1",
    "x_star": [0, 0, 0],
}


def test_lambda_stable_point(capsys):
    code, out, err = run(capsys, "lambda", "--a", "0.2", "--b", "5",
                         "--c", "0.2", "--d", "1")
    assert code == 0
    assert "status: defined" in out
    assert "asymptotically stable" in out
    value = float(out.split("lambda: ")[1].split("\n")[0])
    assert 0 < value < 1


def test_lambda_unstable_point(capsys):
    code, out, _ = run(capsys, "lambda", "--a", "-0.2", "--b", "0.5",
                       "--c", "-0.5", "--d", "8")
    assert code == 0
    assert "verdict: unstable" in out


def test_lambda_constraint_violation(capsys):
    code, out, err = run(capsys, "lambda", "--a", "0.2", "--b", "0.005",
                         "--c", "0", "--d", "1")
    assert code == 1
    assert err.startswith("error: constraint-violation:")


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "lambda", "--a", "0.2")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_count_options_below_one_are_usage_errors(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    abcd = ("--a", "0.2", "--b", "5", "--c", "0.2", "--d", "1")
    for argv in (
            ("lambda", *abcd, "--steps", "-5"),
            ("lambda", *abcd, "--steps", "0"),
            ("classify", "--system", path, "--steps", "-5"),
            ("sweep", "--a", "0.2", "--b", "5", "--c-range=-1:1",
             "--d-range=0.25:2", "--nc", "4", "--nd", "4",
             "--out", str(tmp_path / "grid.csv"), "--steps", "-5"),
            ("fig-c", "--out", str(tmp_path / "panels"), "--nc", "4",
             "--nd", "4", "--steps", "-5"),
            ("check-appendix-b", "--trials", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: usage: ") and err.count("\n") == 1
    assert not (tmp_path / "panels").exists()


SWEEP = ("sweep", "--a", "0.2", "--b", "5", "--format", "csv")


@pytest.mark.parametrize("argv", [
    ("fig-c", "--nc", "1"),
    ("fig-c", "--nd", "1"),
    ("fig-c", "--c-range", "3:-3"),
    ("fig-c", "--c-range", "nan:3"),
    ("fig-c", "--d-range=0:inf"),
    ("fig-c", "--d-range", "2:2"),
    (*SWEEP, "--c-range=-1:1", "--d-range=0.25:2", "--nc", "1", "--nd", "4"),
    (*SWEEP, "--c-range=-1:1", "--d-range=0.25:2", "--nc", "4", "--nd", "0"),
    (*SWEEP, "--c-range=1:-1", "--d-range=0.25:2", "--nc", "4", "--nd", "4"),
    (*SWEEP, "--c-range=-1:1", "--d-range=nan:2", "--nc", "4", "--nd", "4"),
])
def test_grid_options_are_usage_errors(capsys, tmp_path, argv):
    out_path = tmp_path / ("panels" if argv[0] == "fig-c" else "grid.csv")
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_fig_c_unwritable_output_fails_cleanly(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "fig-c", "--out", str(blocker / "panels"),
                         "--nc", "2", "--nd", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lambda_steps_option(capsys):
    code, out, _ = run(capsys, "lambda", "--a", "0.2", "--b", "5",
                       "--c", "0.2", "--d", "1", "--steps", "512")
    assert code == 0
    assert "asymptotically stable" in out


def test_classify_rotational_chain(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    code, out, _ = run(capsys, "classify", "--system", path)
    assert code == 0
    assert "case: rotational" in out
    assert "hybrid params" in out
    assert "asymptotically stable" in out


def test_classify_stable_node_chain(capsys, tmp_path):
    stable_node = {
        "fL": ["-6*x1 + x2", "-11*x1 + x3", "-6*x1"],
        "fR": ["-1", "-3", "-2"],
        "H": "x1",
        "x_star": [0, 0, 0],
    }
    path = write_spec(tmp_path, stable_node)
    code, out, _ = run(capsys, "classify", "--system", path)
    assert code == 0
    assert "non-rotational" in out
    assert "asymptotically stable" in out


def test_classify_degenerate_exit(capsys, tmp_path):
    degenerate = {
        "fL": ["-x1", "-x2", "-x3"],
        "fR": ["-1", "0", "0"],
        "H": "x1",
        "x_star": [0, 0, 0],
    }
    path = write_spec(tmp_path, degenerate)
    code, out, err = run(capsys, "classify", "--system", path)
    assert code == 1
    assert "degenerate" in out
    assert "error: degenerate:" in err


@pytest.mark.parametrize("switch", [
    "(" * 400 + "x1" + ")" * 400,
    " + ".join(["x1"] + ["0*x2"] * 1199),
])
def test_classify_too_deep_expression_is_a_syntax_error(capsys, tmp_path,
                                                        switch):
    path = write_spec(tmp_path, dict(NORMAL_FORM_STABLE, H=switch))
    code, out, err = run(capsys, "classify", "--system", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: expr-syntax:")
    assert err.count("\n") == 1


def test_classify_long_sum_runs(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    want = run(capsys, "classify", "--system", path)
    # MAX_DEPTH levels deep: the lowest 0*x2 adds one to the sum's
    long_sum = " + ".join(["x1"] + ["0*x2"] * (MAX_DEPTH - 2))
    path = write_spec(tmp_path, dict(NORMAL_FORM_STABLE, H=long_sum))
    assert run(capsys, "classify", "--system", path) == want


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--system",
                       str(tmp_path / "nope.json"))
    assert code == 1
    assert err.startswith("error:")


def test_classify_rejects_unknown_fields(capsys, tmp_path):
    bad = dict(NORMAL_FORM_STABLE)
    bad["note"] = "nope"
    path = write_spec(tmp_path, bad)
    code, _, err = run(capsys, "classify", "--system", path)
    assert code == 1
    assert "unknown" in err


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "sweep", "--a", "0.2", "--b", "5",
                       "--c-range=-1:1", "--d-range=0.25:2",
                       "--nc", "4", "--nd", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "c,d,verdict,lambda_or_reason"
    assert len(lines) == 17


def test_sweep_writes_pgm(capsys, tmp_path):
    out_path = tmp_path / "grid.pgm"
    code, _, _ = run(capsys, "sweep", "--a", "0.2", "--b", "5",
                     "--c-range=-1:1", "--d-range=0.25:2",
                     "--nc", "4", "--nd", "4", "--out", str(out_path),
                     "--format", "pgm")
    assert code == 0
    assert out_path.read_text().startswith("P2\n")


def test_orbit_export(capsys, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, _, _ = run(capsys, "orbit", "--a", "-0.2", "--b", "5",
                     "--c", "-0.2", "--d", "3", "--z0", "-1",
                     "--t-max", "10", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,regime"
    regimes = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert regimes == {"L", "S"}


def test_orbit_system_export(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    out_path = tmp_path / "orbit.csv"
    code, _, _ = run(capsys, "orbit-system", "--system", path,
                     "--x0", "0,0,-0.5", "--t-max", "5",
                     "--dt", "0.002", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("t,x1,x2,x3,regime\n")


def test_orbit_system_bad_x0(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    code, _, err = run(capsys, "orbit-system", "--system", path,
                       "--x0", "0,0", "--t-max", "5", "--out",
                       str(tmp_path / "o.csv"))
    assert code == 2
    assert "usage" in err


def test_orbit_system_negative_x0_needs_no_equals_sign(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    texts = []
    for x0 in (("--x0", "-0.02,0,-0.05"), ("--x0=-0.02,0,-0.05",)):
        out_path = tmp_path / f"orbit{len(texts)}.csv"
        code, _, err = run(capsys, "orbit-system", "--system", path, *x0,
                           "--t-max", "2", "--dt", "0.01",
                           "--out", str(out_path))
        assert code == 0, err
        texts.append(out_path.read_text())
    assert texts[0] == texts[1]
    code, out, _ = run(capsys, "lambda", "--a", "-0.2", "--b", "0.5",
                       "--c", "-0.5", "--d", "8")
    assert code == 0 and "verdict: unstable" in out


@pytest.mark.parametrize("argv", [
    ("lambda", "--a", "0.2"),                      # missing options
    ("lambda", "--a", "0.2", "--b", "5", "--c", "0.2", "--d", "1",
     "--bogus", "3"),                              # unknown option
    ("lambda", "--a", "x", "--b", "5", "--c", "0.2", "--d", "1"),
    ("no-such-command",),
    (),
    ("sweep", "--a", "0.2", "--b", "5", "--c-range", "1", "--d-range",
     "0:1", "--nc", "4", "--nd", "4", "--out", "grid.csv"),
    ("fig-c", "--out", "panels", "--format", "gif"),
])
def test_argparse_errors_are_one_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage: ") and err.count("\n") == 1


def test_missed_tolerance_is_a_failure(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_event_config",
                        lambda args: EventConfig(max_secant_iters=1))
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    for argv in (("lambda", "--a", "0.2", "--b", "5", "--c", "0.2",
                  "--d", "1"),
                 ("classify", "--system", path)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: tolerance-not-met: ")
        assert err.count("\n") == 1


def test_fig_panels_small(capsys, tmp_path):
    out_dir = tmp_path / "panels"
    code, out, _ = run(capsys, "fig-c", "--out", str(out_dir),
                       "--nc", "6", "--nd", "6", "--format", "csv")
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 12
    assert "sweep_a-1.2_b0.5.csv" in files
    assert "sweep_a0.2_b5.csv" in files


def test_check_decay_orbit_suite(capsys):
    code, out, _ = run(capsys, "check-appendix-b", "--trials", "100")
    assert code == 0
    assert out.startswith("PASS")


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
