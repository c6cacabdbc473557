import contextlib
import errno
import io
import json
import math
import os
import shlex
import tempfile
import threading
from pathlib import Path

import pytest

from filippov import cli, hybrid
from filippov.cli import build_parser, main
from filippov.errors import FilippovError
from filippov.expr import MAX_DEPTH
from oracles import for_all, translated_spec


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


def test_lambda_beyond_the_float_range_prints_its_log(capsys):
    # Lambda = e^3140.88 and e^-2820.66 are no floats: the log stands in
    # the lambda line's place, and every other line keeps its form
    code, out, err = run(capsys, "lambda", "--a", "0.2", "--b", "5",
                         "--c", "2", "--d", "1.000001")
    assert code == 0 and err == ""
    status, log_line, verdict = out.splitlines()
    assert status == "status: defined" and verdict == "verdict: unstable"
    assert abs(float(log_line.removeprefix("log_lambda: ")) - 3140.88) < 0.01
    code, out, _ = run(capsys, "lambda", "--a", "-0.2", "--b", "0.5",
                       "--c", "-1.8", "--d", "0.810001")
    assert code == 0
    status, log_line, verdict = out.splitlines()
    assert status == "status: defined"
    assert verdict == "verdict: asymptotically stable"
    assert float(log_line.removeprefix("log_lambda: ")) < -2800.0
    code, out, _ = run(capsys, "lambda", "--a", "0.2", "--b", "5",
                       "--c", "0.2", "--d", "1")
    assert out == ("status: defined\nlambda: 0.8272034035385081\n"
                   "verdict: asymptotically stable\n")


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
    code, out, err = run(capsys, "fig-c", "--out", str(tmp_path / "panels"),
                         "--nc", "0", "--nd", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage: ") and err.count("\n") == 1
    assert not (tmp_path / "panels").exists()


SWEEP = ("sweep", "--a", "0.2", "--b", "5", "--format", "csv")
ORBIT = ("orbit", "--a", "-0.2", "--b", "5", "--c", "-0.2", "--d", "3")
ORBIT_SYSTEM = ("orbit-system", "--system", "system.json", "--x0", "1,0,0")


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
    # simulation times must be finite and positive (a non-finite --t-max
    # never ends a periodic orbit), --z0 finite and negative
    (*ORBIT, "--z0", "-1", "--t-max", "inf"),
    (*ORBIT, "--z0", "-1", "--t-max", "nan"),
    (*ORBIT, "--z0", "-1", "--t-max", "0"),
    (*ORBIT, "--z0", "-1", "--t-max", "1", "--dt", "nan"),
    (*ORBIT, "--z0", "-1", "--t-max", "1", "--dt", "-1"),
    (*ORBIT, "--z0", "-1", "--t-max", "1", "--dt", "1e-11"),
    (*ORBIT, "--z0", "nan", "--t-max", "1"),
    (*ORBIT, "--z0", "-inf", "--t-max", "1"),
    (*ORBIT, "--z0", "0", "--t-max", "1"),
    (*ORBIT_SYSTEM, "--t-max", "inf"),
    (*ORBIT_SYSTEM, "--t-max", "nan"),
    (*ORBIT_SYSTEM, "--t-max", "-2"),
    (*ORBIT_SYSTEM, "--t-max", "1", "--dt", "inf"),
    (*ORBIT_SYSTEM, "--t-max", "1", "--dt", "0"),
    # ordered, but the width hi - lo overflows
    ("fig-c", "--c-range=-1e308:1e308"),
    (*SWEEP, "--c-range=-1e308:1e308", "--d-range=0:10", "--nc", "4",
     "--nd", "4"),
])
def test_grid_options_are_usage_errors(capsys, tmp_path, argv):
    out_path = tmp_path / ("panels" if argv[0] == "fig-c" else "grid.csv")
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage: ") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("a, b", [("inf", "5"), ("nan", "5"),
                                  ("0.2", "inf"), ("0.2", "-inf"),
                                  ("-nan", "5"), ("-Infinity", "5")])
def test_sweep_non_finite_a_or_b_is_a_constraint_violation(capsys, tmp_path,
                                                           a, b):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "sweep", "--a", a, "--b", b,
                         "--c-range=-1:1", "--d-range=0:10", "--nc", "4",
                         "--nd", "4", "--out", str(out_path))
    name = "a" if a != "0.2" else "b"
    assert code == 1
    assert out == ""
    assert err == f"error: constraint-violation: parameter {name} is not " \
        "finite\n"
    assert not out_path.exists()



@pytest.mark.parametrize("command", ["sweep", "fig-c"])
@pytest.mark.parametrize("nc, nd, want", [
    ("0", "4", 2), ("1", "4", 2), ("-3", "4", 2), ("4", "-3", 2),
    ("2.5", "4", 2), ("4", "1e3", 2),
    # above sweep.MAX_CELLS: refused before any cell is allocated
    ("100000", "100000", 1), ("2", "2000001", 1)])
def test_bad_grid_counts_fail_with_one_error_line(capsys, tmp_path, command,
                                                  nc, nd, want):
    out_path = tmp_path / ("panels" if command == "fig-c" else "grid.csv")
    argv = [command, "--nc", nc, "--nd", nd, "--out", str(out_path)]
    if command == "sweep":
        argv += ["--a", "0.2", "--b", "5", "--c-range=-1:1",
                 "--d-range=0:10"]
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: usage: " if want == 2 else
                          "error: value: nc * nd = ")
    assert not out_path.exists()

# each command with valid values for all of its options
VALID_ARGS = {
    "lambda": {"--a": "0.2", "--b": "5", "--c": "0.2", "--d": "1"},
    "orbit": {"--a": "-0.2", "--b": "5", "--c": "-0.2", "--d": "3",
              "--z0": "-1", "--t-max": "1", "--dt": "0.01",
              "--out": "orbit.csv"},
    "orbit-system": {"--system": "system.json", "--x0": "0,0,-1",
                     "--t-max": "1", "--dt": "0.01", "--out": "orbit.csv"},
    "sweep": {"--a": "0.2", "--b": "5", "--c-range": "-1:1",
              "--d-range": "0:10", "--nc": "4", "--nd": "4",
              "--out": "grid.csv"},
}
FLOAT_OPTIONS = [("lambda", f"--{name}") for name in "abcd"] \
    + [("orbit", option) for option in ("--a", "--b", "--c", "--d", "--z0",
                                        "--t-max", "--dt")] \
    + [("orbit-system", "--t-max"), ("orbit-system", "--dt"),
       ("sweep", "--a"), ("sweep", "--b")]


@pytest.mark.parametrize("value", ["nan", "-inf", "1e400", "x"])
@pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
def test_every_float_option_refuses_its_bad_values(capsys, tmp_path, command,
                                                   option, value):
    (tmp_path / "system.json").write_bytes(SYSTEM_FILES["system.json"])
    outputs = []
    for joined in (False, True):
        argv = [command]
        for name, text in {**VALID_ARGS[command], option: value}.items():
            if name in ("--system", "--out"):
                text = str(tmp_path / text)
            argv += [f"{name}={text}"] if joined or name != option \
                else [name, text]
        code, out, err = run(capsys, *argv)
        assert code in (1, 2), argv
        assert "Traceback" not in out + err
        assert [line.startswith("error: ") for line in err.splitlines()] \
            == [True], argv
        outputs.append((code, out, err))
    assert outputs[0] == outputs[1]


def test_fig_c_unwritable_output_fails_cleanly(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "fig-c", "--out", str(blocker / "panels"),
                         "--nc", "2", "--nd", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_rotational_chain(capsys, tmp_path):
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    code, out, _ = run(capsys, "classify", "--system", path)
    assert code == 0
    assert "case: rotational" in out
    assert "hybrid params" in out
    assert "asymptotically stable" in out


def test_classify_is_time_scale_free(capsys, tmp_path):
    # both fields scaled by 1e100: phi's last row reaches 1e200, yet the
    # verdict and the multiplier are those of the unscaled system
    def spec(s):
        return {"fL": [f"{s}*(0.2*x1 + x2 + x1^2)", f"{s}*(-5*x1 + x3)",
                       f"{s}*(-1*x1)"],
                "fR": [f"{s}*(-1)", f"{s}*0.5", f"{s}*(-3)"],
                "H": "x1 + 0.1*x2^2", "x_star": [0, 0, 0]}

    def multiplier(out):
        line, = (x for x in out.splitlines() if x.startswith("lambda: "))
        return float(line.removeprefix("lambda: "))
    code, out, _ = run(capsys, "classify", "--system", write_spec(tmp_path,
                                                                   spec(1)))
    assert code == 0 and "verdict: unstable" in out
    want = multiplier(out)
    code, out, err = run(capsys, "classify", "--system",
                         write_spec(tmp_path, spec("1e100")))
    assert (code, err) == (0, "")
    assert abs(multiplier(out) - want) <= 1e-12 * want


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


def test_classify_rounding_edge_sliding_pair_is_degenerate(capsys,
                                                          tmp_path):
    # the sliding pair is complex by one ulp: d rounds onto c^2/4
    s = "1.2192"
    path = write_spec(tmp_path, {
        "fL": [f"{s}*(-0.8*x1 + x2)", f"{s}*(-4.8*x1 + x3)", f"{s}*(-5*x1)"],
        "fR": [f"-{s}", "2.4384", f"-{s}*1.0000000000000002"],
        "H": "x1", "x_star": [0, 0, 0]})
    code, out, err = run(capsys, "classify", "--system", path)
    reason = "no valid hybrid parameters: with c = 2 > 0, d = 1 must " \
             "exceed c^2/4 = 1"
    assert code == 1
    assert out.splitlines()[-2:] == [f"case: degenerate ({reason})",
                                     "stability: undecided"]
    assert err == f"error: degenerate: {reason}\n"


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


SWEEP_ARGS = ("sweep", "--a", "0.2", "--b", "5", "--c-range=-1:1",
              "--d-range=0.25:2", "--nc", "4", "--nd", "4")


def test_sweep_to_dev_null(capsys):
    code, out, err = run(capsys, *SWEEP_ARGS, "--out", os.devnull)
    assert code == 0, err


def test_sweep_to_a_fifo(capsys, tmp_path):
    # a FIFO is written, never truncated; a thread reads it to the end
    want_path = tmp_path / "grid.csv"
    assert run(capsys, *SWEEP_ARGS, "--out", str(want_path))[0] == 0
    fifo = tmp_path / "grid.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, _, err = run(capsys, *SWEEP_ARGS, "--out", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0, err
    assert got == [want_path.read_bytes()]


@pytest.mark.parametrize("target, slug", [
    ("", "is-a-directory"), ("missing/grid.csv", "file-not-found")])
def test_sweep_to_a_path_it_cannot_write(capsys, tmp_path, target, slug):
    code, out, err = run(capsys, *SWEEP_ARGS, "--out",
                         str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {slug}: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("shift", [(1.0, 2.0, 3.0), (1e6, 2e6, 3e6)])
def test_orbit_system_measures_fates_from_x_star(capsys, tmp_path, shift):
    # from (-0.02, 0, -0.05) the untranslated system converges at
    # t = 202.3; measured from the origin instead of x_star, the (1, 2, 3)
    # copy would time out at t = 400, and the one beyond 1e6 would read
    # diverged at t = 0
    path = write_spec(tmp_path, translated_spec(NORMAL_FORM_STABLE, shift))
    x0 = ",".join(repr(v + s) for v, s in zip((-0.02, 0.0, -0.05), shift))
    out_path = tmp_path / "orbit.csv"
    code, out, err = run(capsys, "orbit-system", "--system", path,
                         f"--x0={x0}", "--t-max", "400", "--dt", "0.01",
                         "--out", str(out_path))
    assert code == 0, err
    assert "terminal: converged" in out
    t, *x, _ = out_path.read_text().splitlines()[-1].split(",")
    assert abs(float(t) - 202.3) < 0.1
    assert math.dist(map(float, x), shift) < 1e-6


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
    ("lambda", "--a", "0.2", "--b", "5", "--c", "0.2", "--d", "1",
     "--steps", "512"),                            # a removed option
    ("check-appendix-b", "--trials", "100"),       # a removed subcommand
])
def test_argparse_errors_are_one_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage: ") and err.count("\n") == 1


def test_missed_tolerance_is_a_failure(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(hybrid, "_MAX_SECANT_ITERS", 1)
    path = write_spec(tmp_path, NORMAL_FORM_STABLE)
    for argv in (("lambda", "--a", "0.2", "--b", "5", "--c", "0.2",
                  "--d", "1"),
                 ("classify", "--system", path)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: tolerance-not-met: ")
        assert err.count("\n") == 1


# each command, with valid options, and the library name it calls
# through ``filippov.cli``
FAILING_CALLS = [
    ("return_multiplier", ("lambda", "--a", "0.2", "--b", "5", "--c", "0.2",
                           "--d", "1")),
    ("boundary_data", ("classify", "--system", "{dir}/system.json")),
    ("sweep", (*SWEEP_ARGS, "--out", "{dir}/grid.csv")),
    ("simulate_hybrid", (*ORBIT, "--z0", "-1", "--t-max", "1",
                         "--out", "{dir}/orbit.csv")),
    ("simulate", ("orbit-system", "--system", "{dir}/system.json", "--x0",
                  "1,0,0", "--t-max", "1", "--out", "{dir}/orbit.csv")),
    ("render_grid", ("fig-c", "--out", "{dir}/panels", "--nc", "2", "--nd",
                     "2")),
]


@pytest.mark.parametrize("exc, slug", [
    (FilippovError("boom"), "filippov"),
    (OSError(errno.EACCES, "Permission denied"), "permission"),
    (ValueError("boom"), "value")], ids=["filippov", "os", "value"])
@pytest.mark.parametrize("name, argv", FAILING_CALLS,
                         ids=[argv[0] for _, argv in FAILING_CALLS])
def test_every_command_fails_the_same_way(capsys, tmp_path, monkeypatch,
                                          name, argv, exc, slug):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, name, fail)
    write_spec(tmp_path, NORMAL_FORM_STABLE)
    code, out, err = run(capsys, *(arg.format(dir=tmp_path)
                                   for arg in argv))
    assert code == 1
    assert "Traceback" not in out + err
    assert err == f"error: {slug}: {exc}\n"


def test_fig_panels_small(capsys, tmp_path):
    out_dir = tmp_path / "panels"
    code, out, _ = run(capsys, "fig-c", "--out", str(out_dir),
                       "--nc", "6", "--nd", "6", "--format", "csv")
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 12
    assert "sweep_a-1.2_b0.5.csv" in files
    assert "sweep_a0.2_b5.csv" in files


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


# --------------------------------------------------------------------------
# every invocation runs or fails with one line: argv drawn from a fixed
# vocabulary, with grids of at most 8 cells a side and --t-max <= 1 so
# that each run is short
# --------------------------------------------------------------------------

# each option's values: (good, bad), a good one drawn four times in five
NUMBERS = (("2", "0.5", "-1", "0", "5"), ("nan", "inf", "x"))
SIZES = (("2", "8"), ("nan", "-1", "0", "x", "0.5"))
TIMES = (("0.5", "1"), ("nan", "inf", "-1", "0", "x"))
RANGES = (("-1:1", "0:2"), ("1:-1", "nan:1", "0:inf", "x", "2"))
SYSTEMS = (("system.json",), ("missing.json", "binary.json", "huge.json",
                              "deep.json", "bool.json"))
# the system files of a run's directory: the good one, and six that the
# loader refuses (bytes that are not UTF-8, an integer beyond the float
# range, nesting past the recursion limit, a boolean coordinate, and a
# NaN and an infinite one)
SYSTEM_FILES = {
    "system.json": json.dumps(NORMAL_FORM_STABLE).encode(),
    "binary.json": b"\xff\xfe",
    "huge.json": json.dumps({**NORMAL_FORM_STABLE,
                             "x_star": [10 ** 400, 0, 0]}).encode(),
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    "bool.json": json.dumps({**NORMAL_FORM_STABLE,
                             "x_star": [False, False, False]}).encode(),
    "nan.json": json.dumps({**NORMAL_FORM_STABLE,
                            "x_star": [math.nan, 0, 0]}).encode(),
    "inf.json": json.dumps({**NORMAL_FORM_STABLE,
                            "x_star": [math.inf, 0, 0]}).encode(),
}
ABCD = {f"--{name}": NUMBERS for name in "abcd"}
SUBCOMMANDS = {
    "lambda": ABCD,
    "classify": {"--system": SYSTEMS},
    "sweep": {"--a": NUMBERS, "--b": NUMBERS, "--c-range": RANGES,
              "--d-range": RANGES, "--nc": SIZES, "--nd": SIZES,
              "--out": (("grid.csv",), ("no/such/dir/grid.csv",)),
              "--format": (("csv", "pgm"), ("gif",))},
    "orbit": {**ABCD, "--z0": (("-1", "-0.5"), ("0", "2", "nan", "inf", "x")),
              "--t-max": TIMES, "--dt": TIMES, "--out": (("orbit.csv",),) * 2},
    "orbit-system": {"--system": SYSTEMS,
                     "--x0": (("0,0,-1", "-0.02,0,-0.05"),
                              ("1,0", "x,0,0", "nan,0,0")),
                     "--t-max": TIMES, "--dt": TIMES,
                     "--out": (("orbit.csv",),) * 2},
    "fig-c": {"--out": (("panels",),) * 2, "--nc": SIZES, "--nd": SIZES,
              "--c-range": RANGES, "--d-range": RANGES,
              "--format": (("csv", "pgm", "both"), ("gif",))},
}
# options whose defaults would make a run long: never left out
SIZE_OPTIONS = {"--nc", "--nd", "--t-max"}
EXTRA = ("--steps", "--bogus", "-1")


def argv_from(picks, workdir):
    """An argument list from a sequence of non-negative integers: the
    subcommand, then each of its options (left out one time in eight,
    unless its default is slow) with a value from its vocabulary, then,
    one time in eight, an unknown option or a stray value.  Paths are
    inside ``workdir``."""
    picks = iter(picks)
    command = list(SUBCOMMANDS)[next(picks) % len(SUBCOMMANDS)]
    argv = [command]
    for option, (good, bad) in SUBCOMMANDS[command].items():
        keep, pick = next(picks), next(picks)
        if keep % 8 == 0 and option not in SIZE_OPTIONS:
            continue
        values = good if pick % 5 else bad
        value = values[pick // 5 % len(values)]
        if option in ("--out", "--system"):
            value = str(workdir / value)
        argv += [option, value]
    extra = next(picks)
    if extra % 8 == 0:
        argv += [EXTRA[extra // 8 % len(EXTRA)], "2"]
    return argv


def picks_strategy(st):
    return st.lists(st.integers(0, 10 ** 6), min_size=20, max_size=20)


def draw_picks(rng):
    return rng.integers(0, 10 ** 6, size=20).tolist()


@for_all(150, 65, picks_strategy, draw_picks)
def test_every_invocation_exits_0_1_or_2_with_one_error_line(picks):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, data in SYSTEM_FILES.items():
            (workdir / name).write_bytes(data)
        argv = argv_from(picks, workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in text, argv
    if code:
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1, (argv, err.getvalue())


@pytest.mark.parametrize("name", ["binary.json", "huge.json", "deep.json",
                                  "bool.json", "nan.json", "inf.json"])
@pytest.mark.parametrize("command", ["classify", "orbit-system"])
def test_bad_system_files_fail_with_one_error_line(capsys, tmp_path, name,
                                                    command):
    path = tmp_path / name
    path.write_bytes(SYSTEM_FILES[name])
    argv = [command, "--system", str(path)]
    if command == "orbit-system":
        argv += ["--x0", "0,0,-1", "--t-max", "1",
                 "--out", str(tmp_path / "orbit.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: filippov: ") and err.count("\n") == 1


def test_readme_commands_parse():
    # every documented command of the README's usage block is accepted by
    # the parser (not run), so a removed option fails here; and every
    # subcommand of the parser is documented there, so an added or
    # removed one cannot drift from the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("filippov ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    subcommands, = (action.choices for action in parser._actions
                    if action.dest == "command")
    assert {argv[1] for argv in commands} == set(subcommands)
