"""End-to-end command-line tests driven through ``main(argv)``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scce
from scce import Dgp, DgpConfig, generate_panel, simulate
from conftest import make_panel, write_panel_csv
from scce.cli import EXIT_DATA_ERROR, EXIT_NUMERICAL_ERROR, EXIT_OK, main


@pytest.fixture
def panel_csv(tmp_path):
    sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=20, t=20, seed=0))
    return write_panel_csv(tmp_path / "panel.csv", sp.panel)


@pytest.fixture
def huge_csv(tmp_path):
    """A 10 x 30 panel of finite values near 1e120."""
    rng = np.random.default_rng(3)
    sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=3)).panel
    huge = make_panel(1e120 * sp.y, 1e120 * rng.normal(size=sp.x.shape))
    return write_panel_csv(tmp_path / "huge.csv", huge)


class TestEstimate:
    def test_smoke_json_report(self, panel_csv, capsys):
        assert main(["estimate", "--input", panel_csv]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["method"] == "scce"
        assert payload["n_units"] == 20 and payload["n_periods"] == 20
        assert len(payload["coefficients"]) == 2
        for row in payload["coefficients"]:
            assert np.isfinite(row["estimate"])
            assert row["hac_std_error"] > 0
        assert [r["column"] for r in payload["adf"]] == ["ybar", "x1bar", "x2bar"]

    def test_bootstrap_ci_brackets_estimate(self, panel_csv, capsys):
        assert main(["estimate", "--input", panel_csv, "--bootstrap", "39",
                     "--seed", "7"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["bootstrap"] == {"draws": 39, "level": 0.95,
                                        "seed": 7, "skipped": 0}
        for row in payload["coefficients"]:
            assert row["ci_lower"] <= row["estimate"] <= row["ci_upper"]

    def test_diff_flag_shortens_panel(self, panel_csv, capsys):
        assert main(["estimate", "--input", panel_csv, "--diff", "--no-adf"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["differenced"] is True
        assert payload["n_periods"] == 19
        assert "adf" in payload and payload["adf"] == []

    def test_csv_format(self, panel_csv, capsys):
        assert main(["estimate", "--input", panel_csv, "--format", "csv",
                     "--no-adf"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "coef,estimate,hac_std_error,ci_lower,ci_upper"
        assert len(lines) == 3

    def test_byte_identical_reports(self, panel_csv, tmp_path):
        argv = ["estimate", "--input", panel_csv, "--bootstrap", "19", "--seed", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_ccep_ignores_knot_flags_with_warning(self, panel_csv, capsys):
        assert main(["estimate", "--input", panel_csv, "--method", "ccep",
                     "--no-adf"]) == EXIT_OK
        plain = capsys.readouterr()
        assert "warning" not in plain.err

        assert main(["estimate", "--input", panel_csv, "--method", "ccep",
                     "--knot-c", "3", "--no-adf"]) == EXIT_OK
        flagged = capsys.readouterr()
        assert "warning: --method ccep ignores knot/basis flags" in flagged.err
        assert json.loads(flagged.out)["coefficients"] == \
            json.loads(plain.out)["coefficients"]

    def test_missing_cell_exits_2_and_names_hole(self, tmp_path, capsys):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=5, t=10, seed=1))
        path = tmp_path / "holey.csv"
        write_panel_csv(path, sp.panel)
        lines = path.read_text().splitlines()
        dropped = lines[1]  # first data row: unit 0, time 0
        path.write_text("\n".join(l for l in lines if l != dropped) + "\n")
        assert main(["estimate", "--input", str(path)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert "0" in err and "missing" in err.lower()

    def test_singular_design_exits_3(self, tmp_path, capsys):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=15, seed=2))
        with open(tmp_path / "zero_x.csv", "w", encoding="utf-8") as fh:
            fh.write("unit,time,y,x1,x2\n")
            for i in range(10):
                for s in range(15):
                    fh.write(f"{i},{s},{float(sp.panel.y[i, s])!r},0.0,0.0\n")
        assert main(["estimate", "--input", str(tmp_path / "zero_x.csv"),
                     "--no-adf"]) == EXIT_NUMERICAL_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["estimate"], ["estimate", "--bootstrap", "9"],
                                         ["test-linearity"]])
    def test_finite_values_that_overflow_the_sieve_exit_3(self, huge_csv, capsys, command):
        assert main([command[0], "--input", huge_csv] + command[1:]) == EXIT_NUMERICAL_ERROR
        err = capsys.readouterr().err
        assert err == "error: sieve basis overflows: the factor proxy is too large to " \
                      "expand; rescale the data\n"

    @pytest.mark.parametrize("flags", [["--method", "ccep"], ["--method", "ccemg"],
                                       ["--method", "ccep", "--bootstrap", "9"]])
    def test_finite_values_that_overflow_the_hac_exit_3(self, huge_csv, capsys, flags):
        # The linear methods build no sieve; the HAC scores overflow instead.
        assert main(["estimate", "--input", huge_csv] + flags) == EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: HAC covariance overflows: the scores are too large; " \
                               "rescale the data\n"

    def test_overflowing_unit_grams_exit_3_with_one_line(self, tmp_path):
        # Run as a program, so that a RuntimeWarning would reach stderr. The
        # per-unit (ccemg) and pooled (ccep) Grams overflow; neither is
        # reported as a collinear design.
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=0)).panel
        path = write_panel_csv(tmp_path / "big.csv", make_panel(1e154 * sp.y, 1e154 * sp.x))
        code = "import sys, scce.cli; sys.exit(scce.cli.main(sys.argv[1:]))"
        src = os.path.dirname(os.path.dirname(scce.__file__))
        for method in ("ccemg", "ccep"):
            out = subprocess.run([sys.executable, "-c", code, "estimate", "--input", path,
                                  "--method", method], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
            assert out.returncode == EXIT_NUMERICAL_ERROR
            assert (out.stdout, out.stderr) == (
                "", "error: Gram matrix overflows: the data are too large; rescale the data\n")

    def test_a_proxy_too_short_for_adf_is_an_error_row(self, tmp_path, capsys):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=20, t=9, seed=4))
        path = write_panel_csv(tmp_path / "short.csv", sp.panel)
        assert main(["estimate", "--input", path, "--method", "ccep"]) == EXIT_OK
        message = "ADF needs at least 10 observations, got 9"
        assert json.loads(capsys.readouterr().out)["adf"] == [
            {"column": name, "error": message} for name in ("ybar", "x1bar", "x2bar")]

    def test_a_proxy_that_adf_fits_exactly_is_an_error_row(self, tmp_path, capsys):
        # Units in pairs of opposite noise: ybar is the trend 0, 1, 2, ...
        rng = np.random.default_rng(6)
        noise = rng.normal(size=(10, 30))
        y = np.arange(30.0) + np.concatenate([noise, -noise])
        path = write_panel_csv(tmp_path / "trend.csv", make_panel(y, rng.normal(size=(20, 30, 2))))
        assert main(["estimate", "--input", path, "--method", "ccep"]) == EXIT_OK
        adf = json.loads(capsys.readouterr().out)["adf"]
        assert adf[0] == {"column": "ybar",
                          "error": "ADF regression has a perfect fit; t-ratio undefined"}
        assert [row["column"] for row in adf[1:]] == ["x1bar", "x2bar"]
        assert all("statistic" in row for row in adf[1:])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv, name", [
        (["estimate", "--input", "{csv}", "--output", "/dev/full"], "/dev/full"),
        (["estimate", "--input", "{csv}"], "stdout"),
        (["simulate", "--dgp", "e1", "--n", "10", "--t", "20", "--reps", "2"], "stdout"),
    ])
    def test_a_report_that_cannot_be_written_exits_2_with_one_line(self, panel_csv, argv, name):
        src = os.path.dirname(os.path.dirname(scce.__file__))
        with open("/dev/full", "w") as full:
            out = subprocess.run([sys.executable, "-m", "scce.cli",
                                  *(a.format(csv=panel_csv) for a in argv)],
                                 stdout=full, stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == EXIT_DATA_ERROR
        # No traceback, and no "Exception ignored" from the interpreter's last flush.
        assert out.stderr == f"error: {name}: cannot write: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_stdout_that_cannot_be_written_is_not_flushed_again_at_exit(self, panel_csv):
        # Some interpreters keep a failed write's bytes in stdout's buffer and flush
        # them again at exit; what is still buffered then must go nowhere.
        script = ("import sys, scce.cli; code = scce.cli.main(sys.argv[1:]); "
                  "sys.stdout.write('still buffered'); sys.exit(code)")
        src = os.path.dirname(os.path.dirname(scce.__file__))
        with open("/dev/full", "w") as full:
            out = subprocess.run([sys.executable, "-c", script, "estimate", "--input", panel_csv],
                                 stdout=full, stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == EXIT_DATA_ERROR
        assert out.stderr == "error: stdout: cannot write: No space left on device\n"

    @pytest.mark.filterwarnings("error")
    def test_a_proxy_that_overflows_exits_3_without_warnings(self, tmp_path, capsys):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=10, t=30, seed=5)).panel
        y = 1.5e308 + 1e306 * np.tanh(sp.y)
        path = write_panel_csv(tmp_path / "near_max.csv", make_panel(y, sp.x))
        assert main(["estimate", "--input", path]) == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().err == "error: factor proxy overflows: the cross-sectional " \
                                          "sums are too large; rescale the data\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e40, 1e80, 1e100])
    def test_a_linearity_statistic_that_overflows_exits_3_with_one_line(self, tmp_path, capsys,
                                                                        scale):
        sp = generate_panel(DgpConfig(dgp=Dgp.E1, n=20, t=30, seed=1)).panel
        path = write_panel_csv(tmp_path / "huge.csv", make_panel(scale * sp.y, scale * sp.x))
        assert main(["test-linearity", "--input", path]) == EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: linearity statistic overflows: the residuals are too " \
                               "large; rescale the data\n"

    def test_out_of_memory_exits_3_with_one_line(self, monkeypatch, capsys):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(scce.cli, "monte_carlo_run", fail)
        assert main(SIM) == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_stray_linalg_error_exits_3_with_one_line(self, panel_csv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert main(["estimate", "--input", panel_csv]) == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().err == \
            "error: linear algebra failed: SVD did not converge\n"


SIM = ["simulate", "--dgp", "e1", "--n", "5", "--t", "10", "--reps", "2"]
CONFIG_ERRORS = [
    (["estimate", "--input", "{csv}", "--bootstrap", "1"], {}, "at least 2 draws"),
    (["estimate", "--input", "{csv}", "--bootstrap", "0"], {}, "at least 2 draws"),
    (["estimate", "--input", "{csv}", "--knot-c", "0"], {}, "knot multiplier"),
    (["estimate", "--input", "{csv}", "--bootstrap", "5", "--level", "2"], {},
     "confidence level"),
    # Checked at parse time, also without --bootstrap, and before the CSV is read.
    (["estimate", "--input", "{missing}", "--level", "2"], {},
     "confidence level must lie in (0, 1)"),
    (["estimate", "--input", "{csv}", "--level", "abc"], {},
     "argument --level: invalid float value: 'abc'"),
    (["estimate", "--input", "{csv}", "--bootstrap", "5", "--seed", "-1"], {},
     "seed must be a non-negative integer"),
    (["estimate", "--input", "{csv}", "--bootstrap", "5"], {"SCCE_THREADS": "abc"},
     "SCCE_THREADS must be a positive integer, got 'abc'"),
    (SIM + ["--error-pi", "1.5"], {}, "error correlation pi"),
    (SIM + ["--seed", "-1"], {}, "seed must be a non-negative integer"),
    (SIM, {"SCCE_THREADS": "0"}, "SCCE_THREADS must be a positive integer, got '0'"),
    (["estimate", "--input", "{missing}"], {}, "{missing}: cannot open"),
    (["test-linearity", "--input", "{short_row}"], {}, "{short_row}: line 2 has 1 field"),
    (["estimate", "--input", "{csv}", "--output", "{nodir}"], {}, "{nodir}: cannot write"),
    (SIM + ["--output", "{nodir}"], {}, "{nodir}: cannot write"),
    (["estimate", "--input", "{csv}", "--hac-window", "20"], {}, "HAC window must satisfy"),
    (["test-linearity", "--input", "{csv}", "--hac-window", "20"], {},
     "HAC window must satisfy"),
    (["test-linearity", "--input", "{csv}", "--method", "ccep"], {},
     "unrecognized arguments: --method ccep"),
    (["estimate", "--input", "{bad_utf8}"], {}, "{bad_utf8}: not UTF-8 text"),
    (["estimate", "--input", "{long_field}"], {}, "{long_field}: line 2: field larger than"),
    (["estimate", "--input", "{narrow_row}"], {},
     "{narrow_row}: line 2 has 4 field(s); the header has 5"),
    (["estimate", "--input", "{csv}", "--bootstrap", "5"], {"SCCE_THREADS": "1000000"},
     "SCCE_THREADS must be a positive integer, got '1000000'; the ceiling is 256 threads"),
    (["estimate", "--input", "{csv}", "--output", "{csv}"], {},
     "{csv}: --output names the --input file"),
    (["test-linearity", "--input", "{csv}", "--output", "{link}"], {},
     "{link}: --output names the --input file"),
    (["estimate", "--input", "{time_gap}", "--diff"], {},
     "time labels skip from 2001 to 2003; first differencing needs consecutive periods"),
    (["estimate", "--input", "{csv}", "--seed", "-1"], {},
     "seed must be a non-negative integer, got '-1'"),
    (["estimate", "--input", "{csv}", "--seed", "7.5"], {},
     "seed must be a non-negative integer, got '7.5'"),
    (["estimate", "--input", "{csv}", "--knot-c", "3", "--no-adf"], {},
     "the projection spans all T periods (rank=20, T=20); use fewer knots"),
    (["estimate", "--input", "{csv}", "--knot-c", "40"], {},
     "the knot rule asks for J=80 knots at T=20; J must be below T: use fewer knots"),
    (["test-linearity", "--input", "{csv}", "--knot-c", "40"], {}, "J must be below T"),
    (SIM + ["--knot-c", "40"], {},
     "the knot rule asks for J=40 knots at T=10; J must be below T: use fewer knots"),
    (["test-linearity", "--input", "{six_periods}"], {}, "CCEP needs T >= 7, got T=6"),
    # Every replication raises TooSmall: its own line and exit 2, not TooManySkipped's exit 3.
    (["simulate", "--dgp", "e1", "--n", "20", "--t", "20", "--knot-c", "3", "--reps", "5"], {},
     "the projection spans all T periods (rank=20, T=20); use fewer knots"),
]


@pytest.mark.parametrize("argv, env, message", CONFIG_ERRORS)
def test_bad_input_exits_2_with_one_line(argv, env, message, panel_csv, tmp_path,
                                         monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    monkeypatch.delenv("SCCE_THREADS", raising=False)
    panel_bytes = Path(panel_csv).read_bytes()
    files = {"short_row": b"unit,time,y,x1\n1\n",
             "bad_utf8": b"unit,time,y,x1\n0,0,\xff,1\n",
             "long_field": b"unit,time,y,x1\n0,0," + b"1" * (128 * 1024 + 1) + b",1\n",
             "narrow_row": b"unit,time,y,x1,x2\n0,0,1.0,2.0\n",
             "time_gap": b"unit,time,y,x1\n" + b"".join(
                 b"%d,%d,%d,1\n" % (u, t, u + t) for u in (0, 1) for t in (2001, 2003, 2004, 2005)),
             "six_periods": b"unit,time,y,x1,x2\n" + b"".join(  # CCEP needs T >= 7 at d = 2
                 b"%d,%d,%d,%d,%d\n" % (u, t, u * t % 7, (u + t) % 5, u * u % 3)
                 for u in range(10) for t in range(6))}
    paths = {"csv": panel_csv, "missing": str(tmp_path / "absent.csv"),
             "nodir": str(tmp_path / "nodir" / "out.json"), "link": str(tmp_path / "link.csv")}
    os.symlink(panel_csv, paths["link"])
    for name, content in files.items():
        (tmp_path / f"{name}.csv").write_bytes(content)
        paths[name] = str(tmp_path / f"{name}.csv")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([a.format(**paths) for a in argv]) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.format(**paths) in err
    assert Path(panel_csv).read_bytes() == panel_bytes


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes longer to import than the rest of the package.
    src = os.path.dirname(os.path.dirname(scce.__file__))
    code = "import sys, scce, scce.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


# Runs ``cli.main`` on each argv of a JSON list in a fresh interpreter and
# prints the scipy modules loaded after the imports and after each run; with
# "preload", scipy.special is imported first, as a module-level import did.
_COLD_RUN = """
import json, sys
if sys.argv[1] == "preload":
    import scipy.special
import scce, scce.cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded()))
for argv in json.loads(sys.argv[2]):
    assert scce.cli.main(argv) == 0
    print(json.dumps(loaded()))
"""


def cold_run(*argvs, preload=False):
    src = os.path.dirname(os.path.dirname(scce.__file__))
    out = subprocess.run([sys.executable, "-c", _COLD_RUN, "preload" if preload else "cold",
                          json.dumps(argvs)], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_estimate_and_simulate_load_no_scipy_module(panel_csv, tmp_path):
    loaded = cold_run(
        ["estimate", "--input", panel_csv, "--bootstrap", "19", "--output", str(tmp_path / "e")],
        ["simulate", "--dgp", "e1", "--n", "10", "--t", "20", "--reps", "3",
         "--output", str(tmp_path / "s")])
    assert loaded == [[], [], []]
    assert (tmp_path / "e").stat().st_size and (tmp_path / "s").stat().st_size


def test_estimate_and_linearity_leave_numpy_ma_to_scipy(panel_csv, tmp_path):
    # np.quantile imports numpy.ma (6 ms cold); the knots are placed without it.
    # test-linearity's import of scipy.special imports numpy.ma, so only after scipy.
    src = os.path.dirname(os.path.dirname(scce.__file__))
    code = ("import json, sys, scce.cli\n"
            "assert scce.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps([m for m in sys.modules if m in ('numpy.ma', 'scipy')]))")
    for command in ("estimate", "test-linearity"):
        argv = [command, "--input", panel_csv, "--output", str(tmp_path / command)]
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        loaded = json.loads(out.stdout)
        assert loaded == ([] if command == "estimate" else ["scipy", "numpy.ma"]), command


def test_linearity_imports_scipy_special_and_keeps_its_bytes(panel_csv, tmp_path):
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    before, after = cold_run(["test-linearity", "--input", panel_csv, "--output", str(cold)])
    assert before == [] and "scipy.special" in after
    cold_run(["test-linearity", "--input", panel_csv, "--output", str(warm)], preload=True)
    assert cold.read_bytes() == warm.read_bytes()
    got, want = json.loads(cold.read_bytes()), json.loads(warm.read_bytes())
    for key in ("statistic", "p_value"):
        assert float.hex(got[key]) == float.hex(want[key])


class TestSimulate:
    def test_csv_report_contract(self, capsys):
        assert main(["simulate", "--dgp", "e1", "--n", "10", "--t", "20",
                     "--reps", "5", "--seed", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,t,dgp,estimator,coef,abs_bias,rmse,reps,skipped"
        assert len(lines) == 3  # one row per coefficient
        for coef, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[:5] == ["10", "20", "e1", "scce", str(coef)]
            assert float(fields[6]) >= float(fields[5])  # rmse >= abs_bias

    def test_grid_length_mismatch_exits_2(self, capsys):
        assert main(["simulate", "--dgp", "e1", "--n", "10", "--n", "20",
                     "--t", "20", "--reps", "2"]) == EXIT_DATA_ERROR
        assert "same number" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        argv = ["simulate", "--dgp", "e2", "--n", "10", "--t", "20",
                "--reps", "4", "--seed", "9", "--method", "ccep"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestTestLinearity:
    def test_json_fields(self, panel_csv, capsys):
        assert main(["test-linearity", "--input", panel_csv]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "test-linearity"
        assert payload["dof"] > 0
        assert 0.0 <= payload["p_value"] <= 1.0
        assert isinstance(payload["reject_linearity_5pct"], bool)
        assert payload["hac_window"] > 0

    def test_missing_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["test-linearity", "--input", str(empty)]) == EXIT_DATA_ERROR
        assert "empty" in capsys.readouterr().err
