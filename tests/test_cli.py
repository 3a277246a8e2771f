"""CLI contract: subcommands, report envelopes, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from dkp import __version__
from dkp.cli import SUITES, RunConfig, main

ENVELOPE = ("command", "version", "N", "M", "seed")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def run_cli(capsys, *argv: str):
    """Invoke main() in-process; return (exit code, parsed report or None, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestRunConfig:
    def test_valid(self):
        cfg = RunConfig(command="check", N=3, M=2, seed=11)
        assert (cfg.N, cfg.M, cfg.seed) == (3, 2, 11)

    def test_gcd_violation(self):
        with pytest.raises(ValueError, match="coprime"):
            RunConfig(command="check", N=4, M=2)

    @pytest.mark.parametrize("N,M", [(0, 1), (3, 0), (-3, 2)])
    def test_nonpositive_torus(self, N, M):
        with pytest.raises(ValueError, match="positive"):
            RunConfig(command="curve", N=N, M=M)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_64_bits(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            RunConfig(command="flow", N=3, M=2, seed=seed)

    def test_bad_command_and_suite(self):
        with pytest.raises(ValueError, match="command"):
            RunConfig(command="dance", N=3, M=2)
        with pytest.raises(ValueError, match="suite"):
            RunConfig(command="check", N=3, M=2, suite="bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1e-3},
            {"T": -1.0},
            {"record_every": 0},
            {"drift_tolerance": 0.0},
        ],
    )
    def test_bad_numeric_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(command="flow", N=3, M=2, **kwargs)


class TestCheck:
    def test_all_suites_green_on_3_2(self, capsys):
        code, report, err = run_cli(capsys, "check", "--N", "3", "--M", "2", "--suite", "all")
        assert code == 0
        assert report["command"] == "check"
        assert report["version"] == __version__
        assert (report["N"], report["M"], report["seed"]) == (3, 2, 0)
        assert report["suite"] == "all"
        assert report["failures"] == []
        assert report["ok"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "jacobi",
            "closure-level-1",
            "closure-level-2",
            "ladder",
            "involution",
            "compat",
            "casimir1",
            "casimir2",
            "qlink",
        ]
        assert all(c["ok"] for c in report["checks"])
        assert report["cases"] == sum(c["cases"] for c in report["checks"])
        assert "0 failures" in err

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suite_individually(self, capsys, suite):
        code, report, _ = run_cli(capsys, "check", "--N", "3", "--M", "2", "--suite", suite)
        assert code == 0
        assert report["suite"] == suite
        assert report["ok"] is True
        assert report["cases"] >= 1

    def test_gcd_violation_exits_2_with_dedicated_error(self, capsys):
        code, report, err = run_cli(capsys, "check", "--N", "4", "--M", "2")
        assert code == 2
        assert report is None
        assert "coprime" in err
        assert "gcd(4, 2) = 2" in err

    def test_closure_runs_every_level(self, capsys):
        code, report, _ = run_cli(capsys, "check", "--N", "3", "--M", "2", "--suite", "closure")
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["closure-level-1", "closure-level-2"]


class TestCurve:
    def test_toda_curve_shape(self, capsys):
        code, report, _ = run_cli(capsys, "curve", "--N", "3", "--M", "1")
        assert code == 0
        assert report["command"] == "curve"
        assert sorted(int(d) for d in report["ledger"]) == [1, 2, 3, 6]
        slots = {(a, b) for a, b, _ in report["coefficients"]}
        # α and β^N carry the constant coefficients; the rest carry q_1..q_N, q_2N
        assert {(1, 0), (0, 3)} <= slots
        assert slots == {(1, 0), (0, 3), (0, 0), (0, 1), (0, 2), (-1, 0)}

    def test_numeric_values(self, capsys, tmp_path):
        state = {
            "N": 3,
            "M": 2,
            "t": 0.0,
            "A": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            "B": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        code, report, _ = run_cli(
            capsys, "curve", "--N", "3", "--M", "2", "--numeric", str(path)
        )
        assert code == 0
        degrees = sorted(int(d) for d in report["ledger"])
        assert sorted(report["values"]) == sorted(f"q_{d}" for d in degrees)
        # q_1 = -sum A
        assert report["values"]["q_1"] == pytest.approx(-21.0)

    def test_numeric_overflow_is_strict_json(self, capsys, tmp_path):
        state = {
            "N": 3,
            "M": 2,
            "A": [[1e200, 2e200, 1.0], [1.0, 3e200, 1.0]],
            "B": [[1e200, 1.0, 5e200], [1.0, 1.0, 1e200]],
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        code = main(["curve", "--N", "3", "--M", "2", "--numeric", str(path)])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 0
        assert report["values"]["q_1"] == pytest.approx(-6e200)
        assert report["values"]["q_12"] is None

    def test_numeric_torus_mismatch(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"N": 3, "M": 1, "A": [[1, 1, 1]], "B": [[1, 1, 1]]}))
        code, report, err = run_cli(
            capsys, "curve", "--N", "3", "--M", "2", "--numeric", str(path)
        )
        assert code == 2
        assert report is None
        assert "torus" in err


class TestStateFile:
    GOOD = {"N": 3, "M": 2, "t": 0.0, "A": [[1.0] * 3] * 2, "B": [[1.0] * 3] * 2}

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("N", [3], "N must be an integer, got [3]"),
            ("N", 3.9, "N must be an integer, got 3.9"),
            ("M", True, "M must be an integer, got True"),
            ("t", "nan", "t must be a finite number, got 'nan'"),
            ("A", [["1.5", 1.0, 1.0], [1.0] * 3], "A entries must be numbers, got '1.5'"),
            ("A", [[1.0, True, 1.0], [1.0] * 3], "A entries must be numbers, got True"),
            ("B", [[1.0] * 3, [1.0, 1.0, None]], "B entries must be numbers, got None"),
        ],
    )
    def test_bad_field_is_a_config_error_naming_the_file(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**self.GOOD, field: value}))
        code, report, err = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--T", "0.01", "--state", str(path))
        assert code == 2
        assert report is None
        assert err == f"error: state file {path}: {message}\n"

    def test_too_deeply_nested_file_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"N": 3, "M": 2, "A": ' + "[" * 100_000 + "]" * 100_000 + ', "B": []}')
        code, report, err = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--state", str(path))
        assert code == 2
        assert report is None
        assert err.startswith(f"error: state file {path} is not valid JSON: maximum recursion depth")

    OPTIONS = [("flow", "--state"), ("curve", "--numeric")]

    @pytest.mark.parametrize("command,option", OPTIONS)
    def test_directory_is_a_config_error_naming_it(self, capsys, tmp_path, command, option):
        code, report, err = run_cli(capsys, command, "--N", "3", "--M", "2", option, str(tmp_path))
        assert (code, report) == (2, None)
        assert err == f"error: cannot read state file {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command,option", OPTIONS)
    def test_non_utf8_file_is_a_config_error_naming_it(self, capsys, tmp_path, command, option):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe")
        code, report, err = run_cli(capsys, command, "--N", "3", "--M", "2", option, str(path))
        assert (code, report) == (2, None)
        assert err.startswith(f"error: state file {path} is not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_good_file_runs(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**self.GOOD, "t": 2}))
        code, report, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--T", "0.01", "--state", str(path))
        assert code == 0
        assert report["state_final"]["t"] == pytest.approx(2.01)


class TestOutPath:
    """An unwritable --out is a configuration error: exit 2, one line, no traceback."""

    def test_directory(self, capsys, tmp_path):
        code, report, err = run_cli(capsys, "curve", "--N", "3", "--M", "1", "--out", str(tmp_path))
        assert (code, report) == (2, None)
        assert err == f"error: cannot write report to {tmp_path}: Is a directory\n"

    def test_path_under_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, report, err = run_cli(capsys, "curve", "--N", "3", "--M", "1", "--out", str(path))
        assert (code, report) == (2, None)
        assert err == f"error: cannot write report to {path}: No such file or directory\n"
        assert not path.parent.exists()


class TestFlow:
    FAST = ("--dt", "1e-3", "--T", "0.05")

    def test_defaults_report(self, capsys):
        code, report, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--seed", "9", *self.FAST)
        assert code == 0
        assert report["degree"] == 1
        assert report["steps"] == 50
        assert report["within_tolerance"] is True
        assert sorted(report["drift"]) == sorted(
            f"q_{d}" for d in (1, 2, 3, 4, 6, 7, 9, 12)
        )
        assert report["max_drift"] <= 1e-6
        assert "trajectory" not in report
        assert report["state_final"]["N"] == 3
        assert report["state_initial"]["t"] == 0.0

    @pytest.mark.parametrize(
        "option,value",
        [("--T", "inf"), ("--dt", "nan"), ("--T", "nan"), ("--drift-tolerance", "nan"), ("--dt", "inf")],
    )
    def test_non_finite_option_is_a_config_error(self, capsys, option, value):
        code, report, err = run_cli(capsys, "flow", "--N", "3", "--M", "2", option, value)
        assert code == 2
        assert report is None
        assert err == f"error: {option} must be a finite number, got {value}\n"

    def test_record_every(self, capsys):
        code, report, _ = run_cli(
            capsys, "flow", "--N", "3", "--M", "2", *self.FAST, "--record-every", "10"
        )
        assert code == 0
        # step 0 plus steps 10,20,30,40,50
        assert len(report["trajectory"]) == 6
        assert report["trajectory"][0]["t"] == 0.0
        assert report["trajectory"][-1]["t"] == pytest.approx(0.05)

    def test_state_file_roundtrip(self, capsys, tmp_path):
        code, first, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--seed", "3", *self.FAST)
        assert code == 0
        path = tmp_path / "state.json"
        path.write_text(json.dumps(first["state_final"]))
        code, second, _ = run_cli(
            capsys, "flow", "--N", "3", "--M", "2", "--state", str(path), *self.FAST
        )
        assert code == 0
        assert second["state_initial"] == first["state_final"]
        assert second["state_final"]["t"] == pytest.approx(0.10)

    def test_seed_determines_initial_state(self, capsys):
        _, a, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--seed", "1", *self.FAST)
        _, b, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--seed", "1", *self.FAST)
        _, c, _ = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--seed", "2", *self.FAST)
        assert a == b
        assert c["state_initial"] != a["state_initial"]

    def test_degree_not_in_ledger(self, capsys):
        code, report, err = run_cli(capsys, "flow", "--N", "3", "--M", "2", "--degree", "5")
        assert code == 2
        assert report is None
        assert "ledger" in err

    def test_blowup_is_a_failed_run(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dkp.cli", "flow", "--N", "4", "--M", "3",
             "--degree", "5", "--seed", "7"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["blowup"]["step"] == 45
        assert report["steps"] == 44
        assert report["blowup"]["t"] == pytest.approx(0.045)
        assert report["state_final"]["t"] == pytest.approx(0.044)
        assert report["within_tolerance"] is False

    def test_blowup_report_is_strict_json(self, capsys):
        code = main(["flow", "--N", "4", "--M", "3", "--degree", "5", "--seed", "7"])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 1
        assert report["blowup"]["step"] == 45
        assert report["drift"]["q_24"] is None
        assert report["max_drift"] is None

    def test_tolerance_failure_exits_1(self, capsys):
        code, report, _ = run_cli(
            capsys, "flow", "--N", "3", "--M", "2", *self.FAST,
            "--drift-tolerance", "1e-18",
        )
        assert code == 1
        assert report["within_tolerance"] is False


class TestPipes:
    def test_bijection_counts(self, capsys):
        code, report, _ = run_cli(capsys, "pipes", "--N", "3", "--M", "2")
        assert code == 0
        per_degree = report["bijection"]["per_degree"]
        assert {d: v["diagrams"] for d, v in per_degree.items()} == {
            "1": 6, "2": 3, "3": 2, "4": 3, "5": 0, "6": 1,
        }
        assert all(v["monomials"] == v["diagrams"] for v in per_degree.values())
        assert report["bijection"]["ok"] is True
        assert report["bijection"]["total_diagrams"] == 15

    def test_degree_listing(self, capsys):
        code, report, _ = run_cli(capsys, "pipes", "--N", "3", "--M", "2", "--degree", "6")
        assert code == 0
        assert report["degree"] == 6
        assert len(report["diagrams"]) == 1
        sites = report["diagrams"][0]["sites"]
        assert len(sites) == 6
        assert all(v == ["horizontal"] for v in sites.values())

    def test_pairings_flag(self, capsys):
        code, report, _ = run_cli(capsys, "pipes", "--N", "3", "--M", "2", "--pairings")
        assert code == 0
        assert report["pairings"]["pairs"] == 289
        assert report["pairings"]["failures"] == []
        assert report["pairings"]["ok"] is True

    def test_sum_zero_flag(self, capsys):
        code, report, _ = run_cli(capsys, "pipes", "--N", "3", "--M", "2", "--sum-zero")
        assert code == 0
        assert report["sum_zero"]["ok"] is True
        # unordered degree pairs 0..6
        assert len(report["sum_zero"]["pairs"]) == 28
        assert all(r["ok"] for r in report["sum_zero"]["pairs"])

    def test_degree_out_of_range(self, capsys):
        code, report, err = run_cli(capsys, "pipes", "--N", "3", "--M", "2", "--degree", "99")
        assert code == 2
        assert report is None
        assert "degree" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("check", "--N", "3", "--M", "1", "--suite", "all")
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        main(["curve", "--N", "3", "--M", "1"])
        stdout_text = capsys.readouterr().out
        path = tmp_path / "report.json"
        main(["curve", "--N", "3", "--M", "1", "--out", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path.read_text() == stdout_text

    def test_seed_in_envelope(self, capsys):
        _, report, _ = run_cli(capsys, "pipes", "--N", "3", "--M", "1", "--seed", "77")
        assert report["seed"] == 77


class TestArgparseSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"dkp {__version__}" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--N", "3", "--M", "2", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_missing_torus_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--N", "3"])
        assert exc.value.code == 2


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "dkp.cli", "check", "--N", "3", "--M", "1", "--suite", "qlink"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for key in ENVELOPE:
        assert key in report
    assert report["command"] == "check"
    assert report["ok"] is True
    assert proc.stderr.strip().endswith("0 failures")


def test_check_and_curve_do_not_import_numpy(tmp_path):
    # only flow, pipes and curve --numeric use the numpy layers
    script = (
        "import sys\n"
        "from dkp.cli import main\n"
        f"assert main(['check', '--N', '3', '--M', '2', '--out', {str(tmp_path / 'check.json')!r}]) == 0\n"
        f"assert main(['curve', '--N', '3', '--M', '2', '--out', {str(tmp_path / 'curve.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _python(args: list[str], openblas: str | None) -> str:
    """stdout of python run with args in a fresh interpreter, with
    OPENBLAS_NUM_THREADS set to openblas, or removed from the environment
    when openblas is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBlasPin:
    """The CLI starts numpy with one OpenBLAS thread unless the caller set
    OPENBLAS_NUM_THREADS; importing the library changes no environment."""

    def _after_main(self, tmp_path, argv: list[str], openblas: str | None, then: str) -> str:
        script = (
            "import os\n"
            "from dkp.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'report.json')]!r}) == 0\n"
            f"print({then})\n"
        )
        return _python(["-c", script], openblas).strip()

    PIPES = ["pipes", "--N", "3", "--M", "2"]
    FLOW = ["flow", "--N", "3", "--M", "2", "--T", "0.01"]

    def test_cli_sets_one_thread(self, tmp_path):
        got = self._after_main(tmp_path, self.PIPES, None, "os.environ.get('OPENBLAS_NUM_THREADS')")
        assert got == "1"

    def test_explicit_setting_wins(self, tmp_path):
        got = self._after_main(tmp_path, self.PIPES, "2", "os.environ.get('OPENBLAS_NUM_THREADS')")
        assert got == "2"

    def test_library_import_leaves_the_environment(self):
        script = (
            "import os, sys\n"
            "import dkp.flows\n"
            "print('dkp.cli' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        assert _python(["-c", script], None).strip() == "False None"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
        reason="reads /proc/self/status; with one CPU OpenBLAS starts no pool anyway",
    )
    def test_flow_runs_on_one_thread(self, tmp_path):
        threads = (
            "[line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('Threads:')][0]"
        )
        assert self._after_main(tmp_path, self.FLOW, None, threads) == "1"

    @pytest.mark.parametrize("N,M", [(4, 3), (5, 4)])
    def test_flow_report_bytes_do_not_depend_on_blas_threads(self, N, M):
        argv = ["-m", "dkp.cli", "flow", "--N", str(N), "--M", str(M)]
        assert _python(argv, None) == _python(argv, "2")
