"""Command-line behavior: values, exit codes, report formats, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qbern
import qbern.cli as cli
import qbern.exactnum as exactnum
import qbern.qcore as qcore
import qbern.series as series
import qbern.suites as suites
import qbern.symmetry as symmetry
from qbern.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_qbern_value(self, capsys):
        code, out, _ = run(capsys, "compute", "qbern", "--n", "2", "--q", "2/1")
        assert code == 0
        assert out == "2/21\n"

    def test_stirling(self, capsys):
        code, out, _ = run(capsys, "compute", "stirling", "--n", "4", "--m", "2")
        assert code == 0
        assert out == "11\n"

    def test_qpoly(self, capsys):
        code, out, _ = run(
            capsys, "compute", "qpoly", "--n", "1", "--x", "1/1", "--q", "2/1"
        )
        assert code == 0
        assert out == "1/3\n"

    def test_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "compute", "degenerate",
            "--n", "2", "--x", "0/1", "--lambda", "1/1", "--q", "2/1",
        )
        assert code == 0
        assert out == "3/7\n"

    def test_kernel(self, capsys):
        code, out, _ = run(
            capsys, "compute", "kernel",
            "--weights", "2", "--i", "0", "--t", "0", "--q", "3/1",
        )
        assert code == 0
        assert out == "4/1\n"

    def test_classical_number_and_poly(self, capsys):
        code, out, _ = run(capsys, "compute", "classical", "--n", "4")
        assert (code, out) == (0, "-1/30\n")
        code, out, _ = run(capsys, "compute", "classical", "--n", "2", "--x", "1/1")
        assert (code, out) == (0, "1/6\n")

    def test_series_variants(self, capsys):
        code, out, _ = run(
            capsys, "compute", "series", "--n", "1", "--x", "0/1", "--lambda", "3/1"
        )
        assert (code, out) == (0, "-1/2\n")   # log-form family default
        code, out, _ = run(
            capsys, "compute", "series", "--n", "1", "--x", "0/1", "--lambda", "3/1",
            "--variant", "carlitz",
        )
        assert (code, out) == (0, "1/1\n")    # (lam - 1)/2 at lam = 3

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "qbern", "--n", "2", "--q", "2/1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "2/21"
        assert doc["params"]["q"] == "2/1"


class TestValuesPastTheDigitLimit:
    """Exact values of more than CPython's default 4300 digits still print, with exit 0."""

    REPROS = [
        (("compute", "stirling", "--n", "1700", "--m", "1"),
         lambda: str(exactnum.stirling1(1700, 1))),
        (("compute", "qbern", "--n", "40", "--q", "100000000000000000000"),
         lambda: exactnum.rat_str(qbern.carlitz_numbers(40, qcore.QContext(10**20))[40])),
    ]

    @staticmethod
    def _lifted(render):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render()
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv,render", REPROS)
    def test_text_and_csv(self, capsys, argv, render):
        expected = self._lifted(render)
        assert len(expected) > 4300
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert list(csv.reader(io.StringIO(out)))[1][2] == expected

    @pytest.mark.parametrize("argv", [
        ("compute", "stirling", "--n", "1700", "--m", "1"),
        ("compute", "qbern", "--n", "2"),                     # usage error: --q is required
        ("compute", "qbern", "--n", "2", "--q", "2", "--out", "/nonexistent/dir/report"),
        ("compute", "qbern", "--bogus"),
    ])
    def test_main_leaves_the_callers_limit_as_it_found_it(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "qbern", "--q", "2/1")
        assert code == 2
        assert "--n" in err

    def test_bad_rational_is_usage_error(self, capsys):
        code = main(["compute", "qbern", "--n", "2", "--q", "zero"])
        assert code == 2

    def test_bad_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_invalid_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "qbern", "--n", "2", "--q", "1/1")
        assert code == 2
        assert "q" in err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["verify", "thm2", "--weights", "2,3", "--samples", "0"], "no checks"),
        (["verify", "thm2", "--weights", "2,3", "--m-max", "-1"], "no checks"),
        (["verify", "eq12", "--samples", "0"], "no checks"),
        (["verify", "stirling-mu1", "--n", "-1"], "no checks"),
        (["verify", "series-factor", "--order", "-1"], "order must be >= 0"),
        (["oracle", "carlitz", "--nmax", "1"], "nmax must be >= 2"),
        (["verify", "thm2", "--weights", "2,3", "--q", "3", "--samples", "0", "--m-max", "0"],
         "--q pins"),
        (["verify", "thm2", "--weights", "2,3", "--q", "3", "--m-max", "1", "--seed", "5"],
         "--q pins the single (q, lambda) point; --seed would draw them"),
        (["verify", "thm1", "--weights", "2,3", "--order", "-1"], "order must be >= 0"),
    ])
    def test_selection_without_evidence_is_usage_error(self, capsys, argv, message):
        # a run that checks nothing must not report a pass
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qbern: error:")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "eq12", "--samples", "2", "--p", "4", "--c", "0", "--variant", "carlitz"],
         "`verify eq12` does not use --p, --c, --variant"),
        (["compute", "stirling", "--n", "4", "--m", "2", "--q", "2"], "does not use --q"),
        (["verify", "thm1", "--weights", "1,2", "--m-max", "2"], "does not use --m-max"),
        (["oracle", "carlitz", "--n", "1", "--samples", "3"], "does not use --samples"),
        (["compute", "qbern", "--n", "2", "--q", "2", "--seed", "0"], "does not use --seed"),
        (["verify", "thm2", "--weights", "2,3", "--lambda", "1"], "--lambda pins a point only"),
        (["verify", "eq20", "--weights", "2,3", "--m", "1", "--m-max", "1"], "does not use --m"),
        (["verify", "eq12", "--p=4", "--samples", "2", "--seed=1", "--q=-3/2"],
         "`verify eq12` does not use --q, --p"),
        (["compute", "series", "--n", "2", "--x", "0", "--lambda", "1", "--order", "5"],
         "`compute series` does not use --order"),
        (["oracle", "carlitz", "--n", "2", "--lambda", "5"], "`oracle carlitz` does not use --lambda"),
        (["oracle", "carlitz", "--n", "1", "--lambda", "0"], "`oracle carlitz` does not use --lambda"),
        (["oracle", "mu1", "--n", "1", "--q", "1"], "`oracle mu1` does not use --q"),
        (["verify", "eq12", "--p"], "`verify eq12` does not use --p"),
        (["verify", "eq12", "--p", "--q", "3"], "`verify eq12` does not use --q, --p"),
        (["verify", "eq12", "--q", "-3/2"], "`verify eq12` does not use --q"),
    ])
    def test_flag_without_effect_is_usage_error(self, capsys, argv, message):
        # a flag the run would ignore must not pass silently
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qbern: error:")
        assert message in err

    @pytest.mark.parametrize("weights, message", [
        ("2,x", "expected comma-separated integers, got '2,x'"),
        ("0,3", "weights must be positive integers, got '0,3'"),
    ])
    def test_bad_weights_are_usage_errors(self, capsys, weights, message):
        code, out, err = run(capsys, "verify", "thm2", "--weights", weights)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("kind", ["thm2", "thm3", "eq20"])
    def test_inadmissible_x_is_usage_error(self, capsys, kind):
        # y = v x = 3/7 at W = 2 for sigma = (1, 2): W y is no integer
        code, out, err = run(capsys, "verify", kind, "--weights", "2,3", "--m-max", "1",
                             "--x", "1/7", "--q", "3")
        assert (code, out) == (2, "")
        assert err == "qbern: error: argument 3/7 is not admissible at base exponent 2\n"

    def test_kernel_base_exponent_error_names_b(self, capsys):
        # --b is the kernel's own base exponent, so the error must not speak of c
        code, out, err = run(capsys, "compute", "kernel", "--weights", "2,3", "--i", "0",
                             "--t", "0", "--q", "2", "--b", "0")
        assert (code, out) == (2, "")
        assert err == "qbern: error: kernel base exponent b must be a positive integer; got 0\n"

    def test_zero_division_is_a_fault_not_a_usage_error(self, monkeypatch):
        # no input reaches a ZeroDivisionError, so one raised inside a run is
        # a fault: it must surface as a traceback, never as exit 2
        def broken(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, "qlemma_suite", broken)
        with pytest.raises(ZeroDivisionError):
            main(["verify", "eq12"])

    @pytest.mark.parametrize("argv", [
        ["verify", "eq12", "--sam", "3"],
        ["compute", "degenerate", "--n", "2", "--x", "0", "--lam", "1", "--q", "2"],
        ["compute", "qbern", "--n", "2", "--q", "2", "junk"],
        ["verify", "eq12", "--p", "4", "junk"],
    ])
    def test_abbreviation_or_stray_token_is_usage_error(self, capsys, argv):
        # flags are spelled in full; a prefix is not expanded to another flag
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qbern: error:")

    @staticmethod
    def _env(unbuffered=""):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(qbern.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        return env

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run([sys.executable, "-m", "qbern"], capture_output=True,
                              text=True, env=self._env(), timeout=60)
        assert proc.returncode == 2
        assert "usage: qbern" in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("args", [
        ["compute", "qbern", "--n", "2", "--q", "2"],
        ["verify", "thm2", "--weights", "2,3", "--m-max", "1", "--format", "json"],  # > 8 KB
        ["verify", "thm2", "--weights", "2,3", "--m-max", "3", "--samples", "10",
         "--format", "csv"],                                       # 14 KB, written row by row
        ["verify", "thm2", "--weights", "2,3", "--m-max", "3", "--samples", "10",
         "--format", "csv", "--out", "/dev/full"],
        ["--help"],
        ["verify", "eq12", "--help"],
    ])
    def test_unwritable_stdout_is_usage_error(self, args, unbuffered):
        # a full device behind stdout fails like an unwritable --out, with one
        # error line and no traceback, whether stdout is buffered or not
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qbern", *args], stdout=full,
                                  stderr=subprocess.PIPE, text=True,
                                  env=self._env(unbuffered), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("qbern: error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("args", [
        ["verify", "eq12", "--samples", "2", "--p", "3"],     # rejected by qbern
        ["verify", "eq12", "--bogus"],
        ["verify", "eq12", "--samples", "x"],                 # rejected by argparse
    ])
    def test_usage_error_with_unwritable_stderr_exits_two(self, args, unbuffered):
        # when the error line cannot be written, the status still says usage error
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qbern", *args],
                                  stdout=subprocess.PIPE, stderr=full, text=True,
                                  env=self._env(unbuffered), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "verify", "eq12", "--samples", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("qbern: error:")
        assert not target.exists()

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        real = symmetry.thm2_expr

        def corrupted(view, m, x, lam, q):
            bump = 1 if view.sigma != tuple(range(1, view.base.n + 1)) else 0
            return real(view, m, x, lam, q) + bump

        monkeypatch.setattr(symmetry, "thm2_expr", corrupted)
        code, out, _ = run(
            capsys, "verify", "thm2", "--weights", "2,3", "--m-max", "1",
            "--samples", "1", "--seed", "3",
        )
        assert code == 1
        assert "verdict: fail" in out

    def test_fail_lines_name_their_cell(self, capsys, monkeypatch):
        real = symmetry.thm2_expr

        def corrupted(view, m, x, lam, q):
            return real(view, m, x, lam, q) + (1 if view.sigma == (2, 1) and m == 1 else 0)

        monkeypatch.setattr(symmetry, "thm2_expr", corrupted)
        code, out, _ = run(capsys, "verify", "thm2", "--weights", "2,3", "--m-max", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verify-thm2: 30 checks"
        fails = [json.loads(line[len("  fail: "):]) for line in lines[1:6]]
        for detail in fails:
            assert set(detail) == {"weights", "params", "counterexample"}
            assert detail["weights"] == [2, 3]
            assert set(detail["params"]) == {"m", "x", "q", "lambda"}
            assert detail["params"]["m"] == "1"
            assert detail["counterexample"]["sigma"] == [2, 1]
        cells = [(d["params"]["x"], d["params"]["q"], d["params"]["lambda"]) for d in fails]
        assert len(set(cells)) == 5
        assert lines[6:] == ["  (10 more failures left out)", "verdict: fail"]


class TestVerifySubcommands:
    def test_thm2_text_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm2", "--weights", "2,3", "--m-max", "2",
            "--samples", "2", "--seed", "7",
        )
        assert code == 0
        assert "verdict: pass" in out
        assert "checks" in out

    def test_eq20_fixed_point(self, capsys):
        code, out, _ = run(
            capsys, "verify", "eq20", "--weights", "1,2,3", "--m-max", "2",
            "--x", "1/1", "--q", "3/1", "--lambda", "1/2",
        )
        assert code == 0

    def test_thm1_order(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm1", "--weights", "1,2", "--order", "3",
            "--samples", "2", "--seed", "1",
        )
        assert code == 0

    @pytest.mark.parametrize("what", ["eq12", "eq16"])
    def test_qlemmas(self, capsys, what):
        code, out, _ = run(capsys, "verify", what, "--samples", "50", "--seed", "0")
        assert code == 0
        assert "verdict: pass" in out

    def test_series_factor(self, capsys):
        code, _, _ = run(
            capsys, "verify", "series-factor", "--order", "8", "--samples", "5"
        )
        assert code == 0

    def test_stirling_mu1(self, capsys):
        code, _, _ = run(
            capsys, "verify", "stirling-mu1", "--n", "5", "--samples", "3"
        )
        assert code == 0

    def test_missing_weights_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "thm2")
        assert code == 2
        assert "--weights" in err


class TestOracleSubcommand:
    def test_carlitz_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "carlitz", "--n", "1")
        assert code == 0
        assert "monotone: true" in out
        assert "N=5" in out

    def test_mu1_with_lambda(self, capsys):
        code, out, _ = run(capsys, "oracle", "mu1", "--n", "2", "--lambda", "1/1")
        assert code == 0

    def test_degenerate_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "degenerate", "--n", "2", "--lambda", "5/1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["monotone"] is True
        assert len(doc["rows"]) == 5

    def test_invalid_prime_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "oracle", "carlitz", "--n", "1", "--p", "4")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "degenerate", "--n", "2", "--x", "7/2", "--lambda", "5"],
         "x0 must be a nonnegative integer, got 7/2"),
    ])
    def test_rejected_point_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"qbern: error: {message}\n"


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main([
            "verify", "eq12", "--samples", "10", "--seed", "2",
            "--format", "json", "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["verdict"] == "pass"

    def test_csv_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["verify", "thm2", "--weights", "2,3", "--m-max", "3", "--samples", "10",
                "--format", "csv"]
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    def test_json_byte_determinism(self, capsys):
        argv = [
            "verify", "thm2", "--weights", "2,3", "--m-max", "2",
            "--samples", "3", "--seed", "11", "--format", "json",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm2", "--weights", "1,2", "--m-max", "1",
            "--x", "1/1", "--samples", "1", "--seed", "0", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "suite"
        # 2 degrees x 2 permutations + header
        assert len(rows) == 5

    def test_oracle_csv(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "carlitz", "--n", "1", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(
            ("family", "p", "q", "lambda", "n", "x0", "N", "valuation", "monotone")
        )
        assert len(rows) == 6

    def test_symmetry_csv_one_row_per_sigma(self, capsys):
        code, out, _ = run(
            capsys, "verify", "eq20", "--weights", "1,2", "--m-max", "1", "--x", "0",
            "--q", "2", "--lambda", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        # 2 degrees x 2 permutations
        assert len(rows) == 4
        assert all(row[0] == "eq20" for row in rows)

    def test_oracle_csv_rows_per_level(self, capsys):
        code, out, _ = run(capsys, "oracle", "mu1", "--n", "1", "--nmax", "3", "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert len(rows) == 3
        assert header[-1] == "monotone"

    @pytest.mark.parametrize("argv", [
        ["eq12", "--samples", "4", "--seed", "2"],
        ["eq16", "--samples", "4", "--seed", "2"],
        ["series-factor", "--order", "3", "--samples", "2"],
        ["stirling-mu1", "--n", "2", "--samples", "2"],
    ], ids=lambda argv: argv[0])
    def test_flat_suite_csv_is_its_json_items(self, capsys, argv):
        # header: suite, then the item's keys; one row per item, None as an empty field
        _, out, _ = run(capsys, "verify", *argv, "--format", "json")
        items = json.loads(out)["items"]          # keys sorted, as the JSON report writes them
        code, out, _ = run(capsys, "verify", *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] == "suite"
        assert sorted(header[1:]) == sorted(items[0])
        assert rows == [[argv[0], *("" if item[key] is None else str(item[key])
                                    for key in header[1:])] for item in items]


def _corrupt_thm2(monkeypatch):
    real = symmetry.thm2_expr
    monkeypatch.setattr(symmetry, "thm2_expr", lambda view, m, x, lam, q: real(view, m, x, lam, q)
                        + (1 if view.sigma == (2, 1) and m == 1 else 0))


def _corrupt_eq12(monkeypatch):
    real = qcore.qnum_scale_split

    def corrupted(z, c, ctx):
        lhs, rhs = real(z, c, ctx)
        return lhs, rhs + (1 if c == 2 else 0)

    monkeypatch.setattr(qcore, "qnum_scale_split", corrupted)


def _corrupt_series_factor(monkeypatch):
    real = series.carlitz_series
    monkeypatch.setattr(series, "carlitz_series",
                        lambda x, lam, order: real(x + 1 if x > 0 else x, lam, order))


def _corrupt_stirling(monkeypatch):
    real = exactnum.stirling1
    monkeypatch.setattr(exactnum, "stirling1", lambda n, m: -real(n, m) if n > m else real(n, m))


# (argv, corruption or None, {format: SHA-256 of stdout}) at small sizes: every verify kind
# and oracle family, two compute values, a failing run of each suite family, and an oracle
# whose rows are all inf
_REPORT_PINS = [
    ("compute degenerate --n 2 --x 0 --lambda 1 --q 2", None, {
        "text": "466ba73030d773db98547c0d817e5b8defc68020ec4b1e43e9009652cbd8a9d1",
        "json": "d9381b87685430cf0e9e65b89ade49e14b16cb3e32ca96be30dd4fdcafd0436c",
        "csv": "0b1ada7f0c4f9529a8a6e8c92814ea2fe7b55b9aa35bb2b883f3fbf3ca78d935"}),
    ("compute kernel --weights 2,3 --i 1 --t 0 --q 3", None, {
        "text": "d84e6f3e2b64bb0e414263e03a57e08449d6019b0cbd9f057af3fced2af3d467",
        "json": "b8e680f3885618f113951d4bc8f5ee9f2626fbb2d0e54b9e81c6c6f4e9d4cf96",
        "csv": "5e4c740eb0c2716a21acb1836d78627c688e3c768185e0fd800de51b74f6ea20"}),
    ("verify thm1 --weights 1,2 --order 2 --samples 2 --seed 1", None, {
        "text": "9ae4a04e595c223f1df8391ac4dfb33833fee8f6916ac645697031a062c38245",
        "json": "8ecd60dc2fb8316e9cf12f17e634be33d17710e60009ecdee39f02c80cf35578",
        "csv": "08d2bbbb65e4b01ebb86427216716c5fdf51fbf5c46aa488bb4de9fbbf1f87f5"}),
    ("verify thm2 --weights 1,2 --m-max 2 --samples 2 --seed 7", None, {
        "text": "57f39f7527751c34f2f56e0344f74b430de703729ea8833c2bd9c491d2f9dfb4",
        "json": "63ed81d4eba517aa48c9c8bef7183e825b18399fd55f31bc0e590e72e0063624",
        "csv": "1dc453360bd30badfeb30d2b999012af51f5fb3e25fd0cd8fa6a35fc496facc1"}),
    ("verify thm3 --weights 2,3 --m-max 1 --x 1 --samples 1 --seed 3", None, {
        "text": "5cbebcf7dd3468609e5a1a81a14e89b6b53e58ce2faf48ab71ef38c5f93fed8c",
        "json": "a53dafa3285762e23670b4d83cd861d27da10cbda35c9895759a9aff3a6a55e2",
        "csv": "f35ba49af68f037639add2868f5a5a33bb0d38aaf5c29f726bc8b93de608d000"}),
    ("verify eq20 --weights 1,2 --m-max 1 --x 2 --q 3 --lambda 1/2", None, {
        "text": "d91af2b8710701783537989d12942ae9be967307ffec4d7d5eb68c980cba0961",
        "json": "8504bf13ad633cdb434c917461c4d4716fc7319a32b6761e8a80f7e83c59e42e",
        "csv": "e43f77ed410d0e30dff4adf016de9349e86f3745ea2daea703b26552876812f8"}),
    ("verify eq12 --samples 5 --seed 2", None, {
        "text": "2ba0e98514427b868a10772c1a3cb0597e0190e237bfe36c5fec183dc9bdcd21",
        "json": "a28d63624a4c553093c3431e02f67bd739851f7d243452a281e9236e27da1f08",
        "csv": "2247cca1f1c8d6eaa2c222295380d363eeda422c96120a9d809f4e72276fb923"}),
    ("verify eq16 --samples 5 --seed 2", None, {
        "text": "43afa8819f435973207d7d765b5716cf94092df617df99f50a789aed1eecb624",
        "json": "1342572d8a0acde3bf4e728ef36d0367a060148410596106b5edb43d72d17c11",
        "csv": "264a3c9170bfd424a88c2e00683992164ce990106b725f58abf45b90ecde90a2"}),
    ("verify series-factor --order 4 --samples 3 --seed 1", None, {
        "text": "42e3e17f5a1e9b5cb0f654b6f4d27b5fa7c84384f41e0953038c7e214a51fe37",
        "json": "0fee58def7c5a6c73fb16fd719a827cb9445873c17f4c8d944cb49fec147d8fa",
        "csv": "58dace9fa715f25eb24b24ee618c3a66c3ab16857e53b29a2ae2597d395cfcda"}),
    ("verify stirling-mu1 --n 3 --samples 2 --seed 1", None, {
        "text": "df534f001c65ae0c4159e25060fcd0ee7d47cdc2a35889109626ee639fc242e3",
        "json": "1411650b73c15a24c156202d6cdaf95ba3a89bb97513da54d43ede94fbc74d45",
        "csv": "3adb6fec39e92e40c144b6a8522966ce5d42ac7ac610170cc92eb07bb8d76f13"}),
    ("oracle carlitz --n 0", None, {
        "text": "35bde67f97eced308856e57e2b2df58205cbf865d0ed6273b7b84b98e402f541",
        "json": "96058991b51f24348348155f0652bd683928f69e567b2213f2119af970b0e852",
        "csv": "aa8fee8f882238729cd7cd743256b3bc72ce62cf529fa187ab3c321202f1aa94"}),
    ("oracle degenerate --n 2 --lambda 5 --nmax 3", None, {
        "text": "b95c76001dfe51a41f60d22679810568d7700d1c04ebf8c5761818f896142347",
        "json": "e3dc0d885a8c4f40fd08958b328fa5cd3608acc33046bfc45a1064f254366e2d",
        "csv": "23b92ca2249d44d3b9ed9c1369e05af4649d4f571b141f7f5fbc052e842a5e13"}),
    ("oracle degenerate --n 3 --lambda 1 --p 7 --nmax 7", None, {
        "text": "77e5aad5dd1f365ba7d79f647df6ec18a03c66cdba4b16b6bd9eca7e38e3a318"}),
    ("oracle mu1 --n 2 --lambda 1 --nmax 3", None, {
        "text": "7598e80e7d9b53ff6a34db767c63837236d20f5999ffc7300daa7beba6cbd17c",
        "json": "12043d23926201c19ea0a36c84a96407c12ffe39f15895cb441d5078e2313019",
        "csv": "96c4a6b0054b7f97ea8aa9036f408cc9982cf1ed1a6ad1d1a36e951ea46a2669"}),
    ("verify thm2 --weights 2,3 --m-max 1 --samples 2", _corrupt_thm2, {
        "text": "f331e7b66097577c3e62342aba54b41be49663d2a76d4fc84c50112a398744c7",
        "json": "bde8a03529f3fc43d5d1faeff8ab931db711377e07ccb0c252f9623f7e52b613",
        "csv": "b18a703f6bf91d8561d21b4ae1e89e75af835f56a8d7e020848410aa2529b2e2"}),
    ("verify eq12 --samples 6 --seed 2", _corrupt_eq12, {
        "text": "00204d09a1d22131a502da910eadca2affb14d5bf4ce41cf31c0fc8654440151",
        "json": "fc84af26707481a2a963485a25221763acb7060032c9639fbae452a6c673e1ae",
        "csv": "5d52a8db90d801c989be4479b9ea6b929b49e76b6879e3eff39f5261b41f39e0"}),
    ("verify series-factor --order 4 --samples 3 --seed 1", _corrupt_series_factor, {
        "text": "6be2c529a1a4f27347d9257a08769bd2b1ff8d5ff6b391564458c3616f700efa",
        "json": "a348ef6feaedf50814a9a8202f26c5c33ec9a5c1b7f99fe3fdfa5d3abe649158",
        "csv": "0402add9c8bac22b1a80cc046a5161131f43f5c9ba122d6a25b13cddc58904c6"}),
    ("verify stirling-mu1 --n 3 --samples 2 --seed 1", _corrupt_stirling, {
        "text": "847c06ef2af0b5651f042416375d58e8f7c1e791b5c6b0e2b2e203bd0b21b221",
        "json": "08e8bb99f56de3930c9e390f1b5716719ac82528290faa85b19940eb94e95cba",
        "csv": "dfe358a76c6b23efd981aa43cc4603e6826aae3e8d487fe316a97b0f6b975549"}),
]


@pytest.mark.parametrize("argv, corrupt, fmt, digest", [
    pytest.param(argv, corrupt, fmt, digest,
                 id=f"{argv} {fmt}" + (" corrupted" if corrupt else ""))
    for argv, corrupt, digests in _REPORT_PINS for fmt, digest in digests.items()
])
def test_report_bytes_are_pinned(capsys, monkeypatch, argv, corrupt, fmt, digest):
    # the same reports, byte for byte, whatever produces them
    if corrupt:
        corrupt(monkeypatch)
    code, out, _ = run(capsys, *argv.split(), "--format", fmt)
    assert code == (1 if corrupt else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parser_dests():
    """{(command, what): (shown dests, hidden dests)} for every leaf parser build_parser builds."""
    return {(command, what): ({a.dest for a in leaf._actions if a.help is not argparse.SUPPRESS},
                              {a.dest for a in leaf._actions if a.help is argparse.SUPPRESS})
            for command, sub in _subparsers(cli.build_parser()).items()
            for what, leaf in _subparsers(sub).items()}


_VALID = {"n": "2", "m": "1", "x": "0", "q": "2", "lam": "1", "weights": "2", "i": "1", "t": "0"}


class TestFlagTable:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_table_covers_exactly_the_parser(self):
        # a leaf shows the flags it reads and hides every other parameter flag,
        # which it takes only to refuse
        pairs = _parser_dests()
        assert set(cli._READS) == set(pairs)
        for key, reads in cli._READS.items():
            shown, hidden = pairs[key]
            assert shown == set(reads) | {"help", "fmt", "out"}, key
            assert hidden == set(cli._SPECS) - set(reads), key

    @pytest.mark.parametrize("key", [pytest.param(key, id=" ".join(key)) for key in cli._READS])
    def test_help_lists_exactly_the_flags_read(self, capsys, key):
        code, out, _ = run(capsys, *key, "--help")
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        assert listed == {cli._flag(dest) for dest in cli._READS[key]} | {"--help", "--format", "--out"}
        text = " ".join(out.split())                # help lines may wrap anywhere
        for dest, default in cli._READS[key].items():
            if default is not None and default is not cli.REQUIRED:
                assert f"(default {default})" in text

    @pytest.mark.parametrize("key, dest", [
        pytest.param(key, dest, id=f"{' '.join(key)} {cli._flag(dest)}")
        for key, reads in cli._READS.items()
        for dest, default in reads.items() if default is cli.REQUIRED
    ])
    def test_each_required_flag_is_required(self, capsys, key, dest):
        argv = list(key)
        for other, default in cli._READS[key].items():
            if default is cli.REQUIRED and other != dest:
                argv += [cli._flag(other), _VALID[other]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{cli._flag(dest)} is required" in err


def _readme_examples():
    """(argv, expected stdout) for each `$ qbern ...` line in README's sh blocks."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            if command.startswith("qbern "):
                expected = "".join(line + "\n" for line in shown)
                examples.append(pytest.param(shlex.split(command)[1:], expected, id=command))
    return examples


@pytest.mark.parametrize("argv, expected", _readme_examples())
def test_readme_example(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_readme_has_examples():
    assert len(_readme_examples()) >= 6


_INTS = st.integers(min_value=-2, max_value=3).map(str)
_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "6", "1/2", "-3/2", "5/3"])
_OPTIONS = {
    "--n": _INTS, "--m": _INTS, "--m-max": _INTS, "--order": _INTS,
    "--samples": _INTS, "--nmax": _INTS, "--i": _INTS, "--t": _INTS,
    "--b": _INTS, "--c": _INTS, "--seed": _INTS,
    "--p": st.sampled_from(["-1", "2", "3", "4", "5", "7"]),
    "--x": _RATIONALS, "--q": _RATIONALS, "--lambda": _RATIONALS,
    "--weights": st.sampled_from(["1", "2,3", "1,2,3", "2,2", "0", "x"]),
    "--variant": st.sampled_from(["carlitz", "kim"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
}
_WHATS = {command: [what for c, what in cli._READS if c == command]
          for command in ("compute", "verify", "oracle")}


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(_WHATS)))
    argv = [command, draw(st.sampled_from(_WHATS[command]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_OPTIONS)), unique=True, max_size=6)):
        argv.append(f"{flag}={draw(_OPTIONS[flag])}")   # "=" lets values start with "-"
    return argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(small_argv())
    def test_main_returns_a_documented_code(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
