"""Command-line behavior: values, exit codes, report formats, determinism."""

import argparse
import contextlib
import csv
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
    ])
    def test_flag_without_effect_is_usage_error(self, capsys, argv, message):
        # a flag the run would ignore must not pass silently
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qbern: error:")
        assert message in err

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

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(qbern.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qbern"], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "usage: qbern" in proc.stderr

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
        (["oracle", "carlitz", "--n", "2", "--lambda", "5"],
         "the carlitz family is the lam = 0 case; it takes no lambda"),
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


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parser_dests():
    """{(command, what): set of dests} for every leaf parser build_parser builds."""
    return {(command, what): {a.dest for a in leaf._actions}
            for command, sub in _subparsers(cli.build_parser()).items()
            for what, leaf in _subparsers(sub).items()}


_VALID = {"n": "2", "m": "1", "x": "0", "q": "2", "lam": "1", "weights": "2", "i": "1", "t": "0"}


class TestFlagTable:
    def test_table_covers_exactly_the_parser(self):
        pairs = _parser_dests()
        assert set(cli._READS) == set(pairs)
        for key, reads in cli._READS.items():
            assert pairs[key] == set(reads) | {"help", "fmt", "out"}, key

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
