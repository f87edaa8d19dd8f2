"""Command-line behavior: exact output bytes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from lexext.cli import main

LEX56_EDGELIST = "5 6\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_interior_cell_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--m", "6", "--r", "3")
        assert code == 0
        report = json.loads(out)
        assert report["alpha_upper"] == 3
        assert report["k"] == 2 and report["p_k"] == 2
        assert report["s"] == 3 and report["t"] == 1
        assert report["bounds"] == [{"r": 3, "ir_upper_lex": 1, "ir_upper_erdos": 1}]

    def test_edgeless_cell(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--m", "0", "--r", "3")
        assert code == 0
        report = json.loads(out)
        assert report["alpha_upper"] == 5
        assert report["k"] is None and report["s"] is None
        assert report["s_relation"] is None
        assert report["bounds"][0]["ir_upper_lex"] == 10

    def test_complete_cell(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--m", "10", "--r", "3")
        assert code == 0
        report = json.loads(out)
        assert report["alpha_upper"] == 1
        assert report["bounds"][0]["ir_upper_lex"] == 0
        assert report["s"] is None and report["t"] is None

    def test_r_lists_combine(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "6", "--m", "5", "--r", "4,2", "--r", "3"
        )
        assert code == 0
        assert [b["r"] for b in json.loads(out)["bounds"]] == [2, 3, 4]

    def test_default_is_all_r(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "6", "--m", "5")
        assert code == 0
        assert [b["r"] for b in json.loads(out)["bounds"]] == [2, 3, 4, 5, 6]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "5", "--m", "6", "--r", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,k,p_k,s,t,alpha_upper,s_relation,r,ir_upper_lex,ir_upper_erdos"
        assert lines[1] == "5,6,2,2,3,1,3,S_EQUALS_ALPHA_U,3,1,1"
        _, out, _ = run(capsys, "bound", "--n", "5", "--m", "10", "--r", "3", "--format", "csv")
        assert out.splitlines()[1] == "5,10,4,1,-,-,1,-,3,0,0"
        # no sizes to bound at n=1: the header alone, all eleven columns
        _, out, _ = run(capsys, "bound", "--n", "1", "--m", "0", "--format", "csv")
        assert out == lines[0] + "\n"

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "5", "--m", "11", "--r", "3")
        assert code == 1
        assert "C(n,2)" in err

    def test_conflicting_flags_exit_two(self, capsys):
        code, _, _ = run(capsys, "bound", "--n", "5", "--m", "6", "--r", "3", "--all-r")
        assert code == 2

    def test_missing_required_exit_two(self, capsys):
        code, _, _ = run(capsys, "bound", "--n", "5")
        assert code == 2


class TestLex:
    def test_edgelist_exact_bytes(self, capsys):
        code, out, _ = run(capsys, "lex", "--n", "5", "--m", "6")
        assert code == 0
        assert out == LEX56_EDGELIST

    def test_edgeless(self, capsys):
        code, out, _ = run(capsys, "lex", "--n", "3", "--m", "0")
        assert code == 0
        assert out == "3 0\n"

    def test_graph6(self, capsys):
        code, out, _ = run(capsys, "lex", "--n", "4", "--m", "6", "--format", "graph6")
        assert code == 0
        assert out == "C~\n"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "lex", "--n", "3", "--m", "1", "--format", "dot")
        assert code == 0
        assert "1 -- 2;" in out

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "lex", "--n", "4", "--m", "7")
        assert code == 1
        assert err.startswith("error:")


class TestCount:
    def test_profile_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(LEX56_EDGELIST))
        code, out, _ = run(capsys, "count", "--profile")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 5,
            "m": 6,
            "alpha": 3,
            "profile": [1, 5, 4, 1, 0, 0],
            "total": 11,
        }

    def test_single_size_graph6(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("C~\n"))
        code, out, _ = run(capsys, "count", "--format", "graph6", "--r", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["i_r"] == 0
        assert payload["r"] == 2
        assert payload["alpha"] == 1

    def test_edgeless_profile(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("4 0\n"))
        code, out, _ = run(capsys, "count")
        assert code == 0
        assert json.loads(out)["profile"] == [1, 4, 6, 4, 1]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        path.write_text(LEX56_EDGELIST, encoding="ascii")
        code, out, _ = run(capsys, "count", "--input", str(path))
        assert code == 0
        assert json.loads(out)["alpha"] == 3

    def test_parse_error_reports_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("3 1\n9 9\n"))
        code, _, err = run(capsys, "count")
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", "--input", str(tmp_path / "absent.el"))
        assert code == 1
        assert "cannot read" in err

    def test_order_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("63 0\n"))
        code, _, err = run(capsys, "count")
        assert code == 1
        assert "62" in err

    def test_r_out_of_range(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("4 0\n"))
        code, _, err = run(capsys, "count", "--r", "9")
        assert code == 1

    def test_conflicting_flags(self, capsys):
        code, _, _ = run(capsys, "count", "--r", "2", "--profile")
        assert code == 2


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--r-max", "3")
        assert code == 0
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["kind"] == "summary"
        assert records[-1]["failures"] == 0
        certs = [r for r in records if r["kind"] in ("alpha", "ir", "total")]
        assert len(certs) == 24
        assert all(c["ok"] for c in certs)

    def test_jobs_output_identical(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--n-max", "4", "--r-max", "3")
        code2, out2, _ = run(
            capsys, "verify", "--n-max", "4", "--r-max", "3", "--jobs", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_strict_budget_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "3", "--budget", "2", "--strict"
        )
        assert code == 3
        records = [json.loads(line) for line in out.splitlines()]
        assert any(r["kind"] == "skipped" for r in records)
        assert records[-1]["cells_skipped"] > 0

    def test_budget_without_strict_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--budget", "2")
        assert code == 0

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXEXT_BUDGET", "2")
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--strict")
        assert code == 3

    def test_flag_beats_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXEXT_BUDGET", "2")
        code, _, _ = run(capsys, "verify", "--n-max", "3", "--budget", "100", "--strict")
        assert code == 0

    def test_invalid_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXEXT_BUDGET", "lots")
        code, _, err = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        assert "LEXEXT_BUDGET" in err

    def test_bad_jobs(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "3", "--jobs", "0")
        assert code == 1


class TestTable:
    def test_pinned_table(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "5", "--r", "3")
        assert code == 0
        assert out.splitlines() == [
            "m,k,p_k,s,t,alpha_upper,ir_upper",
            "0,-,-,-,-,5,10",
            "1,1,1,4,3,4,7",
            "2,1,2,4,2,4,5",
            "3,1,3,4,1,4,4",
            "4,1,4,3,3,4,4",
            "5,2,1,3,2,3,2",
            "6,2,2,3,1,3,1",
            "7,2,3,2,2,3,1",
            "8,3,1,2,1,2,0",
            "9,3,2,1,1,2,0",
            "10,4,1,-,-,1,0",
        ]

    def test_json_variant(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "5", "--r", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 11
        assert rows[0] == {
            "m": 0,
            "k": None,
            "p_k": None,
            "s": None,
            "t": None,
            "alpha_upper": 5,
            "ir_upper": 10,
        }
        assert rows[6]["ir_upper"] == 1

    def test_r_out_of_range(self, capsys):
        code, _, _ = run(capsys, "table", "--n", "5", "--r", "7")
        assert code == 1

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table", "--n", "7", "--r", "4")
        _, out2, _ = run(capsys, "table", "--n", "7", "--r", "4")
        assert out1 == out2


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_non_integer_flag(self, capsys):
        assert run(capsys, "lex", "--n", "five", "--m", "0")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestInstalledEntryPoint:
    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "lexext.cli", "lex", "--n", "5", "--m", "6"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout == LEX56_EDGELIST

    def test_console_script_usage_error(self):
        out = subprocess.run(
            [sys.executable, "-m", "lexext.cli"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 2
