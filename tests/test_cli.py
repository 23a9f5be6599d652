import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

from heatzeta.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_k4_counts(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "k4", "--order", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["q"] == 2
        assert payload["n"] == 4
        assert payload["vertex_transitive"] is True
        assert payload["N_k"][3] == 24
        assert payload["pi_k"][3] == 8
        assert payload["a_k"][2] == 3

    def test_tree_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "tree", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"] == "tree"
        assert payload["N_k0"][1:] == [0] * 10

    def test_tree_mode_needs_q(self, capsys):
        code, _, err = run(capsys, "analyze", "--graph", "tree")
        assert code == 2
        assert "q" in err

    def test_missing_graph(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "graph" in err

    def test_unknown_graph(self, capsys):
        code, _, err = run(capsys, "analyze", "--graph", "nosuchgraph")
        assert code == 2
        assert "not found" in err

    def test_cycle_family(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "c7", "--order", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 7
        assert payload["N_k"][7] == 14

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "analyze", "--graph", str(path), "--order", "4")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nhello\n")
        code, _, err = run(capsys, "analyze", "--graph", str(path))
        assert code == 2
        assert "error" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "--graph", "petersen", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["n"] == 10


class TestHeat:
    def test_graph_rows_with_cross_check(self, capsys):
        code, out, _ = run(capsys, "heat", "--graph", "k4", "--t", "0.5,1.0")
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 8
        for row in rows:
            assert float(row["cross_check_delta"]) <= 1e-7

    def test_tree_rows(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--t", "1.0", "--order", "4"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 5
        for row in rows:
            assert float(row["cross_check_delta"]) <= 1e-8
            assert 0.0 < float(row["value"]) < 1.0

    def test_tree_rows_at_larger_time(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "30", "--t", "5"
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert float(row["cross_check_delta"]) <= 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tree_cross_check_failure_is_invariant_failure(self, capsys):
        # no double-precision quadrature meets a 1e-16 error guard
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1",
            "--tol", "1e-16",
        )
        assert code == 3
        assert out == ""
        assert "error: t = 1.0, r = 0: integral cross-check failed" in err
        assert "Traceback" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "c5", "--t", "0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cross_check_delta,t,value,x"
        assert len(lines) == 6

    def test_bad_time_grid(self, capsys):
        code, _, err = run(capsys, "heat", "--graph", "k4", "--t", "0.5,zebra")
        assert code == 2
        assert "numeric" in err

    @pytest.mark.parametrize("t", ["inf", "nan", "-inf", "0.5,inf"])
    def test_non_finite_time_rejected(self, capsys, t):
        code, out, err = run(capsys, "heat", "--graph", "k4", f"--t={t}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: t must be finite")

    @pytest.mark.parametrize(
        "graph, t", [("k4", "1e6"), ("k4", "200"), ("petersen", "200")]
    )
    def test_series_overflow_is_input_error(self, capsys, graph, t):
        code, out, err = run(capsys, "heat", "--graph", graph, "--t", t)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: t = {float(t)}: the Bessel series overflows")

    def test_u_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--graph", "k4", "--u", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "heat", "--graph", "petersen", "--t", "0.3")
        _, second, _ = run(capsys, "heat", "--graph", "petersen", "--t", "0.3")
        assert first == second


class TestZeta:
    def test_k4_report(self, capsys):
        code, out, _ = run(capsys, "zeta", "--graph", "k4", "--order", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["N_m"][3] == 24
        assert payload["pi_m"][3] == 8
        assert payload["log_zeta_coefficients"][3] == "8"
        assert float(payload["max_discrepancy"]) <= 1e-6

    def test_petersen_report(self, capsys):
        code, out, _ = run(capsys, "zeta", "--graph", "petersen", "--order", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["N_m"][5] == 120
        assert payload["N_m"][1:5] == [0, 0, 0, 0]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "zeta", "--graph", "cube", "--order", "10")
        _, second, _ = run(capsys, "zeta", "--graph", "cube", "--order", "10")
        assert first == second

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "zeta", "--graph", "k4", "--order", "0")
        assert code == 2
        assert "order" in err


class TestVerify:
    def test_tree_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "tree", "--q", "2")
        assert code == 0
        assert "[pass]" in out
        assert "FAIL" not in out

    def test_single_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "k4")
        assert code == 0
        assert "FAIL" not in out

    def test_graph_file_refused(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out, err = run(capsys, "verify", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify runs on builtin graphs only")

    def test_bad_tolerance(self, capsys):
        code, _, err = run(capsys, "verify", "--tol", "-1")
        assert code == 2
        assert "tol" in err


def _run_script(command, *argv):
    """Run ``command`` with ``argv`` in a subprocess that inherits this environment."""
    return subprocess.run(
        [*command, *argv], capture_output=True, text=True, timeout=120
    )


class TestEntryPoint:
    def test_console_script_installed(self):
        # From a source checkout no executable exists, so check the declaration
        # in pyproject.toml and run what the generated wrapper runs:
        # ``sys.exit(main())`` with the command line in sys.argv.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "heatzeta" in scripts
        entry = EntryPoint("heatzeta", scripts["heatzeta"], "console_scripts")
        assert entry.load() is main

        wrapper = [
            sys.executable,
            "-c",
            "import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint('heatzeta', {entry.value!r}, "
            "'console_scripts').load()())",
        ]
        proc = _run_script(wrapper, "analyze", "--graph", "k4", "--order", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["N_k"][3] == 24
        proc = _run_script(wrapper)
        assert proc.returncode == 2, proc.stdout + proc.stderr

    @pytest.mark.skipif(
        not entry_points(group="console_scripts", name="heatzeta"),
        reason="heatzeta distribution not installed: no console script on PATH",
    )
    def test_console_script_on_path(self):
        executable = shutil.which("heatzeta")
        assert executable is not None
        proc = _run_script([executable], "analyze", "--graph", "k4", "--order", "3")
        assert proc.returncode == 0, proc.stderr

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
