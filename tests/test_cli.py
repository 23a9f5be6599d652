import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heatzeta
from heatzeta import bessel, cli, graphs, heat_graph, heat_tree, zeta
from heatzeta.cli import main
from strategies import regular_multigraphs
from test_graphs import column_loop
from test_heat_graph import chebyshev_error_bound, seeded_regular_edges

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCE_ROOT = str(Path(heatzeta.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=120):
    """``python *args`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def run_cli_process(*argv, timeout=120):
    """``python -m heatzeta.cli`` in a fresh interpreter that imports this checkout."""
    return run_python("-m", "heatzeta.cli", *argv, timeout=timeout)


UNPATCHED_TRAPEZOID = bessel._nested_trapezoid


def _unmet_trapezoid(integrand, rows, scale, tol, *rest):
    """bessel._nested_trapezoid at tol 1e-16, whatever it is asked: a guard that its
    rounding term, 50 eps int |f| dmu, exceeds, so the rule refuses."""
    return UNPATCHED_TRAPEZOID(integrand, rows, scale, 1e-16, *rest)


# main(sys.argv[1:]) in a fresh interpreter with the rule above patched in
UNMET_TRAPEZOID_MAIN = (
    "import sys\n"
    "from heatzeta import bessel\n"
    "from heatzeta.cli import main\n"
    "rule = bessel._nested_trapezoid\n"
    "bessel._nested_trapezoid = lambda f, rows, scale, tol, *rest: (\n"
    "    rule(f, rows, scale, 1e-16, *rest))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _exit(argv):
    """(exit code, stdout, stderr) of main(argv), which may raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refused(argv):
    code, out, err = _exit(argv)
    assert (code, out) == (2, ""), argv
    lines = err.splitlines()
    assert lines[0].startswith("usage: heatzeta") and lines[-1].startswith("heatzeta"), err
    return lines[-1]


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

    def test_tree_table_makes_one_evaluator_call(self, capsys, monkeypatch):
        # the five times' leads come from one grid call, and their terms from one more
        calls = []
        original = bessel.log_building_blocks
        monkeypatch.setattr(
            bessel, "log_building_blocks", lambda *args: calls.append(args) or original(*args)
        )
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "3", "--order", "30", "--t", "0.1,0.5,1,2,3"
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["rows"]) == 5 * 31
        assert [list(args[2]) for args in calls] == [[0.1, 0.5, 1.0, 2.0, 3.0]] * 2

    def test_tree_table_makes_one_integral_call(self, capsys, monkeypatch):
        # the five times' cross-check rows come from one grid call, on one node set
        calls, node_sets = [], []
        integrals, measure = heat_tree.tree_heat_kernel_integrals, heat_tree._tree_measure
        monkeypatch.setattr(
            heat_tree, "tree_heat_kernel_integrals",
            lambda *args: calls.append(args[1]) or integrals(*args),
        )
        monkeypatch.setattr(
            heat_tree, "_tree_measure", lambda *args: node_sets.append(args[5]) or measure(*args)
        )
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "3", "--order", "30", "--t", "0,0.1,0.5,1,2,3"
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 6 * 31
        assert calls == [[0.1, 0.5, 1.0, 2.0, 3.0]] and len(node_sets) == 1
        # t = 0 keeps no cross-check, every other row one
        assert [row["cross_check_delta"] is None for row in rows] == [True] * 31 + [False] * 5 * 31

    def test_graph_rows_make_one_chebyshev_call(self, capsys, monkeypatch):
        # the grid's cross-check rows come from one recursion and one evaluator call
        calls = []
        original = heat_graph.heat_kernel_chebyshev_row
        monkeypatch.setattr(
            heat_graph, "heat_kernel_chebyshev_row",
            lambda *args: calls.append(args[2]) or original(*args),
        )
        code, out, err = run(capsys, "heat", "--graph", "cube", "--t", "0.1,1.0,5.0")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["rows"]) == 3 * 8
        assert calls == [[0.1, 1.0, 5.0]]

    def test_tree_order_past_power_overflow(self, capsys):
        # q ** (r/2 - 1) leaves float range from r = 208 at q = 1000 (r = 2050 at q = 2)
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "1000", "--order", "210", "--t", "1"
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 211
        for row in rows:
            assert float(row["cross_check_delta"]) <= 1e-10

    def test_cycle_at_large_time(self, capsys):
        # each row meets the --tol it asks for, the default 1e-10 and 1e-12
        for tol, accuracy in (([], 1e-10), (["--tol", "1e-12"], 1e-12)):
            code, out, err = run(capsys, "heat", "--graph", "c5", "--t", "3000", *tol)
            assert (code, err) == (0, "")
            for row in json.loads(out)["rows"]:
                assert float(row["value"]) == pytest.approx(0.2, abs=accuracy)

    def test_cycle_at_huge_time(self, capsys):
        # the certified order is 9,356 at t = 1e6, not 2t
        code, out, err = run(capsys, "heat", "--graph", "c5", "--t", "1e6")
        assert (code, err) == (0, "")
        for row in json.loads(out)["rows"]:
            assert float(row["value"]) == pytest.approx(0.2, abs=1e-10)

    def test_tree_value_at_t_100_is_relative(self, capsys):
        # K(100, 0) is mostly cancellation in the paper's alternating series: its
        # positive form holds it to the --tol of 1e-10 relative
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "3", "--order", "2", "--t", "100"
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["rows"][0]
        assert float(row["value"]) == pytest.approx(1.92539109852715e-27, rel=1e-10, abs=0)
        assert float(row["tail_bound"]) <= 1e-10

    def test_tree_rows_at_larger_time(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "30", "--t", "5"
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert float(row["cross_check_delta"]) <= 1e-10

    def test_tree_tight_tol_prints_values(self, capsys):
        # the series meets --tol 1e-15; the integral's guard stays above its rounding term
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1",
            "--tol", "1e-15",
        )
        assert (code, err) == (0, "")
        for row in json.loads(out)["rows"]:
            assert float(row["cross_check_delta"]) <= 1e-15
            assert float(row["tail_bound"]) <= 1e-15

    def test_tree_cross_check_failure_is_invariant_failure(self, capsys, monkeypatch):
        # no double-precision quadrature meets a 1e-16 error guard
        monkeypatch.setattr(bessel, "_nested_trapezoid", _unmet_trapezoid)
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1",
        )
        assert code == 3
        assert out == ""
        assert "error: t = 1.0, r = 0: integral cross-check failed" in err
        assert "Traceback" not in err

    def test_tree_q_one_cross_check_failure_is_invariant_failure(self, capsys, monkeypatch):
        # the q = 1 integral route misses the same 1e-16 guard the same way
        monkeypatch.setattr(bessel, "_nested_trapezoid", _unmet_trapezoid)
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "1", "--order", "2", "--t", "1",
        )
        assert code == 3
        assert out == ""
        assert "error: t = 1.0, r = 0: integral cross-check failed" in err
        assert "Traceback" not in err

    def test_tree_grid_cross_check_failure_names_the_time(self, capsys, monkeypatch):
        # the grid's rows share one node set; the first row past the guard names its t
        monkeypatch.setattr(bessel, "_nested_trapezoid", _unmet_trapezoid)
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "0,1,0.5",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: t = 1.0, r = 0: integral cross-check failed (rounding error")
        assert len(err.splitlines()) == 1

    def test_tree_cross_check_failure_prints_one_line(self):
        # the trapezoid row's error guard decides, and its error: line is all of stderr
        proc = run_python(
            "-c", UNMET_TRAPEZOID_MAIN,
            "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_tree_at_huge_time_finishes(self):
        proc = run_cli_process(
            "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1e6", timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert [float(row["value"]) for row in rows] == [0.0, 0.0, 0.0]

    def test_tree_table_at_the_order_cap_finishes(self):
        proc = run_cli_process(
            "heat", "--graph", "tree", "--q", "2", "--order", "2000", "--t", "1", timeout=30
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["rows"]) == 2001

    def test_tree_order_above_cap_refused(self, capsys):
        code, out, err = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--t", "1", "--order", "2001"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --order must be at most {cli.MAX_ORDER}, got 2001\n"

    @pytest.mark.parametrize("order", ["0", "2001"])
    def test_graph_rows_ignore_order(self, capsys, order):
        # only the tree tables read --order
        expected = run(capsys, "heat", "--graph", "k4", "--t", "60")
        assert expected[0] == 0
        assert run(capsys, "heat", "--graph", "k4", "--t", "60", "--order", order) == expected

    def test_k6_at_huge_time_answers(self, capsys, tmp_path):
        # K6, q = 4: at t = 60000 the certified order is 184,071, which the
        # float rows reach in O(n) memory; the row is 1/6 within the pinned
        # spectral row's bounds
        path = tmp_path / "k6.txt"
        path.write_text("".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6)))
        code, out, err = run(capsys, "heat", "--graph", str(path), "--t", "60000")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert max(float(row["cross_check_delta"]) for row in rows) <= 1e-11
        assert math.fsum(float(row["value"]) for row in rows) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("graph", [["--graph", "c5"], ["--graph", "tree", "--q", "2"]])
    def test_time_past_the_block_range_answers(self, capsys, graph):
        # at 2 sqrt(q) t past 2^30 the log blocks still answer: c5 is 1/5
        # within the --tol of its series, and every tree value is a certified 0
        code, out, err = run(capsys, "heat", *graph, "--t", "1e9")
        assert (code, err) == (0, "")
        for row in json.loads(out)["rows"]:
            if "x" in row:
                assert float(row["value"]) == pytest.approx(0.2, abs=1e-10)
                assert float(row["cross_check_delta"]) <= 1e-10
            else:
                assert float(row["value"]) == float(row["tail_bound"]) == 0.0

    @pytest.mark.parametrize("t", ["1e12", "1e300"])
    @pytest.mark.parametrize("graph", [["--graph", "k4"], ["--graph", "c5"], ["--graph", "tree", "--q", "2"]])
    def test_recurrence_length_guard(self, capsys, graph, t):
        # refused before any block or b vector is allocated
        start = time.perf_counter()
        code, out, err = run(capsys, "heat", *graph, "--t", t)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: t = {float(t)}: "), err

    def test_tree_at_huge_time_has_certified_zero_rows(self, capsys):
        # every first correction term's log bound is far below tol: J = 0
        code, out, err = run(capsys, "heat", "--graph", "tree", "--q", "2", "--t", "1e8")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 11  # the default --order 10
        for row in rows:
            assert float(row["value"]) == float(row["tail_bound"]) == 0.0

    @pytest.mark.parametrize("graph", [["--graph", "k4"], ["--graph", "tree", "--q", "2"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, capsys, graph, tol):
        code, out, err = run(capsys, "heat", *graph, "--t", "1", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"error: --tol must be finite and positive, got {float(tol)}\n"

    @pytest.mark.parametrize(
        "document",
        [
            '{"vertices": -1, "edges": []}',
            '{"vertices": 1e400, "edges": [[0, 1], [1, 0]]}',
            '{"vertices": 2.7, "edges": [[0, 1], [1, 0]]}',
        ],
        ids=["negative", "overflowing", "fractional"],
    )
    def test_bad_vertex_count_is_input_error(self, capsys, tmp_path, document):
        path = tmp_path / "graph.json"
        path.write_text(document)
        code, out, err = run(capsys, "heat", "--graph", str(path), "--t", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "c5", "--t", "0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cross_check_delta,t,value,x"
        assert len(lines) == 6

    def test_csv_writes_a_missing_cross_check_as_an_empty_field(self, capsys):
        # past DENSE_EIGEN_CAP no spectral row exists: JSON null, CSV empty
        n = heat_graph.DENSE_EIGEN_CAP + 2
        argv = ("heat", "--graph", f"c{n}", "--t", "0.1")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "cross_check_delta,t,value,x"
        assert len(lines) == n + 1
        assert all(line.split(",")[0] == "" for line in lines[1:])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert all(row["cross_check_delta"] is None for row in json.loads(out)["rows"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_graph_rows_are_the_column_loop_rows(self, capsys, tmp_path, monkeypatch, fmt):
        # the series and Chebyshev recursions gather vectors with one take and one
        # axis-0 reduction: the same bytes as the column loop matrices keep
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps({"vertices": 100, "edges": seeded_regular_edges(100, 4, 9)}))
        argv = ("heat", "--graph", str(path), "--t", "0.1,20,200", "--format", fmt)
        expected = run(capsys, *argv)
        monkeypatch.setattr(graphs, "_adjacency_gather", lambda g: lambda m: column_loop(g, m))
        assert run(capsys, *argv) == expected
        assert expected[0] == 0 and expected[1].count("\n") > 300

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_past_the_dense_cap_carry_a_cross_check(self, capsys, tmp_path, fmt):
        # no spectral row exists past DENSE_EIGEN_CAP; the Chebyshev row needs none
        n = 2100
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps({"vertices": n, "edges": seeded_regular_edges(n, 3, 5)}))
        code, out, err = run(capsys, "heat", "--graph", str(path), "--t", "1", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            header, *lines = out.splitlines()
            deltas = [line.split(",")[header.split(",").index("cross_check_delta")] for line in lines]
        else:
            deltas = [row["cross_check_delta"] for row in json.loads(out)["rows"]]
        assert len(deltas) == n
        # each row is within --tol of the kernel plus its rounding
        assert all(delta not in (None, "") and float(delta) <= 1e-10 for delta in deltas)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--graph", "k4", "--t", "0.5,1.0"),
            ("--graph", "cube", "--t", "0,0.1,2"),
            ("--graph", "c8", "--t", "1"),
            ("--graph", "tree", "--q", "1", "--t", "0.5,5", "--order", "4"),
            ("--graph", "tree", "--q", "3", "--t", "0,0.5", "--order", "4"),
            ("file",),
            ("--out",),
        ],
        ids=["graph", "graph-t0", "cycle", "tree-q1", "tree-t0", "escaped-path", "out"],
    )
    def test_json_is_what_json_dumps_writes(self, capsys, tmp_path, argv):
        # the template writes json.dumps(payload, sort_keys=True, indent=2) to the
        # byte, and CSV is that payload's rows, keys sorted and null empty
        if argv == ("file",):
            path = tmp_path / 'k"\u00e9.txt'
            path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
            argv = ("--graph", str(path), "--t", "0.5")
        out_path = tmp_path / "out.json"
        if argv == ("--out",):
            argv = ("--graph", "petersen", "--t", "0.3", "--out", str(out_path))
        code, out, err = run(capsys, "heat", *argv)
        assert (code, err) == (0, "")
        if "--out" in argv:
            assert out == ""
            out = out_path.read_text()
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
        if "--out" in argv:
            return
        rows = json.loads(out)["rows"]
        keys = sorted(rows[0])
        expected = [",".join(keys)] + [
            ",".join("" if row[key] is None else str(row[key]) for key in keys) for row in rows
        ]
        assert run(capsys, "heat", *argv, "--format", "csv") == (0, "\n".join(expected) + "\n", "")

    def test_csv_and_json_print_the_same_fields(self, capsys):
        for argv in (
            ("--graph", "cube", "--t", "0.1,2"),
            ("--graph", "tree", "--q", "3", "--t", "0,0.5", "--order", "4"),
        ):
            _, out, _ = run(capsys, "heat", *argv, "--format", "csv")
            header, *lines = out.splitlines()
            _, out, _ = run(capsys, "heat", *argv)
            rows = json.loads(out)["rows"]
            assert [line.split(",") for line in lines] == [
                ["" if row[key] is None else str(row[key]) for key in header.split(",")]
                for row in rows
            ]

    @pytest.mark.parametrize(
        "q, ts", [("1", "0,0.5,5"), ("2", "0"), ("3", "0,0.5")], ids=["q1", "t0", "t0-and-t"]
    )
    def test_tree_rows_no_integral_checked_have_no_cross_check(self, capsys, q, ts):
        # t = 0 has no integral: JSON null, CSV empty, where a value compared with
        # itself printed 0; every q, q = 1 too, checks each row with t > 0.  The
        # series stops nearer --tol than 1e-14 at the default, so ask for 1e-14
        argv = ("heat", "--graph", "tree", "--q", q, "--t", ts, "--order", "4", "--tol", "1e-14")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        checked = [float(row["t"]) > 0 for row in rows]
        assert [row["cross_check_delta"] is not None for row in rows] == checked
        assert all(float(row["cross_check_delta"]) <= 1e-14 for row, c in zip(rows, checked) if c)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *lines = out.splitlines()
        column = header.split(",").index("cross_check_delta")
        assert [line.split(",")[column] != "" for line in lines] == checked

    def test_one_spectral_decomposition_held_across_graphs(self, capsys):
        # graph rows at q >= 2 are checked against the Chebyshev row, with no
        # eigensolve; the cycles' spectral rows hold one graph's decomposition
        misses = heat_graph.spectral_data.cache_info().misses
        for name in ("petersen", "cube"):
            assert run(capsys, "heat", "--graph", name, "--t", "1")[0] == 0
        assert heat_graph.spectral_data.cache_info().misses == misses
        for name in ("c5", "c8"):
            assert run(capsys, "heat", "--graph", name, "--t", "1")[0] == 0
        assert heat_graph.spectral_data.cache_info().currsize == 1

    def test_bad_time_grid(self, capsys):
        code, _, err = run(capsys, "heat", "--graph", "k4", "--t", "0.5,zebra")
        assert code == 2
        assert "numeric" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "graph", [("--graph", "k4"), ("--graph", "tree", "--q", "2")], ids=["graph", "tree"]
    )
    @pytest.mark.parametrize("t", [",", ""])
    def test_empty_time_grid_refused(self, capsys, graph, fmt, t):
        code, out, err = run(capsys, "heat", *graph, f"--t={t}", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: --t needs at least one time, got {t!r}\n"

    @pytest.mark.parametrize("t", ["inf", "nan", "-inf", "0.5,inf"])
    def test_non_finite_time_rejected(self, capsys, t):
        code, out, err = run(capsys, "heat", "--graph", "k4", f"--t={t}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: t must be finite")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "graph",
        [("--graph", "k4"), ("--graph", "tree", "--q", "2", "--order", "2")],
        ids=["graph", "tree"],
    )
    def test_negative_zero_time_prints_as_zero(self, capsys, graph, fmt):
        negative = run(capsys, "heat", *graph, "--t", "-0", "--format", fmt)
        assert negative[0] == 0
        assert negative == run(capsys, "heat", *graph, "--t", "0", "--format", fmt)

    @pytest.mark.parametrize(
        "graph, t", [("k4", "1e6"), ("k4", "1000"), ("petersen", "1000")]
    )
    def test_series_overflow_is_input_error(self, capsys, graph, t):
        # the b_m no longer leave float range: at t = 1000 the rows answer
        # within 1e-12 of the spectral row, and k4 at t = 1e6, whose series
        # needs about 1.0e6 orders and Miller's start margin past them, is
        # refused by the recurrence guard
        code, out, err = run(capsys, "heat", "--graph", graph, "--t", t)
        if float(t) > 1000:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: t = {float(t)}: the Bessel ratio recurrence needs ")
            return
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        g = graphs.builtin_graph(graph)
        spectral = heat_graph.heat_kernel_spectral_row(g, 0, float(t))
        assert max(abs(float(row["value"]) - spectral[row["x"]]) for row in rows) <= 1e-12
        # the cross-check is the Chebyshev row, within its bound of the kernel
        budget = 1e-12 + chebyshev_error_bound(g.regularity(), float(t), 1e-10)
        assert max(float(row["cross_check_delta"]) for row in rows) <= budget
        assert math.fsum(float(row["value"]) for row in rows) == pytest.approx(1.0, abs=1e-11)

    def test_u_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--graph", "k4", "--u", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "heat", "--graph", "petersen", "--t", "0.3")
        _, second, _ = run(capsys, "heat", "--graph", "petersen", "--t", "0.3")
        assert first == second


def exact_zeta(capsys, graph: str, order: int) -> dict:
    """The zeta report of graph at order, after checking that it exits 0 with no
    stderr and that the determinant formula equals the counts N_m / m exactly."""
    code, out, err = run(capsys, "zeta", "--graph", graph, "--order", str(order))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["max_discrepancy"] == "0.00000000000000e+00"
    expected = ["0"] + [str(Fraction(n, m)) for m, n in enumerate(payload["N_m"]) if m]
    assert payload["determinant_formula_coefficients"] == payload["log_zeta_coefficients"] == expected
    return payload


class TestZeta:
    def test_k4_report(self, capsys):
        payload = exact_zeta(capsys, "k4", 8)
        assert payload["N_m"][3] == 24
        assert payload["pi_m"][3] == 8
        assert payload["log_zeta_coefficients"][3] == "8"

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

    def test_order_past_float_range_refused(self, capsys):
        # N_1024 = 2^1024 + ... on k4 is past the largest float; the float route
        # refused from order 41, and a float coefficient overflowed from about 1035
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = exact_zeta(capsys, "k4", 1100)
        assert Fraction(payload["determinant_formula_coefficients"][1024]) * 1024 > 2**1024

    def test_order_past_exact_float_integers_refused(self, capsys):
        # the float route refused from order 41 on k4 and drifted past it
        # (max_discrepancy 2.0 at order 53, 384 at 60); the exact one agrees
        exact_zeta(capsys, "k4", 60)

    @pytest.mark.parametrize("order", [44, 51])
    def test_cancelling_float_terms_refused(self, capsys, order):
        # k33's odd N_m are 0, which float terms of size 2^m cancelled to within
        # 0.5 at order 44 and 1e2 at 51; the exact traces give 0
        payload = exact_zeta(capsys, "k33", order)
        assert payload["determinant_formula_coefficients"][1::2] == ["0"] * ((order + 1) // 2)

    @pytest.mark.parametrize("graph, limit", [("k4", 41), ("k33", 41), ("petersen", 40), ("cube", 40)])
    def test_refusal_order_pinned(self, capsys, graph, limit):
        # the float route's refusal order and the one below it both agree exactly
        exact_zeta(capsys, graph, limit - 1)
        exact_zeta(capsys, graph, limit)

    @pytest.mark.parametrize("graph", ["k4", "random"])
    def test_determinant_refusals_come_before_counting(self, capsys, monkeypatch, tmp_path, graph):
        # k4 at order 60 was past the float route's rounding bound and a 4-regular
        # graph on 2,100 vertices past the dense eigen-solve cap: both answer, and
        # no eigen-solve runs
        spec, order = "k4", 60
        if graph == "random":
            n, rng = 2100, random.Random(0)
            points = [v for v in range(n) for _ in range(2)]
            rng.shuffle(points)
            edges = [(v, (v + 1) % n) for v in range(n)] + list(zip(points[::2], points[1::2]))
            path = tmp_path / "random4.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in edges))
            spec, order = str(path), 12

        def eigensolve(*args, **kwargs):
            raise AssertionError("zeta ran an eigen-solve")

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, eigensolve)
        assert exact_zeta(capsys, spec, order)["n"] == (2100 if graph == "random" else 4)

    def test_order_below_exact_float_integers_answers(self, capsys):
        exact_zeta(capsys, "k4", 40)

    def test_cycle_answers_at_the_order_cap(self, capsys):
        exact_zeta(capsys, "c8", 2000)

    @pytest.mark.parametrize("graph", ["k4", "petersen", "cube", "k33", "c5"])
    def test_every_builtin_answers_at_the_order_cap(self, capsys, graph):
        # c8 is test_cycle_answers_at_the_order_cap's
        exact_zeta(capsys, graph, cli.MAX_ORDER)

    def test_disagreeing_routes_exit_3(self, capsys, monkeypatch):
        # one N_m of the counting route off by 1: one error line naming it, no report
        def counting(g, M):
            counts = closed_geodesics_total(g, M)
            counts[3] += 1
            return counts

        closed_geodesics_total = graphs.closed_geodesics_total
        monkeypatch.setattr(graphs, "closed_geodesics_total", counting)
        code, out, err = run(capsys, "zeta", "--graph", "k4", "--order", "8")
        assert (code, out) == (3, "")
        assert err == (
            "error: order 3: the determinant formula gives N_m = 24, "
            "the closed-geodesic count 25\n"
        )

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "zeta", "--graph", "k4", "--order", "0")
        assert code == 2
        assert "order" in err

    @pytest.mark.parametrize("command", ["analyze", "zeta"])
    def test_order_above_cap_refused_before_counting(self, capsys, command):
        start = time.perf_counter()
        order = cli.MAX_ORDER + 1
        code, out, err = run(capsys, command, "--graph", "k4", "--order", str(order))
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == f"error: --order must be at most {cli.MAX_ORDER}, got {order}\n"


TREE_CHECKS = [
    ("bessel series vs quadrature", 1e-9),
    ("bessel uniform bound and order monotonicity", 0.0),
    ("tree heat kernel series vs integral", 1e-8),
    ("tree heat equation residual", 1e-8),
    ("tree heat kernel mass conservation", 1e-6),
    ("G-transform of building blocks", 1e-9),
    ("tree zeta identity and spectral moments", 1e-7),
    ("horocyclic transform of the tree heat kernel", 1e-9),
]
K4_CHECKS = [
    ("counting recursions vs enumeration", 0.0),
    ("heat kernel series vs spectral vs ODE", 1e-7),
    ("four-way zeta agreement", 1e-8),
    ("diagonal tree-plus-correction decomposition", 1e-8),
    ("G-transform of diagonal heat kernel", 1e-6),
    ("two-variable zeta series vs spectral", 1e-8),
]
# k33 has no diagonal checks, c5 none of the three builtin-listed ones
K33_CHECKS = K4_CHECKS[:3] + K4_CHECKS[5:]
C5_CHECKS = K4_CHECKS[:3]
LARGE_Q = ("1557", "2000", "1000000", "1000000000")


class TestVerify:
    @pytest.mark.parametrize(
        "argv, checks",
        [
            (("--graph", "tree", "--q", "2"), TREE_CHECKS),
            (("--graph", "k4"), K4_CHECKS),
            (("--graph", "k33"), K33_CHECKS),
            (("--graph", "c5"), C5_CHECKS),
        ]
        # the block transform runs at q = 1 and the other tree checks in units of
        # the decay time, so at large q nothing leaves float range or underflows;
        # q = 1 runs every check, the series vs integral one on its measure dtheta / pi
        + [(("--graph", "tree", "--q", q), TREE_CHECKS) for q in ("1", *LARGE_Q)],
        ids=["tree", "k4", "k33", "c5"] + [f"tree-{q}" for q in ("1", *LARGE_Q)],
    )
    def test_check_list_pinned(self, capsys, argv, checks):
        # a speed-up must not drop, rename, reorder or loosen a check
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        lines = [
            re.fullmatch(r"\[pass\] (.+): worst \S+ \(budget (\S+)\)", line)
            for line in out.splitlines()
        ]
        assert all(lines), out
        assert [(m[1], m[2]) for m in lines] == [(name, f"{b:.14e}") for name, b in checks]

    def test_nan_heat_route_fails_with_exit_three(self, capsys, monkeypatch):
        rows = heat_graph.heat_kernel_rows
        monkeypatch.setattr(heat_graph, "heat_kernel_rows", lambda *args: rows(*args) * math.nan)
        code, out, err = run(capsys, "verify", "--graph", "k4")
        assert (code, err) == (3, "")
        assert "[FAIL] heat kernel series vs spectral vs ODE: worst nan (budget" in out

    def test_nan_block_transform_fails_with_exit_three(self, capsys, monkeypatch):
        transform = zeta.g_transform_numeric

        def nan_row(*args, **kwargs):
            row = transform(*args, **kwargs)
            row[2] = math.nan
            return row

        monkeypatch.setattr(zeta, "g_transform_numeric", nan_row)
        code, out, err = run(capsys, "verify", "--graph", "tree", "--q", "2")
        assert (code, err) == (3, "")
        assert "[FAIL] G-transform of building blocks: worst nan (budget" in out

    def test_tree_transforms_blocks_at_q_1_only(self, capsys, monkeypatch):
        # G_q B_k(u) = q^{(1-k)/2} G_1 B_k(sqrt(q) u): q = 1 stands for the q asked
        seen = []
        transform = zeta.g_transform_numeric

        def recorded(f, q, *args, **kwargs):
            seen.append(q)
            return transform(f, q, *args, **kwargs)

        monkeypatch.setattr(zeta, "g_transform_numeric", recorded)
        code, _, err = run(capsys, "verify", "--graph", "tree", "--q", "7")
        assert (code, err) == (0, "")
        assert seen == [1, 1, 1, 1, 1]

    def test_graph_file_refused(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out, err = run(capsys, "verify", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify runs on builtin graphs only")

    def test_cycle_past_the_transitivity_cap_refused(self, capsys):
        # past the cap the transitivity search gives no verdict, and the checks that
        # read it would print [pass] on less than they name
        code, out, err = run(capsys, "verify", "--graph", f"c{graphs.TRANSITIVITY_CAP + 1}")
        assert (code, out) == (2, "")
        assert err == (
            f"error: verify runs on cycles of at most {graphs.TRANSITIVITY_CAP} vertices, not "
            f"'c{graphs.TRANSITIVITY_CAP + 1}': its checks read a vertex-transitivity search "
            "that stops there\n"
        )

    def test_bad_tolerance(self, capsys):
        # verify reads no tolerance; --tol is checked where heat reads it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol -1" in captured.err

    @pytest.mark.parametrize("q", ["0", None])
    def test_tree_needs_q_at_least_one(self, capsys, q):
        # verify reads --q as heat and analyze do; q = 1 is pinned with the check list
        argv = ["verify", "--graph", "tree"] + (["--q", q] if q else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: tree mode needs --q >= 1\n"


DROPPED_OPTIONS = [
    ("analyze", "--t", "1"),
    ("analyze", "--tol", "1e-10"),
    ("analyze", "--format", "csv"),
    ("zeta", "--q", "2"),
    ("zeta", "--t", "1"),
    ("zeta", "--tol", "1e-10"),
    ("zeta", "--format", "csv"),
    ("verify", "--order", "5"),
    ("verify", "--t", "1"),
    ("verify", "--tol", "1e-10"),
    ("verify", "--format", "csv"),
    ("verify", "--out", "report.txt"),
]


@pytest.mark.parametrize("command, option, value", DROPPED_OPTIONS)
def test_subcommand_refuses_options_it_does_not_read(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "k4", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} {value}" in captured.err


FUZZ_GRAPHS = [None, "k4", "c5", "c8", "petersen", "cube", "k33", "tree", "file", "missing"]
FUZZ_T = ["0", "0.1", "2", "60", "200", "1e4", "1e6", "1e8", "1e300", "inf", "nan", "-1", "a"]
FUZZ_TOL = ["1e-10", "0", "nan", "-1"]
FUZZ_ORDER = ["0", "1", "6", "12", "2001"]
FUZZ_Q = ["0", "1", "2", "3", "2000", "1000000"]
FUZZ_FORMAT = ["csv", "json"]


@given(data=st.data())
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzz_exit_codes_and_error_lines(tmp_path, data):
    # every subcommand, graph kind (or none) and subset of the other six
    # options, accepted or not: exit 0, 2 or 3, an error: line last on
    # stderr, no traceback
    draw = data.draw
    argv = [draw(st.sampled_from(["analyze", "heat", "zeta", "verify"]))]
    # half the draws pass only options the subcommand reads, so that the
    # accepted paths are reached as often as the parser's refusals
    skipped = {opt for cmd, opt, _ in DROPPED_OPTIONS if cmd == argv[0]}
    if draw(st.booleans()):
        skipped = set()
    spaced = draw(st.booleans())  # --name value, or --name=value
    graph = draw(st.sampled_from(FUZZ_GRAPHS))  # "file": a tests/strategies.py graph
    if graph == "file":
        g = draw(regular_multigraphs())
        path = tmp_path / "graph.txt"
        path.write_text(
            "".join(f"{g.origin[e]} {g.terminus[e]}\n" for e in range(0, g.n_edges, 2))
        )
        graph = str(path)
    elif graph == "missing":
        graph = str(tmp_path / "missing.txt")
    if graph is not None:
        argv += ["--graph", graph] if spaced else [f"--graph={graph}"]
    for option, values in (
        ("--q", FUZZ_Q),
        ("--order", FUZZ_ORDER),
        ("--t", FUZZ_T),
        ("--tol", FUZZ_TOL),
        ("--format", FUZZ_FORMAT),
        ("--out", [str(tmp_path / "out.txt")]),
    ):
        value = draw(st.none() | st.sampled_from(values))  # absent half the time
        if value is not None and option not in skipped:
            argv += [option, value] if spaced else [f"{option}={value}"]
    code, _, stderr = _exit(argv)
    assert code in (0, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr, argv
    if code != 0:
        assert stderr.splitlines() and "error:" in stderr.splitlines()[-1], (argv, stderr)


def _run_script(command, *argv):
    """Run ``command`` with ``argv`` in a subprocess that inherits this environment."""
    return subprocess.run(
        [*command, *argv], capture_output=True, text=True, timeout=120
    )


# per subcommand: a command line in the space form, the options it accepts, and an
# ambiguous prefix of two of them (verify has none)
GRAMMAR = {
    "analyze": (["--graph", "k4", "--order", "3"], ["--graph", "--q", "--order", "--out"], "--o"),
    "heat": (
        ["--graph", "k4", "--t", "0.5,1", "--format", "csv"],
        ["--graph", "--q", "--order", "--t", "--tol", "--format", "--out"],
        "--o",
    ),
    "zeta": (["--graph", "k4", "--order", "3"], ["--graph", "--order", "--out"], "--o"),
    "verify": (["--graph", "c5"], ["--graph", "--q"], None),
}



class TestParser:
    def test_import_and_main_load_no_parser_module(self):
        # the grammar table is read by hand: no argparse, gettext or locale at
        # import, and a whole command imports no module
        code = (
            "import sys; import heatzeta.cli as cli; before = set(sys.modules); "
            "print(sorted({'argparse', 'gettext', 'locale'} & before), file=sys.stderr); "
            "assert cli.main(['zeta', '--graph', 'k4', '--order', '3']) == 0; "
            "print(sorted(set(sys.modules) - before), file=sys.stderr)"
        )
        proc = run_python("-c", code)
        assert (proc.returncode, proc.stderr) == (0, "[]\n[]\n")

    @pytest.mark.parametrize("command", GRAMMAR)
    def test_grammar_table(self, command):
        argv, accepted, ambiguous = GRAMMAR[command]
        spaced = _exit([command, *argv])
        assert spaced[0] == 0 and spaced[1] and spaced[2] == "", spaced
        pairs = list(zip(argv[::2], argv[1::2]))
        assert _exit([command, *(f"{o}={v}" for o, v in pairs)]) == spaced
        # a unique prefix, and the last occurrence wins
        assert _exit([command, "--gr", "nosuchgraph", *argv]) == spaced
        assert _exit([command, "--graph", "nosuchgraph", f"--gra={argv[1]}", *argv[2:]]) == spaced
        if ambiguous:
            last = _refused([command, *argv, ambiguous, "3"])
            assert last.startswith(f"heatzeta {command}: error: ambiguous option: {ambiguous} ")
        for flag in ("-h", "--help"):
            code, out, err = _exit([command, flag])
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: heatzeta {command} [-h]")
            named = set(re.findall(r"--[a-z]+", out)) - {"--help"}
            assert named == set(accepted)
        # a missing value, a bad int and a bad --format
        int_option = "--q" if command == "verify" else "--order"
        for bad, message in (
            ([*argv, "--graph"], "argument --graph: expected one argument"),
            (["--graph", "--q", "2"], "argument --graph: expected one argument"),
            ([*argv, int_option, "x"], f"argument {int_option}: invalid int value: 'x'"),
            (
                [*argv, "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"
                if "--format" in accepted
                else "unrecognized arguments: --format xml",
            ),
        ):
            assert _refused([command, *bad]) == f"heatzeta {command}: error: {message}"

    def test_top_level_refusals_and_help(self):
        assert _refused([]) == "heatzeta: error: the following arguments are required: command"
        assert _refused(["bogus"]) == (
            "heatzeta: error: argument command: invalid choice: 'bogus' "
            "(choose from 'analyze', 'heat', 'zeta', 'verify')"
        )
        code, out, err = _exit(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: heatzeta [-h] {analyze,heat,zeta,verify} ...")
        assert all(command in out for command in GRAMMAR)

    @pytest.mark.parametrize("value", ["-1", "-.5", "-1e-10", "-", ""])
    def test_values_that_do_not_look_like_options_are_read(self, capsys, value):
        # a "-" then a digit or a dot is a value, as are "-" and "": the program refuses them
        code, out, err = run(capsys, "heat", "--graph", "k4", "--t", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "usage" not in err

    def test_no_state_carries_over_between_calls(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ("analyze", "--graph", "k4", "--order", "5")
        fresh = run_cli_process(*argv)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


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

    def test_runtime_depends_on_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            project = tomllib.load(fh)["project"]

        def names(requirements):
            return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

        assert names(project["dependencies"]) == ["numpy"]
        assert "scipy" in names(project["optional-dependencies"]["test"])

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
