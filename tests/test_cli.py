import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heatzeta
from heatzeta import cli
from heatzeta.cli import main
from strategies import regular_multigraphs

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCE_ROOT = str(Path(heatzeta.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, timeout=120):
    """``python -m heatzeta.cli`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "heatzeta.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


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

    def test_tree_rows_at_larger_time(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--graph", "tree", "--q", "2", "--order", "30", "--t", "5"
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert float(row["cross_check_delta"]) <= 1e-10

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

    def test_tree_cross_check_failure_prints_one_line(self):
        # the trapezoid row's error guard decides, and its error: line is all of stderr
        proc = run_cli_process(
            "heat", "--graph", "tree", "--q", "2", "--order", "2", "--t", "1", "--tol", "1e-16"
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

    def test_k6_at_huge_time_is_input_error(self, capsys, tmp_path):
        # K6, q = 4: at t = 60000 the certified order is 523,345, which the
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
    def test_time_past_the_block_range_is_input_error(self, capsys, graph):
        # past 2 sqrt(q) t = 2^30, where scipy's ive returns NaN, the log
        # blocks still answer: c5 is 1/5 within the --tol of its series, and
        # every tree value is a certified 0
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
        "graph, t", [("k4", "1e6"), ("k4", "1000"), ("petersen", "1000")]
    )
    def test_series_overflow_is_input_error(self, capsys, graph, t):
        # the b_m no longer leave float range: at t = 1000 the rows answer
        # within the pinned spectral row's bounds, and k4 at t = 1e6, whose
        # series needs about 1.9e6 orders, is refused by the recurrence guard
        code, out, err = run(capsys, "heat", "--graph", graph, "--t", t)
        if float(t) > 1000:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: t = {float(t)}: the Bessel ratio recurrence needs ")
            return
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert max(float(row["cross_check_delta"]) for row in rows) <= 1e-12
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

    def test_order_past_float_range_refused(self, capsys):
        # N_1024 = 2^1024 + ... on k4 is past the largest float; order 1023 still works
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "zeta", "--graph", "k4", "--order", "1100")
        assert (code, out) == (2, "")
        assert err.startswith("error: --order 1100: from order 1024 ")
        assert err.count("\n") == 1

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
    ("G-transform of building blocks", 1e-6),
    ("tree zeta identity and spectral moments", 1e-7),
    ("Laplace transform calibration", 1e-9),
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


class TestVerify:
    @pytest.mark.parametrize(
        "argv, checks",
        [(("--graph", "tree", "--q", "2"), TREE_CHECKS), (("--graph", "k4"), K4_CHECKS)],
        ids=["tree", "k4"],
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

    def test_graph_file_refused(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, out, err = run(capsys, "verify", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify runs on builtin graphs only")

    def test_bad_tolerance(self, capsys):
        # verify reads no tolerance; --tol is checked where heat reads it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol -1" in captured.err

    @pytest.mark.parametrize("q", ["1", "0", None])
    def test_tree_needs_q_at_least_two(self, capsys, q):
        # the tree series-vs-integral check has no integral route at q = 1
        argv = ["verify", "--graph", "tree"] + (["--q", q] if q else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: verify --graph tree needs --q >= 2: its tree heat kernel series vs "
            "integral check has no integral route for q = 1\n"
        )


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
FUZZ_Q = ["0", "1", "2", "3"]
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
    # accepted paths are reached as often as the argparse refusals
    skipped = {opt for cmd, opt, _ in DROPPED_OPTIONS if cmd == argv[0]}
    if draw(st.booleans()):
        skipped = set()
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
        argv.append(f"--graph={graph}")
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
            argv.append(f"{option}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr, argv
    if code != 0:
        assert stderr.splitlines() and "error:" in stderr.splitlines()[-1], (argv, stderr)


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
