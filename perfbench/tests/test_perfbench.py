"""Tests of the benchmark's own parts: generator, output checker, tracer.

    python3 -m pytest perfbench/tests

Run from the root of a heatzeta checkout.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import check
import run
from gen import random_regular_edges, write_regular_graph
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _cli(argv: list[str]) -> str:
    import heatzeta.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert heatzeta.cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("n, d", [(12, 3), (40, 3), (20, 4), (64, 4)])
def test_generator_is_deterministic_regular_and_connected(tmp_path, n, d):
    from heatzeta.graphs import load_graph

    a = write_regular_graph(tmp_path / "a.json", n, d, "seed/1").read_bytes()
    b = write_regular_graph(tmp_path / "b.json", n, d, "seed/1").read_bytes()
    c = write_regular_graph(tmp_path / "c.json", n, d, "seed/2").read_bytes()
    assert a == b
    assert a != c
    g = load_graph(tmp_path / "a.json")  # refuses disconnected graphs
    assert g.n_vertices == n
    assert g.regularity() == d - 1
    edges = json.loads(a)["edges"]
    assert len({tuple(e) for e in edges}) == len(edges) == n * d // 2
    assert all(u < v for u, v in edges)


def test_generator_refuses_impossible_sizes():
    with pytest.raises(ValueError):
        random_regular_edges(7, 3, random.Random(0))


def _heat_op(n: int, q: int, ts) -> dict:
    return {"kind": "heat_graph", "expect": {"n": n, "q": q, "ts": list(ts)}}


def test_checker_accepts_real_heat_output_and_rejects_a_tampered_row(tmp_path):
    path = write_regular_graph(tmp_path / "g.json", 16, 3, "heat")
    op = _heat_op(16, 2, (0.5, 2.0))
    text = _cli(["heat", "--graph", str(path), "--t", "0.5,2.0"])
    assert check.check_output(op, text) == (None, {})
    doc = json.loads(text)
    doc["rows"][3]["value"] = f"{float(doc['rows'][3]['value']) + 1e-8:.14e}"
    error, _ = check.check_output(op, json.dumps(doc))
    assert "row sum" in error


def test_checker_rejects_a_tampered_count_and_a_mismatched_analyze(tmp_path):
    path = write_regular_graph(tmp_path / "g.json", 12, 3, "zeta")
    expect = {"n": 12, "q": 2}
    zeta_op = {"kind": "zeta", "expect": {"order": 8, **expect}}
    analyze_op = {"kind": "analyze", "expect": {"order": 6, **expect}}
    zeta_text = _cli(["zeta", "--graph", str(path), "--order", "8"])
    analyze_text = _cli(["analyze", "--graph", str(path), "--order", "6"])
    zeta_error, zeta_facts = check.check_output(zeta_op, zeta_text)
    analyze_error, analyze_facts = check.check_output(analyze_op, analyze_text)
    assert zeta_error is None and analyze_error is None

    doc = json.loads(zeta_text)
    doc["N_m"][6] += 6
    assert "N_6" in check.check_output(zeta_op, json.dumps(doc))[0]

    def records(n_analyze):
        common = {"round": 0, "group": "g", "error": None}
        return [{**common, "kind": "zeta", "facts": zeta_facts},
                {**common, "kind": "analyze", "facts": {"N": n_analyze}}]

    agreeing = records(analyze_facts["N"])
    check.cross_check(agreeing)
    assert all(r["error"] is None for r in agreeing)
    tampered = records(analyze_facts["N"][:-1] + [analyze_facts["N"][-1] + 1])
    check.cross_check(tampered)
    assert "analyze N_k" in tampered[1]["error"]


def test_checker_rejects_a_failed_verify_line():
    op = {"kind": "verify", "expect": {}}
    assert check.check_output(op, "[pass] a: worst 0 (budget 0)\n")[0] is None
    assert check.check_output(op, "[pass] a\n[FAIL] b\n")[0] is not None


def test_tracer_counts_calls_through_aliased_names():
    from heatzeta import bessel, heat_graph, zeta
    from heatzeta.graphs import builtin_graph

    original = bessel.building_block
    tracer = Tracer()
    tracer.install()
    try:
        assert heat_graph.building_block is bessel.building_block is not original
        assert zeta.spectral_data is heat_graph.spectral_data
        tracer.begin_op()
        heat_graph.heat_kernel_series(builtin_graph("k4"), 0, 1, 0.5)
        layers = tracer.end_op()
    finally:
        tracer.uninstall()
    assert heat_graph.building_block is bessel.building_block is original
    calls = layers["bessel.building_block.calls"]
    assert calls > 1 and layers["bessel.building_block.distinct_args"] == calls
    assert layers["heat_graph.heat_kernel_series.calls"] == 1
    assert layers["heat_graph.b_coefficients.calls"] == 1
    # the outermost span's inclusive time is the sum of every span's self time
    total_self = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert total_self == pytest.approx(layers["heat_graph.heat_kernel_series.s"], rel=1e-9)


def test_every_per_layer_metric_names_a_traced_span():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = Tracer().span_names
    modules = {s.split(".", 1)[0] for s in spans}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.split(".", 1)[0] in ("trace", "probe", "setup"):
            continue
        span, _, stat = name.rpartition(".")
        assert stat in run.LAYER_STATS and (span in spans or span in modules), name


def test_import_times_attribute_nested_imports_to_the_enclosing_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       mpmath",
        "import time:        50 |        150 |     sympy",
        "import time:        20 |         20 |       numpy.core",
        "import time:        10 |         30 |     numpy",
        "import time:         5 |        185 |   heatzeta.graphs",
        "import time:         7 |          7 | site",
    ])
    times = run.import_times(stderr)
    assert times["sympy"] == pytest.approx(150e-6)
    assert times["numpy"] == pytest.approx(30e-6)
    assert times["heatzeta"] == pytest.approx(5e-6)


def test_tail_is_the_highest_percentile_with_ten_ops_above():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([float(i) for i in range(11)]) == (5.0, 50.0)
