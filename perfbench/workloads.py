"""Workload definitions: the ops of each round, generated from the seed.

An op is one ``heatzeta`` command line plus what the output checker needs
to know about it.  ``key`` names the op's place in the round (command and
input size), so that timings of the same place in different rounds can be
compared; the graph behind a key is drawn afresh in every round.

Load is a closed loop with one client: one op at a time, the next op
starting when the previous one has returned.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable

from gen import write_regular_graph

# (vertices, degree) per round.  A sweep of sizes makes op times spread
# evenly, so that the median and tail op fall inside a run of similar ops
# rather than on a jump between two kinds.  Sizes are capped by today's
# cost: with the O(n^2 E K) exact counting, analyze alone takes 12 s at
# n = 120, d = 4.
COUNTING_SIZES = tuple((n, d) for n in (40, 48, 56, 64) for d in (3, 4))
COUNTING_ZETA_ORDER = 12
COUNTING_ANALYZE_ORDER = 10

HEAT_SIZES = tuple((n, d) for n in (60, 80, 100) for d in (3, 4))
HEAT_T_GRID = (0.1, 0.5, 2.0, 8.0, 20.0)
# tree tables: --order 30, t up to 3; t >= 3.5 fails today (see KNOWN_FAILURES)
HEAT_TREE_QS = (2, 3, 4)
HEAT_TREE_ORDER = 30
HEAT_TREE_T_GRID = (0.1, 0.5, 1.0, 2.0, 3.0)
HEAT_TOL = 1e-10  # the CLI default of --tol

ONESHOT_BUILTINS = ("k4", "c5", "c8", "cube", "k33", "petersen")
ONESHOT_COUNT_GRAPH = "petersen"  # zeta and analyze, cross-checked
ONESHOT_HEAT_GRAPH = "cube"
ONESHOT_HEAT_T_GRID = (0.1, 1.0, 5.0)

WORKLOADS = ("counting", "heat", "cli_oneshot")
SESSION_WORKLOADS = ("counting", "heat")
# Seconds one round took at the commit that defined the benchmark (2 vCPUs).
# A run of S seconds runs S / NOMINAL_ROUND_S rounds, rounded to the
# nearest whole number and at least one: a fixed op list, so that runs of a
# faster or slower program stay comparable op for op.
NOMINAL_ROUND_S = {"counting": 12.0, "heat": 10.0, "cli_oneshot": 17.0}
# A fresh process runs its first seconds of ops two to three times slower
# (first-touch memory, cold caches).  Session workloads model a long-lived
# process, so they run this long on untimed warm-up ops first; the cold
# cost is what cli_oneshot measures.
SESSION_WARMUP_S = 5.0


def _grid(ts) -> str:
    return ",".join(repr(t) for t in ts)


def _zeta(graph: str, key: str, group: str, **expect) -> dict:
    argv = ["zeta", "--graph", graph, "--order", str(COUNTING_ZETA_ORDER)]
    return {"key": key, "argv": argv, "kind": "zeta", "group": group,
            "expect": {"order": COUNTING_ZETA_ORDER, **expect}}


def _analyze(graph: str, key: str, group: str, **expect) -> dict:
    argv = ["analyze", "--graph", graph, "--order", str(COUNTING_ANALYZE_ORDER)]
    return {"key": key, "argv": argv, "kind": "analyze", "group": group,
            "expect": {"order": COUNTING_ANALYZE_ORDER, **expect}}


def _heat_graph(graph: str, key: str, ts, **expect) -> dict:
    argv = ["heat", "--graph", graph, "--t", _grid(ts)]
    return {"key": key, "argv": argv, "kind": "heat_graph", "group": None,
            "expect": {"ts": list(ts), **expect}}


def _heat_tree(q: int, ts, order: int) -> dict:
    argv = ["heat", "--graph", "tree", "--q", str(q), "--order", str(order), "--t", _grid(ts)]
    return {"key": " ".join(argv), "argv": argv, "kind": "heat_tree", "group": None,
            "expect": {"q": q, "ts": list(ts), "order": order, "tol": HEAT_TOL}}


def _verify(args: list[str]) -> dict:
    argv = ["verify", *args]
    return {"key": " ".join(argv), "argv": argv, "kind": "verify", "group": None, "expect": {}}


def round_ops(workload: str, seed: int, rnd: int, workdir: Path) -> list[dict]:
    """The ops of round ``rnd``; graph files are written into ``workdir``."""
    if workload == "counting":
        ops = []
        for n, d in COUNTING_SIZES:
            path = workdir / f"counting-r{rnd}-n{n}-d{d}.json"
            write_regular_graph(path, n, d, f"counting/{seed}/{rnd}/{n}/{d}")
            label = f"n={n} d={d}"
            ops.append(_zeta(str(path), f"zeta {label}", path.name, n=n, q=d - 1))
            ops.append(_analyze(str(path), f"analyze {label}", path.name, n=n, q=d - 1))
        return ops
    if workload == "heat":
        ops = []
        for n, d in HEAT_SIZES:
            for t in HEAT_T_GRID:
                path = workdir / f"heat-r{rnd}-n{n}-d{d}-t{t}.json"
                write_regular_graph(path, n, d, f"heat/{seed}/{rnd}/{n}/{d}/{t}")
                ops.append(_heat_graph(str(path), f"heat n={n} d={d} t={t}", (t,), n=n, q=d - 1))
        ops.extend(_heat_tree(q, HEAT_TREE_T_GRID, HEAT_TREE_ORDER) for q in HEAT_TREE_QS)
        return ops
    if workload == "cli_oneshot":
        ops = [_verify([])]
        ops.extend(_verify(["--graph", name]) for name in ONESHOT_BUILTINS)
        ops.extend(_verify(["--graph", "tree", "--q", str(q)]) for q in HEAT_TREE_QS)
        name = ONESHOT_COUNT_GRAPH
        ops.append(_zeta(name, f"zeta {name}", name))
        ops.append(_analyze(name, f"analyze {name}", name))
        ops.append(_heat_graph(ONESHOT_HEAT_GRAPH, f"heat {ONESHOT_HEAT_GRAPH}", ONESHOT_HEAT_T_GRID))
        random.Random(f"cli_oneshot/{seed}/{rnd}").shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# Inputs that fail at the commit that defined this benchmark.  They are run
# once per `heat` run and reported as `probe.failed_ops`, outside the timed
# rounds, because every op in a timed round must succeed.  Never trim them.
KNOWN_FAILURES = {
    "heat": [_heat_tree(q, (5.0,), HEAT_TREE_ORDER) for q in HEAT_TREE_QS],
}


def run_rounds(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    execute: Callable[[dict, bool], dict],
) -> list[dict]:
    """Run the rounds of ops that ``seconds`` buys; return one record per op.

    Session workloads first run untimed warm-up ops for SESSION_WARMUP_S.

    With ``trace``, rounds alternate untraced and traced, and at least two
    rounds run, so that every op key has an untraced and a traced timing.
    A program much slower than the nominal round time stops after the
    round that passes 2 * ``seconds``, to keep the run bounded.
    """
    rounds = max(2 if trace else 1, int(seconds / NOMINAL_ROUND_S[workload] + 0.5))
    if workload in SESSION_WORKLOADS:
        warmup_end = time.perf_counter() + SESSION_WARMUP_S
        for op in round_ops(workload, seed, -1, workdir):
            if time.perf_counter() >= warmup_end:
                break
            execute(op, False)
    records = []
    start = time.perf_counter()
    for rnd in range(rounds):
        for op in round_ops(workload, seed, rnd, workdir):
            record = execute(op, trace and rnd % 2 == 1)
            record["round"] = rnd
            records.append(record)
        if time.perf_counter() - start > 2 * seconds and rnd >= (1 if trace else 0):
            break
    return records
