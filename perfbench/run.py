"""Run one heatzeta benchmark workload and print its metrics.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 30 --trace 0

Run it from the root of a heatzeta checkout: it runs the package from
``src/`` and reads the metric list from ``BENCHMARK.json``.  With
``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` it prints the per-layer metrics from a traced run.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (see workloads.py and README.md): ``counting`` and ``heat`` run
their ops in one session process per run; ``cli_oneshot`` starts a fresh
interpreter for every op.  Load is one client in a closed loop.  BLAS runs
single-threaded.  Scratch files go to ``.perfbench_work/`` in the checkout;
the traced run leaves its per-op span totals there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import cross_check
from workloads import SESSION_WORKLOADS, WORKLOADS, run_rounds

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SETUP_REPEATS = 3  # session workloads: the session worker's own import is one of them
IMPORTTIME_REPEATS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_OPS = 10  # op_tail_s: the highest percentile with at least this many ops above it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_GROUPS = ("numpy", "scipy", "sympy", "heatzeta")
LAYER_STATS = ("calls", "s", "self_s", "errors", "distinct_args", "misses", "edge_steps")


class BenchError(RuntimeError):
    """The run cannot produce a result (as opposed to an op failing)."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Starts worker processes one at a time, each waited for before returning."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        pythonpath = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), **BLAS_ENV)

    def run(self, job: dict, importtime: bool = False) -> dict:
        self.count += 1
        job_path = self.workdir / f"job-{self.count}.json"
        result_path = self.workdir / f"result-{self.count}.json"
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before starting a {job['mode']} worker")
        argv = [sys.executable, *(["-X", "importtime"] if importtime else []), str(WORKER), str(job_path), str(result_path)]
        spawned_at = monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['mode']} worker still running at the {RUN_DEADLINE_S:.0f} s deadline") from exc
        exited_at = monotonic()
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["imported_at"] - spawned_at
        result["wall_s"] = exited_at - spawned_at
        result["stderr"] = proc.stderr
        return result


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of -X importtime self time per package group.

    A module counts towards the nearest enclosing import (itself included)
    whose top-level package is in IMPORT_GROUPS, e.g. mpmath under sympy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _cumulative, field = line[len("import time:"):].split("|")
        name = field.strip()
        entries.append((int(self_us), (len(field) - len(field.lstrip(" ")) - 1) // 2, name))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    stack: list[tuple[int, str | None]] = []
    for self_us, level, name in reversed(entries):  # reversed post-order: parents first
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".", 1)[0]
        group = top if top in totals else (stack[-1][1] if stack else None)
        stack.append((level, group))
        if group is not None:
            totals[group] += self_us * 1e-6
    return totals


def per_key_sum(records: list[dict], value) -> float:
    """Sum over op keys of the median value among that key's records."""
    by_key: dict[str, list[float]] = {}
    for rec in records:
        by_key.setdefault(rec["key"], []).append(value(rec))
    return sum(statistics.median(values) for values in by_key.values())


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS ops above it.

    Below 2 * TAIL_OPS ops that percentile would fall under the median, so
    the median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_OPS:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def end_to_end(records: list[dict], setup: list[float], rss_mb: float) -> tuple[dict, str]:
    times = [r["latency_s"] for r in records]
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": per_key_sum(records, lambda r: r["time_s"]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    note = f"op_tail_s is p{tail_pct:.1f} of {len(times)} ops; setup_s is the median of {len(setup)} fresh imports"
    return values, note


def per_layer(names: list[str], records: list[dict], span_names: list[str], imports: dict, probes: list[dict]) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    both = {r["key"] for r in traced} & {r["key"] for r in untraced}
    traced_solve = per_key_sum([r for r in traced if r["key"] in both], lambda r: r["time_s"])
    untraced_solve = per_key_sum([r for r in untraced if r["key"] in both], lambda r: r["time_s"])
    modules = {name.split(".", 1)[0] for name in span_names}
    self_total = sum(r["layers"].get(f"{m}.self_s", 0.0) for r in traced for m in modules)
    special = {
        "trace.overhead_frac": traced_solve / untraced_solve - 1.0,
        "trace.self_coverage": self_total / sum(r["time_s"] for r in traced),
        "probe.failed_ops": sum(p["error"] is not None for p in probes),
        **{f"setup.import_{group}_s": seconds for group, seconds in imports.items()},
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span, _, stat = name.rpartition(".")
        if stat not in LAYER_STATS or (span not in span_names and span not in modules):
            raise BenchError(f"per-layer metric {name!r} names no traced span and statistic")
        values[name] = per_key_sum(traced, lambda r: r["layers"].get(name, 0))
    return values


def measure_session(children: Children, args, trace: bool, workdir: Path) -> dict:
    setup = [children.run({"mode": "import"})["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    job = {"mode": "session", "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": trace, "workdir": str(workdir)}
    result = children.run(job)
    for rec in result["records"]:
        rec["latency_s"] = rec["time_s"]  # the process is already running
    return {"records": result["records"], "probes": result["probes"], "setup": setup + [result["setup_s"]],
            "rss_mb": result["maxrss_mb"], "span_names": result.get("span_names", [])}


def measure_oneshot(children: Children, args, trace: bool, workdir: Path) -> dict:
    results = []

    def execute(op: dict, traced: bool) -> dict:
        results.append(children.run({"mode": "oneshot", "op": op, "trace": traced}))
        # a one-shot command's latency runs from process start to exit
        return {**results[-1]["record"], "latency_s": results[-1]["wall_s"]}

    records = run_rounds(args.workload, args.seed, args.seconds, trace, workdir, execute)
    return {"records": records, "probes": [], "setup": [r["setup_s"] for r in results],
            "rss_mb": max(r["maxrss_mb"] for r in results),
            "span_names": next((r["span_names"] for r in results if "span_names" in r), [])}


def run(args, root: Path, spec: dict) -> dict:
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    children = Children(root, workdir, monotonic() + RUN_DEADLINE_S)
    trace = bool(args.trace)
    try:
        measure = measure_session if args.workload in SESSION_WORKLOADS else measure_oneshot
        got = measure(children, args, trace, workdir)
        records, probes = got["records"], got["probes"]
        cross_check(records)
        failed = sum(r["error"] is not None for r in records)
        rounds = 1 + max(r["round"] for r in records)
        lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} rounds, "
                 f"{len(records)} ops attempted, {failed} failed, failed_ops_frac {failed / len(records):.4g}"]
        lines += [f"failed op: {' '.join(r['argv'])}: {r['error']}" for r in records if r["error"]]
        lines += [f"known failure, outside the timed rounds: {' '.join(p['argv'])}: {p['error'] or 'now passes'}"
                  for p in probes]
        if trace:
            imports = [import_times(children.run({"mode": "import"}, importtime=True)["stderr"])
                       for _ in range(IMPORTTIME_REPEATS)]
            medians = {g: statistics.median(t[g] for t in imports) for g in IMPORT_GROUPS}
            names = [m["name"] for m in spec["per_layer"]]
            values = per_layer(names, records, got["span_names"], medians, probes)
            metrics_spec = spec["per_layer"]
            trace_path = root / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps([
                {"key": r["key"], "round": r["round"], "time_s": r["time_s"], "layers": r["layers"]}
                for r in records if r["traced"]
            ], indent=1))
            lines.append(f"per-op span totals written to {trace_path.relative_to(root)}")
        else:
            values, note = end_to_end(records, got["setup"], got["rss_mb"])
            metrics_spec = spec["end_to_end"]
            lines.append(note)
        for m in metrics_spec:
            lines.append(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
        print("\n".join(lines))
        return {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "heatzeta" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a heatzeta checkout (src/heatzeta and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        result = run(args, root, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
