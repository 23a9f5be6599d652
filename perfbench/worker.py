"""Benchmark child process: import heatzeta.cli, then run what the job asks.

    python3 perfbench/worker.py JOB.json RESULT.json

The job's ``mode`` is one of

* ``import``: only import heatzeta.cli (set-up time, -X importtime);
* ``oneshot``: run one op, as a user's single command line would;
* ``session``: run the rounds of ops that ``seconds`` buys in this one
  process.

The worker notes the CLOCK_MONOTONIC time at which ``heatzeta.cli`` has been
imported, so that the parent, which noted the time just before it started
this process, can take the set-up time as the difference.  Nothing but the
standard library is imported before heatzeta, so set-up is heatzeta's.
"""

import time

import heatzeta.cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from check import check_output  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import KNOWN_FAILURES, run_rounds  # noqa: E402


def run_op(op: dict, tracer: Tracer | None = None) -> dict:
    """Run one op through ``heatzeta.cli.main``, time it and check its output."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
        tracer.begin_op()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = heatzeta.cli.main(op["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        code = None
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    layers = None
    if tracer is not None:
        layers = tracer.end_op()
        tracer.uninstall()
    facts: dict = {}
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    if error is None:
        error, facts = check_output(op, out.getvalue())
    return {
        "key": op["key"],
        "kind": op["kind"],
        "group": op["group"],
        "argv": op["argv"],
        "time_s": elapsed,
        "error": error,
        "facts": facts,
        "traced": tracer is not None,
        "layers": layers,
    }


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    result: dict = {"imported_at": IMPORTED_AT}
    mode = job["mode"]
    tracer = Tracer() if job.get("trace") else None
    if mode == "oneshot":
        result["record"] = run_op(job["op"], tracer)
    elif mode == "session":

        def execute(op: dict, traced: bool) -> dict:
            return run_op(op, tracer if traced else None)

        result["records"] = run_rounds(
            job["workload"], job["seed"], job["seconds"], tracer is not None, Path(job["workdir"]), execute
        )
        result["probes"] = [run_op(op) for op in KNOWN_FAILURES.get(job["workload"], [])]
    elif mode != "import":
        raise ValueError(f"unknown worker mode {mode!r}")
    if tracer is not None:
        result["span_names"] = tracer.span_names
    result["maxrss_mb"] = _maxrss_mb()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
