"""Command-line front end: analyze, heat, zeta, verify.

Exit codes: 0 all good, 2 input error, 3 invariant failure.  Output is
deterministic: floats are printed with 15 significant digits in scientific
notation and JSON keys are emitted in sorted order, so identical configs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from heatzeta import bessel, graphs, heat_graph, heat_tree, verify, zeta
from heatzeta.graphs import GraphError

__all__ = ["main"]

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INVARIANT_FAILURE = 3

# analyze and zeta take about 0.4-0.5 s cold at order 2000, 0.2 s of it import;
# their counts are integers of up to order log2(q) bits, so the counting grows
# like order^2; k4's a_k = 3^k passes Python's 4300-digit int-to-str limit
# near order 9000
MAX_ORDER = 2000


def _fmt(x: float) -> str:
    return f"{x:.14e}"


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise GraphError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise GraphError(f"--t needs at least one time, got {text!r}")
    for value in values:
        if not math.isfinite(value):
            raise GraphError(f"t must be finite, got {value} in {text!r}")
    return values


def _is_builtin(spec: str) -> bool:
    lowered = spec.lower()
    return lowered in graphs.BUILTIN_NAMES or (
        lowered.startswith("c") and lowered[1:].isdigit()
    )


def _is_tree(args) -> bool:
    return args.graph is not None and args.graph.lower() == "tree"


def _tree_q(args) -> int:
    if args.q is None or args.q < 1:
        raise GraphError("tree mode needs --q >= 1")
    return args.q


def _resolve_graph(args) -> graphs.Graph:
    spec = args.graph
    if spec is None:
        raise GraphError("--graph is required")
    if _is_builtin(spec):
        return graphs.builtin_graph(spec.lower())
    path = Path(spec)
    if not path.exists():
        raise GraphError(f"graph file {spec!r} not found and not a builtin name")
    return graphs.load_graph(path)


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, dict):
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = payload
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    g = _resolve_graph(args)
    q = g.regularity()
    table = graphs.count_table(g, 0, args.order)
    verdict, _ = graphs.check_vertex_transitive(g)
    payload = {
        "schema": SCHEMA_VERSION,
        "graph": args.graph,
        "q": q,
        "n": g.n_vertices,
        "vertex_transitive": verdict,
        "a_k": table.a0,
        "c_k0": table.c0,
        "N_k0": table.n0,
        "N_k": table.n_total,
        "pi_k": table.primes,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_analyze_tree(args) -> int:
    q = _tree_q(args)
    zeros = [0] * (args.order + 1)
    payload = {
        "schema": SCHEMA_VERSION,
        "graph": "tree",
        "q": q,
        "n": None,
        "vertex_transitive": True,
        "N_k0": [1] + zeros[1:],
        "c_k0": [1] + zeros[1:],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_heat(args) -> int:
    ts = _parse_float_list(args.t) if args.t is not None else [0.1, 1.0]
    if _is_tree(args):
        q = _tree_q(args)
        radii = range(args.order + 1)
        rows = []
        for t in ts:
            values = heat_tree.tree_heat_kernels(q, t, radii, args.tol)
            if q >= 2 and t > 0:
                try:
                    cross = heat_tree.tree_heat_kernel_integrals(
                        q, t, radii, min(args.tol, 1e-10)
                    ).tolist()
                except bessel.QuadratureError as exc:
                    print(
                        f"error: t = {t}, r = {exc.r}: integral cross-check failed ({exc.reason})",
                        file=sys.stderr,
                    )
                    return EXIT_INVARIANT_FAILURE
            else:
                cross = [value.value for value in values]
            rows.extend(
                {
                    "t": t,
                    "r": value.r,
                    "value": value.value,
                    "tail_bound": value.tail_bound,
                    "cross_check_delta": abs(value.value - integral),
                }
                for value, integral in zip(values, cross)
            )
        return _emit_heat(args, "tree", q, rows)
    g = _resolve_graph(args)
    q = g.regularity()
    use_spectral = g.n_vertices <= heat_graph.DENSE_EIGEN_CAP
    rows = []
    for t, series in zip(ts, heat_graph.heat_kernel_rows(g, 0, ts, args.tol).tolist()):
        if use_spectral:
            spectral = heat_graph.heat_kernel_spectral_row(g, 0, t).tolist()
        for x, value in enumerate(series):
            delta = abs(value - spectral[x]) if use_spectral else None
            rows.append({"t": t, "x": x, "value": value, "cross_check_delta": delta})
    return _emit_heat(args, args.graph, q, rows)


def _emit_heat(args, name: str, q: int, rows: list[dict]) -> int:
    if args.format == "csv":
        keys = sorted(rows[0].keys())
        lines = [",".join(keys)]
        for row in rows:
            lines.append(
                ",".join(
                    _fmt(row[k]) if isinstance(row[k], float) else str(row[k])
                    for k in keys
                )
            )
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    payload = {
        "schema": SCHEMA_VERSION,
        "graph": name,
        "q": q,
        "rows": [
            {
                k: (_fmt(v) if isinstance(v, float) else v)
                for k, v in row.items()
            }
            for row in rows
        ],
    }
    _emit(args, payload)
    return EXIT_OK


# c of the float determinant route's rounding bound (see _determinant_order_limit)
_DETERMINANT_ROUNDING = 8


def _determinant_order_limit(n: int, q: int, M: int) -> int | None:
    """First order m <= M at which c eps n m (q^m + m q^{m/2}), the rounding bound
    of m det_m, reaches 1/2, so that the float route no longer pins N_m; or None.

    zeta.ihara_determinant_series sums n power sums s_m = beta^m + beta'^m,
    beta beta' = q, |alpha| = |beta + beta'| <= q + 1, so |beta|, |beta'| <= q,
    by s_m = alpha s_{m-1} - q s_{m-2}.  An error entering at step k reaches m
    times U_{m-k} = sum_{i<=m-k} beta^i beta'^{m-k-i}, and ds_m/dalpha = m U_{m-1}:
    |U_j| is about q^j for real roots far apart (alpha = -(q+1), bipartite) and
    (j+1) q^{j/2} where they meet (alpha = -2 sqrt(q), an even cycle's
    eigenvalue 4).  eigh's eigenvalue errors of a few eps and each step's
    rounding of eps/2 (q+1) q^{k-1} so add up to a few eps m (q^m + m q^{m/2})
    per power sum.  Worst-case alignment would make c a few tens; c = 8 is
    five times the largest measured ratio to eps n m (q^m + m q^{m/2}): 1.5
    (c8, m = 1) on c3-c20 to order 2000 and k4, petersen, cube, k33 to 60,
    0.83 on seeded random 3-, 4- and 6-regular graphs.  Against eps n m q^m
    alone the even cycles reach 250-1000.
    """

    def bound(m: int) -> float:  # increasing in m: the search stops before q^m leaves float range
        return _DETERMINANT_ROUNDING * sys.float_info.epsilon * n * m * (q**m + m * q ** (m / 2))

    return next((m for m in range(1, M + 1) if bound(m) >= 0.5), None)


def cmd_zeta(args) -> int:
    g = _resolve_graph(args)
    q = g.regularity()
    M = args.order
    limit = _determinant_order_limit(g.n_vertices, q, M)
    if limit is not None:
        raise GraphError(
            f"--order {M}: from order {limit} the float determinant route's rounding bound "
            f"{_DETERMINANT_ROUNDING} eps n m (q^m + m q^(m/2)) reaches 1/2, so it cannot "
            f"resolve N_m; use --order {limit - 1} or less"
        )
    n_total = graphs.closed_geodesics_total(g, M)
    det_series = zeta.ihara_determinant_series(g, M)
    primes = graphs.prime_geodesic_counts(n_total, M)
    log_series = zeta.zeta_log_series_from_counts(n_total, M)
    max_disc = max(abs(m * float(det_series[m]) - n_total[m]) for m in range(1, M + 1))
    payload = {
        "schema": SCHEMA_VERSION,
        "graph": args.graph,
        "q": q,
        "n": g.n_vertices,
        "N_m": n_total,
        "pi_m": primes,
        "log_zeta_coefficients": [str(c) for c in log_series.coeffs],
        "determinant_formula_coefficients": [_fmt(float(c)) for c in det_series.coeffs],
        "max_discrepancy": _fmt(max_disc),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    if _is_tree(args):
        if args.q is None or args.q < 2:
            raise GraphError(
                "verify --graph tree needs --q >= 2: its tree heat kernel series vs "
                "integral check has no integral route for q = 1"
            )
        results = verify.run_tree_checks((args.q,))
    elif args.graph:
        if not _is_builtin(args.graph):
            raise GraphError(
                f"verify runs on builtin graphs only (k4, c{{n}}, petersen, cube, k33, "
                f"tree), not {args.graph!r}: its enumeration oracles are sized for them"
            )
        results = verify.run_graph_checks((args.graph.lower(),))
    else:
        results = verify.run_all_checks()
    failed = False
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(
            f"[{status}] {result.name}: worst {_fmt(result.worst)} "
            f"(budget {_fmt(result.budget)})"
        )
        failed = failed or not result.passed
    return EXIT_INVARIANT_FAILURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatzeta",
        description=(
            "Heat kernels and Ihara-type zeta functions on regular graphs. "
            "Graphs: a builtin name (k4, c{n}, petersen, cube, k33, tree) or "
            "a file with 'u v' edge lines / a JSON {vertices, edges} document."
        ),
    )
    options = {
        "--graph": {"help": "builtin name or path to an edge-list file"},
        "--q": {"type": int, "help": "tree degree parameter (tree mode)"},
        "--order": {"type": int, "default": 10, "help": "table/series order M"},
        "--t": {"help": "comma-separated time grid"},
        "--tol": {"type": float, "default": 1e-10},
        "--format": {"choices": ("csv", "json"), "default": "json"},
        "--out": {"help": "output path (default stdout)"},
    }
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand accepts exactly the options it reads
    for name, help_text, accepted in (
        ("analyze", "emit exact counting tables", ("--graph", "--q", "--order", "--out")),
        ("heat", "tabulate heat kernel values with cross-checks", tuple(options)),
        ("zeta", "emit the zeta report (counts, primes, coefficients)",
         ("--graph", "--order", "--out")),
        ("verify", "run the full identity suite; nonzero exit on failure", ("--graph", "--q")),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in accepted:
            p.add_argument(option, **options[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
            raise GraphError(f"--tol must be finite and positive, got {args.tol}")
        # graph-mode heat accepts --order with the tree options but never reads it
        if args.command in ("analyze", "zeta") or (args.command == "heat" and _is_tree(args)):
            if args.order < 1:
                raise GraphError("--order must be >= 1")
            if args.order > MAX_ORDER:
                raise GraphError(f"--order must be at most {MAX_ORDER}, got {args.order}")
        if args.command == "analyze":
            if _is_tree(args):
                return cmd_analyze_tree(args)
            return cmd_analyze(args)
        if args.command == "heat":
            return cmd_heat(args)
        if args.command == "zeta":
            return cmd_zeta(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise GraphError(f"unknown command {args.command}")  # pragma: no cover
    except (ValueError, OSError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
