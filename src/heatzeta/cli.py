"""Command-line front end: analyze, heat, zeta, verify.

Exit codes: 0 all good, 2 input error, 3 invariant failure.  Output is
deterministic: floats are printed with 15 significant digits in scientific
notation and JSON keys are emitted in sorted order, so identical configs
produce byte-identical reports.

The command line is read by _parse from one grammar table, OPTIONS and
COMMANDS: the subcommand first, then the options it accepts, each by a
unique prefix, as --name value or --name=value.  It imports no parsing
module (argument parsing, gettext and locale took about 4 ms of a fresh
process), builds nothing at import and keeps no state between main calls.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from heatzeta import bessel, graphs, heat_graph, heat_tree, verify, zeta
from heatzeta.graphs import GraphError

__all__ = ["main"]

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INVARIANT_FAILURE = 3

# analyze and zeta take 0.2-0.35 s cold at order 2000 on every builtin, about
# 0.18 s of it import; their counts are integers of up to order log2(q) bits, so
# the counting grows like order^2; k4's a_k = 3^k passes Python's 4300-digit
# int-to-str limit near order 9000
MAX_ORDER = 2000


def _fmt(x: float) -> str:
    return f"{x:.14e}"


def _parse_float_list(text: str) -> list[float]:
    try:
        # + 0.0 turns -0 into 0, so --t -0 prints as --t 0 does
        values = [float(part) + 0.0 for part in text.split(",") if part.strip()]
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
    if _is_tree(args):
        zeros = [0] * args.order
        payload = {
            "schema": SCHEMA_VERSION,
            "graph": "tree",
            "q": _tree_q(args),
            "n": None,
            "vertex_transitive": True,
            "N_k0": [1, *zeros],
            "c_k0": [1, *zeros],
        }
        _emit(args, payload)
        return EXIT_OK
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


def cmd_heat(args) -> int:
    ts = _parse_float_list(args.t) if args.t is not None else [0.1, 1.0]
    if _is_tree(args):
        q = _tree_q(args)
        radii = range(args.order + 1)
        tables = heat_tree.tree_heat_kernels(q, ts, radii, args.tol)
        # the trapezoid's rounding term, 50 eps int |f| dmu, is at most 50 eps, as
        # |f| = |e^{-lambda t} phi_r| <= 1 on the tree's probability measure: a guard of
        # twice that leaves the rule's own error the other half
        tol = max(min(args.tol, 1e-10), 100.0 * sys.float_info.epsilon)
        try:  # t = 0 has no integral
            crosses = iter(heat_tree.tree_heat_kernel_integrals(
                q, [t for t in ts if t > 0], radii, tol
            ).tolist())
        except bessel.QuadratureError as exc:
            print(
                f"error: t = {exc.t}, r = {exc.r}: integral cross-check failed ({exc.reason})",
                file=sys.stderr,
            )
            return EXIT_INVARIANT_FAILURE
        rows = []
        for t, values in zip(ts, tables):
            cross = next(crosses) if t > 0 else [None] * len(values)
            rows += [(None if w is None else _fmt(abs(v.value - w)), v.r, _fmt(t),
                      _fmt(v.tail_bound), _fmt(v.value)) for v, w in zip(values, cross)]
        return _emit_heat(args, "tree", q, "cross_check_delta,r,t,tail_bound,value", rows)
    g = _resolve_graph(args)
    q = g.regularity()
    rows, series_rows = [], heat_graph.heat_kernel_rows(g, 0, ts, args.tol).tolist()
    # at q = 1 the Chebyshev row is the Bessel row (see it); no spectral row past the cap
    others = [[None] * g.n_vertices] * len(ts)
    if q >= 2:
        others = heat_graph.heat_kernel_chebyshev_row(g, 0, ts, args.tol).tolist()
    elif g.n_vertices <= heat_graph.DENSE_EIGEN_CAP:
        others = [heat_graph.heat_kernel_spectral_row(g, 0, t).tolist() for t in ts]
    for t, series, other in zip(ts, series_rows, others):
        text = _fmt(t)
        rows += [(None if w is None else _fmt(abs(v - w)), text, _fmt(v), x)
                 for x, (v, w) in enumerate(zip(series, other))]
    return _emit_heat(args, args.graph, q, "cross_check_delta,t,value,x", rows)


def _emit_heat(args, name: str, q: int, keys: str, rows: list[tuple]) -> int:
    """Write rows, tuples of the printed fields in the sorted order of keys, as CSV (a
    null field, no cross-check, empty) or as json.dumps(payload, sort_keys=True, indent=2)
    would, from one row template: fields are None, ints or _fmt strings, escape-free."""
    if args.format == "csv":
        lines = [keys, *(",".join("" if v is None else str(v) for v in row) for row in rows)]
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    # ints bare, other fields quoted; a None prints "None", which no _fmt string is, then null
    kinds = ["%d" if type(v) is int else '"%s"' for v in rows[0]]
    fields = [f'      "{key}": {kind}' for key, kind in zip(keys.split(","), kinds)]
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    body = ",\n".join([template % row for row in rows]).replace('"None"', "null")
    head = f'{{\n  "graph": {json.dumps(name)},\n  "q": {q},\n  "rows": [\n'
    _emit(args, f'{head}{body}\n  ],\n  "schema": "{SCHEMA_VERSION}"\n}}\n')
    return EXIT_OK


def cmd_zeta(args) -> int:
    g = _resolve_graph(args)
    q = g.regularity()
    M = args.order
    n_total = graphs.closed_geodesics_total(g, M)
    det_series = zeta.ihara_determinant_series(g, M)
    bad = next((m for m in range(1, M + 1) if m * det_series[m] != n_total[m]), None)
    if bad is not None:
        print(f"error: order {bad}: the determinant formula gives N_m = {bad * det_series[bad]}, "
              f"the closed-geodesic count {n_total[bad]}", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    primes = graphs.prime_geodesic_counts(n_total, M)
    log_series = zeta.zeta_log_series_from_counts(n_total, M)
    payload = {
        "schema": SCHEMA_VERSION,
        "graph": args.graph,
        "q": q,
        "n": g.n_vertices,
        "N_m": n_total,
        "pi_m": primes,
        "log_zeta_coefficients": [str(c) for c in log_series.coeffs],
        "determinant_formula_coefficients": [str(c) for c in det_series.coeffs],
        "max_discrepancy": _fmt(0.0),  # the two exact routes agree at every order
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    if _is_tree(args):
        results = verify.run_tree_checks((_tree_q(args),))
    elif args.graph:
        if not _is_builtin(args.graph):
            raise GraphError(
                f"verify runs on builtin graphs only (k4, c{{n}}, petersen, cube, k33, "
                f"tree), not {args.graph!r}: its enumeration oracles are sized for them"
            )
        name = args.graph.lower()
        if name[0] == "c" and name[1:].isdigit() and int(name[1:]) > graphs.TRANSITIVITY_CAP:
            raise GraphError(
                f"verify runs on cycles of at most {graphs.TRANSITIVITY_CAP} vertices, not "
                f"{name!r}: its checks read a vertex-transitivity search that stops there"
            )
        results = verify.run_graph_checks((name,))
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


# the command grammar: each option's type, default, choices and help, and each
# subcommand's handler, help and the options that one of its modes reads
OPTIONS = {
    "--graph": {"help": "builtin name or path to an edge-list file"},
    "--q": {"type": int, "help": "tree degree parameter (tree mode)"},
    "--order": {"type": int, "default": 10, "help": "table/series order M"},
    "--t": {"help": "comma-separated time grid"},
    "--tol": {"type": float, "default": 1e-10, "help": "series truncation tolerance"},
    "--format": {"choices": ("csv", "json"), "default": "json", "help": "output format"},
    "--out": {"help": "output path (default stdout)"},
}
COMMANDS = {
    "analyze": (cmd_analyze, "emit exact counting tables", ("--graph", "--q", "--order", "--out")),
    "heat": (cmd_heat, "tabulate heat kernel values with cross-checks", tuple(OPTIONS)),
    "zeta": (cmd_zeta, "emit the zeta report (counts, primes, coefficients)",
             ("--graph", "--order", "--out")),
    "verify": (cmd_verify, "run the full identity suite; nonzero exit on failure",
               ("--graph", "--q")),
}
DESCRIPTION = (
    "Heat kernels and Ihara-type zeta functions on regular graphs. Graphs: a builtin\n"
    "name (k4, c{n}, petersen, cube, k33, tree) or a file with 'u v' edge lines / a\n"
    "JSON {vertices, edges} document."
)


def _metavar(option: str) -> str:
    choices = OPTIONS[option].get("choices")
    return "{" + ",".join(choices) + "}" if choices else option[2:].upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: heatzeta [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"[{option} {_metavar(option)}]" for option in COMMANDS[command][2]]
    return f"usage: heatzeta {command} [-h] {' '.join(words)}"


def _help(command: str | None) -> None:
    """Print the usage and help of the command line, or of one subcommand, and exit 0."""
    if command is None:
        lines = [DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<9}{help_text}" for name, (_, help_text, _) in COMMANDS.items()]
    else:
        lines = [COMMANDS[command][1], "", "options:", f"  {'-h, --help':<22}show this help"]
        for option in COMMANDS[command][2]:
            lines.append(f"  {option + ' ' + _metavar(option):<22}{OPTIONS[option]['help']}")
    sys.stdout.write(_usage(command) + "\n\n" + "\n".join(lines) + "\n")
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, message: str) -> None:
    prog = "heatzeta" if command is None else f"heatzeta {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT_ERROR)


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv read by the grammar of OPTIONS and COMMANDS: the subcommand, then its
    options as --name value or --name=value, the last occurrence winning, a unique
    prefix naming an option; -h or --help prints help and exits 0.

    The namespace holds the command, its handler and each option the subcommand
    accepts, converted by its type, or its default.  A separate value may not look
    like an option: a "-" then neither a digit nor a dot.  Every refusal writes the
    usage and an error: line to stderr, in the wording of the standard library's
    parser, and exits 2.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, tokens = argv[0], argv[1:]
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, accepted = COMMANDS[command]
    values = {option[2:]: OPTIONS[option].get("default") for option in accepted}
    known, unknown, i = (*accepted, "--help"), [], 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        name, equals, value = token.partition("=")
        matches = [o for o in known if len(name) > 2 and o.startswith(name)]
        if name in known:
            matches = [name]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if token == "-h" or matches == ["--help"]:
            _help(command)
        if not matches:
            unknown.append(token)
            continue
        option = matches[0]
        if not equals:
            if i == len(tokens) or (tokens[i][:1] == "-" and tokens[i][1:2] not in "0123456789."):
                _fail(command, f"argument {option}: expected one argument")
            value = tokens[i]
            i += 1
        kind = OPTIONS[option].get("type", str)
        try:
            value = kind(value)
        except ValueError:
            _fail(command, f"argument {option}: invalid {kind.__name__} value: {value!r}")
        choices = OPTIONS[option].get("choices")
        if choices and value not in choices:
            listed = ", ".join(map(repr, choices))
            _fail(command, f"argument {option}: invalid choice: {value!r} (choose from {listed})")
        values[option[2:]] = value
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, handler=handler, **values)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
            raise GraphError(f"--tol must be finite and positive, got {args.tol}")
        # graph-mode heat accepts --order with the tree options but never reads it
        if args.command in ("analyze", "zeta") or (args.command == "heat" and _is_tree(args)):
            if args.order < 1:
                raise GraphError("--order must be >= 1")
            if args.order > MAX_ORDER:
                raise GraphError(f"--order must be at most {MAX_ORDER}, got {args.order}")
        return args.handler(args)
    except (ValueError, OSError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
