"""Per-op output checks from identities independent of the route being timed.

* heat on a graph: for every t the row sums to one, sum_x K(t, 0, x) = 1
  (heat is conserved), and the series-vs-spectral cross-check stays
  within the `verify` heat budget;
* heat on the tree: every row's certified tail bound is within --tol;
* zeta: sum_{d|m} d pi_d = N_m exactly (Moebius), and the counting and
  determinant routes agree within the `recover_counts` guard;
* analyze: the same Moebius identity, and N_k equals zeta's N_m on the
  same graph in the same round (see ``cross_check``);
* verify: exit 0 (checked by the caller) and every line reads [pass].

``check_output`` returns ``(error, facts)``: ``error`` is None when the
output is correct, and ``facts`` carries what ``cross_check`` compares.
"""

from __future__ import annotations

import json
import math

ROW_SUM_TOL = 1e-9
HEAT_CROSS_CHECK_BUDGET = 1e-7  # verify: "heat kernel series vs spectral vs ODE"
ZETA_DISCREPANCY_GUARD = 1e-6  # zeta.recover_counts default guard


def _moebius_error(n_table: list[int], pi_table: list[int], order: int) -> str | None:
    if len(n_table) != order + 1 or len(pi_table) != order + 1:
        return f"expected {order + 1} counts, got {len(n_table)} and {len(pi_table)}"
    for m in range(1, order + 1):
        recomposed = sum(d * pi_table[d] for d in range(1, m + 1) if m % d == 0)
        if recomposed != n_table[m]:
            return f"sum_(d|{m}) d pi_d = {recomposed} != N_{m} = {n_table[m]}"
    return None


def _header_error(doc: dict, expect: dict, fields=("n", "q")) -> str | None:
    for field in fields:
        if field in expect and doc.get(field) != expect[field]:
            return f"{field} = {doc.get(field)!r}, expected {expect[field]}"
    return None


def _check_zeta(doc: dict, expect: dict):
    order = expect["order"]
    error = _header_error(doc, expect) or _moebius_error(doc["N_m"], doc["pi_m"], order)
    if error is None and not float(doc["max_discrepancy"]) <= ZETA_DISCREPANCY_GUARD:
        error = f"max_discrepancy {doc['max_discrepancy']} > {ZETA_DISCREPANCY_GUARD}"
    return error, {"N": doc["N_m"]}


def _check_analyze(doc: dict, expect: dict):
    order = expect["order"]
    error = _header_error(doc, expect) or _moebius_error(doc["N_k"], doc["pi_k"], order)
    return error, {"N": doc["N_k"]}


def _check_heat_graph(doc: dict, expect: dict):
    error = _header_error(doc, expect, fields=("q",))
    if error:
        return error, {}
    by_t: dict[float, dict[int, float]] = {}
    for row in doc["rows"]:
        delta = row["cross_check_delta"]
        if delta is None or not float(delta) <= HEAT_CROSS_CHECK_BUDGET:
            return f"cross_check_delta {delta} > {HEAT_CROSS_CHECK_BUDGET} at {row}", {}
        by_t.setdefault(float(row["t"]), {})[row["x"]] = float(row["value"])
    if sorted(by_t) != sorted(expect["ts"]):
        return f"rows cover t = {sorted(by_t)}, expected {sorted(expect['ts'])}", {}
    for t, values in by_t.items():
        if "n" in expect and sorted(values) != list(range(expect["n"])):
            return f"t = {t}: rows cover {len(values)} vertices, expected {expect['n']}", {}
        total = math.fsum(values.values())
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            return f"t = {t}: row sum {total!r} differs from 1 by more than {ROW_SUM_TOL}", {}
    return None, {}


def _check_heat_tree(doc: dict, expect: dict):
    rows = doc["rows"]
    want = len(expect["ts"]) * (expect["order"] + 1)
    if doc.get("q") != expect["q"] or len(rows) != want:
        return f"q = {doc.get('q')}, {len(rows)} rows; expected q = {expect['q']}, {want} rows", {}
    for row in rows:
        if not float(row["tail_bound"]) <= expect["tol"]:
            return f"tail_bound {row['tail_bound']} > --tol {expect['tol']} at {row}", {}
    return None, {}


def _check_verify(text: str):
    lines = text.splitlines()
    if not lines:
        return "verify printed nothing", {}
    bad = [line for line in lines if not line.startswith("[pass]")]
    return (f"{len(bad)} verify lines not [pass]: {bad[0]}" if bad else None), {}


_JSON_CHECKS = {
    "zeta": _check_zeta,
    "analyze": _check_analyze,
    "heat_graph": _check_heat_graph,
    "heat_tree": _check_heat_tree,
}


def check_output(op: dict, stdout: str) -> tuple[str | None, dict]:
    """Check the stdout of one op that exited 0."""
    if op["kind"] == "verify":
        return _check_verify(stdout)
    try:
        doc = json.loads(stdout)
        return _JSON_CHECKS[op["kind"]](doc, op["expect"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed {op['kind']} output: {type(exc).__name__}: {exc}", {}


def cross_check(records: list[dict]) -> None:
    """Mark analyze ops whose N_k disagree with zeta's N_m on the same graph.

    Records are grouped by (round, graph); a group that lacks either op
    (the run ended between the two) is not compared.
    """
    groups: dict[tuple, dict[str, dict]] = {}
    for rec in records:
        if rec["group"] is not None and rec["error"] is None:
            groups.setdefault((rec["round"], rec["group"]), {})[rec["kind"]] = rec
    for pair in groups.values():
        if "zeta" in pair and "analyze" in pair:
            n_zeta = pair["zeta"]["facts"]["N"]
            n_analyze = pair["analyze"]["facts"]["N"]
            if n_analyze != n_zeta[: len(n_analyze)]:
                pair["analyze"]["error"] = f"analyze N_k {n_analyze} != zeta N_m {n_zeta}"
