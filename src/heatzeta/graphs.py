"""Graphs as directed edges with an involution, plus exact geodesic counting.

A graph is a set of vertices and a set of directed edges y with origin
o(y), terminus t(y) and an involution bar(y) satisfying bar(bar(y)) = y,
bar(y) != y, o(y) = t(bar(y)).  An undirected edge is the pair {y, bar(y)};
multi-edges and self-loops (with two distinct orientations) are allowed.

Counting functions, all relative to a base vertex x0:

* a_k(x): walks of length k from x0 to x,
* c_k(x): non-backtracking walks (geodesics) of length k from x0 to x,
* c_k^0 = c_k(x0): geodesic loops at x0,
* N_k^0: closed geodesics at x0 (no backtracking and no tail),
* N_k: closed geodesics from any starting vertex, with direction,
* pi_k: prime geodesic classes of length k.

Routes.  Every walk of the package is one loop, ``_recursion``: from a start
e_{x0} or I (``_unit``) it yields v_k = step(k, A v_{k-1}, v_{k-2}) for its
caller's step, and it is the one caller of the gather (``_adjacency_gather``)
over the neighbour table that each graph builds once (``Graph.neighbours``).
The steps are the integer counting engine's non-backtracking C_k = P_k(A)
(``_geodesic_step``), the walks A^k e_{x0}, and heat_graph's series and
Chebyshev rows, which weight their v_k through ``_weighted_sum``.  A vector
(one base vertex, and every heat row) takes the whole (q+1) x n table in one
``take`` and adds its rows with one ``np.add.reduce`` along axis 0, in table
order, so the sums are the column loop's; a matrix keeps that loop, one
column of the table at a time, as the one-take form took 1.1-1.2 times the
loop's time on n x n panels at n = 80-100 and saved nothing measurable in
closed_geodesics_total at n = 2,000.  One
indicator column gives c_k(x) for one base vertex, and the identity gives
every base vertex at once.  The loop totals behind N_k are the traces
tr C_k (the integer form of the Ihara-Bass identity), and ``_loop_counts``
takes every one up to K, with the entry C_k[x0, x0], from one run of the
identity to R = ceil(K/2): above R the product rule of Cartier (1973) and
Lubotzky-Phillips-Sarnak (1988) reads tr C_k from the Frobenius product
<C_r, C_s>, r + s = k, and the lower traces.  The split rule
(``_half_order``): R = ceil(K/2) while a proved bound shows every product
fits int64, and R = K above it, where the traces are the diagonals of the
full recursion, as Python-int products would cost more than the steps they
save.  The identity runs in column panels of b = max(1, _PANEL_ENTRIES // n)
columns, one at a time (``_panel_products``, which ``_walk_traces`` runs for
zeta's tr A^k too), so memory is O(n b), not n x n arrays.
``count_table`` runs ``_loop_counts`` once and, beside it, the walks a_k
from the indicator of x0.  Arrays are int64 only while a
proved bound (``_int64_safe``, ``_half_order``, ``_walk_traces``, and the walk
bound at ``count_table``) shows no number can overflow, and dtype=object (Python
ints) above it; every value leaves the engine as a Python int, so results
are exact at any length.  ``heat_graph`` builds the heat coefficients b_m
from the engine's c_k by their definition.
The edge-transfer recursion ``geodesic_counts``, the depth-first census
``enumerate_geodesic_counts`` and the explicit enumerations are oracles:
``verify`` and the tests compare the engine against them, and no
production path calls them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "CountTable",
    "Graph",
    "GraphError",
    "builtin_graph",
    "check_vertex_transitive",
    "closed_geodesics_at_vertex",
    "closed_geodesics_total",
    "count_table",
    "enumerate_closed_geodesics",
    "enumerate_geodesic_counts",
    "enumerate_geodesics",
    "geodesic_counts",
    "load_graph",
    "prime_geodesic_counts",
]

BUILTIN_NAMES = ("k4", "petersen", "cube", "k33")  # plus "c{n}" and "tree"


class GraphError(ValueError):
    """Raised for malformed, irregular, or otherwise unusable graph input."""


@dataclass(frozen=True)
class Graph:
    """Immutable graph in the edge-involution formalism.

    Directed edges are stored in bar-pairs: edge 2i and 2i+1 are each
    other's involution, so bar(e) = e ^ 1.
    """

    n_vertices: int
    origin: tuple[int, ...]
    terminus: tuple[int, ...]
    # out_edges[v]: edge indices leaving v, and the sorted set of the vertex
    # degrees, both built once at construction
    out_edges: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    degrees: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e, u in enumerate(self.origin):
            out[u].append(e)
        object.__setattr__(self, "out_edges", tuple(tuple(es) for es in out))
        object.__setattr__(self, "degrees", tuple(sorted({len(es) for es in out})))

    @property
    def n_edges(self) -> int:
        return len(self.origin)

    def bar(self, e: int) -> int:
        return e ^ 1

    def degree(self, v: int) -> int:
        return len(self.out_edges[v])

    def regularity(self) -> int:
        """Return q such that every vertex has degree q+1, else raise."""
        if len(self.degrees) != 1:
            raise GraphError(f"graph is not regular: degrees {list(self.degrees)}")
        d = self.degrees[0]
        if d < 2:
            raise GraphError(f"degree {d} < 2: no q >= 1 exists")
        return d - 1

    @cached_property
    def neighbours(self) -> np.ndarray:
        """The (n, q+1) neighbour table of a regular graph, read-only: row v holds
        the termini of out_edges[v], taken by one index of the terminus array by the
        out-edges in order.  Column-major, so each column that the counting
        engine's gather reads is contiguous.  Built on first use and kept on the
        graph, which is frozen; it is no field, so equality and the hash ignore it."""
        q = self.regularity()
        order = np.fromiter(chain.from_iterable(self.out_edges), np.intp, self.n_edges)
        table = np.asfortranarray(np.array(self.terminus)[order].reshape(self.n_vertices, q + 1))
        table.flags.writeable = False
        return table

    def adjacency_counts(self) -> list[Counter]:
        """adjacency_counts()[u][v] = number of directed edges u -> v."""
        rows: list[Counter] = [Counter() for _ in range(self.n_vertices)]
        for e in range(self.n_edges):
            rows[self.origin[e]][self.terminus[e]] += 1
        return rows


@dataclass
class CountTable:
    """The exact counts analyze reports for one graph and base vertex x0, k = 0..K."""

    a0: list[int]  # a_k(x0): closed walks at x0
    c0: list[int]  # c_k(x0): geodesic loops at x0
    n0: list[int]  # N_k^0 (transitive graphs)
    n_total: list[int]  # N_k
    primes: list[int]  # pi_k


def _build_graph(n: int, undirected_edges: list[tuple[int, int]]) -> Graph:
    if n > len(undirected_edges) + 1:  # refused before anything of size n is allocated
        raise GraphError(f"graph is disconnected: {n} vertices, {len(undirected_edges)} edges")
    origin: list[int] = []
    terminus: list[int] = []
    for u, v in undirected_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        origin.extend((u, v))
        terminus.extend((v, u))
    g = Graph(n, tuple(origin), tuple(terminus))
    if n == 0:
        raise GraphError("graph has no vertices")
    _require_connected(g)
    return g


def _bfs(g: Graph, s: int) -> tuple[list[int], list[int]]:
    """Distances from s (-1 where unreachable) and the vertices in BFS order."""
    dist = [-1] * g.n_vertices
    dist[s] = 0
    order = [s]
    for u in order:
        for e in g.out_edges[u]:
            v = g.terminus[e]
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    return dist, order


def _require_connected(g: Graph) -> None:
    missing = [v for v, d in enumerate(_bfs(g, 0)[0]) if d < 0]
    if missing:
        raise GraphError(f"graph is disconnected: vertices {missing} unreachable from 0")


def load_graph(source: str | Path | dict) -> Graph:
    """Build a Graph from an edge-list document.

    Accepted forms:

    * edge-list text, one undirected edge per line, "u v" with 0-based
      indices; duplicate lines create multi-edges;
    * a dict {"vertices": n, "edges": [[u, v], ...]} or its JSON text.

    A str is always parsed as document text; only a Path is read as a file.
    Each undirected edge expands to the directed pair {y, bar(y)}.
    """
    if isinstance(source, Path):
        source = source.read_text()
    if isinstance(source, str):
        stripped = source.strip()
        if stripped.startswith("{"):
            try:
                source = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise GraphError(f"invalid JSON graph document: {exc}") from exc
        else:
            edges = []
            for lineno, line in enumerate(stripped.splitlines(), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: non-integer vertex in {line!r}") from exc
                if u < 0 or v < 0:
                    raise GraphError(f"line {lineno}: negative vertex index in {line!r}")
                edges.append((u, v))
            if not edges:
                raise GraphError("edge list is empty")
            n = 1 + max(max(u, v) for u, v in edges)
            return _build_graph(n, edges)
    if isinstance(source, dict):
        try:
            n = source["vertices"]
            edges = [(u, v) for u, v in source["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc
        # no bools, no floats such as 2.0 or 1e400, no strings
        if not all(type(x) is int for x in (n, *(x for edge in edges for x in edge))):
            raise GraphError("malformed graph document: vertex numbers must be integers")
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        return _build_graph(n, edges)
    raise GraphError(f"unsupported graph source type {type(source).__name__}")


def builtin_graph(name: str) -> Graph:
    """Named test graphs: k4, c{n}, petersen, cube, k33."""
    name = name.lower()
    if name == "k4":
        return _build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    if name.startswith("c") and name[1:].isdigit():
        n = int(name[1:])
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return _build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return _build_graph(10, outer + spokes + inner)
    if name == "cube":
        return _build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])
    if name == "k33":
        return _build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    raise GraphError(f"unknown builtin graph {name!r}")


# ---------------------------------------------------------------------------
# counting recursions


def geodesic_counts(g: Graph, x0: int, K: int) -> list[list[int]]:
    """c_k(x) by edge transfer with Hashimoto's operator B = S - J, k = 0..K (oracle).

    w_k(e) counts the geodesics of length k from x0 whose last edge is e,
    and c_k(x) sums w_k over the edges into x.  A geodesic of length k + 1
    ending with f is one of length k ending at o(f) followed by f, unless
    its last edge is bar(f): w_{k+1}(f) = c_k(o(f)) - w_k(bar(f)), with
    w_0 = 0 (Hashimoto 1989; Bass 1992).  Works on any graph, regular or
    not; production counts come from _geodesic_matrices, which verify's
    counting check compares with it.
    """
    c = [0] * g.n_vertices
    c[x0] = 1
    table, w = [c], [0] * g.n_edges
    for _ in range(K):
        w = [c[u] - w[f ^ 1] for f, u in enumerate(g.origin)]
        c = [0] * g.n_vertices
        for e, v in enumerate(g.terminus):
            c[v] += w[e]
        table.append(c)
    return table


def _int64_safe(q: int, K: int) -> bool:
    """True when no number the engine forms up to order K can overflow int64.

    C_k[x, y] counts the geodesics of length k from y to x, and the
    geodesics of length k >= 1 from y number (q+1) q^{k-1}, so
    0 <= C_k <= (q+1) q^{k-1} entrywise.  The largest intermediate is the
    gather A C_{k-1} = C_k + q C_{k-2} (C_2 + (q+1) C_0 at k = 2), whose
    entries are at most (q+1) q^{k-1} + (q+1) q^{k-2} = (q+1)^2 q^{k-2};
    its partial sums and q C_{k-2} are smaller.  Traces are summed as
    Python ints, so no factor n enters.
    """
    return (q + 1) ** 2 * q ** max(K - 2, 0) < 2**63


def _half_order(n: int, q: int, K: int) -> int:
    """The order R to which _loop_counts runs the recursion for the traces up to K:
    ceil(K/2) while no Frobenius product of the product rule can overflow int64, else K.

    Each product is <C_r, C_s> = sum_{x,y} C_r[x, y] C_s[x, y] with r + s = k <= K
    and r, s >= 1, summed in int64 over one column panel (or one column).  Its
    terms are nonnegative, so every partial sum is at most the whole.  Column y
    of C_s sums to (q+1) q^{s-1}, the geodesics of length s from y, and every
    entry of C_r is at most (q+1) q^{r-1} (_int64_safe), so one column's terms
    sum to at most (q+1)^2 q^{k-2} and the n columns to n (q+1)^2 q^{K-2}: the
    test below.  Panels are summed as Python ints.  The recursion's own numbers
    to R <= K are smaller, so _int64_safe(q, R) holds as well.  Above the
    bound Python-int products would cost more than the steps they save, and
    the traces come from the diagonals of the full recursion (R = K).
    """
    return (K + 1) // 2 if n * (q + 1) ** 2 * q ** max(K - 2, 0) < 2**63 else K


def _adjacency_gather(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """M -> A M in M's dtype, a gather over g.neighbours, g regular: the rows of M
    at each column of the table, added in column order.  A vector takes the whole
    table at once and np.add.reduce adds its rows in that order from +0.0, so only
    a sum of -0.0 terms can differ from the loop's (+0.0), which no heat row sees:
    its entries add weighted vectors to +0.0 or positive starts.  A matrix takes
    one column at a time."""
    table = g.neighbours.T
    first, *rest = table

    def apply_a(m: np.ndarray) -> np.ndarray:
        if m.ndim == 1:
            return np.add.reduce(m.take(table), axis=0)
        out = m.take(first, axis=0)
        for column in rest:
            out += m.take(column, axis=0)
        return out

    return apply_a


def _unit(n: int, x0: int | None, dtype) -> np.ndarray:
    """The start of a recursion in dtype: the indicator e_{x0}, or I when x0 is None."""
    if x0 is None:
        return np.eye(n, dtype=dtype)
    start = np.zeros(n, dtype)
    start[x0] = 1
    return start


def _recursion(g: Graph, start: np.ndarray, K: int, step: Callable) -> Iterator[np.ndarray]:
    """Yield v_0 = start and v_k = step(k, A v_{k-1}, v_{k-2}), k = 1..K, with v_{-1} = 0:
    the one loop of the package over the gather.  A v_{k-1} is a fresh array, so a
    step may change it in place."""
    apply_a = _adjacency_gather(g)
    prev, cur = 0, start
    yield cur
    for k in range(1, K + 1):
        prev, cur = cur, step(k, apply_a(cur), prev)
        yield cur


def _weighted_sum(vectors: Iterable[np.ndarray], weights: Iterable) -> list[np.ndarray]:
    """[sum_k weights[k][i] v_k for each i], k in order: per order a list of floats, as
    a float times an array costs numpy less than a broadcast."""
    pairs = zip(vectors, weights)
    v, row = next(pairs)
    sums = [w * v for w in row]
    for v, row in pairs:
        for total, w in zip(sums, row):
            total += w * v
    return sums


def _geodesic_step(q: int) -> Callable:
    """The step of C_k: A C_{k-1} - (q+1) C_0 at k = 2 and A C_{k-1} - q C_{k-2} above."""
    return lambda k, a, prev: a if k == 1 else np.subtract(a, (q + 1 if k == 2 else q) * prev, out=a)


def _geodesic_matrices(g: Graph, K: int, x0: int | None = None) -> Iterator[np.ndarray]:
    """Yield C_0, ..., C_K of the three-term non-backtracking recursion.

    C_0 = X, C_1 = A X, C_2 = A C_1 - (q+1) X and C_k = A C_{k-1} - q C_{k-2},
    where X = e_{x0} (C_k[x] = c_k(x)) or, when x0 is None, X = I
    (C_k[x, y] = c_k(x) from base vertex y).  In the neighbour table
    multi-edges and self-loops repeat, so the recursion holds on every
    (q+1)-regular graph of this module.
    The dtype is int64 where _int64_safe allows it and object otherwise.
    """
    q = g.regularity()
    start = _unit(g.n_vertices, x0, np.int64 if _int64_safe(q, K) else object)
    yield from _recursion(g, start, K, _geodesic_step(q))


# entries of one column panel of the X = I recursion in _loop_counts (1 MB in int64)
_PANEL_ENTRIES = 2**17


def _loop_counts(g: Graph, K: int, x0: int | None = None) -> tuple[list[int], list[int]]:
    """(tr C_k, C_k[x0, x0]) for k = 0..K from one run of the X = I recursion to
    R = _half_order(n, q, K); the second list is zeros when x0 is None.

    For k > R, with s = k // 2 and r = k - s, the product rule for r >= s >= 1,
    C_r C_s = C_k + (q-1) sum_{j=1}^{s-1} q^{j-1} C_{k-2j} + c C_{r-s}, c = q^s
    for r > s and (q+1) q^{s-1} for r = s (Cartier 1973; Lubotzky, Phillips and
    Sarnak 1988), gives tr C_k from tr(C_r C_s) = <C_r, C_s>, a Frobenius
    product as C_k is symmetric, and the lower traces (_from_products).  The
    entry (x0, x0) follows the same rule with <C_r[:, x0], C_s[:, x0]>.  The
    diagonals and products come from _panel_products.
    """
    q, n = g.regularity(), g.n_vertices
    R = _half_order(n, q, K)
    dtype = np.int64 if _int64_safe(q, R) else object
    totals, at_x0 = _panel_products(g, K, R, _geodesic_step(q), dtype, x0)
    return _from_products(totals, q, R), _from_products(at_x0, q, R)


def _panel_products(
    g: Graph, K: int, R: int, step: Callable, dtype, x0: int | None = None
) -> tuple[list[int], list[int]]:
    """(raw, at_x0), k = 0..K, of the X = I recursion V_k of step run to R >= K/2:
    raw[k] = tr V_k (k <= R) or <V_{k-s}, V_s>, s = k // 2 (V_k symmetric); at_x0
    the same of entry and column x0, zeros for x0 None.  Panels of
    max(1, _PANEL_ENTRIES // n) columns run one at a time, each step adding its
    share of the diagonal, <V_k, V_k> and <V_k, V_{k-1}>; dtype must hold every
    entry and every partial sum of a panel's products."""
    n = g.n_vertices
    totals, at_x0 = [0] * (K + 1), [0] * (K + 1)
    width = max(1, _PANEL_ENTRIES // n)
    for first in range(0, n, width):
        panel = np.eye(n, min(width, n - first), -first, dtype)  # columns first, first + 1, ...
        col = x0 - first if x0 is not None and 0 <= x0 - first < panel.shape[1] else None
        prev = panel
        for k, cur in enumerate(_recursion(g, panel, R, step)):
            totals[k] += sum(cur.diagonal(-first).tolist())
            if col is not None:
                at_x0[k] = int(cur[x0, col])
            for j, other in ((2 * k - 1, prev), (2 * k, cur)):
                if R < j <= K:
                    totals[j] += int(np.vdot(cur, other))
                    if col is not None:
                        at_x0[j] = int(np.dot(cur[:, col], other[:, col]))
            prev = cur
    return totals, at_x0


def _walk_traces(g: Graph, L: int) -> list[int]:
    """The closed-walk traces tr A^k, k = 0..L, from _panel_products on the walk
    recursion A^k = A A^{k-1}.

    The walks of length k from a vertex number (q+1)^k, which bounds every
    entry of A^k and of a gather, and tr A^k <= n (q+1)^k.  So while
    n (q+1)^L < 2^63 the recursion runs to ceil(L/2) in int64 and tr A^k above
    it is the Frobenius product <A^{k-s}, A^s>, s = k // 2, whose partial sums
    are nonnegative and at most tr A^k.  Above that bound it runs to L for the
    diagonals alone, as Python-int products cost more than the steps they save
    (0.34 s against 0.20 s at n = 200, q = 3, L = 60), in int64 while
    (q+1)^L < 2^63 and Python ints above.
    """
    n, q = g.n_vertices, g.regularity()
    R = (L + 1) // 2 if n * (q + 1) ** L < 2**63 else L
    dtype = np.int64 if (q + 1) ** L < 2**63 else object
    return _panel_products(g, L, R, lambda k, a, prev: a, dtype)[0]


def _from_products(raw: list[int], q: int, R: int) -> list[int]:
    """tr C_k for k = 0..K from raw[k] = tr C_k (k <= R) and <C_r, C_s> (k > R).

    The product rule of _loop_counts reads tr C_k = <C_r, C_s> - (q-1) U_k - c tr C_{r-s},
    with U_k = sum_{j=1}^{s-1} q^{j-1} tr C_{k-2j}, carried as U_2 = U_3 = 0
    and U_{k+2} = tr C_k + q U_k, so each k costs a few Python ints.
    """
    traces, tails = list(raw), [0, 0]  # tails[k % 2] = U_k
    for k in range(2, len(traces)):
        s = k // 2
        if k > R:
            c = q**s if k % 2 else (q + 1) * q ** (s - 1)
            traces[k] -= (q - 1) * tails[k % 2] + c * traces[k % 2]
        tails[k % 2] = traces[k] + q * tails[k % 2]
    return traces


def closed_geodesics_at_vertex(g: Graph, x0: int, K: int) -> list[int]:
    """N_k^0: closed geodesics of length k at x0, for vertex-transitive graphs.

    Derived from the geodesic-loop counts c_k^0 by the recursion
    N_k^0 - N_{k-2}^0 = c_k^0 - q c_{k-2}^0 with N_1^0 = c_1^0 and
    N_2^0 = c_2^0.  The caller is responsible for transitivity.
    """
    c_loops = [int(c[x0]) for c in _geodesic_matrices(g, K, x0)]
    return _closed_from_loops(c_loops, g.regularity(), base_zero=1)


def _closed_from_loops(c_loops: list[int], q: int, base_zero: int) -> list[int]:
    n_table = [base_zero, *c_loops[1:3]]
    for k in range(3, len(c_loops)):
        n_table.append(n_table[k - 2] + c_loops[k] - q * c_loops[k - 2])
    return n_table


def closed_geodesics_total(g: Graph, K: int) -> list[int]:
    """N_k: closed geodesics of length k over all starting vertices.

    Uses c_k = tr C_k, the geodesic loops summed over base vertices, from
    _loop_counts, and the same alternating-tail recursion; N_0 is set to the
    vertex count by the zero-path convention but never enters a zeta
    coefficient.
    """
    return _closed_from_loops(_loop_counts(g, K)[0], g.regularity(), g.n_vertices)


def mobius(m: int) -> int:
    """Moebius function mu(m) for m >= 1, by trial division."""
    sign = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def prime_geodesic_counts(n_table: list[int], K: int) -> list[int]:
    """pi_k from N via Moebius inversion of N_m = sum_{d|m} d pi_d.

    m pi_m = sum_{d|m} mu(m/d) N_d, summed in Python ints over the multiples
    m of each d, then divided exactly; raises if any pi_m fails to be a
    nonnegative integer, which signals an inconsistent N table.
    """
    if len(n_table) <= K:
        raise ValueError(f"need N_k up to k={K}, got {len(n_table) - 1}")
    mu = [0] + [mobius(j) for j in range(1, K + 1)]
    sums = [0] * (K + 1)
    for d in range(1, K + 1):
        for j in range(1, K // d + 1):
            if mu[j]:
                sums[j * d] += mu[j] * n_table[d]
    primes = [0] * (K + 1)
    for m in range(1, K + 1):
        value, rest = divmod(sums[m], m)
        if rest or value < 0:
            raise ValueError(f"pi_{m} = {sums[m]}/{m} is not a nonnegative integer")
        primes[m] = value
    return primes


# ---------------------------------------------------------------------------
# brute-force enumeration oracles

ENUMERATION_CAP = 12


def enumerate_geodesics(g: Graph, x0: int, k: int) -> list[tuple[int, ...]]:
    """All non-backtracking edge sequences of length k starting at x0.

    Exhaustive, in canonical (lexicographic edge-index) order: the
    sequences of each length are extended, in order, by every edge leaving
    their end except the reverse of their last edge.  The explicit list
    that the depth-first census enumerate_geodesic_counts and, in the
    tests, the counting recursions are checked against.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at length {ENUMERATION_CAP}")
    if k == 0:
        return [()]
    out_edges, terminus = g.out_edges, g.terminus
    walks = [(e,) for e in out_edges[x0]]
    for _ in range(k - 1):
        walks = [w + (f,) for w in walks for f in out_edges[terminus[w[-1]]] if f != w[-1] ^ 1]
    return walks


def enumerate_geodesic_counts(g: Graph, x0: int, K: int) -> tuple[list[list[int]], list[int]]:
    """The census of one depth-first search from x0: (ends, closed), k = 0..K.

    ends[k][x] counts the non-backtracking edge sequences of length k from
    x0 that end at x, and closed[k] the closed, tailless ones at x0 (by
    convention ends[0] = e_{x0} and closed[0] = 1).  Every geodesic of
    length k < K is a prefix of one of length K, so the search visits each
    geodesic of every length once, counting it where it stands; no tuples
    are built.  Capped at ENUMERATION_CAP like enumerate_geodesics.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if K > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at length {ENUMERATION_CAP}")
    terminus = g.terminus
    ends = [[0] * g.n_vertices for _ in range(K + 1)]
    closed = [1] + [0] * K
    ends[0][x0] = 1
    # the edges f that may follow e, with t(f): f leaves t(e) and f != bar(e)
    follow = [
        tuple((f, terminus[f]) for f in g.out_edges[v] if f != e ^ 1)
        for e, v in enumerate(terminus)
    ]

    def visit(steps: tuple[tuple[int, int], ...], k: int, tail: int) -> None:
        # count the geodesics of length k that end with one of steps and their
        # one-edge extensions at k + 1: calls come only at every other length
        row = ends[k]
        for e, v in steps:
            row[v] += 1
            if v == x0 and e != tail:
                closed[k] += 1
            if k == K:
                continue
            below = ends[k + 1]
            for f, w in follow[e]:
                below[w] += 1
                if w == x0 and f != tail:
                    closed[k + 1] += 1
                if k + 1 < K:
                    visit(follow[f], k + 2, tail)

    if K:
        for e in g.out_edges[x0]:
            visit(((e, terminus[e]),), 1, e ^ 1)
    return ends, closed


def enumerate_closed_geodesics(
    g: Graph, x0: int, k: int, walks: list[tuple[int, ...]] | None = None
) -> list[tuple[int, ...]]:
    """Closed geodesics at x0 of length k: closed, no backtracking, no tail.

    The tail condition excludes sequences with y_0 = bar(y_{k-1}).  Length
    zero yields the single empty sequence by convention.  walks, when given,
    is enumerate_geodesics(g, x0, k), which a caller that already holds it
    need not enumerate again.
    """
    if k == 0:
        return [()]
    if walks is None:
        walks = enumerate_geodesics(g, x0, k)
    return [
        w
        for w in walks
        if g.terminus[w[-1]] == x0 and w[0] != g.bar(w[-1])
    ]


# ---------------------------------------------------------------------------
# vertex transitivity

TRANSITIVITY_CAP = 64


def check_vertex_transitive(g: Graph) -> tuple[bool | None, dict[int, list[int]]]:
    """Decide vertex transitivity by explicit automorphism search.

    Returns (verdict, witnesses) where witnesses maps each target vertex v
    to one automorphism (as an image list) sending vertex 0 to v.  The
    verdict is None when the graph has more than TRANSITIVITY_CAP vertices,
    in which case the caller may assert transitivity manually.

    Automorphisms preserve each vertex's distance profile (the sorted
    multiset of its distances), so every profile must equal vertex 0's.  The
    sweep runs one BFS per vertex and stops at the first that differs, which
    on a random regular graph is usually vertex 1.  Once every profile
    agrees it rules out no candidate image, and the search reads none.
    """
    n = g.n_vertices
    if n > TRANSITIVITY_CAP:
        return None, {}
    if len(g.degrees) != 1:
        return False, {}
    # BFS vertex order from 0 keeps each new vertex adjacent to a mapped one
    dist0, order = _bfs(g, 0)
    profile = sorted(dist0)
    if any(sorted(_bfs(g, s)[0]) != profile for s in range(1, n)):
        return False, {}
    adj = g.adjacency_counts()

    def search(target: int) -> list[int] | None:
        image = [-1] * n
        used = [False] * n
        image[0] = target
        used[target] = True

        def extend(idx: int) -> bool:
            if idx == len(order):
                return True
            u = order[idx]
            for cand in range(n):
                if used[cand]:
                    continue
                if any(adj[u][w] != adj[cand][image[w]] for w in order[:idx]):
                    continue
                image[u] = cand
                used[cand] = True
                if extend(idx + 1):
                    return True
                image[u] = -1
                used[cand] = False
            return False

        return image if extend(1) else None

    witnesses: dict[int, list[int]] = {}
    for v in range(n):
        found = search(v)
        if found is None:
            return False, {}
        witnesses[v] = found
    return True, witnesses


# ---------------------------------------------------------------------------
# convenience bundle


def count_table(g: Graph, x0: int, K: int) -> CountTable:
    """The counts of analyze for one base vertex from one run of the counting engine.

    One run of _loop_counts gives c_k(x0) (entry (x0, x0)) and the loop totals
    (the traces); beside it _recursion carries the walk vector A^k e_{x0}.  The
    walks of length k from x0 number (q+1)^k, which bounds every entry and
    partial sum of that vector, so it is int64 while (q+1)^K < 2^63 and
    dtype=object above.

    N_k^0 is only meaningful for vertex-transitive graphs; it is reported
    unconditionally and it is the caller's business (or the transitivity
    check's) to decide whether to trust it.
    """
    q = g.regularity()
    walks = _unit(g.n_vertices, x0, np.int64 if (q + 1) ** K < 2**63 else object)
    a0 = [int(a[x0]) for a in _recursion(g, walks, K, lambda k, a, prev: a)]
    c_total, c0 = _loop_counts(g, K, x0)
    n_total = _closed_from_loops(c_total, q, base_zero=g.n_vertices)
    return CountTable(
        a0=a0,
        c0=c0,
        n0=_closed_from_loops(c0, q, base_zero=1),
        n_total=n_total,
        primes=prime_geodesic_counts(n_total, K),
    )
