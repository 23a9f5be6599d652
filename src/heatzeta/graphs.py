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

Routes.  This module is the integer counting engine: the three-term
non-backtracking recursion run on integer arrays (``_geodesic_matrices``)
through one gather over the neighbour table (``_adjacency_gather``).  One
indicator column gives c_k(x) for one base vertex, the identity gives every
base vertex at once, and the traces give the loop totals behind N_k (the
integer form of the Ihara-Bass identity).  ``count_table`` runs the identity
once and, beside it, the gather on the indicator of x0 for the walks a_k.
Arrays are int64 only while a proved bound (``_int64_safe``, and the walk
bound at ``count_table``) shows no entry can overflow, and dtype=object
(Python ints) above it; every value leaves the engine as a Python int, so
results are exact at any length.  ``heat_graph`` builds the heat
coefficients b_m from the engine's c_k by their definition.
The edge-transfer recursion ``geodesic_counts`` and the depth-first
enumerations are oracles: ``verify`` and the tests compare the engine
against them, and no production path calls them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

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
    "enumerate_geodesics",
    "geodesic_counts",
    "geodesic_counts_recursion",
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
    # out_edges[v]: edge indices leaving v, built once at construction
    out_edges: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e, u in enumerate(self.origin):
            out[u].append(e)
        object.__setattr__(self, "out_edges", tuple(tuple(es) for es in out))

    @property
    def n_edges(self) -> int:
        return len(self.origin)

    def bar(self, e: int) -> int:
        return e ^ 1

    def degree(self, v: int) -> int:
        return len(self.out_edges[v])

    def regularity(self) -> int:
        """Return q such that every vertex has degree q+1, else raise."""
        degrees = {self.degree(v) for v in range(self.n_vertices)}
        if len(degrees) != 1:
            raise GraphError(f"graph is not regular: degrees {sorted(degrees)}")
        d = degrees.pop()
        if d < 2:
            raise GraphError(f"degree {d} < 2: no q >= 1 exists")
        return d - 1

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
    """c_k(x) by the edge-transfer recursion, k = 0..K (oracle).

    The state is a count per directed edge, and an edge e may be followed
    by any f with o(f) = t(e), f != bar(e).  Works on any graph, regular
    or not; production counts come from geodesic_counts_recursion.
    """
    n = g.n_vertices
    c0 = [0] * n
    c0[x0] = 1
    table = [c0]
    if K == 0:
        return table
    w = [1 if g.origin[e] == x0 else 0 for e in range(g.n_edges)]
    table.append(_edge_counts_to_vertex(g, w))
    for _ in range(2, K + 1):
        nxt = [0] * g.n_edges
        for f in range(g.n_edges):
            u = g.origin[f]
            barf = g.bar(f)
            total = 0
            for e in g.out_edges[u]:
                # incoming edges at u are the bars of outgoing ones
                incoming = g.bar(e)
                if incoming != barf:
                    total += w[incoming]
            nxt[f] = total
        w = nxt
        table.append(_edge_counts_to_vertex(g, w))
    return table


def _edge_counts_to_vertex(g: Graph, w: list[int]) -> list[int]:
    out = [0] * g.n_vertices
    for e, count in enumerate(w):
        out[g.terminus[e]] += count
    return out


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


def _adjacency_gather(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """M -> A M in M's dtype, a gather over the (n, q+1) neighbour table of a regular g."""
    nbr = np.array([[g.terminus[e] for e in es] for es in g.out_edges])

    def apply_a(m: np.ndarray) -> np.ndarray:
        out = m[nbr[:, 0]]
        for j in range(1, nbr.shape[1]):
            out += m[nbr[:, j]]
        return out

    return apply_a


def _geodesic_matrices(g: Graph, K: int, x0: int | None = None) -> Iterator[np.ndarray]:
    """Yield C_0, ..., C_K of the three-term non-backtracking recursion.

    C_0 = X, C_1 = A X, C_2 = A C_1 - (q+1) X and C_k = A C_{k-1} - q C_{k-2},
    where X = e_{x0} (C_k[x] = c_k(x)) or, when x0 is None, X = I
    (C_k[x, y] = c_k(x) from base vertex y).  In _adjacency_gather's table
    multi-edges and self-loops repeat, so the recursion holds on every
    (q+1)-regular graph of this module.
    The dtype is int64 where _int64_safe allows it and object otherwise.
    """
    q = g.regularity()
    n = g.n_vertices
    dtype = np.int64 if _int64_safe(q, K) else object
    apply_a = _adjacency_gather(g)
    if x0 is None:
        cur = np.zeros((n, n), dtype)
        cur[np.arange(n), np.arange(n)] = 1
    else:
        cur = np.zeros(n, dtype)
        cur[x0] = 1
    prev = cur
    yield cur
    for k in range(1, K + 1):
        nxt = apply_a(cur)
        if k >= 2:
            nxt -= (q + 1 if k == 2 else q) * prev
        prev, cur = cur, nxt
        yield cur


def geodesic_counts_recursion(g: Graph, x0: int, K: int) -> list[list[int]]:
    """c_k(x) for k = 0..K from base vertex x0 (regular graphs only).

    The single-vertex entry point of the counting engine: c_1 = A e_{x0},
    c_2 = A c_1 - (q+1) c_0 and c_{k+1} = A c_k - q c_{k-1} for k >= 2.
    """
    return [c.tolist() for c in _geodesic_matrices(g, K, x0)]


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

    Uses c_k = tr C_k, the geodesic loops summed over base vertices, and
    the same alternating-tail recursion; N_0 is set to the vertex count by
    the zero-path convention but never enters a zeta coefficient.
    """
    c_total = [sum(c.diagonal().tolist()) for c in _geodesic_matrices(g, K)]
    return _closed_from_loops(c_total, g.regularity(), g.n_vertices)


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

    Exhaustive depth-first search in canonical (lexicographic edge-index)
    order; this is the oracle the counting recursions are tested against.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at length {ENUMERATION_CAP}")
    results: list[tuple[int, ...]] = []
    if k == 0:
        return [()]
    stack: list[int] = []

    def descend(vertex: int, depth: int) -> None:
        if depth == k:
            results.append(tuple(stack))
            return
        forbidden = g.bar(stack[-1]) if stack else -1
        for e in g.out_edges[vertex]:
            if e == forbidden:
                continue
            stack.append(e)
            descend(g.terminus[e], depth + 1)
            stack.pop()

    descend(x0, 0)
    return results


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
    """
    n = g.n_vertices
    if n > TRANSITIVITY_CAP:
        return None, {}
    degrees = [g.degree(v) for v in range(n)]
    if len(set(degrees)) != 1:
        return False, {}
    dist = [_bfs(g, s)[0] for s in range(n)]
    # distance profile: sorted multiset of distances; automorphisms preserve it
    profiles = [tuple(sorted(row)) for row in dist]
    if len(set(profiles)) != 1:
        return False, {}
    adj = g.adjacency_counts()
    # BFS vertex order from 0 keeps each new vertex adjacent to a mapped one
    order = _bfs(g, 0)[1]

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
                if used[cand] or profiles[cand] != profiles[u]:
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

    The identity run gives c_k(x0) (entry (x0, x0)) and the loop totals (the
    traces); beside it the gather carries the walk vector A^k e_{x0}.  The
    walks of length k from x0 number (q+1)^k, which bounds every entry and
    partial sum of that vector, so it is int64 while (q+1)^K < 2^63 and
    dtype=object above.

    N_k^0 is only meaningful for vertex-transitive graphs; it is reported
    unconditionally and it is the caller's business (or the transitivity
    check's) to decide whether to trust it.
    """
    q = g.regularity()
    apply_a = _adjacency_gather(g)
    walks = np.zeros(g.n_vertices, np.int64 if (q + 1) ** K < 2**63 else object)
    walks[x0] = 1
    a0, c0, c_total = [], [], []
    for k, mat in enumerate(_geodesic_matrices(g, K)):
        if k:
            walks = apply_a(walks)
        a0.append(int(walks[x0]))
        c0.append(int(mat[x0, x0]))
        c_total.append(sum(mat.diagonal().tolist()))
    n_total = _closed_from_loops(c_total, q, base_zero=g.n_vertices)
    return CountTable(
        a0=a0,
        c0=c0,
        n0=_closed_from_loops(c0, q, base_zero=1),
        n_total=n_total,
        primes=prime_geodesic_counts(n_total, K),
    )
