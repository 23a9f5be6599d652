"""Seeded random regular graphs for the benchmark, written as JSON graph files.

Graphs come from the pairing (configuration) model with restarts: n*d
points are shuffled and paired, and the pairing is thrown away and drawn
again until it has no self-loop, no repeated edge and one component.  The
result is a uniformly random connected simple d-regular graph.  Only the
standard library is used, and the same seed string gives byte-identical
files on every platform (``random.Random`` hashes string seeds with
SHA-512).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MAX_ATTEMPTS = 10_000


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges (u < v, sorted) of a connected simple d-regular graph on n vertices."""
    if d < 1 or d >= n or (n * d) % 2:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    for _ in range(MAX_ATTEMPTS):
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges: set[tuple[int, int]] = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            if _connected(n, edges):
                return sorted(edges)
    raise RuntimeError(f"pairing model found no simple connected graph in {MAX_ATTEMPTS} tries")


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adjacent[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def graph_document(n: int, edges: list[tuple[int, int]]) -> str:
    """The JSON graph file text read by ``heatzeta.graphs.load_graph``."""
    return json.dumps({"vertices": n, "edges": [list(e) for e in edges]}, separators=(",", ":")) + "\n"


def write_regular_graph(path: Path, n: int, d: int, seed: str) -> Path:
    """Write a random connected simple d-regular graph drawn from ``seed``."""
    edges = random_regular_edges(n, d, random.Random(seed))
    path.write_text(graph_document(n, edges))
    return path
