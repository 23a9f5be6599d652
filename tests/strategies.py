"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from heatzeta import graphs as G


@st.composite
def regular_multigraphs(draw, max_vertices: int = 8, max_extra_degree: int = 3):
    """Connected (q+1)-regular multigraphs: a Hamiltonian cycle plus a random pairing.

    The cycle makes every draw connected with degree 2; pairing the points
    of `extra` further half-edges per vertex adds the rest.  One-vertex
    graphs, self-loops, multi-edges and q = 1 (no extra half-edges) all occur.
    """
    n = draw(st.integers(1, max_vertices))
    extra = draw(st.integers(0, max_extra_degree).filter(lambda e: n * e % 2 == 0))
    points = draw(st.permutations([v for v in range(n) for _ in range(extra)]))
    edges = [(v, (v + 1) % n) for v in range(n)] + list(zip(points[::2], points[1::2]))
    return G.load_graph({"vertices": n, "edges": edges})
