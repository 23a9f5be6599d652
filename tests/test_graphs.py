import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatzeta import graphs as G
from heatzeta.graphs import GraphError
from strategies import regular_multigraphs


def brute_force_vertex_counts(g, x0, k):
    walks = G.enumerate_geodesics(g, x0, k)
    counts = [0] * g.n_vertices
    for w in walks:
        end = g.terminus[w[-1]] if w else x0
        counts[end] += 1
    return counts


class TestLoading:
    def test_k4_sizes(self):
        g = G.builtin_graph("k4")
        assert g.n_vertices == 4
        assert g.n_edges == 12
        assert g.regularity() == 2

    def test_c5_sizes(self):
        g = G.builtin_graph("c5")
        assert g.n_vertices == 5
        assert g.n_edges == 10
        assert g.regularity() == 1

    def test_petersen(self):
        g = G.builtin_graph("petersen")
        assert g.n_vertices == 10
        assert g.n_edges == 30
        assert g.regularity() == 2

    def test_text_format(self):
        g = G.load_graph("0 1\n1 2\n2 0\n")
        assert g.n_vertices == 3
        assert g.n_edges == 6

    def test_json_format(self):
        g = G.load_graph(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        assert g.n_edges == 6

    def test_duplicate_lines_make_multiedges(self):
        g = G.load_graph("0 1\n0 1\n")
        assert g.n_edges == 4
        assert g.regularity() == 1

    def test_involution_axioms(self):
        g = G.builtin_graph("cube")
        for e in range(g.n_edges):
            assert g.bar(g.bar(e)) == e
            assert g.bar(e) != e
            assert g.origin[e] == g.terminus[g.bar(e)]

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            G.load_graph("0 1\n2 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphError, match="line 2"):
            G.load_graph("0 1\n1 2 3\n")

    def test_bad_json_rejected(self):
        with pytest.raises(GraphError):
            G.load_graph("{not json")

    def test_unknown_builtin(self):
        with pytest.raises(GraphError):
            G.builtin_graph("dodecahedron")


# a small grammar of graph documents: ints (negative up to 10^18), floats
# (inf, nan), strings, booleans, null, and edge pairs that are short or long
_SCALARS = st.one_of(
    st.integers(-2, 5),
    st.integers(-(10**18), 10**18),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_EDGES = st.lists(st.lists(_SCALARS, max_size=3), max_size=8)
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"vertices": _SCALARS, "edges": _EDGES}),
    st.dictionaries(st.sampled_from(["vertices", "edges"]), _SCALARS | _EDGES, max_size=2),
)


class TestLoadGraphInput:
    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": -1, "edges": []}',
            '{"vertices": 1e400, "edges": [[0, 1]]}',
            '{"vertices": 2.7, "edges": [[0, 1], [1, 0]]}',
            '{"vertices": 2.0, "edges": [[0, 1], [1, 0]]}',
            '{"vertices": true, "edges": []}',
            '{"vertices": "3", "edges": [[0, 1], [1, 2], [2, 0]]}',
            '{"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0.0]]}',
            '{"vertices": 1000000000000000000, "edges": [[0, 1]]}',
        ],
        ids=["negative", "overflowing", "fractional", "float", "bool", "string", "float-end", "huge"],
    )
    def test_bad_vertex_numbers_refused(self, text):
        with pytest.raises(GraphError):
            G.load_graph(text)

    def test_huge_index_refused_before_allocation(self):
        with pytest.raises(GraphError, match="disconnected: 1000000000000000001 vertices"):
            G.load_graph("0 1\n1 1000000000000000000\n")

    @given(doc=_DOCUMENTS, as_text=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_json_documents_load_or_raise_graph_error(self, doc, as_text):
        try:
            g = G.load_graph(json.dumps(doc) if as_text else doc)
        except GraphError:
            return
        assert isinstance(g, G.Graph) and g.n_vertices == doc["vertices"]

    @given(lines=st.lists(st.lists(_SCALARS.map(str), max_size=3), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_edge_list_text_loads_or_raises_graph_error(self, lines):
        try:
            g = G.load_graph("\n".join(" ".join(parts) for parts in lines))
        except GraphError:
            return
        assert isinstance(g, G.Graph)


def adjacency_power_walks(g, x0, K):
    """a_k(x0), k = 0..K, by multiplying out adjacency powers on Python ints."""
    adj = g.adjacency_counts()
    cur, walks = {x0: 1}, [1]
    for _ in range(K):
        nxt = {}
        for u, mult in cur.items():
            for v, m2 in adj[u].items():
                nxt[v] = nxt.get(v, 0) + mult * m2
        cur = nxt
        walks.append(cur.get(x0, 0))
    return walks


class TestPathCounts:
    """The walks a_k(x0) of count_table against adjacency powers."""

    def test_k4_two_step_return(self):
        assert G.count_table(G.builtin_graph("k4"), 0, 2).a0[2] == 3

    def test_c5_two_step_return(self):
        assert G.count_table(G.builtin_graph("c5"), 0, 2).a0[2] == 2

    def test_length_zero_is_indicator(self):
        g = G.builtin_graph("petersen")
        assert G.count_table(g, 3, 0).a0 == [1]
        assert G.count_table(g, 3, 1).a0 == [1, 0]

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "cube", "k33"])
    def test_matches_adjacency_powers(self, name):
        g = G.builtin_graph(name)
        for x0 in range(g.n_vertices):
            assert G.count_table(g, x0, 12).a0 == adjacency_power_walks(g, x0, 12)

    @given(g=regular_multigraphs(), K=st.integers(0, 12), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_multigraphs_match_matrix_powers(self, g, K, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        adj = np.zeros((g.n_vertices, g.n_vertices), np.int64)
        np.add.at(adj, (g.origin, g.terminus), 1)
        expected = [int(np.linalg.matrix_power(adj, k)[x0, x0]) for k in range(K + 1)]
        assert G.count_table(g, x0, K).a0 == expected

    # the walk vector is int64 while (q+1)^K < 2^63: up to K = 39 on k4
    # (q = 2) and K = 31 on k5 (q = 3); int64 would wrap by K = 60
    @pytest.mark.parametrize(
        "n, K", [(4, 31), (4, 32), (4, 39), (4, 40), (4, 60), (5, 31), (5, 32), (5, 60)]
    )
    def test_int64_object_boundary(self, n, K):
        g = G.load_graph("\n".join(f"{u} {v}" for u in range(n) for v in range(u + 1, n)))
        a0 = G.count_table(g, 0, K).a0
        assert a0 == adjacency_power_walks(g, 0, K)
        assert all_python_ints(a0)


class TestGeodesicCounts:
    def test_k4_length_two(self):
        c = G.geodesic_counts(G.builtin_graph("k4"), 0, 2)
        assert c[2] == [0, 2, 2, 2]

    def test_base_cases(self):
        g = G.builtin_graph("k33")
        c = G.geodesic_counts(g, 0, 1)
        assert c[0][0] == 1 and sum(c[0]) == 1
        assert c[1] == [0, 0, 0, 1, 1, 1]

    def test_c5_loop_counts(self):
        g = G.builtin_graph("c5")
        c = G.geodesic_counts(g, 0, 5)
        assert all(c[k][0] == 0 for k in range(1, 5))
        assert c[5][0] == 2

    @pytest.mark.parametrize("name", ["k4", "c5", "c8", "petersen", "cube", "k33"])
    def test_transfer_vs_adjacency_recursion(self, name):
        g = G.builtin_graph(name)
        for x0 in range(g.n_vertices):
            assert G.geodesic_counts(g, x0, 12) == G.geodesic_counts_recursion(g, x0, 12)

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "cube", "k33"])
    @pytest.mark.parametrize("k", range(8))
    def test_against_enumeration(self, name, k):
        g = G.builtin_graph(name)
        assert G.geodesic_counts(g, 0, k)[k] == brute_force_vertex_counts(g, 0, k)

    def test_multigraph(self):
        g = G.load_graph("0 1\n0 1\n")
        c = G.geodesic_counts(g, 0, 4)
        # two parallel edges: each step may continue through the other edge
        assert c[2][0] == 2
        assert G.geodesic_counts_recursion(g, 0, 4) == c


def oracle_loop_totals(g, K):
    """sum over base vertices of c_k^0 from the edge-transfer oracle."""
    totals = [0] * (K + 1)
    for base in range(g.n_vertices):
        rows = G.geodesic_counts(g, base, K)
        for k in range(K + 1):
            totals[k] += rows[k][base]
    return totals


def all_python_ints(values):
    return all(type(v) is int for v in values)


class TestCountingEngine:
    """The integer engine against the edge-transfer and DFS oracles."""

    @given(g=regular_multigraphs(), K=st.integers(0, 10), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_vertex_rows_match_oracle(self, g, K, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        rows = G.geodesic_counts_recursion(g, x0, K)
        assert rows == G.geodesic_counts(g, x0, K)
        assert all(all_python_ints(row) for row in rows)

    @given(g=regular_multigraphs(), K=st.integers(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_loop_totals_and_closed_totals_match_oracle(self, g, K):
        q = g.regularity()
        totals = oracle_loop_totals(g, K)
        n_total = G.closed_geodesics_total(g, K)
        assert n_total == G._closed_from_loops(totals, q, base_zero=g.n_vertices)
        assert all_python_ints(n_total)
        for k in range(1, min(K, 4) + 1):
            dfs = sum(len(G.enumerate_closed_geodesics(g, v, k)) for v in range(g.n_vertices))
            assert n_total[k] == dfs

    @given(g=regular_multigraphs(), K=st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_count_table_matches_oracle(self, g, K):
        q = g.regularity()
        c = G.geodesic_counts(g, 0, K)
        c0 = [row[0] for row in c]
        totals = oracle_loop_totals(g, K)
        n_total = G._closed_from_loops(totals, q, base_zero=g.n_vertices)
        table = G.count_table(g, 0, K)
        assert table.a0 == adjacency_power_walks(g, 0, K)
        assert table.c0 == c0
        assert table.n0 == G._closed_from_loops(c0, q, base_zero=1)
        assert table.n0 == G.closed_geodesics_at_vertex(g, 0, K)
        assert table.n_total == n_total
        assert table.primes == G.prime_geodesic_counts(n_total, K)
        assert all_python_ints(table.a0 + table.c0 + table.n_total + table.n0 + table.primes)

    @given(g=regular_multigraphs(), K=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_entry_bound_behind_int64_guard(self, g, K):
        # C_k[x, y] >= 0 and every column sums to (q+1) q^{k-1} (k >= 1)
        q = g.regularity()
        for k, mat in enumerate(G._geodesic_matrices(g, K)):
            column_sums = mat.sum(axis=0).tolist()
            expected = 1 if k == 0 else (q + 1) * q ** (k - 1)
            assert column_sums == [expected] * g.n_vertices
            assert mat.min() >= 0

    @pytest.mark.parametrize("name", ["k4", "c5", "c8", "petersen", "cube", "k33"])
    def test_builtin_totals_against_oracles_to_order_12(self, name):
        g = G.builtin_graph(name)
        K = 12
        totals = oracle_loop_totals(g, K)
        n_total = G._closed_from_loops(totals, g.regularity(), base_zero=g.n_vertices)
        assert G.closed_geodesics_total(g, K) == n_total
        table = G.count_table(g, 0, K)
        assert table.n_total == n_total
        for k in range(1, 7):
            dfs = sum(len(G.enumerate_closed_geodesics(g, v, k)) for v in range(g.n_vertices))
            assert n_total[k] == dfs

    def test_int64_guard_boundary(self):
        # (q+1)^2 q^{K-2} < 2^63 holds at q = 3 up to K = 39
        assert G._int64_safe(3, 39)
        assert not G._int64_safe(3, 40)
        assert G._int64_safe(1, 10_000)

    def test_object_fallback_matches_oracle(self):
        k5 = G.load_graph("\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)))
        assert k5.regularity() == 3
        for K, dtype in ((39, np.int64), (40, object), (45, object)):
            assert all(c.dtype == dtype for c in G._geodesic_matrices(k5, K, 0))
            assert all(c.dtype == dtype for c in G._geodesic_matrices(k5, K))
            rows = G.geodesic_counts_recursion(k5, 0, K)
            assert rows == G.geodesic_counts(k5, 0, K)
            assert all(all_python_ints(row) for row in rows)
            totals = oracle_loop_totals(k5, K)
            n_total = G.closed_geodesics_total(k5, K)
            assert n_total == G._closed_from_loops(totals, 3, base_zero=5)
            assert all_python_ints(n_total)
            n0 = G.closed_geodesics_at_vertex(k5, 0, K)
            assert all_python_ints(n0) and [5 * v for v in n0[1:]] == n_total[1:]
        # by K = 45 every single count exceeds int64
        assert min(G.geodesic_counts_recursion(k5, 0, 45)[45]) > 2**63

    def test_out_edges_built_at_construction(self):
        g = G.builtin_graph("k4")
        assert g.out_edges == ((0, 2, 4), (1, 6, 8), (3, 7, 10), (5, 9, 11))
        assert "out_edges" not in repr(g)
        assert g == G.Graph(g.n_vertices, g.origin, g.terminus)
        assert hash(g) == hash(G.Graph(g.n_vertices, g.origin, g.terminus))


class TestClosedGeodesics:
    def test_k4_values(self):
        g = G.builtin_graph("k4")
        n0 = G.closed_geodesics_at_vertex(g, 0, 4)
        assert n0[3] == 6
        assert n0[4] == 6

    def test_petersen_girth(self):
        g = G.builtin_graph("petersen")
        n0 = G.closed_geodesics_at_vertex(g, 0, 5)
        assert n0[1:5] == [0, 0, 0, 0]
        assert n0[5] == 12

    def test_totals(self):
        g = G.builtin_graph("k4")
        n = G.closed_geodesics_total(g, 5)
        assert n[3] == 24
        c5 = G.closed_geodesics_total(G.builtin_graph("c5"), 5)
        assert c5[1:5] == [0, 0, 0, 0] and c5[5] == 10

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "cube", "k33"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_against_enumeration(self, name, k):
        g = G.builtin_graph(name)
        n0 = G.closed_geodesics_at_vertex(g, 0, k)
        assert n0[k] == len(G.enumerate_closed_geodesics(g, 0, k))
        total = sum(
            len(G.enumerate_closed_geodesics(g, v, k)) for v in range(g.n_vertices)
        )
        assert G.closed_geodesics_total(g, k)[k] == total

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "cube", "k33"])
    def test_loop_recursion_consistency(self, name):
        # N_k^0 - N_{k-2}^0 = c_k^0 - q c_{k-2}^0 for k >= 3
        g = G.builtin_graph(name)
        q = g.regularity()
        c0 = [row[0] for row in G.geodesic_counts(g, 0, 10)]
        n0 = G.closed_geodesics_at_vertex(g, 0, 10)
        for k in range(3, 11):
            assert n0[k] - n0[k - 2] == c0[k] - q * c0[k - 2]

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "cube", "k33"])
    def test_transitive_scaling(self, name):
        g = G.builtin_graph(name)
        verdict, _ = G.check_vertex_transitive(g)
        assert verdict is True
        n0 = G.closed_geodesics_at_vertex(g, 0, 8)
        n = G.closed_geodesics_total(g, 8)
        assert all(n[k] == g.n_vertices * n0[k] for k in range(1, 9))


class TestEnumeration:
    def test_k4_triangles(self):
        assert len(G.enumerate_closed_geodesics(G.builtin_graph("k4"), 0, 3)) == 6

    def test_simple_graph_no_two_cycles(self):
        assert G.enumerate_closed_geodesics(G.builtin_graph("petersen"), 0, 2) == []

    def test_tree_fragment_has_none(self):
        # a path graph is a tree: no geodesic loops at all
        g = G.load_graph("0 1\n1 2\n2 3\n")
        for k in range(1, 7):
            assert G.enumerate_closed_geodesics(g, 1, k) == []

    def test_length_zero_convention(self):
        assert G.enumerate_closed_geodesics(G.builtin_graph("k4"), 0, 0) == [()]

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            G.enumerate_geodesics(G.builtin_graph("k4"), 0, 13)


class TestPrimeGeodesics:
    def test_k4(self):
        n = G.closed_geodesics_total(G.builtin_graph("k4"), 10)
        primes = G.prime_geodesic_counts(n, 10)
        assert primes[3] == 8
        assert primes[1] == n[1]

    def test_c5(self):
        n = G.closed_geodesics_total(G.builtin_graph("c5"), 10)
        primes = G.prime_geodesic_counts(n, 10)
        assert primes[5] == 2
        assert primes[10] == 0

    def test_inconsistent_input_rejected(self):
        with pytest.raises(ValueError, match="pi_"):
            G.prime_geodesic_counts([0, 0, 1], 2)

    @given(
        pi=st.lists(st.integers(min_value=0, max_value=50), min_size=13, max_size=13)
    )
    @settings(max_examples=100, deadline=None)
    def test_moebius_roundtrip(self, pi):
        pi[0] = 0
        n = [0] * 13
        for m in range(1, 13):
            n[m] = sum(d * pi[d] for d in range(1, m + 1) if m % d == 0)
        assert G.prime_geodesic_counts(n, 12) == pi


class TestMobius:
    def test_dirichlet_inverse_of_one(self):
        # sum_{d|m} mu(d) = [m == 1] determines mu uniquely
        limit = 5000
        mu = [0] + [G.mobius(m) for m in range(1, limit + 1)]
        divisor_sums = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                divisor_sums[m] += mu[d]
        assert divisor_sums[1:] == [1] + [0] * (limit - 1)

    def test_squarefree_prime_count_definition(self):
        def brute(m):
            primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % r for r in range(2, p))]
            if any(m % (p * p) == 0 for p in primes):
                return 0
            return (-1) ** len(primes)

        assert [G.mobius(m) for m in range(1, 5001)] == [brute(m) for m in range(1, 5001)]


class TestTransitivity:
    def test_complete_graph(self):
        verdict, witnesses = G.check_vertex_transitive(G.builtin_graph("k4"))
        assert verdict is True
        assert set(witnesses) == {0, 1, 2, 3}
        for target, image in witnesses.items():
            assert image[0] == target

    def test_petersen_with_witness_validation(self):
        g = G.builtin_graph("petersen")
        verdict, witnesses = G.check_vertex_transitive(g)
        assert verdict is True
        adj = g.adjacency_counts()
        for image in witnesses.values():
            assert sorted(image) == list(range(10))
            for u in range(10):
                for v in range(10):
                    assert adj[u][v] == adj[image[u]][image[v]]

    def test_subdivided_edge_fails(self):
        # subdividing one K4 edge introduces a degree-2 vertex
        g = G.load_graph("0 1\n0 2\n0 3\n1 2\n1 3\n2 4\n4 3\n")
        verdict, _ = G.check_vertex_transitive(g)
        assert verdict is False

    def test_cap_returns_unknown(self):
        verdict, witnesses = G.check_vertex_transitive(G.builtin_graph(f"c{G.TRANSITIVITY_CAP + 1}"))
        assert verdict is None
        assert witnesses == {}


class TestCountTable:
    def test_bundle_consistency(self):
        g = G.builtin_graph("k4")
        table = G.count_table(g, 0, 8)
        assert table.c0[0] == 1
        assert table.n0[0] == 1
        assert table.n_total[3] == 24
        assert table.primes[3] == 8
        assert table.a0[2] == 3
        # exactly the five lists analyze prints
        fields = [f.name for f in dataclasses.fields(table)]
        assert fields == ["a0", "c0", "n0", "n_total", "primes"]
        # conventions: c_0^0 = N_0^0 = 1, c_1^0 = N_1^0, c_2^0 = N_2^0
        assert table.n0[1] == table.c0[1]
        assert table.n0[2] == table.c0[2]
