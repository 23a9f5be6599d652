import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from heatzeta import graphs as G
from heatzeta import bessel, heat_graph
from heatzeta.bessel import bessel_i, building_block, certified_truncation, log_building_blocks
from heatzeta.heat_graph import (
    DENSE_EIGEN_CAP,
    b_coefficients,
    diagonal_tree_decomposition,
    heat_kernel_chebyshev_row,
    heat_kernel_ode,
    heat_kernel_rows,
    heat_kernel_series,
    heat_kernel_series_row,
    heat_kernel_spectral,
    heat_kernel_spectral_row,
    laplacian,
    series_truncation_order,
    spectral_data,
)
from heatzeta.heat_tree import horocycle_solution, tree_heat_kernel, tree_heat_kernels
from strategies import regular_multigraphs

GRAPH_NAMES = ["k4", "c5", "c8", "cube", "k33", "petersen"]


def definition_rows(c, q):
    """b_m = c_m - (q-1)(c_{m-2} + c_{m-4} + ...) on Python ints."""
    return [
        [c[m][x] - (q - 1) * sum(c[j][x] for j in range(m - 2, -1, -2)) for x in range(len(c[m]))]
        for m in range(len(c))
    ]


class TestLaplacian:
    def test_k4_matrix(self):
        g = G.builtin_graph("k4")
        lap = laplacian(g)
        expected = 3 * np.eye(4) - (np.ones((4, 4)) - np.eye(4))
        assert np.allclose(lap, expected)

    def test_cycle_circulant(self):
        lap = laplacian(G.builtin_graph("c5"))
        assert np.allclose(np.diag(lap), 2.0)
        for i in range(5):
            assert lap[i, (i + 1) % 5] == -1.0

    def test_row_sums_zero(self):
        for name in GRAPH_NAMES:
            lap = laplacian(G.builtin_graph(name))
            assert np.allclose(lap.sum(axis=1), 0.0)

    def test_eigenvalue_range(self):
        for name in GRAPH_NAMES:
            g = G.builtin_graph(name)
            q = g.regularity()
            sd = spectral_data(g)
            assert sd.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
            assert sd.eigenvalues[-1] <= 2 * (q + 1) + 1e-10

    def test_petersen_spectrum(self):
        sd = spectral_data(G.builtin_graph("petersen"))
        rounded = sorted(round(v, 8) for v in sd.eigenvalues)
        assert rounded == [0.0] + [2.0] * 5 + [5.0] * 4


class TestSpectralData:
    def test_eigen_residual(self):
        g = G.builtin_graph("cube")
        lap = laplacian(g)
        sd = spectral_data(g)
        residual = lap @ sd.eigenvectors - sd.eigenvectors * sd.eigenvalues
        assert np.abs(residual).max() <= 1e-10

    def test_completeness(self):
        g = G.builtin_graph("k33")
        sd = spectral_data(g)
        gram = sd.eigenvectors @ sd.eigenvectors.T
        assert np.allclose(gram, np.eye(g.n_vertices), atol=1e-12)

    def test_cap_enforced(self):
        n = DENSE_EIGEN_CAP + 2
        edges = "\n".join(f"{i} {(i + 1) % n}" for i in range(n))
        big = G.load_graph(edges)
        with pytest.raises(ValueError, match="cap"):
            spectral_data(big)


class TestBCoefficients:
    def test_base_cases(self):
        g = G.builtin_graph("k4")
        b = b_coefficients(g, 0, 4)
        c = G.geodesic_counts(g, 0, 4)
        assert b[0] == c[0]
        assert b[1] == c[1]

    def test_k4_negative_entry(self):
        b = b_coefficients(G.builtin_graph("k4"), 0, 2)
        # b_2(x0) = c_2(x0) - (q-1) c_0(x0) = 0 - 1
        assert b[2][0] == -1

    def test_diagonal_relates_to_closed_counts(self):
        # on the diagonal, b_m differs from N_m^0 by q-1 at even m
        # (the alternating tail reaches down to c_0 = 1)
        for name in ("k4", "petersen", "cube"):
            g = G.builtin_graph(name)
            q = g.regularity()
            b = b_coefficients(g, 0, 10)
            n0 = G.closed_geodesics_at_vertex(g, 0, 10)
            for m in range(1, 11):
                assert b[m][0] == n0[m] - (q - 1) * (1 - m % 2)

    @given(g=regular_multigraphs(), M=st.integers(0, 20), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncation_coefficient_bound(self, g, M, data):
        # the bound series_truncation_order certifies with: |b_m(x)| <= (q+1) q^{m-1}
        q = g.regularity()
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        b = b_coefficients(g, x0, M)
        assert all(abs(v) <= 1 for v in b[0])
        for m in range(1, M + 1):
            assert max(abs(v) for v in b[m]) <= (q + 1) * q ** (m - 1)

    def test_alternating_tail_definition(self):
        g = G.builtin_graph("petersen")
        assert b_coefficients(g, 0, 9) == definition_rows(G.geodesic_counts(g, 0, 9), 2)

    @given(g=regular_multigraphs(), M=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_engine_rows_are_the_definition(self, g, M):
        # c from the edge-transfer oracle, every base vertex, self-loops and
        # multi-edges included
        q = g.regularity()
        for x0 in range(g.n_vertices):
            assert b_coefficients(g, x0, M) == definition_rows(G.geodesic_counts(g, x0, M), q)

    def test_object_fallback_matches_definition(self):
        # the engine's int64/object switch, at the same K as for the counts
        k5 = G.load_graph("\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)))
        assert k5.regularity() == 3
        for M, dtype in ((39, np.int64), (40, object), (45, object)):
            assert all(b.dtype == dtype for b in G._geodesic_matrices(k5, M, 0))
            rows = b_coefficients(k5, 0, M)
            assert rows == definition_rows(G.geodesic_counts(k5, 0, M), 3)
            assert all(type(v) is int for row in rows for v in row)
        assert max(abs(v) for v in rows[45]) > 2**63


class TestThreeWayAgreement:
    def test_t_zero_indicator(self):
        g = G.builtin_graph("cube")
        assert heat_kernel_series(g, 0, 0, 0.0) == 1.0
        assert heat_kernel_series(g, 0, 3, 0.0) == 0.0
        assert heat_kernel_spectral(g, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_series_vs_spectral_vs_ode(self, name, t):
        g = G.builtin_graph(name)
        ode_row = heat_kernel_ode(g, t)[0]
        for x in range(g.n_vertices):
            series = heat_kernel_series(g, 0, x, t, 1e-10)
            spectral = heat_kernel_spectral(g, 0, x, t)
            assert abs(series - spectral) <= 1e-7
            assert abs(series - ode_row[x]) <= 1e-6

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_spectral_grid_is_the_single_time_values(self, name):
        # one matrix-vector product against one dot product per time: the sums
        # may group differently, so the values agree to a few ulps of 1
        g = G.builtin_graph(name)
        ts = np.linspace(0.0, 30.0, 61)
        for x in (0, g.n_vertices - 1):
            grid = heat_kernel_spectral(g, 0, x, ts)
            assert grid.shape == ts.shape
            alone = [heat_kernel_spectral(g, 0, x, float(t)) for t in ts]
            assert np.abs(grid - alone).max() <= 4 * np.finfo(float).eps

    def test_k4_diagonal_closed_form(self):
        g = G.builtin_graph("k4")
        for t in (0.1, 0.7, 2.0):
            expected = 0.25 * (1.0 + 3.0 * math.exp(-4.0 * t))
            assert heat_kernel_spectral(g, 0, 0, t) == pytest.approx(expected, abs=1e-12)
            assert heat_kernel_series(g, 0, 0, t, 1e-11) == pytest.approx(expected, abs=1e-8)

    def test_c8_bessel_periodization(self):
        # on a cycle (q = 1), the kernel is a wrapped sum of e^{-2t} I_m(2t)
        g = G.builtin_graph("c8")
        t = 1.0
        for x in range(8):
            wrapped = math.fsum(
                math.exp(-2 * t) * bessel_i(abs(x + 8 * k), 2 * t)
                for k in range(-20, 21)
            )
            assert heat_kernel_series(g, 0, x, t, 1e-12) == pytest.approx(wrapped, abs=1e-9)


def seeded_regular_edges(n: int, degree: int, seed: int) -> list:
    """A cycle on n vertices plus degree - 2 seeded random perfect matchings."""
    rng, edges = random.Random(seed), [(v, (v + 1) % n) for v in range(n)]
    for _ in range(degree - 2):
        points = list(range(n))
        rng.shuffle(points)
        edges += zip(points[::2], points[1::2])
    return edges


def seeded_regular_multigraph(n: int, degree: int, seed: int) -> G.Graph:
    """seeded_regular_edges as a graph: degree-regular, connected, multi-edges possible."""
    return G.load_graph({"vertices": n, "edges": seeded_regular_edges(n, degree, seed)})


@pytest.mark.parametrize("name", [*GRAPH_NAMES, "seeded200"])
def test_spectral_entry_is_the_row_entry(name):
    # one dot product per entry, the same sum as the row's up to rounding
    g = seeded_regular_multigraph(200, 3, 7) if name == "seeded200" else G.builtin_graph(name)
    for x0 in (0, g.n_vertices // 2):
        for t in (0.0, 0.3, 2.0, 50.0):
            row = heat_kernel_spectral_row(g, x0, t)
            entries = [heat_kernel_spectral(g, x0, x, t) for x in range(g.n_vertices)]
            assert np.abs(np.array(entries) - row).max() <= 1e-15


def chebyshev_error_bound(q: int, t: float, tol: float) -> float:
    """heat_kernel_chebyshev_row's certified tail plus its docstring's rounding bound."""
    u = 2.0**-53

    def gamma(j):
        return j * u / (1 - j * u)

    tau = (q + 1) * t
    M, tail = certified_truncation(1, tau / 2, tol, 1, 1, 2.0)
    vectors = 1.5 * gamma(q + 3) * (tau + math.sqrt(tau))
    return tail + vectors + 2 * gamma(M + 1) + 4 * (math.log(M + 1) + 3) * u


def weight_rounding_bound(q: int, t: float, M: int) -> float:
    """sum_m rho_m W_m, the weights' rounding in _rows_pass' docstring, as the tests bound it.

    It takes ln B_m as off by 8 (|ln B_m| + 1) u, the factor that TestLogBlockRounding
    pins at q >= 2; with the roundings of ln q, m ln q, their sum and math.exp,
    rho_m <= 9 (|ln B_m| + 1) u + 4 m ln q u + 2 u.  As sum_m W_m <= 1,
    sum_m W_m |ln W_m| <= ln(M+1) + 1/e, and |ln B_m| <= |ln W_m| + m ln q.
    sum_m m W_m <= (q-1) t + 1/2: the generating function differentiated once at
    z = sqrt(q) is (q-1) t, and its orders k < 0 take away
    sum_k k q^{-k} W_k <= 1/2 for q >= 2.
    """
    mean, log_q = (q - 1) * t + 0.5, math.log(q)
    logs = math.log(M + 1) + 1 / math.e + 1 + mean * log_q
    return (9 * logs + 4 * mean * log_q + 2) * 2.0**-53


def series_error_bound(q: int, t: float, tol: float) -> float:
    """heat_kernel_rows' certified tail plus _rows_pass' docstring rounding bound."""
    u = 2.0**-53

    def gamma(j):
        return j * u / (1 - j * u)

    M, tail = certified_truncation(q, t, tol, 1, 1, (q + 1) / q, 1.0)
    omega = (q + 1) / q
    vectors = 6 * gamma(3) * (t + math.sqrt(t)) if q == 1 else 18 * gamma(q + 2) * M * omega
    weights = omega * weight_rounding_bound(q, t, M)
    return tail + vectors + 2 * gamma(M + 1) * omega + weights + 4 * (M + 1) ** 2 * 2.0**-1074


def k6_graph() -> G.Graph:
    return G.load_graph({"vertices": 6, "edges": [(u, v) for u in range(6) for v in range(u)]})


CHEBYSHEV_GRAPHS = {
    "k4": lambda: G.builtin_graph("k4"),
    "petersen": lambda: G.builtin_graph("petersen"),
    "cube": lambda: G.builtin_graph("cube"),
    "k33": lambda: G.builtin_graph("k33"),
    "cubic80": lambda: seeded_regular_multigraph(80, 3, 11),
    "quartic60": lambda: seeded_regular_multigraph(60, 4, 12),
    "k6": k6_graph,
}


class TestChebyshevRow:
    # The bound over the largest deviation from the spectral row, measured: at
    # tol 1e-10 at least 38 (k4, t = 1000, where the deviation, 2.6e-12, is the
    # truncation tail) and 80 (K6, t = 60,000); at tol 1e-22, where the tail is
    # negligible, the rounding bound alone is at least 9.8 times the deviation
    # (cube and k33 at t = 0.01, where it is the spectral row's own rounding),
    # 816 at k4, t = 1000, and 678 at K6, t = 60,000.
    @pytest.mark.parametrize(
        "name, t",
        [(name, t) for name in ("k4", "petersen", "cube", "k33") for t in (0.01, 0.5, 3.0, 20.0, 200.0)]
        + [("cubic80", 2.0), ("cubic80", 500.0), ("quartic60", 0.1), ("quartic60", 50.0),
           ("k6", 60000.0), ("k4", 1000.0)],
    )
    def test_within_its_bound_of_the_spectral_row(self, name, t):
        g = CHEBYSHEV_GRAPHS[name]()
        q = g.regularity()
        for x0 in (0, g.n_vertices // 2):
            spectral = heat_kernel_spectral_row(g, x0, t)
            for tol in (1e-10, 1e-22):
                deviation = np.abs(heat_kernel_chebyshev_row(g, x0, t, tol) - spectral).max()
                assert deviation <= chebyshev_error_bound(q, t, tol)

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multigraphs_within_the_bound(self, g, data):
        # self-loops and multi-edges repeat in the gather, as in A
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        for t in (0.1, 2.0, 20.0):
            deviation = np.abs(heat_kernel_chebyshev_row(g, x0, t) - heat_kernel_spectral_row(g, x0, t))
            assert deviation.max() <= chebyshev_error_bound(g.regularity(), t, 1e-10)

    def test_t_zero_is_the_indicator(self):
        g = G.builtin_graph("petersen")
        assert heat_kernel_chebyshev_row(g, 3, 0.0).tolist() == [float(x == 3) for x in range(10)]

    @pytest.mark.parametrize("name", ["c5", "c8"])
    @pytest.mark.parametrize("t", [0.1, 2.0, 300.0])
    def test_is_the_bessel_row_on_cycles(self, name, t):
        # at q = 1, b_m = 2 T_m(A/2) e_x0 against the same log weights and order:
        # the rows differ only where np.exp and math.exp round apart
        g = G.builtin_graph(name)
        row = heat_kernel_rows(g, 0, [t])[0]
        assert np.abs(heat_kernel_chebyshev_row(g, 0, t) - row).max() <= 4 * np.finfo(float).eps


class TestChebyshevGrid:
    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_grid_rows_are_the_single_time_rows(self, g, data):
        # one recursion to the largest order and one evaluator call, each time's
        # weights zero past its own order; a one-time grid is the lone row
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                bessel, "log_building_blocks",
                lambda *args: calls.append(args) or log_building_blocks(*args),
            )
            rows = heat_kernel_chebyshev_row(g, x0, GRID)
        assert len(calls) == 1
        assert rows.shape == (len(GRID), g.n_vertices)
        for i, t in enumerate(GRID):
            lone = heat_kernel_chebyshev_row(g, x0, t)
            assert heat_kernel_chebyshev_row(g, x0, [t])[0].tobytes() == lone.tobytes()
            assert rows[i].tobytes() == lone.tobytes()

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_long_grid_runs_in_passes(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        grid = GRID + (0.1, 20.0)
        expected = [heat_kernel_chebyshev_row(g, x0, t).tobytes() for t in grid]
        tops = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bessel, "_GRID_ENTRIES", 1000)
            mp.setattr(
                bessel, "log_building_blocks",
                lambda *args: tops.append(len(args[2])) or log_building_blocks(*args),
            )
            rows = heat_kernel_chebyshev_row(g, x0, grid)
        assert len(tops) > 1 and sum(tops) == len(grid)
        assert [row.tobytes() for row in rows] == expected


class TestSeriesRowBound:
    # The bound over the largest deviation from the spectral row, measured: at tol
    # 1e-10 at least 5,480 (k4, t = 1000, where the certified tail, near 1e-10, is most
    # of the bound); at tol 1e-22 the rounding bound alone is at least 537 times the
    # deviation (quartic60 at t = 0.1, where it is the spectral row's own rounding) and
    # 1,370 at k4, t = 1000; on 300 seeded multigraphs at t = 0.1-200, at least 106.
    @pytest.mark.parametrize("name", list(CHEBYSHEV_GRAPHS))
    def test_within_its_bound_of_the_spectral_row(self, name):
        g = CHEBYSHEV_GRAPHS[name]()
        q, ts = g.regularity(), (0.1, 2.0, 20.0, 200.0, 1000.0)
        for x0 in (0, g.n_vertices // 2):
            for tol in (1e-10, 1e-22):
                for t, row in zip(ts, heat_kernel_rows(g, x0, ts, tol)):
                    deviation = np.abs(row - heat_kernel_spectral_row(g, x0, t)).max()
                    assert deviation <= series_error_bound(q, t, tol)

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multigraphs_within_the_bound(self, g, data):
        # q = 1 included, where the bound reads sum_m W_m m^2 = t
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        ts = (0.1, 2.0, 20.0, 200.0)
        for t, row in zip(ts, heat_kernel_rows(g, x0, ts)):
            deviation = np.abs(row - heat_kernel_spectral_row(g, x0, t)).max()
            assert deviation <= series_error_bound(g.regularity(), t, 1e-10)


class TestBatchedRows:
    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_scalar_routes(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        for t in (0.0, 0.1, 2.0, 20.0):
            row = heat_kernel_rows(g, x0, [t])[0]
            spectral_row = heat_kernel_spectral_row(g, x0, t)
            assert row.shape == spectral_row.shape == (g.n_vertices,)
            for x in range(g.n_vertices):
                assert abs(row[x] - heat_kernel_series(g, x0, x, t)) <= 1e-13
                assert abs(spectral_row[x] - heat_kernel_spectral(g, x0, x, t)) <= 1e-12
        indicator = [1.0 if x == x0 else 0.0 for x in range(g.n_vertices)]
        assert heat_kernel_rows(g, x0, [0.0])[0].tolist() == indicator

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_series_row_is_the_scalar_series(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        q = g.regularity()
        for t in (0.0, 0.1, 2.0, 20.0):
            row = heat_kernel_series_row(g, x0, t)
            assert len(row) == g.n_vertices
            if t > 0.0:
                # the per-entry sum the row replaces, written out
                M = series_truncation_order(q, t, 1e-10)
                b = b_coefficients(g, x0, M)
                blocks = [building_block(q, m, t) for m in range(M + 1)]
            for x in range(g.n_vertices):
                assert row[x] == heat_kernel_series(g, x0, x, t)
                if t > 0.0:
                    assert row[x] == math.fsum(b[m][x] * blocks[m] for m in range(M + 1))

    def test_overflow_contract_kept(self):
        # M = 1394 at t = 1000: the scalar oracle still raises converting its
        # exact b rows to float, while the float row answers within the
        # pinned spectral row's bounds
        g = G.builtin_graph("petersen")
        with pytest.raises(OverflowError):
            heat_kernel_series_row(g, 0, 1000.0)
        row = heat_kernel_rows(g, 0, [1000.0])[0]
        assert np.abs(row - heat_kernel_spectral_row(g, 0, 1000.0)).max() <= 1e-12
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("name", ["k4", "petersen"])
    def test_rows_at_t_200(self, name):
        # M = 375 there; the row matches the spectral one
        g = G.builtin_graph(name)
        assert series_truncation_order(2, 200.0, 1e-10) == 375
        row = heat_kernel_rows(g, 0, [200.0])[0]
        assert np.abs(row - heat_kernel_spectral_row(g, 0, 200.0)).max() <= 1e-12


# t = 0, small times, and t = 200, where q^M passes float range for q >= 3, so only the
# arrays of b_m / q^m, not b_m, stay in it
GRID = (0.0, 0.1, 2.0, 200.0)


class TestGridRows:
    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_grid_rows_are_the_single_time_rows(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        rows = heat_kernel_rows(g, x0, GRID)
        assert rows.shape == (len(GRID), g.n_vertices)
        for i, t in enumerate(GRID):
            assert rows[i].tobytes() == heat_kernel_rows(g, x0, [t])[0].tobytes()

    @given(g=regular_multigraphs())
    @settings(max_examples=25, deadline=None)
    def test_all_base_vertices_are_the_columns(self, g):
        # the recursion depends on q and m only, so every column is the same float computation
        block = heat_kernel_rows(g, None, GRID)
        assert block.shape == (len(GRID), g.n_vertices, g.n_vertices)
        for y in range(g.n_vertices):
            assert block[:, :, y].tobytes() == heat_kernel_rows(g, y, GRID).tobytes()

    @given(g=regular_multigraphs(), m=st.integers(0, 20), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_rows_run_the_b_recursion_exactly(self, g, m, data):
        # the exponent -m ln q at order m and -inf at every other make weight 1, exactly,
        # at order m, so the rows are the arrays w_m: b_m / q^m exactly for q = 1, 2, 4,
        # as up to order 20 (q+1)^2 q^{m-2} < 2^53, and for q = 3 within _rows_pass' bound
        # 18 gamma_{q+2} m (q+1)/q, plus the rounding of b_m / q^m itself
        q = g.regularity()
        M = series_truncation_order(q, 3.0, 1e-10)
        assert M >= 20

        def one_block(q, orders, t):  # one order per time of a grid, as _grid_passes hands them
            assert list(orders) == [M] * len(t)
            exponents = np.full((len(t), M + 1), -np.inf)
            exponents[:, m] = -(np.arange(M + 1) * math.log(q))[m]
            return exponents

        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bessel, "log_building_blocks", one_block)
            row = heat_kernel_rows(g, x0, [3.0])[0]
            block = heat_kernel_rows(g, None, [3.0])[0]
        expected_row = [b / q**m for b in b_coefficients(g, x0, M)[m]]
        expected_block = [[b / q**m for b in bs] for bs in b_coefficients(g, None, M)[m]]
        if q != 3:
            assert row.tolist() == expected_row
            assert block.tolist() == expected_block
        else:
            u = 2.0**-53
            bound = (18 * 5 * u / (1 - 5 * u) * m + u) * (q + 1) / q
            assert np.abs(row - expected_row).max() <= bound
            assert np.abs(block - expected_block).max() <= bound

    @given(g=regular_multigraphs())
    @settings(max_examples=25, deadline=None)
    def test_series_oracle_of_all_base_vertices(self, g):
        # t = 200 is left out: its exact b pass float range for q >= 3
        q = g.regularity()
        for t in (0.0, 0.1, 2.0, 20.0):
            matrix = heat_kernel_series_row(g, None, t)
            for y in range(g.n_vertices):
                assert [row[y] for row in matrix] == heat_kernel_series_row(g, y, t)
        M = series_truncation_order(q, 2.0, 1e-10)
        b = b_coefficients(g, None, M)
        for y in range(g.n_vertices):
            assert [[row[y] for row in b_m] for b_m in b] == b_coefficients(g, y, M)

    @given(g=regular_multigraphs())
    @settings(max_examples=15, deadline=None)
    def test_series_oracle_grid_builds_b_once(self, g):
        # the rows of a grid are the single-time rows, from one run of b to the
        # largest order (t = 200 left out, as above)
        q, times = g.regularity(), (0.0, 0.1, 2.0, 20.0, 0.1)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                heat_graph, "b_coefficients", lambda *args: runs.append(args[1:]) or b_coefficients(*args)
            )
            rows = heat_kernel_series_row(g, 0, times)
            matrices = heat_kernel_series_row(g, None, times)
        assert runs == [(x0, series_truncation_order(q, 20.0, 1e-10)) for x0 in (0, None)]
        for t, row, matrix in zip(times, rows, matrices):
            assert row == heat_kernel_series_row(g, 0, t)
            assert matrix == heat_kernel_series_row(g, None, t)

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_long_grid_runs_in_passes(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        grid = GRID + (0.1, 200.0)
        q = g.regularity()
        orders = {t: series_truncation_order(q, t, 1e-10) for t in grid}
        # ratios, margins included, of two calls of t = 200 alone
        cap = 2 * (orders[200.0] + bessel._miller_margin(q, orders[200.0], 200.0) + 1)
        expected = [heat_kernel_rows(g, x0, [t])[0].tobytes() for t in grid]
        passes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bessel, "_GRID_ENTRIES", cap)
            mp.setattr(
                bessel, "log_building_blocks",
                lambda *args: passes.append(args[2]) or log_building_blocks(*args),
            )
            rows = heat_kernel_rows(g, x0, grid)
            row_passes = passes[:]
            values = diagonal_tree_decomposition(g, x0, grid)
        assert len(row_passes) > 1
        for ts in row_passes:
            assert len(ts) * (max(orders[t] for t in ts) + 1) <= cap
        assert [row.tobytes() for row in rows] == expected
        # the diagonal reads its blocks through the same passes, its tree table's included
        assert len(passes) - len(row_passes) > 2
        assert values == [diagonal_tree_decomposition(g, x0, t) for t in grid]


class TestOneOrderPerTime:
    """Grids that mix small and large times: each time's ratio recurrence starts at its own
    order plus its own margin, so no row depends on the times beside it.  Where a call
    started every time at the pass's largest order, k4's t = 50 row moved 3.6e-16 beside
    t = 3,000, its Chebyshev row at t = 300 2.2e-16 beside t = 500, and the two k4 diagonal
    values of a 600-time grid in 2,000-3,000 5.7e-14 and 5.9e-14 relative."""

    K4_DIAGONAL_GRID = [*np.linspace(2000.0, 3000.0, 600)[[418, 427]].tolist(), 2800.0]

    @pytest.mark.parametrize("x0", [0, None])
    def test_series_rows_are_their_lone_calls(self, x0):
        g, grid = G.builtin_graph("k4"), [0.0, 50.0, 3000.0, 0.1]
        rows = heat_kernel_rows(g, x0, grid)
        for t, row in zip(grid, rows):
            assert row.tobytes() == heat_kernel_rows(g, x0, [t])[0].tobytes(), t

    def test_chebyshev_rows_are_their_lone_calls(self):
        g, grid = G.builtin_graph("k4"), [0.0, 300.0, 500.0, 0.1]
        rows = heat_kernel_chebyshev_row(g, 0, grid)
        for t, row in zip(grid, rows):
            assert row.tobytes() == heat_kernel_chebyshev_row(g, 0, t).tobytes(), t

    def test_diagonal_values_are_their_lone_calls(self):
        g = G.builtin_graph("k4")
        values = diagonal_tree_decomposition(g, 0, self.K4_DIAGONAL_GRID)
        assert values == [diagonal_tree_decomposition(g, 0, t) for t in self.K4_DIAGONAL_GRID]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
def test_weights_sum_to_at_most_one(q):
    # W_m = q^m B_m = q^{m/2} e^{-(q+1)t} I_m(2 sqrt(q) t), the weights of the arrays
    # b_m / q^m: the blocks' generating function at z = sqrt(q) holds their sum to 1,
    # so neither an exponent nor the sum passes it beyond its rounding (rho_m of
    # weight_rounding_bound): the sum reads 1 + 3.0e-12 at q = 6, t = 1e4, within 1.3e-10
    u, log_q = 2.0**-53, math.log(q)
    for t in (1e-3, 0.1, 2.0, 20.0, 200.0, 1e3, 1e4):
        M = series_truncation_order(q, t, 1e-10)
        log_blocks = log_building_blocks(q, M, t)
        powers = np.arange(M + 1) * log_q
        exponents = log_blocks + powers
        assert np.all(exponents <= (9 * (np.abs(log_blocks) + 1) + 4 * powers) * u)
        assert math.fsum(map(math.exp, exponents)) <= 1 + weight_rounding_bound(q, t, M)


@pytest.mark.parametrize("t", [math.inf, math.nan, -0.5])
@pytest.mark.parametrize(
    "route",
    [
        lambda g, t: heat_kernel_series(g, 0, 1, t),
        lambda g, t: heat_kernel_rows(g, 0, [t]),
        lambda g, t: heat_kernel_spectral(g, 0, 1, t),
        lambda g, t: heat_kernel_spectral_row(g, 0, t),
        lambda g, t: heat_kernel_chebyshev_row(g, 0, t),
        lambda g, t: heat_kernel_ode(g, t),
        lambda g, t: diagonal_tree_decomposition(g, 0, t),
        lambda g, t: tree_heat_kernel(g.regularity(), t, 0),
        lambda g, t: horocycle_solution(g.regularity(), t, 1),
        lambda g, t: heat_kernel_series_row(g, 0, [0.5, t]),
        lambda g, t: heat_kernel_spectral(g, 0, 1, [0.5, t]),
        lambda g, t: tree_heat_kernels(g.regularity(), [0.5, t], range(3)),
        lambda g, t: heat_kernel_series(g, 0, 1, [0.5, t]),
        lambda g, t: heat_kernel_chebyshev_row(g, 0, [0.5, t]),
        lambda g, t: diagonal_tree_decomposition(g, 0, [0.5, t]),
        lambda g, t: tree_heat_kernel(g.regularity(), [0.5, t], 0),
    ],
    ids=["series", "row", "spectral", "spectral_row", "chebyshev_row", "ode", "diagonal", "tree",
         "horocycle", "series_grid", "spectral_grid", "tree_grid", "series_entry_grid",
         "chebyshev_grid", "diagonal_grid", "tree_entry_grid"],
)
def test_time_validated(route, t):
    with pytest.raises(ValueError, match="t must be finite and >= 0, got"):
        route(G.builtin_graph("k4"), t)


@pytest.mark.parametrize(
    "route",
    [
        lambda g: log_building_blocks(g.regularity(), 5, []),
        lambda g: heat_kernel_rows(g, 0, []),
        lambda g: heat_kernel_rows(g, None, []),
        lambda g: heat_kernel_chebyshev_row(g, 0, []),
        lambda g: heat_kernel_series_row(g, 0, []),
        lambda g: heat_kernel_series(g, 0, 1, []),
        lambda g: heat_kernel_spectral(g, 0, 1, []),
        lambda g: diagonal_tree_decomposition(g, 0, []),
        lambda g: tree_heat_kernels(g.regularity(), [], range(3)),
        lambda g: tree_heat_kernel(g.regularity(), [], 0),
    ],
    ids=["blocks", "rows", "rows_all", "chebyshev_row", "series_row", "series_entry",
         "spectral", "diagonal", "tree", "tree_entry"],
)
def test_empty_grid_gives_an_empty_result(route):
    assert len(route(G.builtin_graph("k4"))) == 0


@pytest.mark.parametrize("t", [3000.0, 60000.0])
def test_truncation_on_cycles_at_large_time(t):
    # on q = 1 the bound terms fall like e^{-m^2 / (2 tau)}, so M is near
    # sqrt(tau), far below 2t; the rows meet the tol they are asked for
    assert series_truncation_order(1, t, 1e-10) == {3000.0: 523, 60000.0: 2300}[t]
    c5 = G.builtin_graph("c5")
    assert np.abs(heat_kernel_rows(c5, 0, [t]) - 0.2).max() <= 1e-10
    assert np.abs(heat_kernel_rows(c5, 0, [t], 1e-12) - 0.2).max() <= 1e-12


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_truncation_tol_validated(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive, got"):
        series_truncation_order(2, 1.0, tol)


# (q, t, tol): M of bessel.certified_truncation
PINNED_ORDERS = {
    (1, 8.0, 1e-10): 30,
    (2, 1.0, 1e-10): 17,
    (3, 8.0, 1e-12): 64,
    (4, 40.0, 1e-10): 223,
    (5, 40.0, 1e-14): 294,
    (6, 20.0, 1e-8): 178,
    (7, 20.0, 1e-10): 214,
}

# the same orders under the uniform block bound alone, which the
# generating-function bound only shortens
UNIFORM_ORDERS = {
    (1, 8.0, 1e-10): 37,
    (2, 1.0, 1e-10): 27,
    (3, 8.0, 1e-12): 102,
    (4, 40.0, 1e-10): 428,
    (5, 40.0, 1e-14): 634,
    (6, 20.0, 1e-8): 425,
    (7, 20.0, 1e-10): 553,
}


@pytest.mark.parametrize(
    "q, t, tol, scan_M",
    [
        (1, 8.0, 1e-10, 37),
        (2, 1.0, 1e-10, 27),
        (3, 8.0, 1e-12, 120),
        (4, 40.0, 1e-10, 817),
        (5, 40.0, 1e-14, 847),
        (6, 20.0, 1e-8, 705),
        (7, 20.0, 1e-10, 722),
    ],
)
def test_truncation_orders_pinned(q, t, tol, scan_M):
    # scan_M: the order of the linear scan past 2 sqrt(q) t that the concave
    # tail test replaced, which never needs more orders
    M = series_truncation_order(q, t, tol)
    assert M == PINNED_ORDERS[q, t, tol]
    assert M <= UNIFORM_ORDERS[q, t, tol] <= scan_M


@pytest.mark.parametrize("q", [5, 6, 7])
@pytest.mark.parametrize("t", [30.0, 40.0, 200.0])
def test_truncation_certified_where_the_power_leaves_float_range(q, t):
    # q^{m/2} alone passes 1e308 within the scan; the next term's bound,
    # (q+1) q^{m-1} q^{-m/2} e^{-(sqrt(q)-1)^2 t} times the lesser of
    # tau^{-1/2} (1 + p)^{-m/2} and e^{tau (sqrt(1 + p^2) - 1) - m asinh(p)}, p = m/tau,
    # written out as a logarithm, must be below tol
    tol = 1e-10
    M = series_truncation_order(q, t, tol)
    tau = 2.0 * math.sqrt(q) * t
    m = M + 1
    p = m / tau
    log_bound = (
        math.log(q + 1)
        + (m / 2 - 1) * math.log(q)
        - (math.sqrt(q) - 1.0) ** 2 * t
        + min(
            -0.5 * math.log(tau) - 0.5 * m * math.log1p(p),
            tau * (math.hypot(1.0, p) - 1.0) - m * math.asinh(p),
        )
    )
    assert M > tau
    assert log_bound < math.log(tol)


class TestGlobalProperties:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_mass_conservation(self, name):
        g = G.builtin_graph(name)
        for t in (0.3, 1.0):
            total = math.fsum(
                heat_kernel_spectral(g, 0, x, t) for x in range(g.n_vertices)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["k4", "petersen", "k33"])
    def test_symmetry(self, name):
        g = G.builtin_graph(name)
        for x0, x in ((0, 1), (0, g.n_vertices - 1), (1, 2)):
            a = heat_kernel_series(g, x0, x, 0.8, 1e-10)
            b = heat_kernel_series(g, x, x0, 0.8, 1e-10)
            assert a == pytest.approx(b, abs=1e-12)

    def test_automorphism_invariance(self):
        g = G.builtin_graph("petersen")
        _, witnesses = G.check_vertex_transitive(g)
        image = witnesses[3]
        for x in (0, 1, 5):
            original = heat_kernel_spectral(g, 0, x, 0.9)
            moved = heat_kernel_spectral(g, image[0], image[x], 0.9)
            assert original == pytest.approx(moved, abs=1e-12)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_exponential_series_coefficients_are_path_counts(self, name):
        # n-th t-derivative of e^{(q+1)t} K at 0 equals a_n(x)
        g = G.builtin_graph(name)
        q = g.regularity()
        sd = spectral_data(g)
        adj = np.zeros((g.n_vertices, g.n_vertices), np.int64)
        np.add.at(adj, (g.origin, g.terminus), 1)
        for x0 in range(g.n_vertices):
            a0 = G.count_table(g, x0, 8).a0
            for n in range(9):
                moments = sd.eigenvectors @ (
                    ((q + 1.0) - sd.eigenvalues) ** n * sd.eigenvectors[x0, :]
                )
                a = np.linalg.matrix_power(adj, n)[x0]
                assert a[x0] == a0[n]
                for x in range(g.n_vertices):
                    assert moments[x] == pytest.approx(a[x], rel=1e-10, abs=1e-8)


class TestDiagonalTreeDecomposition:
    def test_tree_reduction(self):
        # a large even cycle has girth > horizon: no closed-geodesic terms matter
        g = G.builtin_graph("c8")
        value = diagonal_tree_decomposition(g, 0, 0.2, 1e-12)
        tree = tree_heat_kernel(1, 0.2, 0, 1e-12).value
        # girth 8 corrections are ~ I_8(0.4), far below 1e-9
        assert value == pytest.approx(tree + 2 * math.exp(-0.4) * bessel_i(8, 0.4), rel=1e-9, abs=0)

    @pytest.mark.parametrize("name", ["k4", "petersen", "cube"])
    @pytest.mark.parametrize("t", [0.1, 1.0, 6.0])
    def test_correction_matches_scalar_blocks(self, name, t):
        # the block vector against N_m^0 equals the sum of scalar blocks
        g = G.builtin_graph(name)
        q = g.regularity()
        M = series_truncation_order(q, t, 1e-11)
        n0 = G.closed_geodesics_at_vertex(g, 0, M)
        correction = math.fsum(n0[m] * building_block(q, m, t) for m in range(1, M + 1))
        expected = tree_heat_kernel(q, t, 0, 1e-11).value + correction
        assert diagonal_tree_decomposition(g, 0, t, 1e-11) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("name", ["k4", "petersen", "cube"])
    @pytest.mark.parametrize("t", [50.0, 200.0, 1000.0])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_large_t_matches_row(self, name, t, tol):
        # N_m^0 passes float range from m = 1026 on k4, and t = 1000 needs M = 2062 there
        g = G.builtin_graph(name)
        value = diagonal_tree_decomposition(g, 0, t, tol)
        assert abs(value - heat_kernel_rows(g, 0, [t], tol)[0, 0]) <= tol

    @pytest.mark.parametrize("name", ["k4", "petersen", "cube"])
    def test_grid_is_the_single_time_values(self, name):
        # one counting run to the largest order, one tree table and one block grid
        g = G.builtin_graph(name)
        times = (0.5, 1.0, 0.0, 6.0, 0.1)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                heat_graph, "closed_geodesics_at_vertex",
                lambda *args: runs.append(args[2]) or G.closed_geodesics_at_vertex(*args),
            )
            values = diagonal_tree_decomposition(g, 0, times, 1e-11)
            entries = heat_kernel_series(g, 0, 0, times, 1e-11)
        assert runs == [series_truncation_order(g.regularity(), 6.0, 1e-11)]
        assert values == [diagonal_tree_decomposition(g, 0, t, 1e-11) for t in times]
        assert entries == [heat_kernel_series(g, 0, 0, t, 1e-11) for t in times]
        assert tree_heat_kernel(g.regularity(), times, 0) == [
            tree_heat_kernel(g.regularity(), t, 0) for t in times
        ]

    def test_negative_formula_counts_enter_with_their_sign(self):
        # a 4-regular multigraph with a self-loop, not vertex-transitive: the
        # formula N_m^0 at x0 = 0 reads N_3^0 = -2, whose logarithm once raised
        g = G.Graph(
            5,
            origin=(0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 2, 0, 0, 4, 3, 1, 3, 2, 4),
            terminus=(1, 0, 2, 1, 3, 2, 4, 3, 0, 4, 2, 1, 0, 0, 3, 4, 3, 1, 4, 2),
        )
        q, times = g.regularity(), (0.1, 1.0, 6.0)
        assert G.closed_geodesics_at_vertex(g, 0, 3)[3] == -2
        values = diagonal_tree_decomposition(g, 0, times, 1e-11)
        for t, value in zip(times, values):
            M = series_truncation_order(q, t, 1e-11)
            n0 = G.closed_geodesics_at_vertex(g, 0, M)
            correction = math.fsum(n0[m] * building_block(q, m, t) for m in range(1, M + 1))
            expected = tree_heat_kernel(q, t, 0, 1e-11).value + correction
            assert value == pytest.approx(expected, abs=1e-14)
            assert value == diagonal_tree_decomposition(g, 0, t, 1e-11)

    @pytest.mark.parametrize("name,t", [("k4", 0.5), ("petersen", 1.0), ("cube", 0.7)])
    def test_matches_spectral_diagonal(self, name, t):
        g = G.builtin_graph(name)
        assert diagonal_tree_decomposition(g, 0, t, 1e-11) == pytest.approx(
            heat_kernel_spectral(g, 0, 0, t), abs=1e-8
        )


class TestOde:
    @given(g=regular_multigraphs(), t=st.sampled_from([0.05, 0.7, 3.0]))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_per_vector_solves(self, g, t):
        n, tol = g.n_vertices, 1e-11
        lap = laplacian(g)
        propagator = heat_kernel_ode(g, t)
        assert propagator.shape == (n, n)
        assert np.abs(propagator - propagator.T).max() <= 1e-9
        for x0 in range(n):
            y0 = np.zeros(n)
            y0[x0] = 1.0
            sol = solve_ivp(
                lambda _t, y: -lap @ y, (0.0, t), y0, method="DOP853", rtol=tol, atol=tol * 1e-2
            )
            assert sol.success
            assert np.abs(propagator[x0] - sol.y[:, -1]).max() <= 1e-9

    def test_initial_condition(self):
        g = G.builtin_graph("k33")
        row = heat_kernel_ode(g, 0.0)[2]
        assert row[2] == 1.0 and row.sum() == 1.0

    def test_matches_spectral(self):
        g = G.builtin_graph("petersen")
        row = heat_kernel_ode(g, 1.3)[0]
        for x in range(10):
            assert row[x] == pytest.approx(
                heat_kernel_spectral(g, 0, x, 1.3), abs=1e-8
            )
