import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from heatzeta import graphs as G
from heatzeta import heat_graph
from heatzeta.bessel import bessel_i, building_block
from heatzeta.heat_graph import (
    DENSE_EIGEN_CAP,
    b_coefficients,
    diagonal_tree_decomposition,
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
from heatzeta.heat_tree import horocycle_solution, tree_heat_kernel
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
        # M = 2062 at t = 1000: the scalar oracle still raises converting its
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
        # M = 512 there; the row matches the spectral one
        g = G.builtin_graph(name)
        assert series_truncation_order(2, 200.0, 1e-10) == 512
        row = heat_kernel_rows(g, 0, [200.0])[0]
        assert np.abs(row - heat_kernel_spectral_row(g, 0, 200.0)).max() <= 1e-12


# t = 0, small times, and t = 200, where every q >= 2 takes 2^-512 rescales (q = 4 seven)
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
        # the fixed rescale schedule makes every column the same float computation
        block = heat_kernel_rows(g, None, GRID)
        assert block.shape == (len(GRID), g.n_vertices, g.n_vertices)
        for y in range(g.n_vertices):
            assert block[:, :, y].tobytes() == heat_kernel_rows(g, y, GRID).tobytes()

    @given(g=regular_multigraphs(), m=st.integers(0, 20), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_rows_run_the_b_recursion_exactly(self, g, m, data):
        # weight 1 at order m and 0 at every other: the rows are b_m, exactly,
        # as up to order 20 the entries stay below 2^53 and no rescale fires
        q = g.regularity()
        M = series_truncation_order(q, 2.0, 1e-10)
        assert M >= 20 and heat_graph._rescale_schedule(q, 20).max() == 0

        def one_block(q, M, t):
            exponents = np.full(M + 1, -np.inf)
            exponents[m] = 0.0
            return exponents

        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heat_graph, "log_building_blocks", one_block)
            row = heat_kernel_rows(g, x0, [2.0])[0]
            block = heat_kernel_rows(g, None, [2.0])[0]
        assert row.tolist() == b_coefficients(g, x0, M)[m]
        assert block.tolist() == b_coefficients(g, None, M)[m]

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

    @given(g=regular_multigraphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_long_grid_runs_in_passes(self, g, data):
        x0 = data.draw(st.integers(0, g.n_vertices - 1))
        grid = GRID + (0.1, 200.0)
        orders = {t: series_truncation_order(g.regularity(), t, 1e-10) for t in grid}
        cap = 2 * (orders[200.0] + 1)
        expected = [heat_kernel_rows(g, x0, [t])[0].tobytes() for t in grid]
        passes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heat_graph, "_PASS_WEIGHTS", cap)
            original = heat_graph._rows_pass
            mp.setattr(
                heat_graph, "_rows_pass", lambda *args: passes.append(args[3]) or original(*args)
            )
            rows = heat_kernel_rows(g, x0, grid)
        assert len(passes) > 1
        for ts in passes:
            assert len(ts) * (max(orders[t] for t in ts) + 1) <= cap
        assert [row.tobytes() for row in rows] == expected


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
def test_rescale_schedule_keeps_the_bound_in_range(q):
    # beta_m = (q+1) q^{m-1} bounds |b_m|; the schedule keeps beta_m 2^{-512 r_m} in [1, 2^513]
    scales = heat_graph._rescale_schedule(q, 3000).tolist()
    assert scales[0] == 0
    assert all(r - before in (0, 1) for before, r in zip(scales, scales[1:]))
    beta = 1
    for m, r in enumerate(scales):
        assert 2 ** (512 * r) <= beta <= 2 ** (512 * r + 513)
        beta = q + 1 if m == 0 else beta * q


@pytest.mark.parametrize("name, t, rescales", [("petersen", 1000.0, 4), ("k4", 200.0, 1)])
def test_rescales_fire_on_the_builtins(name, t, rescales):
    q = G.builtin_graph(name).regularity()
    assert heat_graph._rescale_schedule(q, series_truncation_order(q, t, 1e-10))[-1] == rescales


@pytest.mark.parametrize("t", [math.inf, math.nan, -0.5])
@pytest.mark.parametrize(
    "route",
    [
        lambda g, t: heat_kernel_series(g, 0, 1, t),
        lambda g, t: heat_kernel_rows(g, 0, [t]),
        lambda g, t: heat_kernel_spectral(g, 0, 1, t),
        lambda g, t: heat_kernel_spectral_row(g, 0, t),
        lambda g, t: heat_kernel_ode(g, t),
        lambda g, t: diagonal_tree_decomposition(g, 0, t),
        lambda g, t: tree_heat_kernel(g.regularity(), t, 0),
        lambda g, t: horocycle_solution(g.regularity(), t, 1),
    ],
    ids=["series", "row", "spectral", "spectral_row", "ode", "diagonal", "tree", "horocycle"],
)
def test_time_validated(route, t):
    with pytest.raises(ValueError, match="t must be finite and >= 0, got"):
        route(G.builtin_graph("k4"), t)


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
        (4, 40.0, 1e-10, 817),  # the next bound's Bessel factor is subnormal
        (5, 40.0, 1e-14, 847),
        (6, 20.0, 1e-8, 705),  # the next bound's Bessel factor is 0.0
        (7, 20.0, 1e-10, 722),
    ],
)
def test_truncation_orders_pinned(q, t, tol, scan_M):
    # scan_M: the order of the linear scan past 2 sqrt(q) t that the concave
    # tail test replaced, which never needs more orders
    M = series_truncation_order(q, t, tol)
    assert M == PINNED_ORDERS[q, t, tol]
    assert M <= scan_M


@pytest.mark.parametrize("q", [5, 6, 7])
@pytest.mark.parametrize("t", [30.0, 40.0, 200.0])
def test_truncation_certified_where_the_power_leaves_float_range(q, t):
    # q^{m/2} alone passes 1e308 within the scan; the next term's bound,
    # (q+1) q^{m-1} q^{-m/2} e^{-(sqrt(q)-1)^2 t} tau^{-1/2} (1 + m/tau)^{-m/2},
    # written out as a logarithm, must be below tol
    tol = 1e-10
    M = series_truncation_order(q, t, tol)
    tau = 2.0 * math.sqrt(q) * t
    m = M + 1
    log_bound = (
        math.log(q + 1)
        + (m / 2 - 1) * math.log(q)
        - (math.sqrt(q) - 1.0) ** 2 * t
        - 0.5 * math.log(tau)
        - 0.5 * m * math.log1p(m / tau)
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
