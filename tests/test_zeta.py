import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from heatzeta import graphs as G
from heatzeta import heat_graph, zeta
from heatzeta.bessel import QuadratureError, building_block, log_building_blocks
from heatzeta.heat_graph import spectral_data
from heatzeta.zeta import (
    atomic_measure,
    euler_product_series,
    g_transform_numeric,
    ihara_determinant_series,
    kesten_tree_measure,
    recover_counts,
    tree_walk_counts,
    two_variable_zeta,
    zeta_log_series_from_counts,
    zeta_spectral,
)
from strategies import regular_multigraphs

FINITE = ["k4", "c5", "c8", "cube", "k33", "petersen"]


def no_eigensolve(monkeypatch):
    """Make every eigen-solve the package could reach raise."""

    def eigensolve(*args, **kwargs):
        raise AssertionError("an eigen-solve ran")

    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (zeta, "spectral_data")):
        monkeypatch.setattr(module, name, eigensolve)


def nodewise(f):
    """A scalar f as g_transform_numeric's integrand: f at each node of the array it is handed."""
    return np.vectorize(f, otypes=[float])


class TestLogSeries:
    def test_zero_counts_give_zero_series(self):
        series = zeta_log_series_from_counts([0] * 13, 12)
        assert all(c == 0 for c in series.coeffs)

    def test_c5(self):
        n = G.closed_geodesics_total(G.builtin_graph("c5"), 12)
        series = zeta_log_series_from_counts(n, 12)
        assert series[5] == Fraction(2)
        assert series[10] == Fraction(1)
        assert all(series[m] == 0 for m in (1, 2, 3, 4, 6, 7, 8, 9, 11, 12))

    def test_k4_exact_coefficients(self):
        n = G.closed_geodesics_total(G.builtin_graph("k4"), 8)
        series = zeta_log_series_from_counts(n, 8)
        assert series[3] == Fraction(24, 3)
        assert series[4] == Fraction(24, 4)
        assert series[5] == 0


class TestEulerProduct:
    def test_empty_product(self):
        assert euler_product_series([0] * 13, 12).coeffs[0] == 1
        assert sum(euler_product_series([0] * 13, 12).coeffs[1:]) == 0

    def test_c5_squared_geometric(self):
        # (1 - u^5)^{-2} = sum (m+1) u^{5m}
        pi = [0] * 13
        pi[5] = 2
        series = euler_product_series(pi, 12)
        assert series[0] == 1 and series[5] == 2 and series[10] == 3
        assert series[1] == 0 and series[7] == 0

    @pytest.mark.parametrize("name", FINITE)
    def test_equals_exp_of_log_series(self, name):
        g = G.builtin_graph(name)
        n = G.closed_geodesics_total(g, 12)
        pi = G.prime_geodesic_counts(n, 12)
        assert euler_product_series(pi, 12) == zeta_log_series_from_counts(n, 12).exp()


class TestDeterminantFormula:
    @pytest.mark.parametrize("name", FINITE)
    def test_integer_recovery(self, name):
        g = G.builtin_graph(name)
        series = ihara_determinant_series(g, 12)
        recovered = recover_counts(series)
        expected = G.closed_geodesics_total(g, 12)
        assert recovered[1:] == expected[1:]

    def test_known_counts(self):
        assert recover_counts(ihara_determinant_series(G.builtin_graph("k4"), 5))[3] == 24
        assert recover_counts(ihara_determinant_series(G.builtin_graph("petersen"), 5))[5] == 120
        assert recover_counts(ihara_determinant_series(G.builtin_graph("c5"), 5))[5] == 10

    def test_cycle_closed_form(self):
        # q = 1: log zeta^{Ih} = -2 log(1 - u^n) per direction pair
        series = ihara_determinant_series(G.builtin_graph("c5"), 12)
        recovered = recover_counts(series)
        assert recovered[5] == 10 and recovered[10] == 10
        assert sum(recovered[m] for m in range(1, 13) if m % 5) == 0

    @pytest.mark.parametrize("name, limit", [("k4", 41), ("cube", 40)])
    def test_unresolved_order_refused_before_the_eigensolve(self, monkeypatch, name, limit):
        # the float route refused order 60 from these limits, and past them returned
        # wrong N_m (k4 from N_53, cube N_54); the exact route answers with no eigen-solve
        no_eigensolve(monkeypatch)
        g = G.builtin_graph(name)
        series = ihara_determinant_series(g, 60)
        assert series.order == 60 >= limit
        assert [m * series[m] for m in range(1, 61)] == G.closed_geodesics_total(g, 60)[1:]

    def test_eigenvalues_only(self, monkeypatch):
        # no eigen-solve at all: neither eigvalsh nor eigh, nor the cached one of spectral_data
        no_eigensolve(monkeypatch)
        g = G.builtin_graph("petersen")
        assert recover_counts(ihara_determinant_series(g, 12))[1:] == G.closed_geodesics_total(g, 12)[1:]

    def test_dense_cap_refused_before_the_eigensolve(self, monkeypatch):
        # the dense eigen-solve cap, which the float route obeyed, no longer bounds the route
        monkeypatch.setattr(heat_graph, "DENSE_EIGEN_CAP", 9)
        no_eigensolve(monkeypatch)
        g = G.builtin_graph("petersen")
        series = ihara_determinant_series(g, 12)
        assert [m * series[m] for m in range(1, 13)] == G.closed_geodesics_total(g, 12)[1:]

    @given(g=regular_multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_counts_on_multigraphs(self, g):
        # orders below, at and past n, where the route reduces S_m modulo chi_A; n = 1
        # (one vertex with loops) reduces S_1 = x itself
        n = g.n_vertices
        for M in (1, n, n + 1, 2 * n + 5, 40):
            series = ihara_determinant_series(g, M)
            assert [m * series[m] for m in range(1, M + 1)] == G.closed_geodesics_total(g, M)[1:]

    def test_inexact_newton_division_raises(self, monkeypatch):
        # one trace off by 1 (k4's tr A^2 = 12 read as 13) makes 2 c_2 odd
        def traces(*args):
            p = walk_traces(*args)
            p[2] += 1
            return p

        walk_traces = zeta._walk_traces
        monkeypatch.setattr(zeta, "_walk_traces", traces)
        message = r"^Newton's identities: 2 c_2 = -13, not a multiple of 2$"
        with pytest.raises(ArithmeticError, match=message):
            ihara_determinant_series(G.builtin_graph("k4"), 8)

    @pytest.mark.parametrize("M", [60, 1100])
    def test_recovery_is_exact_past_float_integers(self, M):
        # m det_m leaves the floats' exact integers at m = 56 on k4 (> 2^53) and
        # float range past order 1,024, so recover_counts reads no float
        g = G.builtin_graph("k4")
        assert recover_counts(ihara_determinant_series(g, M))[1:] == G.closed_geodesics_total(g, M)[1:]

    def test_guard_rejects_noise(self):
        from heatzeta.series import PowerSeries

        bad = PowerSeries([0.0, 0.5])
        with pytest.raises(ValueError):
            recover_counts(bad)


class TestSpectralZeta:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("u", [0.05, 0.1, 0.2])
    def test_tree_identity(self, q, u):
        measure = kesten_tree_measure(q)
        assert zeta_spectral(measure, q, u) == pytest.approx(1.0, abs=1e-7)

    def test_k4_matches_series(self):
        g = G.builtin_graph("k4")
        q = g.regularity()
        measure = atomic_measure(g, 0, 0)
        n0 = G.closed_geodesics_at_vertex(g, 0, 40)
        series = zeta_log_series_from_counts(n0, 40)
        for u in (0.02, 0.05, 0.1):
            expected = math.exp(-series.evaluate(u))
            assert zeta_spectral(measure, q, u) == pytest.approx(expected, abs=1e-8)

    def test_small_u_limit(self):
        measure = kesten_tree_measure(2)
        assert zeta_spectral(measure, 2, 1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_domain_enforced(self):
        measure = kesten_tree_measure(2)
        with pytest.raises(ValueError):
            zeta_spectral(measure, 2, 0.6)
        with pytest.raises(ValueError):
            zeta_spectral(measure, 2, 0.0)


class TestAtomicMeasure:
    def test_moments_count_closed_walks(self):
        # closed walks of length k at a vertex of K4: (3^k + 3 (-1)^k) / 4
        measure = atomic_measure(G.builtin_graph("k4"), 0, 0)
        assert measure.integrate(lambda lam: 1.0) == pytest.approx(1.0, abs=1e-15)
        for k in range(1, 9):
            moment = measure.integrate(lambda lam, k=k: (3.0 - lam) ** k)
            assert moment == pytest.approx((3**k + 3 * (-1) ** k) / 4, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("name", FINITE)
    def test_weights_sum_to_the_indicator(self, name):
        # sum_j psi_j(x) psi_j(x0) = [x = x0], as the eigenvectors are orthonormal
        g = G.builtin_graph(name)
        for x in range(g.n_vertices):
            mass = math.fsum(atomic_measure(g, 0, x).weights)
            assert mass == pytest.approx(1.0 if x == 0 else 0.0, abs=1e-14)

    def test_off_diagonal_weights_have_no_mass(self):
        measure = atomic_measure(G.builtin_graph("petersen"), 0, 1)
        assert measure.integrate(lambda lam: 1.0) == pytest.approx(0.0, abs=1e-15)
        # one step of the walk: the Laplacian's off-diagonal entry -1 for an edge
        assert measure.integrate(lambda lam: lam) == pytest.approx(-1.0, abs=1e-14)


class TestKestenMoments:
    def test_mass(self):
        assert kesten_tree_measure(2).integrate(lambda lam: 1.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_odd_moments_vanish(self):
        measure = kesten_tree_measure(3)
        for k in (1, 3, 5):
            moment = measure.integrate(lambda lam, k=k: (4.0 - lam) ** k)
            assert moment == pytest.approx(0.0, abs=1e-9)

    def test_second_moment(self):
        for q in (1, 2, 3):
            measure = kesten_tree_measure(q)
            moment = measure.integrate(lambda lam: (q + 1.0 - lam) ** 2)
            assert moment == pytest.approx(q + 1, rel=1e-10, abs=0)

    @pytest.mark.parametrize("q", [2, 3])
    def test_walk_count_oracle(self, q):
        walks = tree_walk_counts(q, 12)
        measure = kesten_tree_measure(q)
        for k in range(13):
            moment = measure.integrate(lambda lam, k=k: (q + 1.0 - lam) ** k)
            assert round(moment) == walks[k]
            assert moment == pytest.approx(walks[k], rel=1e-9, abs=1e-9)

    def test_non_finite_integrand_refused_at_once(self):
        calls = []

        def f(lam):
            calls.append(lam)
            return math.nan

        with pytest.raises(QuadratureError, match="integrand is not finite at 8 nodes"):
            kesten_tree_measure(2).integrate(f)
        assert len(calls) <= 15

    def test_walk_counts_exact_small(self):
        # q = 1 tree is the integer line: central binomials
        assert tree_walk_counts(1, 6) == [1, 0, 2, 0, 6, 0, 20]


def laplace_u(s):
    """The u of the Laplace point s = (u + 1/u) / 2 - 1 below 1."""
    return s + 1.0 - math.sqrt(s * s + 2.0 * s)


class TestGTransform:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("factor", [0.1, 0.25, 0.8])
    def test_building_block_identity(self, q, k, factor):
        u = factor / math.sqrt(q)
        if u < 1.0 / q:
            (result,) = g_transform_numeric(nodewise(lambda t: building_block(q, k, t)), q, u)
        else:  # past the domain's end 1/q: G_q B_k(u) = q^{(1-k)/2} G_1 B_k(sqrt(q) u)
            (g1,) = g_transform_numeric(nodewise(lambda t: building_block(1, k, t)), 1, factor)
            result = q ** ((1 - k) / 2) * g1
        assert result == pytest.approx(u ** (k - 1), abs=1e-6)

    def test_tree_diagonal_closed_form(self):
        from heatzeta.heat_tree import tree_heat_kernels

        # the tree rows of each level's nodes from one grid
        q, u = 2, 0.2
        result = g_transform_numeric(
            lambda ts: [row[0].value for row in tree_heat_kernels(q, ts, (0,), 1e-13)], q, u
        )
        expected = 1.0 / u - (q - 1) * u / (1.0 - u * u)
        assert result == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("name", ["k4", "petersen"])
    @pytest.mark.parametrize("u", [0.02, 0.05])
    def test_diagonal_heat_kernel_identity(self, name, u):
        g = G.builtin_graph(name)
        q = g.regularity()
        sd = spectral_data(g)
        weights = sd.eigenvectors[0, :] ** 2

        def diag(t):
            return math.fsum(
                w * math.exp(-lam * t) for lam, w in zip(sd.eigenvalues, weights)
            )

        n0 = G.closed_geodesics_at_vertex(g, 0, 60)
        expected = (
            1.0 / u
            - (q - 1) * u / (1.0 - u * u)
            + math.fsum(n0[m] * u ** (m - 1) for m in range(1, 61))
        )
        result = g_transform_numeric(nodewise(diag), q, u)
        assert result == pytest.approx(expected, abs=1e-6)

    def test_divergent_domain_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            g_transform_numeric(np.ones_like, 2, 0.9)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 1e-300])
    def test_unusable_u_refused_before_any_node(self, u):
        # NaN used to run to the 2^20-node cap and 1e-300 to divide by u^2 = 0
        def node(t):
            raise AssertionError("a node was evaluated")

        with pytest.raises(ValueError, match="u"):
            g_transform_numeric(node, 2, u)

    def test_unconverged_quadrature_refused(self):
        # 96,000 jumps on [0, 30]: the trapezoid rule's error falls only like its
        # step, 3e-4 at the 2^20-node cap against the guard 1e-11
        with pytest.raises(RuntimeError, match="did not converge"):
            g_transform_numeric(lambda t: np.copysign(1.0, np.sin(1e4 * t)), 2, 0.25)

    @pytest.mark.parametrize(
        "rows, value",
        [
            pytest.param(1, math.nan, id="nan"),
            pytest.param(7, np.array([1.0, 2.0, 3.0, math.inf, 5.0, 6.0, 7.0]), id="infinite_row"),
        ],
    )
    def test_non_finite_integrand_refused_at_once(self, rows, value):
        # a NaN made every error estimate NaN, and the rule doubled to 2^20 nodes
        nodes = []

        def f(t):
            nodes.extend(t)
            return np.broadcast_to(value, (len(t), rows))

        with pytest.raises(RuntimeError, match="integrand is not finite at 8 nodes") as info:
            g_transform_numeric(f, 2, 0.05, rows=rows)
        assert info.value.__cause__.r == (3 if rows == 7 else 0)
        assert len(nodes) <= 15

    def test_window_meets_its_cut_rules(self):
        # decay t = exp(s - e^{-s}) runs from tol e^{-20} to ln(1/tol) + 20, and no wider
        def log_decay_t(s):
            return s - math.exp(-s)

        low, high = math.log(zeta._G_TOL) - 20.0, math.log(math.log(1.0 / zeta._G_TOL) + 20.0)
        assert log_decay_t(zeta._S_LO) <= low < log_decay_t(zeta._S_LO + 1e-9)
        assert log_decay_t(zeta._S_HI - 1e-9) < high <= log_decay_t(zeta._S_HI)

    @pytest.mark.parametrize("q", [1, 2, 2000, 10**6, 10**9])
    @pytest.mark.parametrize("factor", [1e-6, 0.5, 0.999, 2.0 * 10**9])
    def test_bounded_integrand_never_refused(self, q, factor):
        # growth q + 1: the factor is e^{-decay t}, and G1 = (u^-2 - q) / decay,
        # to the guard max(1e-11, 1e-10 |value|)
        u = factor / q
        decay = q * u + 1.0 / u - (q + 1.0)
        (value,) = g_transform_numeric(np.ones_like, q, u)
        assert value == pytest.approx((u**-2 - q) / decay, rel=1e-9, abs=1e-11)

    def test_fast_oscillation_converges(self):
        # (u^-2 - q) w / (a^2 + w^2), a = qu + 1/u - (q + 1) = 1.5, the transform of sin(w t)
        # to the guard its error estimate met, max(1e-11, 1e-10 |value|)
        (value,) = g_transform_numeric(lambda t: np.sin(1e4 * t), 2, 0.25)
        guard = max(1e-11, 1e-10 * abs(value))
        assert value == pytest.approx(14.0 * 1e4 / (2.25 + 1e8), abs=guard)


def laplace_identity(s):
    """int_0^inf e^{-st} e^{-t} I_n(t) dt, n = 0..6, numerically and in closed form.

    The numeric row is 2G / (u^{-2} - 1) of the q = 1 blocks e^{-2t} I_n(2t),
    u = laplace_u(s); the closed form is (s + 1 - sqrt(s^2 + 2s))^n / sqrt(s^2 + 2s).
    """
    u = laplace_u(s)
    result = g_transform_numeric(lambda t: np.exp(log_building_blocks(1, 6, t)), 1, u, rows=7)
    root = math.sqrt(s * s + 2.0 * s)
    closed = np.array([(s + 1.0 - root) ** n / root for n in range(7)])
    return 2.0 * result / (u**-2 - 1.0), closed


class TestLaplaceIdentity:
    def test_n0_s1(self):
        numeric, closed = laplace_identity(1.0)
        assert closed[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15, abs=0)
        assert numeric[0] == pytest.approx(closed[0], abs=1e-9)

    def test_n1_s1(self):
        numeric, closed = laplace_identity(1.0)
        assert closed[1] == pytest.approx((2.0 - math.sqrt(3.0)) / math.sqrt(3.0), rel=1e-14, abs=0)
        assert numeric[1] == pytest.approx(closed[1], abs=1e-9)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("s", [0.05, 0.1, 0.5, 1.0, 2.0])
    def test_grid(self, n, s):
        numeric, closed = laplace_identity(s)
        assert numeric[n] == pytest.approx(closed[n], abs=1e-9)

    def test_row_matches_one_order_calls(self):
        # the row of log_building_blocks against one scalar building_block per order
        u = laplace_u(0.5)
        numeric, _ = laplace_identity(0.5)
        for n in range(7):
            alone = g_transform_numeric(nodewise(lambda t: building_block(1, n, t)), 1, u)
            assert numeric[n] == pytest.approx(2.0 * alone[0] / (u**-2 - 1.0), abs=1e-11)

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, 1e-30])
    def test_unusable_s_refused_before_any_node(self, s):
        # u is NaN, or 1 where the decay margin u + 1/u - 2 is 0: at s = 1e-30 it
        # rounds to 0, where one ulp more would cut the integral at t = 2e17
        def node(t):
            raise AssertionError("a node was evaluated")

        with pytest.raises(ValueError, match="u must be|decay"):
            g_transform_numeric(node, 1, laplace_u(s))


class TestTwoVariableZeta:
    def test_adjacent_leading_coefficient(self):
        g = G.builtin_graph("k4")
        pairs = two_variable_zeta(g, 0, 8)
        assert sorted(pairs) == [1, 2, 3]  # every x != x0 from one run
        series, _ = pairs[1]
        assert series[1] == Fraction(1)

    @pytest.mark.parametrize("name", ["k4", "petersen", "k33"])
    def test_series_vs_spectral(self, name):
        g = G.builtin_graph(name)
        series, spectral = two_variable_zeta(g, 0, 60)[1]
        for u in (0.02, 0.05):
            assert series.evaluate(u) == pytest.approx(spectral(u), abs=1e-8)

    def test_vanishing_at_zero(self):
        g = G.builtin_graph("k4")
        series, spectral = two_variable_zeta(g, 0, 40)[2]
        assert series.evaluate(0.0) == 0.0
        assert spectral(1e-9) == pytest.approx(0.0, abs=1e-8)


class TestFourWayAgreement:
    @pytest.mark.parametrize("name", FINITE)
    def test_exact_coefficient_agreement(self, name):
        g = G.builtin_graph(name)
        n = G.closed_geodesics_total(g, 12)
        pi = G.prime_geodesic_counts(n, 12)
        log_series = zeta_log_series_from_counts(n, 12)
        assert euler_product_series(pi, 12) == log_series.exp()
        assert recover_counts(ihara_determinant_series(g, 12))[1:] == n[1:]

    @pytest.mark.parametrize("name", ["k4", "c5", "cube", "petersen"])
    def test_classical_zeta_is_nth_power_of_vertex_zeta(self, name):
        g = G.builtin_graph(name)
        n_counts = G.closed_geodesics_total(g, 10)
        n0 = G.closed_geodesics_at_vertex(g, 0, 10)
        assert all(n_counts[m] == g.n_vertices * n0[m] for m in range(1, 11))
