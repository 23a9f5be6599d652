import math
from fractions import Fraction

import pytest

from heatzeta import graphs as G
from heatzeta import zeta
from heatzeta.bessel import building_block
from heatzeta.heat_graph import spectral_data
from heatzeta.zeta import (
    atomic_measure,
    euler_product_series,
    g_transform_numeric,
    ihara_determinant_series,
    kesten_tree_measure,
    laplace_identity_check,
    recover_counts,
    tree_walk_counts,
    two_variable_zeta,
    zeta_log_series_from_counts,
    zeta_spectral,
)

FINITE = ["k4", "c5", "c8", "cube", "k33", "petersen"]


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
        recovered = recover_counts(series, guard=1e-6)
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

    def test_guard_rejects_noise(self):
        from heatzeta.series import PowerSeries

        bad = PowerSeries([0.0, 0.5])
        with pytest.raises(ValueError):
            recover_counts(bad, guard=1e-6)


class TestSpectralZeta:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("u", [0.05, 0.1, 0.2])
    def test_tree_identity(self, q, u):
        measure = kesten_tree_measure(q)
        assert zeta_spectral(measure, q, u) == pytest.approx(1.0, abs=1e-7)

    def test_k4_matches_series(self):
        g = G.builtin_graph("k4")
        q = g.regularity()
        measure = atomic_measure(g, 0)
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
            assert moment == pytest.approx(q + 1, rel=1e-10)

    @pytest.mark.parametrize("q", [2, 3])
    def test_walk_count_oracle(self, q):
        walks = tree_walk_counts(q, 12)
        measure = kesten_tree_measure(q)
        for k in range(13):
            moment = measure.integrate(lambda lam, k=k: (q + 1.0 - lam) ** k)
            assert round(moment) == walks[k]
            assert moment == pytest.approx(walks[k], rel=1e-9, abs=1e-9)

    def test_walk_counts_exact_small(self):
        # q = 1 tree is the integer line: central binomials
        assert tree_walk_counts(1, 6) == [1, 0, 2, 0, 6, 0, 20]


class TestGTransform:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("factor", [0.1, 0.25])
    def test_building_block_identity(self, q, k, factor):
        u = factor / math.sqrt(q)
        result = g_transform_numeric(
            lambda t: building_block(q, k, t),
            q,
            u,
            tol=1e-11,
            growth_rate=2.0 * math.sqrt(q),
        )
        assert result.value == pytest.approx(u ** (k - 1), abs=1e-6)

    def test_tree_diagonal_closed_form(self):
        from heatzeta.heat_tree import tree_heat_kernel

        q, u = 2, 0.2
        result = g_transform_numeric(
            lambda t: tree_heat_kernel(q, t, 0, 1e-13).value,
            q,
            u,
            tol=1e-11,
            growth_rate=2.0 * math.sqrt(q),
        )
        expected = 1.0 / u - (q - 1) * u / (1.0 - u * u)
        assert result.value == pytest.approx(expected, abs=1e-7)

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
        result = g_transform_numeric(diag, q, u, tol=1e-11)
        assert result.value == pytest.approx(expected, abs=1e-6)

    def test_divergent_domain_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            g_transform_numeric(lambda t: 1.0, 2, 0.9, growth_rate=3.0)

    def test_unconverged_quadrature_refused(self):
        # 50,000 periods on [0, 32] defeat quad's 400 subintervals
        with pytest.raises(RuntimeError, match="did not converge"):
            g_transform_numeric(lambda t: math.sin(1e4 * t), 2, 0.25, tol=1e-12)


class TestLaplaceIdentity:
    def test_n0_s1(self):
        numeric, closed = laplace_identity_check(0, 1.0)
        assert closed == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert numeric == pytest.approx(closed, abs=1e-9)

    def test_n1_s1(self):
        numeric, closed = laplace_identity_check(1, 1.0)
        assert closed == pytest.approx((2.0 - math.sqrt(3.0)) / math.sqrt(3.0), rel=1e-14)
        assert numeric == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_grid(self, n, s):
        numeric, closed = laplace_identity_check(n, s)
        assert numeric == pytest.approx(closed, abs=1e-9)

    def test_unconverged_integral_refused(self, monkeypatch):
        # a scaled Bessel factor oscillating 20,000 times over [0, 47.6]
        # defeats quad's 400 subintervals, and the guard says so
        monkeypatch.setattr(zeta, "bessel_i_scaled", lambda n, t: math.sin(2.6e3 * t))
        with pytest.raises(RuntimeError, match="calibration integral did not converge"):
            laplace_identity_check(0, 1.0)


class TestTwoVariableZeta:
    def test_adjacent_leading_coefficient(self):
        g = G.builtin_graph("k4")
        series, _ = two_variable_zeta(g, 0, 1, 8)
        assert series[1] == Fraction(1)

    @pytest.mark.parametrize("name", ["k4", "petersen", "k33"])
    def test_series_vs_spectral(self, name):
        g = G.builtin_graph(name)
        series, spectral = two_variable_zeta(g, 0, 1, 60)
        for u in (0.02, 0.05):
            assert series.evaluate(u) == pytest.approx(spectral(u), abs=1e-8)

    def test_vanishing_at_zero(self):
        g = G.builtin_graph("k4")
        series, spectral = two_variable_zeta(g, 0, 2, 40)
        assert series.evaluate(0.0) == 0.0
        assert spectral(1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_refused(self):
        with pytest.raises(ValueError):
            two_variable_zeta(G.builtin_graph("k4"), 0, 0, 8)


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
