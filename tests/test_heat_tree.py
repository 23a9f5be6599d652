import math

import pytest
from scipy.integrate import quad

from heatzeta import heat_tree
from heatzeta.bessel import MAX_RECURRENCE, bessel_i, bessel_i_scaled, building_block
from heatzeta.heat_tree import (
    horocycle_solution,
    tree_heat_kernel,
    tree_heat_kernel_integral,
    tree_heat_kernel_integrals,
    tree_heat_kernel_time_derivative,
    tree_heat_kernels,
)


class TestSeries:
    def test_initial_condition(self):
        for q in (1, 2, 3):
            assert tree_heat_kernel(q, 0.0, 0).value == 1.0
            for r in (1, 2, 5):
                assert tree_heat_kernel(q, 0.0, r).value == 0.0

    def test_q_one_closed_form(self):
        for r in range(5):
            value = tree_heat_kernel(1, 0.8, r, 1e-12).value
            assert value == pytest.approx(math.exp(-1.6) * bessel_i(r, 1.6), rel=1e-12)

    def test_tail_certificate_reported(self):
        result = tree_heat_kernel(2, 1.0, 0, 1e-10)
        assert 0.0 < result.tail_bound < 1e-10
        assert result.truncation_index > 0

    def test_value_range(self):
        for q in (2, 3):
            for t in (0.1, 1.0, 5.0):
                for r in range(8):
                    v = tree_heat_kernel(q, t, r, 1e-12).value
                    assert 0.0 < v < 1.0

    def test_positivity_despite_alternation(self):
        # the correction series is subtracted, so positivity is nontrivial
        for t in (0.05, 0.5, 2.0, 10.0):
            assert tree_heat_kernel(4, t, 0, 1e-13).value > 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tree_heat_kernel(0, 1.0, 0)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, -1.0, 0)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, 1.0, -1)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, 1.0, 0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            tree_heat_kernel(2, 1.0, 0, tol)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 0.1, 2.0, 8.0])
    def test_matches_scalar_alternating_sum(self, q, t):
        # the truncation rule and the per-term sum of scalar building blocks,
        # written out independently of bessel's helpers: J is the first index
        # whose next log bound term has fallen and whose concave tail
        # next / (1 - next / current) is below tol
        tol = 1e-12

        def log_term(order):
            # ln of (q-1) q^{-order/2} e^{-(sqrt(q)-1)^2 t} tau^{-1/2} (1 + order/tau)^{-order/2}
            return (
                math.log(q - 1)
                - 0.5 * order * math.log(q)
                - (math.sqrt(q) - 1.0) ** 2 * t
                - 0.5 * math.log(tau)
                - 0.5 * order * math.log1p(order / tau)
            )

        for r in range(31):
            result = tree_heat_kernel(q, t, r, tol)
            j, bound, value = 0, 0.0, building_block(q, r, t)
            if q > 1 and t > 0:
                tau = 2.0 * math.sqrt(q) * t
                while True:
                    current, following = log_term(r + 2 * j), log_term(r + 2 * j + 2)
                    if following < current:
                        bound = math.exp(following) / (1.0 - math.exp(following - current))
                        if bound < tol:
                            break
                    j += 1
                    value -= (q - 1) * building_block(q, r + 2 * j, t)
            assert result.truncation_index == j
            assert result.tail_bound == pytest.approx(bound, rel=1e-14)
            assert result.value == pytest.approx(value, abs=1e-13)

    def test_large_time_finishes(self):
        # every block underflows at t = 1e6, and so does the log bound of the
        # first correction term: the certified index is 0
        result = tree_heat_kernel(2, 1e6, 3, 1e-10)
        assert result.value == 0.0
        assert result.truncation_index == 0

    def test_order_cap(self):
        # r + 2J is the length of the block vector, refused by the guard of
        # the block recurrence before anything is allocated
        with pytest.raises(ValueError, match=f"recurrence needs .* terms, more than {MAX_RECURRENCE}"):
            tree_heat_kernel(2, 1.0, MAX_RECURRENCE)


class TestIntegralRoute:
    @pytest.mark.parametrize("q,t,r", [(2, 1.0, 0), (2, 0.5, 3), (3, 2.0, 0), (4, 0.1, 7)])
    def test_agrees_with_series(self, q, t, r):
        series = tree_heat_kernel(q, t, r, 1e-12).value
        integral = tree_heat_kernel_integral(q, t, r, 1e-11)
        assert series == pytest.approx(integral, abs=1e-9)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [3.5, 5.0, 8.0])
    def test_converges_at_larger_times(self, q, t):
        # the integrand is scaled by e^{-2t sqrt(q)}, so the error guard
        # meets tol on the returned value where e^{2t sqrt(q)} used to defeat it
        for r in range(31):
            series = tree_heat_kernel(q, t, r, 1e-12).value
            assert tree_heat_kernel_integral(q, t, r, 1e-10) == pytest.approx(series, abs=1e-11)

    def test_initial_condition(self):
        assert tree_heat_kernel_integral(2, 0.0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_no_overflow_past_order_2048(self):
        # q ** (r/2 - 1) alone leaves float range at r = 2050, q = 2; the value underflows instead
        value = tree_heat_kernel_integral(2, 1.0, 2100)
        assert 0.0 <= value < 1e-300
        assert value == pytest.approx(tree_heat_kernel(2, 1.0, 2100).value, abs=1e-300)

    def test_q_one_refused(self):
        with pytest.raises(ValueError):
            tree_heat_kernel_integral(1, 1.0, 0)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    def test_trapezoid_row_matches_adaptive_quadrature(self, q, t):
        # the integral formula written out and integrated by QUADPACK, per r
        row = tree_heat_kernel_integrals(q, t, range(31), 1e-12)
        sq = math.sqrt(q)
        for r in range(31):

            def integrand(u):
                num = math.sin(u) * (q * math.sin((r + 1) * u) - math.sin((r - 1) * u))
                den = (q + 1) ** 2 - 4 * q * math.cos(u) ** 2
                return math.exp(2 * t * sq * (math.cos(u) - 1.0)) * num / den

            value, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=200)
            prefactor = 2.0 * math.exp(-((sq - 1.0) ** 2) * t - (r / 2.0 - 1.0) * math.log(q))
            assert row[r] == pytest.approx(prefactor / math.pi * value, abs=1e-12)

    def test_row_spanning_node_chunks_matches_single_radii(self):
        # 174 radii times at least 1023 nodes pass one chunk of the node loop
        radii = range(0, 520, 3)
        row = tree_heat_kernel_integrals(3, 1.0, radii, 1e-12)
        assert len(radii) * 1023 > heat_tree._CHUNK_ENTRIES
        for r, value in zip(radii, row):
            assert value == pytest.approx(tree_heat_kernel_integral(3, 1.0, r, 1e-12), abs=2e-12)

    @pytest.mark.parametrize("radii, failed", [(range(3), 0), (range(5, 9), 5)])
    def test_unmet_guard_names_the_radius(self, radii, failed):
        # no double-precision rule meets a 1e-16 guard on these values
        with pytest.raises(RuntimeError, match=f"^r = {failed}: rounding error") as exc:
            tree_heat_kernel_integrals(2, 1.0, radii, 1e-16)
        assert exc.value.r == failed


class TestRows:
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
    def test_series_row_entries_are_the_scalar_values(self, q, t):
        row = tree_heat_kernels(q, t, range(25), 1e-12)
        assert row == [tree_heat_kernel(q, t, r, 1e-12) for r in range(25)]

    @pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
    def test_integral_row_entry_is_the_scalar_integral(self, t):
        for r in (0, 1, 9):
            assert tree_heat_kernel_integral(3, t, r) == tree_heat_kernel_integrals(3, t, (r,))[0]

    def test_series_row_needs_nonnegative_radii(self):
        with pytest.raises(ValueError, match="r must be >= 0"):
            tree_heat_kernels(2, 1.0, [0, 1, -1])
        with pytest.raises(ValueError, match="r must be >= 0"):
            tree_heat_kernel_integrals(2, 1.0, [0, -1])


class TestHeatEquation:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_residuals(self, q, t):
        f = [tree_heat_kernel(q, t, r, 1e-13).value for r in range(12)]
        fdot = [tree_heat_kernel_time_derivative(q, t, r, 1e-13) for r in range(11)]
        assert abs((q + 1) * f[0] - (q + 1) * f[1] + fdot[0]) <= 1e-8
        for r in range(1, 11):
            residual = (q + 1) * f[r] - q * f[r + 1] - f[r - 1] + fdot[r]
            assert abs(residual) <= 1e-8


class TestMassConservation:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_sphere_weighted_sum(self, q, t):
        radius = int(2 * math.sqrt(q) * t) + 60
        total = tree_heat_kernel(q, t, 0, 1e-13).value
        for r in range(1, radius):
            sphere = (q + 1) * q ** (r - 1)
            total += sphere * tree_heat_kernel(q, t, r, 1e-13).value
        assert total == pytest.approx(1.0, abs=1e-6)


class TestHorocycle:
    def test_initial_condition(self):
        assert horocycle_solution(2, 0.0, 0) == 1.0
        assert horocycle_solution(2, 0.0, 3) == 0.0
        assert horocycle_solution(2, 0.0, -2) == 0.0

    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0, 200.0])
    def test_closed_form(self, q, t):
        # q^{-n/2} e^{-(q+1)t} I_|n|(2 sqrt(q) t), scaled past 2 sqrt(q) t = 500
        tau = 2.0 * math.sqrt(q) * t
        for n in range(-6, 7):
            if tau > 500.0:
                expected = math.exp(
                    -0.5 * n * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t
                ) * bessel_i_scaled(abs(n), tau)
            else:
                expected = math.exp(-0.5 * n * math.log(q) - (q + 1) * t) * bessel_i(abs(n), tau)
            assert horocycle_solution(q, t, n) == pytest.approx(expected, rel=1e-12)

    def test_reflection_symmetry(self):
        # q^{n/2} f(t, n) is even in n
        q, t = 2, 1.0
        for n in (1, 2, 5):
            left = q ** (n / 2) * horocycle_solution(q, t, n)
            right = q ** (-n / 2) * horocycle_solution(q, t, -n)
            assert left == pytest.approx(right, rel=1e-12)

    @pytest.mark.parametrize("n", [-3, 0, 2])
    def test_difference_differential_residual(self, n):
        q, t = 2, 1.0
        h = 1e-6
        fdot = (
            horocycle_solution(q, t + h, n) - horocycle_solution(q, t - h, n)
        ) / (2 * h)
        residual = (
            (q + 1) * horocycle_solution(q, t, n)
            - q * horocycle_solution(q, t, n + 1)
            - horocycle_solution(q, t, n - 1)
            + fdot
        )
        assert abs(residual) <= 1e-8

    def test_residual_with_analytic_derivative(self):
        # derivative through the Bessel recurrence instead of differencing
        from heatzeta.bessel import building_block_time_derivative

        q, t, n = 2, 1.0, 0
        fdot = building_block_time_derivative(q, n, t)
        residual = (
            (q + 1) * horocycle_solution(q, t, n)
            - q * horocycle_solution(q, t, n + 1)
            - horocycle_solution(q, t, n - 1)
            + fdot
        )
        assert abs(residual) <= 1e-12
