import math

import pytest

from heatzeta.bessel import bessel_i
from heatzeta.heat_tree import (
    horocycle_solution,
    tree_heat_kernel,
    tree_heat_kernel_integral,
    tree_heat_kernel_time_derivative,
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

    def test_q_one_refused(self):
        with pytest.raises(ValueError):
            tree_heat_kernel_integral(1, 1.0, 0)


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
