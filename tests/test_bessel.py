import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatzeta.bessel import (
    bessel_i,
    bessel_i_quadrature,
    bessel_i_scaled,
    bessel_upper_bound,
    building_block,
    building_block_bound,
    building_block_time_derivative,
    building_blocks,
)


def central_difference(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


class TestSeries:
    def test_order_zero_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0

    def test_positive_order_at_zero(self):
        assert bessel_i(3, 0.0) == 0.0

    def test_against_quadrature(self):
        # quadrature of the integral representation is the independent oracle
        assert bessel_i(0, 2.0, 1e-12) == pytest.approx(
            bessel_i_quadrature(0, 2.0, 128), abs=1e-10
        )

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            bessel_i(0, 1.0, tol=0.0)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)


class TestQuadrature:
    def test_at_zero(self):
        assert bessel_i_quadrature(0, 0.0, 64) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_series_moderate(self):
        assert bessel_i_quadrature(1, 1.0, 64) == pytest.approx(
            bessel_i(1, 1.0, 1e-12), abs=1e-10
        )

    def test_agrees_with_series_large(self):
        assert bessel_i_quadrature(5, 10.0, 128) == pytest.approx(
            bessel_i(5, 10.0, 1e-12), rel=1e-9
        )

    def test_node_floor(self):
        with pytest.raises(ValueError):
            bessel_i_quadrature(0, 1.0, nodes=8)

    @pytest.mark.parametrize("order", range(0, 21, 4))
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_grid_agreement(self, order, t):
        series = bessel_i(order, t, 1e-15)
        quadrature = bessel_i_quadrature(order, t, 128)
        assert abs(series - quadrature) <= 1e-9 * max(1.0, abs(quadrature))


class TestScaled:
    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0, 400.0])
    def test_matches_direct_product(self, t):
        for order in (0, 1, 7):
            assert bessel_i_scaled(order, t) == pytest.approx(
                math.exp(-t) * bessel_i(order, t, 1e-15), rel=1e-12
            )

    def test_huge_argument_no_overflow(self):
        value = bessel_i_scaled(2, 5000.0)
        # asymptotically 1/sqrt(2 pi t)
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi * 5000.0), rel=1e-2)


class TestDerivative:
    # the recurrence 2 I_r' = I_{r-1} + I_{r+1} that building_block_time_derivative uses
    @pytest.mark.parametrize("order", range(0, 12, 3))
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_recurrence_residual(self, order, t):
        lower = bessel_i(abs(order - 1), t, 1e-15)
        upper = bessel_i(order + 1, t, 1e-15)
        fd = central_difference(lambda s: bessel_i(order, s, 1e-15), t)
        assert abs(lower + upper - 2 * fd) <= 1e-6


class TestUpperBound:
    def test_order_zero(self):
        assert bessel_upper_bound(0, 1.0) == 1.0
        assert math.exp(-1.0) * bessel_i(0, 1.0) <= 1.0

    def test_order_ten(self):
        bound = bessel_upper_bound(10, 1.0)
        assert bound == pytest.approx(11.0 ** -5, rel=1e-12)
        assert math.exp(-1.0) * bessel_i(10, 1.0) <= bound

    def test_order_four(self):
        assert math.exp(-2.0) * bessel_i(4, 2.0) <= (1 / math.sqrt(2.0)) * 3.0 ** -2

    @given(
        order=st.integers(min_value=0, max_value=40),
        t=st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_everywhere(self, order, t):
        assert bessel_i_scaled(order, t) <= bessel_upper_bound(order, t) * (1 + 1e-12)

    @given(
        order=st.integers(min_value=0, max_value=30),
        t=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decay_in_order(self, order, t):
        assert bessel_i(order, t, 1e-15) >= bessel_i(order + 1, t, 1e-15)


class TestBuildingBlock:
    def test_time_zero(self):
        assert building_block(3, 0, 0.0) == 1.0
        assert building_block(3, 4, 0.0) == 0.0

    def test_q_one_specialization(self):
        for r in range(4):
            assert building_block(1, r, 1.3) == pytest.approx(
                math.exp(-2 * 1.3) * bessel_i(r, 2 * 1.3), rel=1e-12
            )

    def test_cross_checked_value(self):
        expected = 0.5 * math.exp(-3.0) * bessel_i(2, 2 * math.sqrt(2.0))
        quadrature = 0.5 * math.exp(-3.0) * bessel_i_quadrature(2, 2 * math.sqrt(2.0), 256)
        value = building_block(2, 2, 1.0, 1e-12)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(quadrature, rel=1e-10)

    def test_large_time_no_overflow(self):
        assert 0.0 < building_block(2, 1, 400.0) < 1.0

    def test_derivative_matches_finite_difference(self):
        fd = central_difference(lambda s: building_block(2, 3, s), 1.5)
        assert building_block_time_derivative(2, 3, 1.5) == pytest.approx(fd, abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.01, 0.7, 3.0, 130.0, 300.0])
    def test_derivative_matches_product_rule(self, q, t):
        # q^{-r/2} e^{-(q+1)t} (sqrt(q) (I_{|r-1|} + I_{r+1}) - (q+1) I_r),
        # with the e^{-2 sqrt(q) t} scaling moved into I past 2 sqrt(q) t = 500
        arg = 2.0 * math.sqrt(q) * t
        scaled = arg > 500.0
        for r in range(12):
            if scaled:
                i = lambda n: bessel_i_scaled(n, arg)
                prefactor = math.exp(-0.5 * r * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t)
            else:
                i = lambda n: bessel_i(n, arg)
                prefactor = math.exp(-0.5 * r * math.log(q) - (q + 1) * t)
            expected = prefactor * (math.sqrt(q) * (i(abs(r - 1)) + i(r + 1)) - (q + 1) * i(r))
            assert building_block_time_derivative(q, r, t) == pytest.approx(
                expected, rel=1e-11, abs=1e-16
            )


class TestBlockBound:
    @given(
        q=st.integers(1, 7),
        m=st.integers(0, 80),
        t=st.floats(1e-3, 60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_block(self, q, m, t):
        assert building_block(q, m, t) <= building_block_bound(q, m, t) * (1 + 1e-12)

    @pytest.mark.parametrize("q,m,t", [(2, 30, 1.0), (3, 120, 8.0), (7, 300, 40.0)])
    def test_power_is_a_factor_of_q(self, q, m, t):
        assert building_block_bound(q, m, t, m - 1) == pytest.approx(
            q ** (m - 1) * building_block_bound(q, m, t), rel=1e-11
        )

    def test_power_folded_before_exponentiation(self):
        # q^{m-1} alone overflows a float here, the weighted bound does not
        q, m, t = 4, 1200, 123.0
        with pytest.raises(OverflowError):
            float(q ** (m - 1))
        assert 0.0 < building_block_bound(q, m, t, m - 1) < math.inf


class TestBuildingBlocks:
    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    @pytest.mark.parametrize("t", [0.0, 0.05, 1.0, 8.0, 40.0])
    def test_matches_scalar_blocks(self, q, t):
        M = 80
        blocks = building_blocks(q, M, [t, 2 * t])
        assert blocks.shape == (2, M + 1)
        for k, tk in enumerate((t, 2 * t)):
            for m in range(M + 1):
                # the scalar series stops once a term is below 1e-15 of the
                # running sum plus 1e-30, so values below ~1e-28 carry that
                # absolute error in the oracle itself
                assert blocks[k, m] == pytest.approx(
                    building_block(q, m, tk), rel=1e-13, abs=1e-28
                )

    def test_time_zero_is_the_indicator(self):
        assert building_blocks(3, 5, [0.0]).tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("q,t", [(1, 300.0), (2, 200.0), (4, 130.0)])
    def test_large_argument(self, q, t):
        # 2 sqrt(q) t > 500: the scalar route sums the series in the log
        # domain (bessel_i_scaled), which loses about 1e-12 relative there;
        # high-precision values pin the batched route to 1e-13
        mp = pytest.importorskip("mpmath")
        assert 2 * math.sqrt(q) * t > 500
        blocks = building_blocks(q, 60, [t])[0]
        for m in range(61):
            assert blocks[m] == pytest.approx(building_block(q, m, t), rel=5e-12)
        with mp.workdps(40):
            for m in range(0, 61, 6):
                exact = mp.power(q, -mp.mpf(m) / 2) * mp.exp(-(q + 1) * mp.mpf(t)) * mp.besseli(
                    m, 2 * mp.sqrt(q) * t
                )
                assert blocks[m] == pytest.approx(float(exact), rel=1e-13)

    def test_no_overflow_at_huge_time(self):
        blocks = building_blocks(2, 10, [1e6])
        assert np.all(np.isfinite(blocks)) and np.all(blocks >= 0.0) and blocks[0, 0] < 1e-3

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            building_blocks(2, 3, [0.5, t])
