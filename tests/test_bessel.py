import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatzeta.bessel import (
    MAX_RECURRENCE,
    bessel_i,
    bessel_i_quadrature,
    bessel_i_scaled,
    bessel_upper_bound,
    building_block,
    building_block_time_derivative,
    certified_truncation,
    log_block_bound,
    log_building_blocks,
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

    def test_subnormal_sum_terminates(self):
        # the leading term is about e^{-730}: tol times the sum rounds to 0,
        # and the sum still ends once the terms underflow to 0
        mp = pytest.importorskip("mpmath")
        value = bessel_i(200, 3.89)
        assert 0.0 < value < 1e-300
        assert value == pytest.approx(float(mp.besseli(200, 3.89)), rel=1e-5)


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
        assert building_block(q, m, t) <= math.exp(log_block_bound(q, m, t)) * (1 + 1e-12)

    @pytest.mark.parametrize("q,m,t", [(2, 30, 1.0), (3, 120, 8.0), (7, 300, 40.0)])
    def test_power_is_a_factor_of_q(self, q, m, t):
        # a coefficient bound q^{m-1} adds (m-1) ln q to the log form of
        # q^{-m/2} e^{-(sqrt(q)-1)^2 t} bessel_upper_bound(m, 2 sqrt(q) t)
        product = (
            q ** (m - 1)
            * q ** (-m / 2)
            * math.exp(-((math.sqrt(q) - 1.0) ** 2) * t)
            * bessel_upper_bound(m, 2.0 * math.sqrt(q) * t)
        )
        assert math.exp(log_block_bound(q, m, t) + (m - 1) * math.log(q)) == pytest.approx(
            product, rel=1e-11
        )

    def test_power_folded_before_exponentiation(self):
        # q^{m-1} alone overflows a float here, the weighted log bound does not
        q, m, t = 4, 1200, 123.0
        with pytest.raises(OverflowError):
            float(q ** (m - 1))
        assert 0.0 < math.exp(log_block_bound(q, m, t) + (m - 1) * math.log(q)) < math.inf

    @pytest.mark.parametrize("q,t", [(1, 0.01), (2, 1.0), (5, 40.0), (7, 60000.0)])
    def test_concave_in_m(self, q, t):
        values = [log_block_bound(q, m, t) for m in range(0, 4000, 7)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(c - 2 * b + a <= 1e-9 * abs(b) for a, b, c in zip(values, values[1:], values[2:]))


CERT_TIMES = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 40.0, 200.0, 3000.0, 60000.0]
CERT_TOLS = [1e-3, 1e-8, 1e-12, 1e-16]


def _log_terms(q, t, weight, power, m):
    """ln of weight q^{power m} q^{-m/2} e^{-(sqrt(q)-1)^2 t} tau^{-1/2} (1 + m/tau)^{-m/2}."""
    tau = 2.0 * math.sqrt(q) * t
    return (
        math.log(weight)
        + (power - 0.5) * m * math.log(q)
        - (math.sqrt(q) - 1.0) ** 2 * t
        - 0.5 * math.log(tau)
        - 0.5 * m * np.log1p(m / tau)
    )


def _brute_log_tail(q, t, weight, power, M, step, stop):
    """ln of the sum of the bound terms past M, summed until they fall below stop.

    The rest past the last term is closed by its ratio to the one before,
    which bounds every later ratio because the log terms are concave.
    """
    total, lo = -math.inf, M + step
    while True:
        m = lo + step * np.arange(1 << 14, dtype=float)
        terms = _log_terms(q, t, weight, power, m)
        total = np.logaddexp(total, np.logaddexp.reduce(terms))
        if terms[-1] < terms[-2] and terms[-1] < stop:
            rest = terms[-1] - math.log1p(-math.exp(terms[-1] - terms[-2]))
            return float(np.logaddexp(total, rest))
        lo = int(m[-1]) + step


def _lattices(q):
    """(weight, power, first, step) of the graph, tree and tree-derivative series."""
    yield (q + 1) / q, 1.0, 1, 1
    for r in (0, 7, 30):
        yield q - 1, 0.0, r + 2, 2
        yield 2 * (q * q - 1), 0.0, r + 1, 2


class TestCertifiedTruncation:
    @pytest.mark.parametrize("q", range(1, 8))
    @pytest.mark.parametrize("t", CERT_TIMES)
    def test_tail_below_tol_and_order_smallest(self, q, t):
        # includes the cases whose next bound's Bessel factor is subnormal
        # (q = 4, 5 at t = 40) or 0.0 as a float (q = 6, 7 at t = 20)
        for tol in CERT_TOLS:
            for weight, power, first, step in _lattices(q):
                M, bound = certified_truncation(q, t, tol, first, step, weight, power)
                start = first - step if first >= step else first
                assert M >= start and (M - start) % step == 0
                if weight == 0:
                    assert (M, bound) == (start, 0.0)
                    continue
                log_tail = _brute_log_tail(q, t, weight, power, M, step, math.log(tol) - 60.0)
                assert log_tail < math.log(tol), (tol, weight, first, step, M)
                assert math.exp(log_tail) <= bound * (1 + 1e-9)
                if M > start:
                    # one step earlier the concave-tail test fails
                    below, at, after = _log_terms(q, t, weight, power, np.array([M - step, M, M + step]))
                    assert at >= below or at - math.log1p(-math.exp(at - below)) >= math.log(tol)

    def test_time_zero_and_zero_weight_have_no_tail(self):
        assert certified_truncation(3, 0.0, 1e-10, 1, 1, 4 / 3, 1.0) == (0, 0.0)
        assert certified_truncation(1, 5.0, 1e-10, 9, 2, 0.0) == (7, 0.0)
        # the derivative lattice at r = 0 starts at its first order, not at -1
        assert certified_truncation(2, 0.0, 1e-10, 1, 2, 6.0) == (1, 0.0)

    def test_extreme_times_terminate(self):
        # at a subnormal t, 1 + m/tau overflows and every bound past order 0 is 0
        assert certified_truncation(2, 1e-320, 1e-10, 9, 2, 1.0) == (7, 0.0)
        # past 2 sqrt(q) t = 2^30 too, where the first bound is e^{-5e7} and below
        assert certified_truncation(2, 3.79e8, 1e-10, 2, 2, 1.0) == (0, 0.0)
        assert certified_truncation(2, 4e8, 1e-10, 2, 2, 1.0) == (0, 0.0)
        # where float orders are inexact the search refuses instead of looping on
        # bounds that rounding makes equal
        for t in (1e300, 1e307):
            with pytest.raises(ValueError, match="runs past order 2\\^53"):
                certified_truncation(3, t, 1e-10, 1, 1, 4 / 3, 1.0)


def _exact_log_block(q, m, t):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return float(
            -mp.mpf(m) / 2 * mp.log(q)
            - (q + 1) * mp.mpf(t)
            + mp.log(mp.besseli(m, 2 * mp.sqrt(q) * mp.mpf(t)))
        )


class TestBuildingBlocks:
    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    @pytest.mark.parametrize("t", [0.0, 0.05, 1.0, 8.0, 40.0])
    def test_matches_scalar_blocks(self, q, t):
        M = 80
        for tk in (t, 2 * t):
            blocks = np.exp(log_building_blocks(q, M, tk))
            assert blocks.shape == (M + 1,)
            for m in range(M + 1):
                # the scalar series stops relative to its sum at every
                # magnitude, so no absolute floor is needed
                assert blocks[m] == pytest.approx(building_block(q, m, tk), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q,t", [(2, 0.5), (3, 20.0), (7, 60.0), (1, 5e4)])
    def test_matches_ive_where_it_is_nonzero(self, q, t):
        # scipy's exponentially scaled ive (AMOS), the former production
        # route, in the log form of the mpmath pins below
        ive = pytest.importorskip("scipy.special").ive
        m = np.arange(200)
        scaled = ive(m, 2 * math.sqrt(q) * t)
        kept = scaled > 1e-300
        assert kept.sum() > 100
        old = np.log(scaled[kept]) - 0.5 * math.log(q) * m[kept] - (math.sqrt(q) - 1.0) ** 2 * t
        new = log_building_blocks(q, 199, t)[kept]
        assert np.all(np.abs(new - old) <= 1e-13 * np.maximum(1.0, np.abs(old)))

    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    @pytest.mark.parametrize("t", [0.05, 1.0, 8.0, 40.0])
    def test_log_matches_mpmath_on_the_grid(self, q, t):
        M = 80
        for tk in (t, 2 * t):
            logs = log_building_blocks(q, M, tk)
            for m in range(0, M + 1, 4):
                exact = _exact_log_block(q, m, tk)
                assert abs(logs[m] - exact) <= 1e-13 * max(1.0, abs(exact)), (m, tk)

    @pytest.mark.parametrize("q,t", [(3, 1000.0), (1, 5000.0), (1, 1.4e8)])
    def test_log_matches_mpmath_where_the_start_matters(self, q, t):
        # tau = 3,464, 1e4 and 2.8e8 with M = 60 << sqrt(tau): a Miller start
        # of M + 32 + 4 sqrt(tau + 1) drops a normalisation tail of about
        # e^{-8} here and misses these by 5e-9 to 6e-6 relative
        logs = log_building_blocks(q, 60, t)
        for m in range(0, 61, 6):
            exact = _exact_log_block(q, m, t)
            assert abs(logs[m] - exact) <= 1e-13 * max(1.0, abs(exact)), m

    def test_log_matches_mpmath_past_float_range(self):
        # q = 3, t = 1000: the blocks from m = 2,231 on lie below the smallest
        # float (scaled e^{-tau} I_m alone is 0.0 in double precision there)
        logs = log_building_blocks(3, 2500, 1000.0)
        assert math.exp(logs[2231]) == 0.0
        for m in range(2231, 2501, 9):
            exact = _exact_log_block(3, m, 1000.0)
            assert abs(logs[m] - exact) <= 1e-13 * abs(exact), m

    @pytest.mark.parametrize("q,t,m", [(3, 8.0, 84), (2, 20.0, 130), (4, 0.5, 60), (3, 2.0, 150)])
    def test_scalar_block_relative_at_tiny_values(self, q, t, m):
        # values from 1e-64 down to 1e-221, where a stopping rule with an
        # absolute floor loses every digit
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = mp.power(q, -mp.mpf(m) / 2) * mp.exp(-(q + 1) * mp.mpf(t)) * mp.besseli(
                m, 2 * mp.sqrt(q) * t
            )
        assert building_block(q, m, t) == pytest.approx(float(exact), rel=2e-13, abs=0.0)

    def test_time_zero_is_the_indicator(self):
        assert log_building_blocks(3, 5, 0.0).tolist() == [0.0] + [-math.inf] * 5
        assert np.exp(log_building_blocks(3, 5, 0.0)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("q,t", [(1, 300.0), (2, 200.0), (4, 130.0)])
    def test_large_argument(self, q, t):
        # 2 sqrt(q) t > 500: the scalar route sums the series in the log
        # domain (bessel_i_scaled), which loses about 1e-12 relative there;
        # high-precision values pin the vector route to 1e-13
        mp = pytest.importorskip("mpmath")
        assert 2 * math.sqrt(q) * t > 500
        blocks = np.exp(log_building_blocks(q, 60, t))
        for m in range(61):
            assert blocks[m] == pytest.approx(building_block(q, m, t), rel=5e-12)
        with mp.workdps(40):
            for m in range(0, 61, 6):
                exact = mp.power(q, -mp.mpf(m) / 2) * mp.exp(-(q + 1) * mp.mpf(t)) * mp.besseli(
                    m, 2 * mp.sqrt(q) * t
                )
                assert blocks[m] == pytest.approx(float(exact), rel=1e-13)

    def test_no_overflow_at_huge_time(self):
        # every block is below the smallest float at t = 1e6, every log is finite
        logs = log_building_blocks(2, 10, 1e6)
        assert np.all(np.isfinite(logs)) and np.all(np.diff(logs) < 0.0)
        assert logs[0] == pytest.approx(_exact_log_block(2, 0, 1e6), rel=1e-13)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            log_building_blocks(2, 3, t)

    @pytest.mark.parametrize(
        "M,t", [(MAX_RECURRENCE, 1.0), (10, 1e10), (10, 1e300), (10, 1e308)]
    )
    def test_recurrence_length_guard(self, M, t):
        # refused before anything is allocated; at t = 1e308, tau is inf
        with pytest.raises(ValueError, match=f"more than {MAX_RECURRENCE}"):
            log_building_blocks(2, M, t)
