import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatzeta import bessel
from heatzeta.bessel import (
    MAX_RECURRENCE,
    MAX_SCALED_ARGUMENT,
    _nested_trapezoid,
    bessel_i,
    bessel_i_quadrature,
    bessel_i_scaled,
    building_block,
    certified_truncation,
    log_block_bound,
    log_building_blocks,
)
from heatzeta.heat_tree import tree_heat_kernel_time_derivatives, tree_heat_kernels


def central_difference(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


def uniform_bound(n, t):
    """The bound t^{-1/2} (1 + n/t)^{-n/2} on e^{-t} I_n(t), written out."""
    return t**-0.5 * (1.0 + n / t) ** (-n / 2)


def sharp_bound(n, t):
    """The generating-function bound e^{t cosh s - n s - t}, sinh s = n/t, on e^{-t} I_n(t)."""
    s = math.asinh(n / t)
    return math.exp(t * math.cosh(s) - n * s - t)


def block_bound(n, t):
    """The lesser of the two bounds on e^{-t} I_n(t) that log_block_bound reads."""
    return min(uniform_bound(n, t), sharp_bound(n, t))


class TestSeries:
    def test_order_zero_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0

    def test_positive_order_at_zero(self):
        assert bessel_i(3, 0.0) == 0.0

    def test_against_quadrature(self):
        # quadrature of the integral representation is the independent oracle
        assert bessel_i(0, 2.0) == pytest.approx(
            bessel_i_quadrature(0, 2.0)[0], abs=1e-10
        )

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)

    def test_subnormal_sum_terminates(self):
        # the leading term is about e^{-730}: tol times the sum rounds to 0,
        # and the sum still ends once the terms underflow to 0
        mp = pytest.importorskip("mpmath")
        value = bessel_i(200, 3.89)
        assert 0.0 < value < 1e-300
        assert value == pytest.approx(float(mp.besseli(200, 3.89)), rel=1e-5, abs=0)


class TestQuadrature:
    def test_at_zero(self):
        assert bessel_i_quadrature(0, 0.0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_series_moderate(self):
        assert bessel_i_quadrature(1, 1.0)[1] == pytest.approx(
            bessel_i(1, 1.0), abs=1e-10
        )

    def test_agrees_with_series_large(self):
        assert bessel_i_quadrature(5, 10.0)[5] == pytest.approx(
            bessel_i(5, 10.0), rel=1e-9, abs=0
        )

    @pytest.mark.parametrize("order", range(0, 21, 4))
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 5.0, 20.0])
    def test_grid_agreement(self, order, t):
        series = bessel_i(order, t)
        quadrature = bessel_i_quadrature(order, t)[order]
        assert abs(series - quadrature) <= 1e-9 * max(1.0, abs(quadrature))


class TestScaled:
    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0, 400.0])
    def test_matches_direct_product(self, t):
        for order in (0, 1, 7):
            assert bessel_i_scaled(order, t) == pytest.approx(
                math.exp(-t) * bessel_i(order, t), rel=1e-12, abs=0
            )

    def test_huge_argument_no_overflow(self):
        value = bessel_i_scaled(2, 5000.0)
        # asymptotically 1/sqrt(2 pi t)
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi * 5000.0), rel=1e-2, abs=0)

    @pytest.mark.parametrize("t", [570.0, 2830.0, 1e4, 1e5])
    def test_matches_mpmath_at_large_argument(self, t):
        # 40-digit values: 1e-13 relative fails any route whose exponent is off
        # by about eps t, as a log-domain sum's is (2e-9 at t = 1e5)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for order in range(0, 61, 6):
                exact = mp.exp(-mp.mpf(t)) * mp.besseli(order, mp.mpf(t))
                assert bessel_i_scaled(order, t) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_far_tail_stays_in_float_range(self):
        # e^{-t} I_3000(t) at t = 1e4 is 3.9e-197 while its mantissa needs 26
        # rescales: the exponential must not underflow before the product
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = mp.exp(-mp.mpf(1e4)) * mp.besseli(3000, mp.mpf(1e4))
        assert bessel_i_scaled(3000, 1e4) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_refused_past_its_exact_exponent(self, monkeypatch):
        # k ln2_hi is exact only for k < 2^21: the refusal comes before the series
        def refuse(order, t):
            raise AssertionError("the power series ran")

        monkeypatch.setattr(bessel, "_power_series", refuse)
        for t in (math.nextafter(MAX_SCALED_ARGUMENT, math.inf), 2e6, 1e31):
            with pytest.raises(ValueError, match="exact only up to"):
                bessel_i_scaled(0, t)
        with pytest.raises(ValueError, match="exact only up to"):
            building_block(1, 0, 1e6)  # tau = 2e6


class TestNestedTrapezoid:
    @staticmethod
    def bessel_rows(t, orders):
        return lambda x: np.exp(t * np.cos(x)) * np.cos(orders[:, None] * x)

    @pytest.mark.parametrize("t", [0.01, 5.0, 20.0])
    def test_row_ends_match_per_row_calls(self, t):
        # ends holds one value per row: I_0..I_20 as one row against one call per order
        orders = np.arange(21)
        ends = 0.5 * (math.exp(t) + math.exp(-t) * (-1.0) ** orders)
        start = 20 + 4.0 * math.sqrt(t + 1.0) + 8.0
        rows = self.bessel_rows(t, orders)
        row = _nested_trapezoid(rows, orders, 1 / math.pi, 1e-10, start, ends)
        assert row.shape == (21,)
        for n in orders:
            alone = _nested_trapezoid(
                self.bessel_rows(t, orders[n : n + 1]), orders[n : n + 1], 1 / math.pi, 1e-10,
                start, ends[n],
            )
            assert row[n] == pytest.approx(alone[0], rel=1e-12, abs=1e-300)

    def test_scalar_ends_bitwise_as_one_per_row(self):
        # three copies of one integrand with its ends per row give the scalar call's bits
        ends = 0.5 * (math.e + 1.0 / math.e)
        one = self.bessel_rows(1.0, np.array([0]))
        alone = _nested_trapezoid(one, np.array([0]), 1 / math.pi, 1e-12, 8.0, ends)
        copies = _nested_trapezoid(
            lambda x: np.repeat(one(x), 3, axis=0), np.arange(3), 1 / math.pi, 1e-12, 8.0,
            np.full(3, ends),
        )
        assert copies.tolist() == [alone[0]] * 3


class TestDerivative:
    # the recurrence 2 I_r' = I_{r-1} + I_{r+1} that tree_heat_kernel_time_derivatives uses
    @pytest.mark.parametrize("order", range(0, 12, 3))
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_recurrence_residual(self, order, t):
        lower = bessel_i(abs(order - 1), t)
        upper = bessel_i(order + 1, t)
        fd = central_difference(lambda s: bessel_i(order, s), t)
        assert abs(lower + upper - 2 * fd) <= 1e-6


class TestUpperBound:
    # the block bound at q = 1 and t/2 is the lesser bound at t, as verify reads it
    def test_order_zero(self):
        assert math.exp(log_block_bound(1, 0, 0.5)) == block_bound(0, 1.0) == 1.0
        assert math.exp(-1.0) * bessel_i(0, 1.0) <= 1.0

    def test_order_ten(self):
        # here the generating-function bound is the lesser, 7,600 times below 11^-5
        bound = math.exp(log_block_bound(1, 10, 0.5))
        assert bound == pytest.approx(block_bound(10, 1.0), rel=1e-12, abs=0)
        sharp = math.exp(math.sqrt(101.0) - 1.0 - 10.0 * math.asinh(10.0))
        assert bound == pytest.approx(sharp, rel=1e-12, abs=0)
        assert bound < 11.0**-5 / 7600
        assert math.exp(-1.0) * bessel_i(10, 1.0) <= bound

    def test_order_four(self):
        assert math.exp(-2.0) * bessel_i(4, 2.0) <= (1 / math.sqrt(2.0)) * 3.0 ** -2

    @given(
        order=st.integers(min_value=0, max_value=40),
        t=st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_everywhere(self, order, t):
        assert bessel_i_scaled(order, t) <= uniform_bound(order, t) * (1 + 1e-12)

    @given(
        order=st.integers(min_value=0, max_value=30),
        t=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decay_in_order(self, order, t):
        assert bessel_i(order, t) >= bessel_i(order + 1, t)


class TestBuildingBlock:
    def test_time_zero(self):
        assert building_block(3, 0, 0.0) == 1.0
        assert building_block(3, 4, 0.0) == 0.0

    def test_q_one_specialization(self):
        for r in range(4):
            assert building_block(1, r, 1.3) == pytest.approx(
                math.exp(-2 * 1.3) * bessel_i(r, 2 * 1.3), rel=1e-12, abs=0
            )

    def test_cross_checked_value(self):
        expected = 0.5 * math.exp(-3.0) * bessel_i(2, 2 * math.sqrt(2.0))
        quadrature = 0.5 * math.exp(-3.0) * bessel_i_quadrature(2, 2 * math.sqrt(2.0))[2]
        value = building_block(2, 2, 1.0)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)
        assert value == pytest.approx(quadrature, rel=1e-10, abs=0)

    def test_large_time_no_overflow(self):
        assert 0.0 < building_block(2, 1, 400.0) < 1.0

    def test_derivative_matches_finite_difference(self):
        # the tree row's B'_m, which it builds from the scalar blocks, against the
        # central difference of the value rows at t +- h, h = 1e-5
        q, t, h = 2, 1.5, 1e-5
        radii = range(12)
        ahead, behind = (tree_heat_kernels(q, s, radii, 1e-15) for s in (t + h, t - h))
        dots = tree_heat_kernel_time_derivatives(q, t, radii)
        for dot, plus, minus in zip(dots, ahead, behind):
            assert dot == pytest.approx((plus.value - minus.value) / (2 * h), abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.01, 0.7, 3.0, 130.0, 300.0])
    def test_derivative_matches_product_rule(self, q, t):
        # B'_m = q^{-m/2} e^{-(q+1)t} (sqrt(q) (I_{|m-1|} + I_{m+1}) - (q+1) I_m), with the
        # e^{-2 sqrt(q) t} scaling moved into I, summed over the row's own cuts
        i = functools.cache(lambda n: bessel_i_scaled(n, 2.0 * math.sqrt(q) * t))

        def block_dot(m):
            prefactor = math.exp(-0.5 * m * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t)
            return prefactor * (math.sqrt(q) * (i(abs(m - 1)) + i(m + 1)) - (q + 1) * i(m))

        row = tree_heat_kernel_time_derivatives(q, t, range(12))
        for r in range(12):
            order, _ = certified_truncation(q, t, 1e-16, r + 1, 2, 2 * (q * q - 1))
            terms = [block_dot(m + 1) for m in range(r + 1, order + 1, 2)]
            expected = block_dot(r) - (q - 1) * math.fsum(terms)
            assert row[r] == pytest.approx(expected, rel=1e-11, abs=1e-16)


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
        # q^{-m/2} e^{-(sqrt(q)-1)^2 t} block_bound(m, 2 sqrt(q) t)
        product = (
            q ** (m - 1)
            * q ** (-m / 2)
            * math.exp(-((math.sqrt(q) - 1.0) ** 2) * t)
            * block_bound(m, 2.0 * math.sqrt(q) * t)
        )
        assert math.exp(log_block_bound(q, m, t) + (m - 1) * math.log(q)) == pytest.approx(
            product, rel=1e-11, abs=0
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

    def test_bounds_the_block_at_forty_digits(self):
        # ln B_m against 40-digit mpmath, tau = 2 sqrt(q) t from 0.01 to 1e4 and m up to
        # 40,000; the least margin, 0.00998, is e^{-tau} I_0(tau) <= 1 at tau = 0.01
        least = math.inf
        for q in (1, 2, 3, 7):
            for tau in (0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
                t = tau / (2.0 * math.sqrt(q))
                for m in (0, 1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000, 40000):
                    exact = _exact_log_block(q, m, t)
                    assert exact <= log_block_bound(q, m, t), (q, tau, m)
                    least = min(least, log_block_bound(q, m, t) - exact)
        assert least > 0.009

    @pytest.mark.parametrize("q", range(1, 8))
    @pytest.mark.parametrize("t", [5.0, 200.0, 3000.0])
    def test_beta_concave_across_the_switch(self, q, t):
        # the uniform term is the lesser at small m and the generating-function term past
        # m of about tau^{2/3} (2 ln tau)^{1/3}; beta is concave on every lattice across both
        tau = 2.0 * math.sqrt(q) * t
        log_q = math.log(q)
        for weight, power, first, step in _lattices(q):
            if weight == 0:
                continue
            start = first - step if first >= step else first
            ms = np.arange(start, start + 3000 * step, step)
            beta = [
                math.log(weight) + power * m * log_q + log_block_bound(q, int(m), t) for m in ms
            ]
            for a, b, c in zip(beta, beta[1:], beta[2:]):
                assert c - 2 * b + a <= 1e-12 * max(1.0, abs(a), abs(c))
            if start == 0:
                p = ms / tau
                uniform = -0.5 * math.log(tau) - 0.5 * ms * np.log1p(p)
                sharp = ms * p / (1.0 + np.hypot(1.0, p)) - ms * np.arcsinh(p)
                assert uniform[1] < sharp[1] and sharp[-1] < uniform[-1]

    @pytest.mark.parametrize("q", range(1, 8))
    def test_never_nan_at_extreme_times(self, q):
        # at a subnormal t, m / tau overflows and the sharp term is inf - inf = NaN
        for t in (1e-320, 5e-324, 1e300):
            for m in (0, 1, 2, 7, 100, 10**6, 2**52):
                value = log_block_bound(q, m, t)
                assert not math.isnan(value) and value < math.inf, (t, m)


CERT_TIMES = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 40.0, 200.0, 3000.0, 60000.0]
CERT_TOLS = [1e-3, 1e-8, 1e-12, 1e-16]


def _log_terms(q, t, weight, power, m):
    """ln of weight q^{power m} q^{-m/2} e^{-(sqrt(q)-1)^2 t} times the lesser of
    tau^{-1/2} (1 + p)^{-m/2} and e^{tau (sqrt(1 + p^2) - 1) - m asinh(p)}, p = m / tau."""
    tau = 2.0 * math.sqrt(q) * t
    p = m / tau
    uniform = -0.5 * math.log(tau) - 0.5 * m * np.log1p(p)
    sharp = m * p / (1.0 + np.hypot(1.0, p)) - m * np.arcsinh(p)
    return (
        math.log(weight)
        + (power - 0.5) * m * math.log(q)
        - (math.sqrt(q) - 1.0) ** 2 * t
        + np.minimum(uniform, sharp)
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
        # (q = 6 at t = 200) or 0.0 as a float (q = 7 at t = 200, q >= 2 from t = 3,000)
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

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 1000])
    def test_tail_is_beta_from_log_block_bound_bitwise(self, q):
        # the search computes beta's m-free terms once per call, in log_block_bound's order;
        # where m / tau overflows (t = 1e-320) the sharp term is NaN and the uniform one stands
        def written_out(m, t):
            tau = 2.0 * math.sqrt(q) * t
            p = m / tau
            uniform = -0.5 * math.log(tau) - 0.5 * m * math.log1p(p)
            sharp = m * (p / (1.0 + math.hypot(1.0, p)) - math.asinh(p))
            lesser = uniform if math.isnan(sharp) else min(uniform, sharp)
            return -0.5 * m * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t + lesser

        for t in [1e-320, *CERT_TIMES, 1e300]:
            for weight, power, first, step in _lattices(q):
                if weight == 0:
                    continue
                log_tail = bessel._log_tail(q, t, step, weight, power)
                for m in [*range(first, first + 60 * step, step), 10**6, 2**52]:
                    assert log_block_bound(q, m, t) == written_out(m, t)
                    beta = [
                        math.log(weight) + power * k * math.log(q) + written_out(k, t)
                        for k in (m, m + step)
                    ]
                    if beta[1] == -math.inf:
                        expected = -math.inf
                    elif beta[1] >= beta[0]:
                        expected = math.inf
                    else:
                        expected = beta[1] - math.log1p(-math.exp(beta[1] - beta[0]))
                    assert log_tail(m) == expected

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

    def test_no_order_grows_past_the_uniform_bound(self, monkeypatch):
        # the lesser of two bounds only shortens a series: no lattice's order may
        # exceed its order under the uniform bound alone
        def uniform_log_bound(q, t):
            log_q, tau = math.log(q), 2.0 * math.sqrt(q) * t
            decay, half_log_tau = (math.sqrt(q) - 1.0) ** 2 * t, 0.5 * math.log(tau)
            return lambda m: -0.5 * m * log_q - decay - half_log_tau - 0.5 * m * math.log1p(m / tau)

        cases = [
            (q, float(t), tol, lattice)
            for q in range(1, 8)
            for t in np.geomspace(1e-3, 1e4, 15)
            for tol in (1e-8, 1e-10, 1e-16)
            for lattice in _lattices(q)
        ]
        def orders():
            return [certified_truncation(q, t, tol, f, s, w, p)[0] for q, t, tol, (w, p, f, s) in cases]

        sharp = orders()
        monkeypatch.setattr(bessel, "_log_bound", uniform_log_bound)
        uniform = orders()
        assert all(m <= u for m, u in zip(sharp, uniform))
        assert sum(sharp) < sum(uniform)


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
        # 2 sqrt(q) t = 566 to 1,040, where the scalar series rescales;
        # high-precision values pin the vector route to 1e-13
        mp = pytest.importorskip("mpmath")
        blocks = np.exp(log_building_blocks(q, 60, t))
        for m in range(61):
            assert blocks[m] == pytest.approx(building_block(q, m, t), rel=1e-13, abs=0.0)
        with mp.workdps(40):
            for m in range(0, 61, 6):
                exact = mp.power(q, -mp.mpf(m) / 2) * mp.exp(-(q + 1) * mp.mpf(t)) * mp.besseli(
                    m, 2 * mp.sqrt(q) * t
                )
                assert blocks[m] == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_no_overflow_at_huge_time(self):
        # every block is below the smallest float at t = 1e6, every log is finite
        logs = log_building_blocks(2, 10, 1e6)
        assert np.all(np.isfinite(logs)) and np.all(np.diff(logs) < 0.0)
        assert logs[0] == pytest.approx(_exact_log_block(2, 0, 1e6), rel=1e-13, abs=0)

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


class TestLogBlockRounding:
    """heat_kernel_chebyshev_row takes its log weights ln w_k = log_building_blocks(1, M, tau/2)
    as off by at most 4 (|ln w_k| + 1) u, u = 2^-53: a factor measured, not derived.  Against
    40-digit mpmath at every 8th order to the 1e-20 cut the largest ratio reads 1.93
    (tau = 1, m = 8).  The bound on heat_kernel_rows' rounding
    (tests/test_heat_graph.py::weight_rounding_bound) takes ln B_m at q >= 2 as off by
    at most 8 (|ln B_m| + 1) u; at q = 2, 3, 4, 6 the largest ratio reads 5.08
    (q = 2, t = 1000, m = 8).  Both read one grid call with each time's own cut, as
    heat_kernel_rows and the tree tables call it, whose rows are bitwise the lone calls."""

    @staticmethod
    def largest_ratio(q: int, ts) -> tuple:
        mp = pytest.importorskip("mpmath")
        worst = (0.0, ())
        cuts = [certified_truncation(q, t, 1e-20, 1, 1, (q + 1) / q, 1.0)[0] for t in ts]
        grid = log_building_blocks(q, cuts, ts)
        for t, M, logs in zip(ts, cuts, grid):
            with mp.workdps(40):
                x = 2 * mp.sqrt(q) * mp.mpf(t)
                # mpmath's I_{M+1} and I_M (its series needs more terms at tau = 4e4,
                # and takes 1 s an order there from m = 1,500 on), then Bessel's
                # recurrence I_{k-1} = I_{k+1} + (2k/tau) I_k downward, where I is minimal
                row = [mp.besseli(M + 1, x, maxterms=10**6), mp.besseli(M, x, maxterms=10**6)]
                for k in range(M, 0, -1):
                    row.append(row[-2] + 2 * k / x * row[-1])
                row.reverse()
                for m in range(0, M + 1, 8):
                    exact = mp.log(row[m]) - (q + 1) * mp.mpf(t) - m * mp.log(q) / 2
                    error = abs(float(mp.mpf(float(logs[m])) - exact))
                    worst = max(worst, (error / ((abs(float(exact)) + 1.0) * 2.0**-53), (q, t, m)))
        print(f"largest ratio {worst[0]:.3g} at (q, t, m) = {worst[1]}")
        return worst

    def test_q_one_logs_within_the_measured_factor(self):
        taus = (1e-3, 0.1, 1.0, 10.0, 1e3, 4e4)
        assert self.largest_ratio(1, [tau / 2 for tau in taus])[0] <= 4.0

    @pytest.mark.parametrize("q", [2, 3, 4, 6])
    def test_logs_above_q_one_within_the_measured_factor(self, q):
        assert self.largest_ratio(q, (1e-3, 0.1, 2.0, 20.0, 200.0, 1e3))[0] <= 8.0

    # zeros, a subnormal time whose ratios are 0, repeats, and 1e-6 to 1e4: at q = 1 a
    # sum over the row padded out to t = 3,000 or 1e4 moves t = 100's last bits
    GRID = (0.0, 2.5, 5e-324, 1e-6, 0.1, 0.0, 1e3, 2.5, 37.0, 100.0, 3e3, 1e4)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("M", [0, 6, 60, 600])
    def test_grid_rows_are_the_lone_calls(self, q, M):
        # each row runs its own recurrence from its own start, and np.add.reduceat sums
        # its terms as numpy sums a lone row: no padding moves a bit
        grid = log_building_blocks(q, M, np.array(self.GRID))
        assert grid.shape == (len(self.GRID), M + 1)
        for t, row in zip(self.GRID, grid):
            assert row.tobytes() == log_building_blocks(q, M, t).tobytes(), t
        # a list, a tuple and a one-time array are grids too
        assert log_building_blocks(q, M, list(self.GRID)).tobytes() == grid.tobytes()
        assert log_building_blocks(q, M, [2.5]).shape == (1, M + 1)

    # one order per time of GRID: large times at small orders and small at large ones
    ORDERS = (0, 600, 6, 60, 600, 3, 600, 0, 600, 60, 60, 6)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_grid_rows_at_their_own_orders_are_the_lone_calls(self, q):
        # each row runs from its own M_t + d_t and reads -inf, a zero block, past M_t
        grid = log_building_blocks(q, self.ORDERS, self.GRID)
        assert grid.shape == (len(self.GRID), max(self.ORDERS) + 1)
        for t, M, row in zip(self.GRID, self.ORDERS, grid):
            assert row[: M + 1].tobytes() == log_building_blocks(q, M, t).tobytes(), (t, M)
            assert np.all(row[M + 1 :] == -math.inf)
        # one order per time, all equal, is the one M that serves them all
        same = log_building_blocks(q, [60] * len(self.GRID), self.GRID)
        assert same.tobytes() == log_building_blocks(q, 60, self.GRID).tobytes()
        lone = log_building_blocks(q, 6, 2.5)
        assert log_building_blocks(q, [6], 2.5).tobytes() == lone.tobytes()

    @pytest.mark.parametrize("M", [-1, [5, -1], [5], [5, 6, 7], []])
    def test_orders_are_nonnegative_and_one_per_time(self, M):
        with pytest.raises(ValueError, match="orders must be >= 0, one per time, got"):
            log_building_blocks(2, M, [1.0, 2.0])

    def test_passes_hand_each_call_its_times_orders(self, monkeypatch):
        # a pass holds times while their running width max(M_t + d_t) + 1 fits the cap
        orders, times = [600, 6, 6, 600, 6], [1.0, 3e3, 3e3, 1.0, 1.0]
        ends = [M + bessel._miller_margin(2, M, t) for M, t in zip(orders, times)]
        monkeypatch.setattr(bessel, "_GRID_ENTRIES", 2 * max(ends) + 2)
        passes = [(part, blocks) for part, blocks in bessel._grid_passes(2, orders, times)]
        assert [part for part, _ in passes] == [slice(0, 2), slice(2, 4), slice(4, 5)]
        rows = [row for _, blocks in passes for row in blocks]
        for t, M, row in zip(times, orders, rows):
            assert row[: M + 1].tobytes() == log_building_blocks(2, M, t).tobytes()

    def test_zero_times_in_a_grid_read_the_indicator(self):
        grid = log_building_blocks(3, 5, [0.0, 1.0, 0.0])
        for row in grid[::2]:
            assert row.tolist() == [0.0] + [-math.inf] * 5
        assert np.all(np.isfinite(grid[1]))
        assert log_building_blocks(3, 5, []).shape == (0, 6)

    @staticmethod
    def peak_bytes(call) -> tuple[int, str]:
        """The most memory that call held at once, traced, and the message of the
        ValueError it must raise."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                call()
            return tracemalloc.get_traced_memory()[1], str(info.value)
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("where", [0, 31, 63])
    def test_bad_time_in_a_grid_refused_before_allocating(self, bad, where):
        # 64 times of 10,572 ratios are 5.4 MB an array: the refusal comes before any
        ts = np.full(64, 1e3)
        ts[where] = bad
        peak, message = self.peak_bytes(lambda: log_building_blocks(2, 10_000, ts))
        assert message.startswith("t must be finite and >= 0, got")
        assert peak < 100_000

    def test_grid_past_the_cap_refused_before_allocating(self):
        # 100 times of 10,045 ratios: 1.0e6 entries, past the cap of one t at the guard
        assert bessel._GRID_ENTRIES == MAX_RECURRENCE + 1
        ts = np.full(100, 1.0)
        peak, message = self.peak_bytes(lambda: log_building_blocks(2, 10_000, ts))
        assert message == f"100 times of 10045 ratios each: more than {MAX_RECURRENCE + 1} in one call"
        assert peak < 100_000
        # one time at the recurrence guard is refused by that guard, not by the cap
        with pytest.raises(ValueError, match=f"more than {MAX_RECURRENCE}$"):
            log_building_blocks(2, MAX_RECURRENCE, [1.0])

    def test_grid_of_more_axes_refused(self):
        with pytest.raises(ValueError, match="1-D array of times, got 2 axes"):
            log_building_blocks(2, 3, [[1.0, 2.0]])
