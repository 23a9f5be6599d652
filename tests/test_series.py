from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatzeta.series import PowerSeries

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20
)


def series_with_zero_constant(order=8):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: PowerSeries([Fraction(0)] + cs[1:])
    )


def test_arithmetic_basics():
    a = PowerSeries([1, 2, 3, 0, 0])
    b = PowerSeries([0, 1, 0, 0, 0])
    assert (a * b).coeffs == (0, 1, 2, 3, 0)


def test_mul_truncates_to_common_order():
    a = PowerSeries([1, 1, 0, 0])
    b = PowerSeries([1, 1, 0, 0, 0, 0, 0, 0])
    assert (a * b).order == 3


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        PowerSeries([1, 1, 0, 0]).exp()


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries([2, 1, 0, 0]).log()


def test_exp_of_geometric_log():
    # -2 log(1 - u) expanded, exp recovers (1-u)^{-2} = sum (m+1) u^m
    M = 10
    log_series = PowerSeries([Fraction(0)] + [Fraction(2, m) for m in range(1, M + 1)])
    expanded = log_series.exp()
    assert expanded.coeffs == tuple(Fraction(m + 1) for m in range(M + 1))


def test_evaluate_horner():
    s = PowerSeries([1, 2, 1])
    assert s.evaluate(0.5) == pytest.approx(2.25, abs=0)


@given(series_with_zero_constant())
@settings(max_examples=150, deadline=None)
def test_log_exp_roundtrip(s):
    assert s.exp().log() == s


@given(series_with_zero_constant(order=6), series_with_zero_constant(order=6))
@settings(max_examples=100, deadline=None)
def test_exp_is_homomorphism(a, b):
    total = PowerSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])
    assert total.exp() == a.exp() * b.exp()
