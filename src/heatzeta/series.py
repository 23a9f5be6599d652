"""Truncated formal power series with exact rational coefficients.

Every series the package builds holds Fractions: log zeta from the counts,
the Euler product, the determinant formula and the two-variable zeta, and
evaluate reads one at a float point.  A product truncates to the smaller
order of its factors, and exp/log are mutually inverse to the order of
their argument.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = ["PowerSeries"]


class PowerSeries:
    """Polynomial in u modulo u^{M+1}, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a power series needs at least the constant term")

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int):
        return self.coeffs[m] if m <= self.order else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        m = min(self.order, other.order)
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(out)

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term.

        Recurrence from E' = S'E: e_n = (1/n) sum_{k=1}^n k s_k e_{n-k}.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        m = self.order
        out = [Fraction(1)] + [Fraction(0)] * m
        for n in range(1, m + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                s_k = self.coeffs[k]
                if s_k != 0:
                    acc += k * s_k * out[n - k]
            out[n] = acc / n
        return PowerSeries(out)

    def log(self) -> "PowerSeries":
        """log of a series with constant term one.

        Recurrence from L' S = S': n l_n = n s_n - sum_{k=1}^{n-1} k l_k s_{n-k}.
        """
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term one")
        m = self.order
        out = [Fraction(0)] * (m + 1)
        for n in range(1, m + 1):
            acc = n * self.coeffs[n]
            for k in range(1, n):
                if out[k] != 0 and self.coeffs[n - k] != 0:
                    acc -= k * out[k] * self.coeffs[n - k]
            out[n] = Fraction(acc, n) if isinstance(acc, int) else acc / n
        return PowerSeries(out)

    def evaluate(self, u) -> float:
        """Horner evaluation at a numeric point."""
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = acc * u + float(a)
        return acc
