"""Truncated formal power series with exact or floating coefficients.

Coefficients default to exact rationals (Fraction); any field supporting
+, *, / works, so the same class carries float series coming from
eigenvalue computations.  All operations truncate to the smaller order of
their operands, and exp/log are mutually inverse to that order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["PowerSeries"]


class PowerSeries:
    """Polynomial in u modulo u^{M+1}, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a power series needs at least the constant term")

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, order: int) -> "PowerSeries":
        """Build from a coefficient list, padding or truncating to order."""
        items = list(coeffs[: order + 1])
        items += [Fraction(0)] * (order + 1 - len(items))
        return cls(items)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int):
        return self.coeffs[m] if m <= self.order else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"

    def _common_order(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        m = self._common_order(other)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(m + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        m = self._common_order(other)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(m + 1)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        m = self._common_order(other)
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(out)

    def derivative(self) -> "PowerSeries":
        """Formal d/du; the result has one order less (or order 0)."""
        if self.order == 0:
            return PowerSeries([0 * self.coeffs[0]])
        return PowerSeries([i * self.coeffs[i] for i in range(1, self.order + 1)])

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

    def pow_int(self, exponent: int) -> "PowerSeries":
        """Integer power by binary exponentiation (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = PowerSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, u) -> float:
        """Horner evaluation at a numeric point."""
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = acc * u + float(a)
        return acc
