"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The primary route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel.  The second route is a
pair of classical oscillatory integrals over [0, pi], and the third is the
horocycle-coordinate solution of the associated difference-differential
equation.  Truncation of the series is certified by the uniform Bessel
bound, and the certificate is reported with each value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from heatzeta.bessel import (
    _check_time,
    bessel_i,
    bessel_upper_bound,
    building_block,
    building_block_time_derivative,
)

__all__ = [
    "TreeHeatValue",
    "horocycle_solution",
    "tree_heat_kernel",
    "tree_heat_kernel_integral",
    "tree_heat_kernel_time_derivative",
]


@dataclass(frozen=True)
class TreeHeatValue:
    q: int
    t: float
    r: int
    value: float
    truncation_index: int
    tail_bound: float


def _series_tail_bound(q: int, t: float, order: int) -> float:
    """Bound on (q-1) * B(q, order, t) plus the whole remaining tail.

    Uses e^{-tau} I_x(tau) <= (1 + x/tau)^{-x/2} / sqrt(tau) with
    tau = 2 sqrt(q) t; consecutive terms shrink by at least 1/q, so the
    geometric factor q/(q-1) closes the sum.
    """
    tau = 2.0 * math.sqrt(q) * t
    single = (
        (q - 1)
        * math.exp(-0.5 * order * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t)
        * bessel_upper_bound(order, tau)
    )
    return single * q / (q - 1)


def tree_heat_kernel(q: int, t: float, r: int, tol: float = 1e-12) -> TreeHeatValue:
    """K(t, r) on the (q+1)-regular tree via the alternating Bessel series.

    For q = 1 the correction sum carries a factor q - 1 = 0 and the value
    is exactly e^{-2t} I_r(2t).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_time(t)
    if t == 0.0:
        return TreeHeatValue(q, t, r, 1.0 if r == 0 else 0.0, 0, 0.0)
    if q == 1:
        return TreeHeatValue(q, t, r, building_block(1, r, t, tol), 0, 0.0)
    tau = 2.0 * math.sqrt(q) * t
    value = building_block(q, r, t, tol)
    j = 0
    while True:
        next_order = r + 2 * (j + 1)
        if next_order > tau:
            bound = _series_tail_bound(q, t, next_order)
            if bound < tol:
                return TreeHeatValue(q, t, r, value, j, bound)
        j += 1
        value -= (q - 1) * building_block(q, r + 2 * j, t, tol)
        if j > 1_000_000:  # pragma: no cover
            raise RuntimeError("tree heat kernel series failed to terminate")


def tree_heat_kernel_time_derivative(q: int, t: float, r: int, tol: float = 1e-12) -> float:
    """Analytic d/dt of the tree heat kernel series, truncated like the value.

    Used by residual checks of the heat equation; finite differences are
    kept out of the residual path so the test tolerances stay tight.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if q == 1:
        return building_block_time_derivative(1, r, t, tol)
    tau = 2.0 * math.sqrt(q) * t
    value = building_block_time_derivative(q, r, t, tol)
    j = 0
    while True:
        next_order = r + 2 * (j + 1)
        # derivative terms carry an extra O(q) prefactor; demand a stricter tail
        if next_order > tau + 2 and _series_tail_bound(q, t, next_order) < tol / (3 * q):
            return value
        j += 1
        value -= (q - 1) * building_block_time_derivative(q, r + 2 * j, t, tol)
        if j > 1_000_000:  # pragma: no cover
            raise RuntimeError("derivative series failed to terminate")


def tree_heat_kernel_integral(q: int, t: float, r: int, tol: float = 1e-10) -> float:
    """K(t, r) by adaptive quadrature of the classical integral formulas.

    For r > 0:

        (2 e^{-(q+1)t} / (pi q^{r/2-1})) *
        int_0^pi e^{2t sqrt(q) cos u} sin u (q sin((r+1)u) - sin((r-1)u))
                 / ((q+1)^2 - 4q cos^2 u) du

    and for r = 0:

        (2 q (q+1) e^{-(q+1)t} / pi) *
        int_0^pi e^{2t sqrt(q) cos u} sin^2 u / ((q+1)^2 - 4q cos^2 u) du.

    The factor e^{2t sqrt(q)} is moved out of the integral, which leaves
    e^{2t sqrt(q)(cos u - 1)} <= 1 inside and e^{-(sqrt(q)-1)^2 t} in the
    prefactor: the integrand stays of order one for every t.  The error
    guard, error <= max(tol, 10 tol |value|), is applied to the returned K.

    The denominators degenerate at q = 1, so that case is refused here and
    served by the series route.
    """
    if q < 2:
        raise ValueError("integral route requires q >= 2; use the series for q = 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    sq = math.sqrt(q)
    shrink = (sq - 1.0) ** 2  # (q+1) - 2 sqrt(q)

    if r > 0:

        def integrand(u: float) -> float:
            num = math.sin(u) * (q * math.sin((r + 1) * u) - math.sin((r - 1) * u))
            den = (q + 1) ** 2 - 4 * q * math.cos(u) ** 2
            return math.exp(2 * t * sq * (math.cos(u) - 1.0)) * num / den

        prefactor = 2.0 * math.exp(-shrink * t) / (math.pi * q ** (r / 2.0 - 1.0))
    else:

        def integrand(u: float) -> float:
            den = (q + 1) ** 2 - 4 * q * math.cos(u) ** 2
            return math.exp(2 * t * sq * (math.cos(u) - 1.0)) * math.sin(u) ** 2 / den

        prefactor = 2.0 * q * (q + 1) * math.exp(-shrink * t) / math.pi

    value, err = quad(integrand, 0.0, math.pi, epsabs=tol * 1e-2, epsrel=tol, limit=200)
    value, err = prefactor * value, prefactor * err
    if err > max(tol, abs(value) * tol * 10):
        raise RuntimeError(f"quadrature did not converge: estimated error {err}")
    return value


def horocycle_solution(q: int, t: float, n: int) -> float:
    """q^{-n/2} e^{-(q+1)t} I_n(2 sqrt(q) t) in the horocycle coordinate n.

    Defined for all integers n through I_{-n} = I_n; solves
    (q+1) f(t,n) - q f(t,n+1) - f(t,n-1) + df/dt = 0 with f(0,n) = [n = 0].
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    tau = 2.0 * math.sqrt(q) * t
    if tau > 500.0:
        from heatzeta.bessel import bessel_i_scaled

        scaled = bessel_i_scaled(abs(n), tau)
        return math.exp(-0.5 * n * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t) * scaled
    return math.exp(-0.5 * n * math.log(q) - (q + 1) * t) * bessel_i(abs(n), tau)
