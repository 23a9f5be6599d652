"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The production route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel, summed over one vector from
bessel.building_blocks.  The second route is a pair of classical oscillatory
integrals over [0, pi], and the third is the horocycle-coordinate solution of
the associated difference-differential equation, the sum of K over a
horocycle.  Truncation of the series is certified by bessel.building_block_bound,
and the certificate is reported with each value.  The horocycle solution and
the time derivative read the scalar building_block, so the heat-equation
residual and verify's horocycle check also test ive against it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

from heatzeta.bessel import (
    _check_time,
    _check_tol,
    building_block,
    building_block_bound,
    building_block_time_derivative,
    building_blocks,
)

__all__ = [
    "TreeHeatValue",
    "horocycle_solution",
    "tree_heat_kernel",
    "tree_heat_kernel_integral",
    "tree_heat_kernel_time_derivative",
]


# largest order r + 2J evaluated: t = 1e6 needs 2.9e6 at q = 2; 5e6 blocks peak near 0.15 GB
MAX_TREE_ORDER = 5_000_000


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
    single = (q - 1) * building_block_bound(q, order, t)
    return single * q / (q - 1)


def tree_heat_kernel(q: int, t: float, r: int, tol: float = 1e-12) -> TreeHeatValue:
    """K(t, r) on the (q+1)-regular tree via the alternating Bessel series.

    The truncation index J is the first j with r + 2(j+1) > tau = 2 sqrt(q) t
    whose tail bound is below tol, and the value is
    B_r - (q-1)(B_{r+2} + ... + B_{r+2J}) over one building-block vector.
    For q = 1 the correction carries the factor q - 1 = 0, so J = 0.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    _check_tol(tol)
    _check_time(t)
    j, bound = 0, 0.0
    if q > 1 and t > 0:
        tau = 2.0 * math.sqrt(q) * t
        j = start = max(0, math.floor((tau - r) / 2))  # first order past tau
        while (bound := _series_tail_bound(q, t, r + 2 * (j + 1))) >= tol:
            j += 1
            if j > start + 1_000_000:  # pragma: no cover
                raise RuntimeError("tree heat kernel series failed to terminate")
    if r + 2 * j > MAX_TREE_ORDER:
        raise ValueError(
            f"t = {t}, r = {r}: the series needs order {r + 2 * j} > {MAX_TREE_ORDER}"
        )
    blocks = building_blocks(q, r + 2 * j, (t,))[0]
    value = blocks[r] - (q - 1) * math.fsum(blocks[r + 2 :: 2])
    return TreeHeatValue(q, t, r, float(value), j, bound)


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

        # q^{1 - r/2} enters the exponent: q ** (r/2 - 1) alone overflows from r = 2050 at q = 2
        prefactor = 2.0 * math.exp(-shrink * t - (r / 2.0 - 1.0) * math.log(q)) / math.pi
    else:

        def integrand(u: float) -> float:
            den = (q + 1) ** 2 - 4 * q * math.cos(u) ** 2
            return math.exp(2 * t * sq * (math.cos(u) - 1.0)) * math.sin(u) ** 2 / den

        prefactor = 2.0 * q * (q + 1) * math.exp(-shrink * t) / math.pi

    with warnings.catch_warnings():
        # the error guard below decides; quad's warning would only repeat it
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(integrand, 0.0, math.pi, epsabs=tol * 1e-2, epsrel=tol, limit=200)
    value, err = prefactor * value, prefactor * err
    if err > max(tol, abs(value) * tol * 10):
        raise RuntimeError(f"quadrature did not converge: estimated error {err}")
    return value


def horocycle_solution(q: int, t: float, n: int) -> float:
    """q^{-n/2} e^{-(q+1)t} I_n(2 sqrt(q) t) in the horocycle coordinate n.

    Defined for all integers n through I_{-n} = I_n, which makes it
    q^{max(-n, 0)} building_block(q, |n|, t); solves
    (q+1) f(t,n) - q f(t,n+1) - f(t,n-1) + df/dt = 0 with f(0,n) = [n = 0].
    It is the sum of the tree kernel over the horocycle at height n: q^{max(-n,0)}
    points at distance |n| and q^{max(-n,0)} (q-1) q^{j-1} at |n| + 2j, j >= 1.
    """
    _check_time(t)
    return q ** max(-n, 0) * building_block(q, abs(n), t)
