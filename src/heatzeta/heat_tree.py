"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The production route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel: tree_heat_kernels reads a
whole table row per t from one vector of bessel.log_building_blocks.  The second
route is a pair of classical oscillatory integrals over [0, pi], which
tree_heat_kernel_integrals evaluates for a whole row per t with the
package's trapezoid rule, and the third is the horocycle-coordinate solution
of the associated difference-differential equation, the sum of K over a
horocycle.  The series and its time derivative stop where
bessel.certified_truncation certifies the tail, and the tail bound is
reported with each value.  The single-radius
tree_heat_kernel and tree_heat_kernel_integral are one entry of their rows.
The horocycle solution and the time-derivative row
tree_heat_kernel_time_derivatives read the scalar building_block (the row
from one list of blocks per t), so the heat-equation residual and verify's
horocycle check also test the log evaluator against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heatzeta.bessel import (
    _check_time,
    _check_tol,
    _nested_trapezoid,
    building_block,
    building_block_time_derivatives,
    certified_truncation,
    log_building_blocks,
)

__all__ = [
    "TreeHeatValue",
    "horocycle_solution",
    "tree_heat_kernel",
    "tree_heat_kernel_integral",
    "tree_heat_kernel_integrals",
    "tree_heat_kernel_time_derivatives",
    "tree_heat_kernels",
]


@dataclass(frozen=True)
class TreeHeatValue:
    q: int
    t: float
    r: int
    value: float
    truncation_index: int
    tail_bound: float


def tree_heat_kernels(q: int, t: float, radii, tol: float = 1e-12) -> list[TreeHeatValue]:
    """K(t, r) on the (q+1)-regular tree for every r in radii, by the Bessel series.

    Each r keeps its own truncation index J_r: the terms (q-1) B(q, r + 2j, t),
    j >= 1, go to bessel.certified_truncation with weight q - 1 on the lattice
    r + 2, r + 4, ... (at q = 1 that weight is 0 and J_r = 0).  Every value is
    B_r - (q-1)(B_{r+2} + ... + B_{r+2J_r}) read from one building-block
    vector up to max_r (r + 2 J_r), whose length bessel.log_building_blocks
    guards.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_tol(tol)
    _check_time(t)
    radii = list(radii)
    if any(r < 0 for r in radii):
        raise ValueError("r must be >= 0")
    cuts = [certified_truncation(q, t, tol, r + 2, 2, q - 1) for r in radii]
    top = max((order for order, _ in cuts), default=0)
    blocks = np.exp(log_building_blocks(q, top, t))
    values = []
    for r, (order, bound) in zip(radii, cuts):
        value = blocks[r] - (q - 1) * math.fsum(blocks[r + 2 : order + 1 : 2])
        values.append(TreeHeatValue(q, t, r, float(value), (order - r) // 2, bound))
    return values


def tree_heat_kernel(q: int, t: float, r: int, tol: float = 1e-12) -> TreeHeatValue:
    """K(t, r) on the (q+1)-regular tree: the single entry of tree_heat_kernels."""
    return tree_heat_kernels(q, t, (r,), tol)[0]


def tree_heat_kernel_time_derivatives(q: int, t: float, radii) -> list[float]:
    """Analytic d/dt of the tree heat kernel series for every r in radii, for
    heat-equation residuals.

    B'_m = B_{m-1} + q B_{m+1} - (q+1) B_m with nonnegative blocks, and the
    block bound falls in m, so the term (q-1)|B'_{r+2j}| is at most 2 (q^2-1)
    times the bound at order r + 2j - 1: bessel.certified_truncation cuts each
    r's series on that lattice with that weight, at a certified tail of 1e-13.
    Every B'_m comes from one bessel.building_block_time_derivatives list per
    (q, t), up to the largest order any r needs: scalar building_block values,
    independent of log_building_blocks.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    radii = list(radii)
    if any(r < 0 for r in radii):
        raise ValueError("r must be >= 0")
    cuts = [certified_truncation(q, t, 1e-13, r + 1, 2, 2 * (q * q - 1))[0] for r in radii]
    top = max((max(r, order + 1) for r, order in zip(radii, cuts)), default=0)
    dots = building_block_time_derivatives(q, top, t)
    return [
        dots[r] - (q - 1) * math.fsum(dots[r + 2 : order + 2 : 2])
        for r, order in zip(radii, cuts)
    ]


def tree_heat_kernel_integrals(q: int, t: float, radii, tol: float = 1e-10) -> np.ndarray:
    """K(t, r) for every r in radii by the trapezoid rule on the integral formula

        (2 e^{-(q+1)t} / (pi q^{r/2-1})) *
        int_0^pi e^{2t sqrt(q) cos u} sin u (q sin((r+1)u) - sin((r-1)u))
                 / ((q+1)^2 - 4q cos^2 u) du,

    at r = 0 the classical (2 q (q+1) e^{-(q+1)t} / pi) int_0^pi e^{2t sqrt(q) cos u}
    sin^2 u / ((q+1)^2 - 4q cos^2 u) du.  With e^{2t sqrt(q)} moved into the
    prefactor, e^{2t sqrt(q)(cos u - 1)} <= 1 stays inside.  The integrand is
    even, 2 pi-periodic, analytic in |Im u| < ln(q)/2 and 0 at 0 and pi, so
    bessel._nested_trapezoid converges geometrically (Trefethen and Weideman,
    SIAM Review 2014) from max r + 4 sqrt(tau + 1) + 8 nodes, tau = 2 sqrt(q) t,
    which resolve the peak of e^{tau(cos u - 1)}; bessel.QuadratureError names the
    first r that misses the guard max(tol, 10 tol |value|).  q = 1, where the
    denominators degenerate, is refused: the series serves it.
    """
    if q < 2:
        raise ValueError("integral route requires q >= 2; use the series for q = 1")
    _check_tol(tol)
    _check_time(t)
    radii = np.array(list(radii), dtype=int)
    if radii.size and radii.min() < 0:
        raise ValueError("r must be >= 0")
    sq = math.sqrt(q)
    tau = 2.0 * t * sq
    # q^{1 - r/2} enters the exponent: q ** (r/2 - 1) alone overflows from r = 2050 at q = 2
    prefactor = 2.0 * np.exp(-(sq - 1.0) ** 2 * t - (radii / 2.0 - 1.0) * math.log(q)) / math.pi

    def integrand(x):
        cos = np.cos(x)
        weight = np.exp(tau * (cos - 1.0)) * np.sin(x) / ((q + 1) ** 2 - 4 * q * cos**2)
        return weight * (q * np.sin(np.outer(radii + 1, x)) - np.sin(np.outer(radii - 1, x)))

    start = radii.max(initial=0) + 4.0 * math.sqrt(tau + 1.0) + 8.0
    return _nested_trapezoid(integrand, radii, prefactor, tol, start)


def tree_heat_kernel_integral(q: int, t: float, r: int, tol: float = 1e-10) -> float:
    """K(t, r) by the integral formula: the single entry of tree_heat_kernel_integrals."""
    return float(tree_heat_kernel_integrals(q, t, (r,), tol)[0])


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
