"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The production route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel: tree_heat_kernels reads a
whole table row per t from one vector of bessel.log_building_blocks.  The second
route is a pair of classical oscillatory integrals over [0, pi], which
tree_heat_kernel_integrals evaluates for a whole row per t with the
trapezoid rule on one (radii x nodes) array, and the third is the
horocycle-coordinate solution of the associated difference-differential
equation, the sum of K over a horocycle.  The series and its time
derivative stop where bessel.certified_truncation certifies the tail, and
the tail bound is reported with each value.  The single-radius
tree_heat_kernel and tree_heat_kernel_integral are one entry of their rows.
The horocycle solution and the time derivative read the scalar
building_block, so the heat-equation residual and verify's horocycle check
also test the log evaluator against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heatzeta.bessel import (
    _check_time,
    _check_tol,
    building_block,
    building_block_time_derivative,
    certified_truncation,
    log_building_blocks,
)

__all__ = [
    "QuadratureError",
    "TreeHeatValue",
    "horocycle_solution",
    "tree_heat_kernel",
    "tree_heat_kernel_integral",
    "tree_heat_kernel_integrals",
    "tree_heat_kernel_time_derivative",
    "tree_heat_kernels",
]


# (radii x nodes) entries per chunk of the trapezoid rule: 2^17 floats are 1 MB an array
_CHUNK_ENTRIES = 1 << 17
# the rule converges long before this; t up to about 1e10 starts below it
_MAX_NODES = 1 << 20


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


def tree_heat_kernel_time_derivative(q: int, t: float, r: int, tol: float = 1e-12) -> float:
    """Analytic d/dt of the tree heat kernel series, for heat-equation residuals.

    B'_m = B_{m-1} + q B_{m+1} - (q+1) B_m with nonnegative blocks, and the
    block bound falls in m, so the term (q-1)|B'_{r+2j}| is at most 2 (q^2-1)
    times the bound at order r + 2j - 1: bessel.certified_truncation cuts the
    series on that lattice with that weight.
    """
    order, _ = certified_truncation(q, t, tol, r + 1, 2, 2 * (q * q - 1))
    terms = [building_block_time_derivative(q, m + 1, t, tol) for m in range(r + 1, order + 1, 2)]
    return building_block_time_derivative(q, r, t, tol) - (q - 1) * math.fsum(terms)


class QuadratureError(RuntimeError):
    """The trapezoid rule missed its error guard; r is the first radius that did."""

    def __init__(self, r: int, reason: str):
        super().__init__(f"r = {r}: {reason}")
        self.r = r
        self.reason = reason


def _trapezoid_sums(q: int, tau: float, radii: np.ndarray, u: np.ndarray):
    """Sums over the nodes u of the integrand for each radius, and of its modulus.

    The nodes are taken in chunks so that the (radii x nodes) temporaries
    stay near _CHUNK_ENTRIES floats.
    """
    total = np.zeros(len(radii))
    modulus = np.zeros(len(radii))
    step = max(1, _CHUNK_ENTRIES // max(1, len(radii)))
    for lo in range(0, len(u), step):
        x = u[lo : lo + step]
        cos = np.cos(x)
        weight = np.exp(tau * (cos - 1.0)) * np.sin(x) / ((q + 1) ** 2 - 4 * q * cos**2)
        f = weight * (q * np.sin(np.outer(radii + 1, x)) - np.sin(np.outer(radii - 1, x)))
        total += f.sum(axis=1)
        modulus += np.abs(f).sum(axis=1)
    return total, modulus


def tree_heat_kernel_integrals(q: int, t: float, radii, tol: float = 1e-10) -> np.ndarray:
    """K(t, r) for every r in radii by the trapezoid rule on the integral formula

        (2 e^{-(q+1)t} / (pi q^{r/2-1})) *
        int_0^pi e^{2t sqrt(q) cos u} sin u (q sin((r+1)u) - sin((r-1)u))
                 / ((q+1)^2 - 4q cos^2 u) du,

    which at r = 0 is the classical
    (2 q (q+1) e^{-(q+1)t} / pi) int_0^pi e^{2t sqrt(q) cos u} sin^2 u / ((q+1)^2 - 4q cos^2 u) du.
    The factor e^{2t sqrt(q)} is moved out of the integral, which leaves
    e^{2t sqrt(q)(cos u - 1)} <= 1 inside and e^{-(sqrt(q)-1)^2 t} in the
    prefactor: the integrand stays of order one for every t.

    The integrand is even, 2 pi-periodic and analytic in |Im u| < ln(q)/2,
    where the denominator first vanishes, so the trapezoid rule converges
    geometrically (Trefethen and Weideman, SIAM Review 2014); it vanishes at
    0 and pi, so the rule is h times the sum over the interior nodes.  The
    node count starts at a power of two past max r + 4 sqrt(tau + 1) + 8,
    tau = 2 sqrt(q) t, which resolves the peak of e^{tau(cos u - 1)}, and
    doubles over nested nodes.  The error estimate of each r is
    |T_{2N} - T_N| plus QUADPACK's rounding term 50 eps h prefactor sum |f|,
    and every r must meet the guard error <= max(tol, 10 tol |value|).
    QuadratureError names the first r whose rounding term alone exceeds the
    guard, or that misses it at _MAX_NODES.

    The denominators degenerate at q = 1, so that case is refused here and
    served by the series route.
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
    n = 1 << math.ceil(math.log2(radii.max(initial=0) + 4.0 * math.sqrt(tau + 1.0) + 8.0))
    total, modulus = _trapezoid_sums(q, tau, radii, np.arange(1, n) * (math.pi / n))
    value = prefactor * (math.pi / n) * total
    while True:
        n *= 2
        odd_total, odd_modulus = _trapezoid_sums(q, tau, radii, np.arange(1, n, 2) * (math.pi / n))
        total += odd_total
        modulus += odd_modulus
        previous, value = value, prefactor * (math.pi / n) * total
        rounding = 50.0 * np.finfo(float).eps * (math.pi / n) * prefactor * modulus
        error = np.abs(value - previous) + rounding
        guard = np.maximum(tol, 10.0 * tol * np.abs(value))
        if np.all(error <= guard):
            return value
        if np.any(rounding > guard):
            first = int(np.argmax(rounding > guard))
            raise QuadratureError(
                int(radii[first]),
                f"rounding error {rounding[first]:.3g} exceeds the guard {guard[first]:.3g}",
            )
        if n >= _MAX_NODES:
            first = int(np.argmax(error > guard))
            raise QuadratureError(
                int(radii[first]),
                f"estimated error {error[first]:.3g} > guard {guard[first]:.3g} at {n} nodes",
            )


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
