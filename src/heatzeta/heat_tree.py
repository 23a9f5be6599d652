"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The production route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel: tree_heat_kernels reads a
whole table row per t from one bessel.building_blocks vector.  The second
route is a pair of classical oscillatory integrals over [0, pi], which
tree_heat_kernel_integrals evaluates for a whole row per t with the
trapezoid rule on one (radii x nodes) array, and the third is the
horocycle-coordinate solution of the associated difference-differential
equation, the sum of K over a horocycle.  Truncation of the series is
certified by bessel.building_block_bound, and the certificate is reported
with each value.  The single-radius tree_heat_kernel and
tree_heat_kernel_integral are one entry of their rows.  The horocycle
solution and the time derivative read the scalar building_block, so the
heat-equation residual and verify's horocycle check also test ive against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heatzeta.bessel import (
    _check_time,
    _check_tol,
    building_block,
    building_block_bound,
    building_block_time_derivative,
    building_blocks,
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


# largest order r + 2J evaluated: t = 1e6 needs 2.9e6 at q = 2; 5e6 blocks peak near 0.15 GB
MAX_TREE_ORDER = 5_000_000
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


def _series_tail_bound(q: int, t: float, order: int) -> float:
    """Bound on (q-1) * B(q, order, t) plus the whole remaining tail.

    Uses e^{-tau} I_x(tau) <= (1 + x/tau)^{-x/2} / sqrt(tau) with
    tau = 2 sqrt(q) t; consecutive terms shrink by at least 1/q, so the
    geometric factor q/(q-1) closes the sum.
    """
    single = (q - 1) * building_block_bound(q, order, t)
    return single * q / (q - 1)


def _truncation_index(q: int, t: float, r: int, tol: float) -> tuple[int, float]:
    """Certified truncation index J of the series at radius r, and its tail bound.

    J is the first j with r + 2(j+1) > tau = 2 sqrt(q) t whose tail bound is
    below tol; for q = 1 the correction carries the factor q - 1 = 0, so J = 0.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
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
    return j, bound


def tree_heat_kernels(q: int, t: float, radii, tol: float = 1e-12) -> list[TreeHeatValue]:
    """K(t, r) on the (q+1)-regular tree for every r in radii, by the Bessel series.

    Each r keeps its own certified truncation index J_r, and every value is
    B_r - (q-1)(B_{r+2} + ... + B_{r+2J_r}) read from one building-block
    vector up to max_r (r + 2 J_r).  The blocks are computed elementwise, so
    each value equals the one a vector of its own would give.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_tol(tol)
    _check_time(t)
    radii = list(radii)
    scans = [_truncation_index(q, t, r, tol) for r in radii]
    top = max((r + 2 * j for r, (j, _) in zip(radii, scans)), default=0)
    blocks = building_blocks(q, top, (t,))[0]
    values = []
    for r, (j, bound) in zip(radii, scans):
        value = blocks[r] - (q - 1) * math.fsum(blocks[r + 2 : r + 2 * j + 1 : 2])
        values.append(TreeHeatValue(q, t, r, float(value), j, bound))
    return values


def tree_heat_kernel(q: int, t: float, r: int, tol: float = 1e-12) -> TreeHeatValue:
    """K(t, r) on the (q+1)-regular tree: the single entry of tree_heat_kernels."""
    return tree_heat_kernels(q, t, (r,), tol)[0]


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
