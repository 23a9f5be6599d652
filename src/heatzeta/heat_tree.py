"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The production route is the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel: tree_heat_kernels reads a
whole table row per t, and the rows of a grid of times from the passes of
bessel._grid_passes, as the graph heat routes do.  The second
route, at every q >= 1, is the integral of e^{-lambda t} times the spherical
function against the tree's spectral measure, bessel._tree_measure over
[0, pi], which tree_heat_kernel_integrals evaluates for a whole row per t, or
for a grid of times: the times that the trapezoid rule would start at the
same power of two of nodes (max r + 4 sqrt(tau + 1) + 8, tau = 2 sqrt(q) t)
integrate their (t, r) rows on one node set, so the workload grid 0.1-3 runs
one rule and 0.01, 1000 two.  The third is the horocycle-coordinate solution
of the associated difference-differential equation, the sum of K over a
horocycle.  The series and its time derivative stop where
bessel.certified_truncation certifies the tail, and the tail bound is
reported with each value.  Its tail test reads the order m only, not the
radius, and once past the peak of the bound it holds for good, so a row
runs one search per parity p, from p to m*_p, and cuts the radius whose
lattice starts at start_r, of parity p, at max(start_r, m*_p)
(_certified_cuts), reading the tail bound of each further cut from one
evaluation of that search's log tail.  The single-radius
tree_heat_kernel and tree_heat_kernel_integral are one entry of their rows.
The horocycle solution and the time-derivative row
tree_heat_kernel_time_derivatives read the scalar building_block (the row
takes every B'_m from one list of blocks per t), so the heat-equation
residual and verify's horocycle check also test the log evaluator against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heatzeta.bessel import (
    QuadratureError,
    _check_q,
    _check_time,
    _check_times,
    _check_tol,
    _grid_passes,
    _log_tail,
    _tree_measure,
    building_block,
    certified_truncation,
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
    r: int
    value: float
    truncation_index: int
    tail_bound: float


def _certified_cuts(
    q: int, t: float, tol: float, firsts: list[int], weight: float
) -> list[tuple[int, float]]:
    """certified_truncation(q, t, tol, first, 2, weight) for every first, from
    one search per parity.

    A search on the lattice first, first + 2, ... starts at s = first - 2 (at
    first where first < 2) and returns the first order m >= s of that parity
    whose tail test holds.  The test reads m only and holds for good past the
    peak of the bound, so that order is max(s, m*_p), with m*_p the end of
    the search started at p = s % 2.  Where s passes m*_p, certified_truncation
    started at s would certify it at once: its tail bound is one evaluation of
    the search's log tail at s (0 for a zero weight or t = 0, which have no tail).
    """
    starts = [first - 2 if first >= 2 else first for first in firsts]
    m_star: dict[int, int] = {}
    certified: dict[int, float] = {}
    for p in {s % 2 for s in starts}:
        m_star[p], certified[m_star[p]] = certified_truncation(q, t, tol, p + 2, 2, weight)
    cuts = [max(s, m_star[s % 2]) for s in starts]
    missing = set(cuts) - certified.keys()
    if missing and weight != 0.0 and t != 0.0:
        log_tail = _log_tail(q, t, 2, weight)
        certified.update((cut, math.exp(log_tail(cut))) for cut in missing)
    return [(cut, certified.get(cut, 0.0)) for cut in cuts]


def tree_heat_kernels(q: int, t, radii, tol: float = 1e-12) -> list:
    """K(t, r) on the (q+1)-regular tree for every r in radii, by the Bessel series:
    a list of TreeHeatValue, or for a 1-D array t of times one such list per time.

    Each r keeps its own truncation index J_r: the terms (q-1) B(q, r + 2j, t),
    j >= 1, go to bessel.certified_truncation with weight q - 1 on the lattice
    r + 2, r + 4, ... (at q = 1 that weight is 0 and J_r = 0).  That search
    started at r ends at cut_r = max(r, m*_{r % 2}), m*_p its end on the
    lattice p + 2, p + 4, ..., so the row runs one search per parity and
    reads each tail bound at cut_r (_certified_cuts).  Every value is
    B_r - (q-1)(B_{r+2} + ... + B_{r+2J_r}) read from one building-block
    vector up to max_r (r + 2 J_r); a grid of times reads its vectors from the
    passes of bessel._grid_passes, each to the largest such order over its
    times (one pass unless that would pass the evaluator's cap).
    """
    _check_q(q)
    _check_tol(tol)
    times, grid = _check_times(t)
    radii = list(radii)
    if any(r < 0 for r in radii):
        raise ValueError("r must be >= 0")
    cuts = [_certified_cuts(q, x, tol, [r + 2 for r in radii], q - 1) for x in times]
    tops = [max((order for order, _ in row), default=0) for row in cuts]
    tables = []
    for part, log_blocks in _grid_passes(q, tops, times):
        for blocks, row in zip(np.exp(log_blocks), cuts[part]):
            values = []
            for r, (order, bound) in zip(radii, row):
                value = blocks[r] - (q - 1) * math.fsum(blocks[r + 2 : order + 1 : 2])
                values.append(TreeHeatValue(r, float(value), (order - r) // 2, bound))
            tables.append(values)
    return tables if grid else tables[0]


def tree_heat_kernel(q: int, t, r: int, tol: float = 1e-12):
    """K(t, r) on the (q+1)-regular tree: the single entry of tree_heat_kernels; for a
    1-D array t of times, the list of its values, from one tree_heat_kernels call."""
    tables = tree_heat_kernels(q, t, (r,), tol)
    return [table[0] for table in tables] if np.ndim(t) else tables[0]


def tree_heat_kernel_time_derivatives(q: int, t: float, radii) -> list[float]:
    """Analytic d/dt of the tree heat kernel series for every r in radii, for
    heat-equation residuals.

    B'_m = B_{m-1} + q B_{m+1} - (q+1) B_m with nonnegative blocks, and the
    block bound falls in m, so the term (q-1)|B'_{r+2j}| is at most 2 (q^2-1)
    times the bound at order r + 2j - 1: bessel.certified_truncation cuts each
    r's series on that lattice with that weight, at a certified tail of 1e-13.
    The lattice r + 1, r + 3, ... starts at r - 1 (at 1 for r = 0), so the cut
    is max(r - 1, m*_p) with one search per parity p (_certified_cuts).
    B'_m follows from 2 I_m' = I_{m-1} + I_{m+1}, with B_{-1} = q B_1 as I_{-1} = I_1,
    on one list of scalar building_block values B_0..B_{top+1} per (q, t), top the
    largest order any r needs: independent of log_building_blocks.
    """
    _check_q(q)
    if t <= 0:
        raise ValueError("t must be positive")
    radii = list(radii)
    if any(r < 0 for r in radii):
        raise ValueError("r must be >= 0")
    cuts = _certified_cuts(q, t, 1e-13, [r + 1 for r in radii], 2 * (q * q - 1))
    top = max((max(r, order + 1) for r, (order, _) in zip(radii, cuts)), default=0)
    blocks = [building_block(q, m, t) for m in range(top + 2)]
    below = [q * blocks[1]] + blocks[:top]
    dots = [below[m] + q * blocks[m + 1] - (q + 1) * blocks[m] for m in range(top + 1)]
    return [
        dots[r] - (q - 1) * math.fsum(dots[r + 2 : order + 2 : 2])
        for r, (order, _) in zip(radii, cuts)
    ]


def tree_heat_kernel_integrals(q: int, t, radii, tol: float = 1e-10) -> np.ndarray:
    """K(t, r) for every r in radii as the integral of e^{-lambda t} phi_r(lambda) against
    the tree's spectral measure, bessel._tree_measure (Cartier 1973; Figa-Talamanca and
    Nebbia 1991): with lambda = q + 1 - 2 sqrt(q) cos u the spherical function is

        phi_r = q^{-r/2} (q sin((r+1)u) - sin((r-1)u)) / ((q+1) sin u),

    cos(ru) at q = 1, and e^{-lambda t} = e^{-(sqrt(q)-1)^2 t} e^{tau(cos u - 1)},
    tau = 2 sqrt(q) t, whose first factor and q^{-r/2} go to the scale, so
    e^{tau(cos u - 1)} <= 1 stays inside: a vector, or for a 1-D array t of times a
    (T, R) array whose row i is for t[i].  The integrand is even, 2 pi-periodic and
    analytic in |Im u| < ln(q)/2 (entire at q = 1), so bessel._nested_trapezoid
    converges geometrically (Trefethen and Weideman, SIAM Review 2014) from
    max r + 4 sqrt(tau + 1) + 8 nodes, which resolve the peak of e^{tau(cos u - 1)}.
    The times that the rule would start at the same power of two of nodes integrate
    all their (t, r) rows on one node set, which doubles until every row meets its
    guard max(tol, 10 tol |value|): one time gets the lone call's bits, and a grid
    row, summed past the node count its lone call stops at, differs from it within
    that guard.  bessel.QuadratureError names the first r that misses the guard, and
    for a grid its time t.
    """
    _check_q(q)
    _check_tol(tol)
    times, grid = _check_times(t)
    radii = np.array(list(radii), dtype=int)
    if radii.size and radii.min() < 0:
        raise ValueError("r must be >= 0")
    sq = math.sqrt(q)
    starts = [radii.max(initial=0) + 4.0 * math.sqrt(2.0 * x * sq + 1.0) + 8.0 for x in times]
    node_sets: dict[int, list[int]] = {}
    for i, start in enumerate(starts):
        node_sets.setdefault(math.ceil(math.log2(start)), []).append(i)
    values = np.empty((len(times), radii.size))
    for members in node_sets.values():
        part = np.array([times[i] for i in members])
        taus = 2.0 * part * sq
        # q^{-r/2} enters the exponent, as q ** (r/2) alone overflows from r = 2048 at q = 2
        scale = np.exp(np.subtract.outer(-(sq - 1.0) ** 2 * part, radii / 2.0 * math.log(q)))

        def spherical(x):
            peaks = np.exp(np.multiply.outer(taus, np.cos(x) - 1.0))
            if q == 1:
                waves = np.cos(np.outer(radii, x))
            else:
                peaks /= (q + 1) * np.sin(x)
                waves = q * np.sin(np.outer(radii + 1, x)) - np.sin(np.outer(radii - 1, x))
            return (peaks[:, None, :] * waves).reshape(-1, len(x))

        rows = np.arange(scale.size)  # row i R + j is (t, r) = (part[i], radii[j])
        try:
            found = _tree_measure(q, spherical, rows, scale.ravel(), tol, starts[members[0]])
        except QuadratureError as exc:
            i, j = divmod(exc.r, radii.size)
            when = times[members[i]] if grid else None
            raise QuadratureError(int(radii[j]), exc.reason, when) from None
        values[members] = found.reshape(len(members), radii.size)
    return values if grid else values[0]


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
