"""Heat kernel on the (q+1)-regular tree, by three mutually checking routes.

The paper writes the kernel as the alternating Bessel series

    K(t, r) = B(q, r, t) - (q - 1) sum_{j>=1} B(q, r + 2j, t),

with B the building block from heatzeta.bessel.  The recurrence
B_{m-1} - q B_{m+1} = (m/t) B_m (DLMF 10.29.1) turns it, for t > 0, into
the production route, a series of positive terms

    K(t, r) = (1/t) sum_{j>=0} (r + 2j + 1) B(q, r + 2j + 1, t),

so K_r = K_{r+2} + ((r+1)/t) B_{r+1}: tree_heat_kernels sums one suffix
sum per parity for a whole table row per t, cut where
bessel.certified_truncation certifies the tail relative to the least value
of that parity, and reads the rows of a grid of times from the passes of
bessel._grid_passes, as the graph heat routes do, each time to its own order,
so a grid table is bitwise its lone call's.  The second
route, at every q >= 1, is the integral of e^{-lambda t} times the spherical
function against the tree's spectral measure, bessel._tree_measure over
[0, pi], which tree_heat_kernel_integrals evaluates for a whole row per t, or
for a grid of times: the times that the trapezoid rule would start at the
same power of two of nodes (max r + 4 sqrt(tau + 1) + 8, tau = 2 sqrt(q) t)
integrate their (t, r) rows on one node set, so the workload grid 0.1-3 runs
one rule and 0.01, 1000 two.  The third is the horocycle-coordinate solution
of the associated difference-differential equation, the sum of K over a
horocycle.  The single-radius tree_heat_kernel and tree_heat_kernel_integral
are one entry of their rows.  The time-derivative row
tree_heat_kernel_time_derivatives differentiates the alternating series, cut
at a certified absolute tail, and with the horocycle solution reads the
scalar building_block (the row takes every B'_m from one list of blocks per
t), so the heat-equation residual and verify's horocycle check also test the
log evaluator against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heatzeta.bessel import (
    _EXP_LIMIT,
    QuadratureError,
    _check_q,
    _check_time,
    _check_times,
    _check_tol,
    _grid_passes,
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


def tree_heat_kernels(q: int, t, radii, tol: float = 1e-12) -> list:
    """K(t, r) on the (q+1)-regular tree for every r in radii, by the positive Bessel
    series: a list of TreeHeatValue, or for a 1-D array t of times one such list per time.

    The recurrence B_{m-1} - q B_{m+1} = (m/t) B_m (DLMF 10.29.1) turns the paper's
    alternating series into K(t, r) = (1/t) sum_{j>=0} (r + 2j + 1) B_{r+2j+1}, so
    K_r = K_{r+2} + ((r+1)/t) B_{r+1}: within a parity K falls in r, and every value of
    parity p is a suffix sum of one sequence of positive terms, whose largest radius
    R_p has the least value and the least lead ((R_p+1)/t) B_{R_p+1}.  As the blocks
    are nonnegative, the recurrence gives (m/t) B_m <= B_{m-1}: each term past a cut
    is at most the block one order below it.  So one bessel.certified_truncation per
    parity, on the block lattice R_p, R_p + 2, ... with weight
    exp(min(700, ln t - ln(R_p + 1) - ln B_{R_p+1})), cuts every radius of that
    parity at one order M_p.  tail_bound is that search's bound on the tail over the
    lead, so relative to each value of a parity whose lead is above e^{-700}, and
    relative to e^{-700} below that.
    truncation_index counts the (M_p - r)/2 terms past the first.  The leads come from
    one pass of bessel._grid_passes to the largest R_p + 1, and the terms, as
    e^{ln B_m - ln t} m, from a second, each time's to its own largest M_p + 1 and
    zero past it, so a grid table is bitwise the table of its time alone; a grid makes
    more passes only where one would pass the evaluator's cap.  A suffix sum of n
    positive terms, summed from the smallest, is off by at most (n - 1) u relative,
    u = 2^-53, on top of the rounding of its log blocks, about |ln B| u each, which at
    t = 1e-305 reads 1.1e-13 on K_0.  Where B_1 is 0, at t = 0 and where 2/tau
    overflows (tau = 2 sqrt(q) t below about 1e-308), K is [r = 0], with J = 0 and
    no tail, as 1 - K_0 <= (q+1) t and K_r <= t^r are below float resolution.
    """
    _check_q(q)
    _check_tol(tol)
    times, grid = _check_times(t)
    radii = list(radii)
    if any(r < 0 for r in radii):
        raise ValueError("r must be >= 0")
    lasts = {p: max(r for r in radii if r % 2 == p) for p in {r % 2 for r in radii}}
    top = max(lasts.values(), default=0) + 1
    leads = [row for _, rows in _grid_passes(q, [top] * len(times), times) for row in rows]

    def search(x, row, last):  # weight 1 / ((R_p+1)/t) B_{R_p+1}, capped; t = 0 has no tail
        log_weight = math.log(x) - math.log(last + 1) - row[last + 1] if x else -math.inf
        return certified_truncation(q, x, tol, last + 2, 2, math.exp(min(_EXP_LIMIT, log_weight)))

    cuts = [{p: search(x, row, last) for p, last in lasts.items()} for x, row in zip(times, leads)]
    tops = [max((order + 1 for order, _ in cut.values()), default=1) for cut in cuts]
    tables = []
    for part, log_blocks in _grid_passes(q, tops, times):
        for x, blocks, cut in zip(times[part], log_blocks, cuts[part]):
            if blocks[1] == -math.inf:  # t = 0, or 2/tau overflows
                tables.append([TreeHeatValue(r, float(r == 0), 0, 0.0) for r in radii])
                continue
            # terms[m - 1] = (m/t) B_m, from B_m / t <= 1/m; a parity's sums end at its cut
            terms = np.exp(blocks[1:] - math.log(x)) * np.arange(1, len(blocks))
            sums = {p: np.cumsum(terms[order::-2])[::-1].tolist() for p, (order, _) in cut.items()}
            tables.append([TreeHeatValue(r, sums[r % 2][r // 2], (cut[r % 2][0] - r) // 2,
                                         cut[r % 2][1]) for r in radii])
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
    r's series on that lattice with that weight, at a certified absolute tail of
    1e-16, below the rounding of the O(1) values and derivatives at small t.
    The lattice r + 1, r + 3, ... starts at |r - 1|, and the search's tail test
    reads the order only and holds for good past the peak of the bound, so the cut
    is max(|r - 1|, m*_p), m*_p the end of one search per parity p from p.
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
    weight, parities = 2 * (q * q - 1), {(r + 1) % 2 for r in radii}
    ends = {p: certified_truncation(q, t, 1e-16, p + 2, 2, weight)[0] for p in parities}
    cuts = [max(abs(r - 1), ends[(r + 1) % 2]) for r in radii]
    top = max((max(r, order + 1) for r, order in zip(radii, cuts)), default=0)
    blocks = [building_block(q, m, t) for m in range(top + 2)]
    below = [q * blocks[1]] + blocks[:top]
    dots = [below[m] + q * blocks[m + 1] - (q + 1) * blocks[m] for m in range(top + 1)]
    return [
        dots[r] - (q - 1) * math.fsum(dots[r + 2 : order + 2 : 2]) for r, order in zip(radii, cuts)
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
