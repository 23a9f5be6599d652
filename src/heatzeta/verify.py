"""Named invariant checks tying the independent computation routes together.

Each check returns (name, worst_discrepancy, budget, passed); the CLI
`verify` command and the acceptance tests both drive this module, so a
green `verify` run means every cross-route identity holds at its stated
tolerance.  A NaN discrepancy reads NaN and fails (_worst); each graph
check takes one graph, which run_graph_checks builds.  Every Bessel series
a check sums is cut at tol 1e-16, below float resolution, so a worst value
reads the routes' rounding rather than the certified tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from heatzeta import bessel, graphs, heat_graph, heat_tree, zeta
from heatzeta.graphs import Graph

__all__ = ["CheckResult", "FINITE_BUILTINS", "run_all_checks", "run_graph_checks", "run_tree_checks"]

FINITE_BUILTINS = ("k4", "c5", "c8", "cube", "k33", "petersen")


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.budget


def _worst(*values: float) -> float:
    """The largest of values, or NaN where any is NaN: max alone keeps whichever
    of a NaN and a number comes first, so a NaN discrepancy could pass."""
    return math.nan if any(value != value for value in values) else max(values)


def bessel_grid_values() -> dict[float, list[float]]:
    """I_order(t), orders 0..21, on the t grid of both Bessel checks, each read
    once: their series side."""
    return {
        t: [bessel.bessel_i(order, t) for order in range(22)]
        for t in (0.01, 0.1, 1.0, 5.0, 20.0)
    }


def check_bessel_agreement(values: dict[float, list[float]]) -> CheckResult:
    """Series vs quadrature over a grid of orders and arguments: one quadrature
    row of orders 0..20 per argument against the series values of
    bessel_grid_values."""
    worst = 0.0
    for t, series in values.items():
        quadrature = bessel.bessel_i_quadrature(20, t)
        for order, integral in enumerate(quadrature):
            worst = _worst(worst, abs(series[order] - integral) / max(1.0, abs(integral)))
    return CheckResult("bessel series vs quadrature", worst, 1e-9)


def check_bessel_bound_and_monotonicity(values: dict[float, list[float]]) -> CheckResult:
    """e^{-t} I_order(t) against the bound certified_truncation reads, the lesser of
    the uniform and the generating-function bound: the block bound at q = 1 and
    t/2, where tau = t and both prefactors are 1.
    values is bessel_grid_values(): I_order(t), orders 0..21, per t."""
    worst = 0.0
    for t, row in values.items():
        for order in range(21):
            scaled = math.exp(-t) * row[order]
            bound = math.exp(bessel.log_block_bound(1, order, t / 2))
            worst = _worst(worst, scaled - bound, row[order + 1] - row[order])
    return CheckResult("bessel uniform bound and order monotonicity", worst, 0.0)


def _decay_times(q: int, times: tuple[float, ...]) -> tuple[float, list[float]]:
    """(scale, [c / scale for c in times]), scale = max(1, (sqrt(q) - 1)^2): the
    times c in units of the tree kernel's decay time, as K carries the factor
    e^{-(sqrt(q)-1)^2 t}; at q <= 4 the scale is 1 and the times are c."""
    scale = max(1.0, (math.sqrt(q) - 1.0) ** 2)
    return scale, [c / scale for c in times]


def check_tree_formula_agreement(qs: Iterable[int]) -> CheckResult:
    """Series rows, one grid per q, against the integral rows and the classical r = 0 integral."""
    worst = 0.0
    for q in qs:
        times = _decay_times(q, (0.1, 0.5, 1.0, 2.0, 5.0))[1]
        for t, series in zip(times, heat_tree.tree_heat_kernels(q, times, range(11), 1e-16)):
            integrals = heat_tree.tree_heat_kernel_integrals(q, t, range(11), 1e-11)
            for value, integral in zip(series, integrals):
                worst = _worst(worst, abs(value.value - integral))
            # the classical r = 0 integral alone starts from fewer nodes than the row
            alone = heat_tree.tree_heat_kernel_integral(q, t, 0, 1e-11)
            worst = _worst(worst, abs(series[0].value - alone))
    return CheckResult("tree heat kernel series vs integral", worst, 1e-8)


def check_tree_heat_equation(qs: Iterable[int]) -> CheckResult:
    """The residual of dK/dt = -LK at the times of _decay_times, divided by their
    scale: the residual of dK/ds = -LK / scale in s = scale t.  One series grid per q."""
    worst = 0.0
    for q in qs:
        scale, times = _decay_times(q, (0.1, 0.5, 1.0, 2.0, 5.0))
        for t, row in zip(times, heat_tree.tree_heat_kernels(q, times, range(13), 1e-16)):
            values = [value.value for value in row]
            dots = heat_tree.tree_heat_kernel_time_derivatives(q, t, range(12))
            worst = _worst(worst, abs((q + 1) * values[0] - (q + 1) * values[1] + dots[0]) / scale)
            for r in range(1, 11):
                residual = (
                    (q + 1) * values[r] - q * values[r + 1] - values[r - 1] + dots[r]
                )
                worst = _worst(worst, abs(residual) / scale)
    return CheckResult("tree heat equation residual", worst, 1e-8)


def check_horocycle_transform(qs: Iterable[int]) -> CheckResult:
    """Tree kernel summed over the horocycle at height n = -3..3 vs horocycle_solution,
    at the times of _decay_times.

    As 0 <= K <= the building block, the sums at heights r and -r stop where
    bessel.certified_truncation puts the tail below 1e-16 for the larger lead's
    weight (q-1) q^{(m-r)/2-1} q^r on the lattice r + 2, r + 4, ...  Every r
    reads one table of radii 0..max top of the four, computed to 1e-16: each
    value's tail bound is relative, so a sum of values with positive weights is
    certified relative to itself too.
    """
    worst = 0.0
    for q in qs:
        for t in _decay_times(q, (0.5, 2.0, 5.0))[1]:
            tops = []
            for r in range(4):
                weight = (q - 1) * q ** (r / 2 - 1)
                tops.append(bessel.certified_truncation(q, t, 1e-16, r + 2, 2, weight, 0.5)[0])
            table = heat_tree.tree_heat_kernels(q, t, range(max(tops) + 1), 1e-16)
            for r, top in enumerate(tops):
                kernel = table[r : top + 1 : 2]
                weights = [1] + [(q - 1) * q ** (i - 1) for i in range(1, len(kernel))]
                transform = math.fsum(w * k.value for w, k in zip(weights, kernel))
                for n in {r, -r}:
                    expected = heat_tree.horocycle_solution(q, t, n)
                    worst = _worst(worst, abs(q ** max(-n, 0) * transform - expected))
    return CheckResult("horocyclic transform of the tree heat kernel", worst, 1e-9)


def check_tree_mass() -> CheckResult:
    """Sum of K(t, r) over the spheres of the 3-regular tree, against 1.

    As 0 <= K <= the building block, the radii past series_truncation_order,
    whose weight (q+1) q^{r-1} is the sphere size, hold less than 1e-16.
    """
    q = 2
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        radius = heat_graph.series_truncation_order(q, t, 1e-16)
        values = heat_tree.tree_heat_kernels(q, t, range(radius + 1), 1e-16)
        spheres = [1] + [(q + 1) * q ** (r - 1) for r in range(1, radius + 1)]
        worst = _worst(worst, abs(math.fsum(s * v.value for s, v in zip(spheres, values)) - 1.0))
    return CheckResult("tree heat kernel mass conservation", worst, 1e-6)


def check_counting_oracles(g: Graph) -> CheckResult:
    """Recursion counts must equal brute-force enumeration, exactly, to length 10.

    Every geodesic shorter than 10 is a prefix of one of length 10, so one
    depth-10 search per vertex (graphs.enumerate_geodesic_counts) visits
    every geodesic of every length: its ends at each (k, x) from vertex 0
    check both recursions, and its closed counts check N_k^0 (vertex 0)
    and N_k (summed over vertices).  The explicit enumeration is the
    census's own oracle, once at length 10 from vertex 0.
    """
    k_max = 10
    worst = 0
    c_transfer = graphs.geodesic_counts(g, 0, k_max)
    c_adjacency = [c.tolist() for c in graphs._geodesic_matrices(g, k_max, 0)]
    n0 = graphs.closed_geodesics_at_vertex(g, 0, k_max)
    n_total = graphs.closed_geodesics_total(g, k_max)
    censuses = [graphs.enumerate_geodesic_counts(g, v, k_max) for v in range(g.n_vertices)]
    ends, closed0 = censuses[0]
    for k in range(k_max + 1):
        for x in range(g.n_vertices):
            worst = _worst(worst, *(abs(c[k][x] - ends[k][x]) for c in (c_transfer, c_adjacency)))
        # at k = 0 each vertex has the empty geodesic: N_0^0 = 1, N_0 = n
        closed_total = sum(closed[k] for _, closed in censuses)
        worst = _worst(worst, abs(n0[k] - closed0[k]), abs(n_total[k] - closed_total))
    walks = graphs.enumerate_geodesics(g, 0, k_max)
    by_vertex = [0] * g.n_vertices
    for w in walks:
        by_vertex[g.terminus[w[-1]]] += 1
    for x in range(g.n_vertices):
        worst = _worst(worst, abs(ends[k_max][x] - by_vertex[x]))
    closed_walks = graphs.enumerate_closed_geodesics(g, 0, k_max, walks)
    worst = _worst(worst, abs(closed0[k_max] - len(closed_walks)))
    # Moebius consistency: sum_{d|m} d pi_d = N_m
    primes = graphs.prime_geodesic_counts(n_total, k_max)
    for m in range(1, k_max + 1):
        recomposed = sum(d * primes[d] for d in range(1, m + 1) if m % d == 0)
        worst = _worst(worst, abs(recomposed - n_total[m]))
    # transitivity scaling where applicable
    verdict, _ = graphs.check_vertex_transitive(g)
    if verdict:
        for k in range(1, k_max + 1):
            worst = _worst(worst, abs(n_total[k] - g.n_vertices * n0[k]))
    return CheckResult("counting recursions vs enumeration", float(worst), 0.0)


def check_three_way_heat(g: Graph) -> CheckResult:
    """Scalar series oracle vs spectral, batched rows and ODE at every (x0, x, t).

    One production pass gives every (t, x0) row; one oracle call, its exact
    b_m built once, every (t, x0) row too.
    """
    worst = 0.0
    times = (0.1, 0.5, 1.0, 2.0)
    rows = heat_graph.heat_kernel_rows(g, None, times, 1e-16)  # [i, x, x0]
    oracle = np.array(heat_graph.heat_kernel_series_row(g, None, times, 1e-16))  # [i, x, x0]
    for t, row, series in zip(times, rows, oracle):
        spectral = [heat_graph.heat_kernel_spectral_row(g, x0, t) for x0 in range(g.n_vertices)]
        # the batched production route against the scalar oracle too
        for other in (np.transpose(spectral), row, heat_graph.heat_kernel_ode(g, t).T):
            worst = _worst(worst, float(np.max(np.abs(series - other))))
    return CheckResult("heat kernel series vs spectral vs ODE", worst, 1e-7)


def check_diagonal_decomposition(g: Graph) -> CheckResult:
    """Tree-plus-correction diagonal vs the scalar series oracle and the spectral
    value at t = 0.5 and 1: one grid call of each series route, its counting and
    its b_m run once."""
    times = (0.5, 1.0)
    lhs = heat_graph.diagonal_tree_decomposition(g, 0, times, 1e-16)
    series = heat_graph.heat_kernel_series(g, 0, 0, times, 1e-16)
    worst = 0.0
    for t, value, oracle in zip(times, lhs, series):
        spectral = heat_graph.heat_kernel_spectral(g, 0, 0, t)
        worst = _worst(worst, abs(value - oracle), abs(value - spectral))
    return CheckResult("diagonal tree-plus-correction decomposition", worst, 1e-8)


def check_four_way_zeta(g: Graph) -> CheckResult:
    M = 12
    q = g.regularity()
    n_total = graphs.closed_geodesics_total(g, M)
    primes = graphs.prime_geodesic_counts(n_total, M)
    log_series = zeta.zeta_log_series_from_counts(n_total, M)
    worst = float(zeta.euler_product_series(primes, M) != log_series.exp())  # exact: 0 or 1
    det_series = zeta.ihara_determinant_series(g, M)
    recovered = zeta.recover_counts(det_series)
    for m in range(1, M + 1):
        worst = _worst(worst, float(abs(recovered[m] - n_total[m])))
    # pointwise spectral zeta at the base vertex (per-vertex counts)
    verdict, _ = graphs.check_vertex_transitive(g)
    if verdict:
        n0 = graphs.closed_geodesics_at_vertex(g, 0, 40)
        series0 = zeta.zeta_log_series_from_counts(n0, 40)
        measure = zeta.atomic_measure(g, 0, 0)
        for u in (0.02, 0.05, 0.1 / q):
            spectral_recip = zeta.zeta_spectral(measure, q, u)
            series_recip = math.exp(-series0.evaluate(u))
            worst = _worst(worst, abs(spectral_recip - series_recip))
    return CheckResult("four-way zeta agreement", worst, 1e-8)


def check_g_transform_building_blocks() -> CheckResult:
    """G sends building block k to u^{k-1}, relative to max(1, u^{k-1}): one
    transform per u of the q = 1 row k = 0..6, the blocks of each quadrature
    level's nodes from one bessel.log_building_blocks call, exponentiated.  So
    the paper's identity checks the production evaluator itself, against the
    quadrature and the closed form.

    q = 1 serves every q: t -> t / sqrt(q) gives G_q B_k(u) =
    q^{(1-k)/2} G_1 B_k(sqrt(q) u); direct transforms at q = 2, 3, 4, 7, 50
    and 1,556, cut at the blocks' own growth rate 2 sqrt(q), met it to
    3.3e-15 relative.  So u = 0.1 and 0.25 here are the images of
    0.1 / sqrt(q) and 0.25 / sqrt(q) at every q.

    The budget 1e-9 sits above the quadrature's guard max(1e-11, 1e-10 |value|),
    a relative 1e-10 here.  At q = 1 the block is e^{-2t} I_k(2t), so
    G = (u^{-2} - 1) / 2 times L_k = int_0^inf e^{-st} e^{-t} I_k(t) dt,
    s = (u + 1/u) / 2 - 1, and G = u^{k-1} is the Laplace identity
    L_k = u^k / sqrt(s^2 + 2s), checked at u = s + 1 - sqrt(s^2 + 2s) for
    s = 0.5, 1 and 2.  There a relative error w in G is an error in L_k of
    w max(1, u^{k-1}) 2 / (u^{-2} - 1): w / 2.9 or less for k >= 1, as
    (u^{-2} - 1) / 2 is at least 2.9, and w L_0 for k = 0, where
    L_0 = 1 / sqrt(s^2 + 2s) < 1.  So the budget holds each L_k to 1e-9.
    """
    points = [s + 1.0 - math.sqrt(s * s + 2.0 * s) for s in (0.5, 1.0, 2.0)] + [0.1, 0.25]
    orders = np.arange(7)
    worst = 0.0
    for u in points:
        transform = zeta.g_transform_numeric(
            lambda t: np.exp(bessel.log_building_blocks(1, 6, t)), 1, u, rows=7
        )
        expected = u ** (orders - 1.0)
        errors = np.abs(transform - expected) / np.maximum(1.0, expected)
        worst = _worst(worst, float(np.max(errors)))
    return CheckResult("G-transform of building blocks", worst, 1e-9)


def check_g_transform_diagonal(g: Graph) -> CheckResult:
    """Transform of the diagonal heat kernel vs the zeta logarithmic derivative: each
    quadrature level's nodes from one heat_kernel_spectral product."""
    worst = 0.0
    q = g.regularity()
    n0 = graphs.closed_geodesics_at_vertex(g, 0, 60)
    for u in (0.02, 0.05):
        (transform,) = zeta.g_transform_numeric(
            lambda t: heat_graph.heat_kernel_spectral(g, 0, 0, t), q, u
        )
        expected = (
            1.0 / u
            - (q - 1) * u / (1.0 - u * u)
            + math.fsum(n0[m] * u ** (m - 1) for m in range(1, 61))
        )
        worst = _worst(worst, abs(transform - expected))
    return CheckResult("G-transform of diagonal heat kernel", worst, 1e-6)


def check_two_variable_zeta(g: Graph) -> CheckResult:
    """Off-diagonal two-variable zeta at every x != 0, one run: exact log-series vs spectral.

    As |b_m(x)| <= (q+1) q^{m-1}, the series tail past M = 60 is below (qu)^60.
    """
    worst = 0.0
    for series, spectral in zeta.two_variable_zeta(g, 0, 60).values():
        for u in (0.02, 0.05):
            worst = _worst(worst, abs(series.evaluate(u) - spectral(u)))
    return CheckResult("two-variable zeta series vs spectral", worst, 1e-8)


def check_tree_zeta_identity(qs: Iterable[int]) -> CheckResult:
    worst = 0.0
    for q in qs:
        measure = zeta.kesten_tree_measure(q)
        for u in (0.05, 0.1, 0.2):
            worst = _worst(worst, abs(zeta.zeta_spectral(measure, q, u) - 1.0))
        walks = zeta.tree_walk_counts(q, 12)
        for k in range(13):
            moment = measure.integrate(lambda lam, k=k: (q + 1.0 - lam) ** k)
            worst = _worst(worst, abs(moment - walks[k]) / max(1.0, abs(walks[k])))
    return CheckResult("tree zeta identity and spectral moments", worst, 1e-7)


def run_tree_checks(qs: Iterable[int] = (2, 3, 4)) -> list[CheckResult]:
    """The tree checks at each q of qs, but the G-transform of building blocks
    at q = 1 alone, which by its scaling identity stands for every q, the mass
    check at q = 2 alone, and the tree zeta identity at the q <= 3 of qs only,
    or at q = 2 where qs has none: from q = 4 on, TreeDensity.integrate refuses
    the 11th spectral moment, whose rounding term (2.84e-9 at q = 4, 8.77e-9 at
    q = 5) exceeds its guard 1e-9.  So verify --graph tree --q 7 reports the
    G-transform line from q = 1 and the zeta line from q = 2."""
    bessel_values = bessel_grid_values()
    return [
        check_bessel_agreement(bessel_values),
        check_bessel_bound_and_monotonicity(bessel_values),
        check_tree_formula_agreement(qs),
        check_tree_heat_equation(qs),
        check_tree_mass(),
        check_g_transform_building_blocks(),
        check_tree_zeta_identity([q for q in qs if q <= 3] or (2,)),
        check_horocycle_transform(qs),
    ]


# each graph check in report order, and the builtins it runs on (None: every graph)
_GRAPH_CHECKS = (
    (check_counting_oracles, None),
    (check_three_way_heat, None),
    (check_four_way_zeta, None),
    (check_diagonal_decomposition, ("k4", "petersen", "cube")),
    (check_g_transform_diagonal, ("k4", "petersen")),
    (check_two_variable_zeta, ("k4", "petersen", "k33")),
)


def run_graph_checks(names: Iterable[str]) -> list[CheckResult]:
    """Each check of _GRAPH_CHECKS that covers a graph of names, in that order.

    One graph is built at a time and every check that covers it runs on it,
    so heat_graph.spectral_data's one-graph cache serves them all; a check
    reports the _worst of its values over the graphs it ran on.
    """
    runs: dict = {check: [] for check, _ in _GRAPH_CHECKS}
    for name in names:
        g = graphs.builtin_graph(name)
        for check, builtins in _GRAPH_CHECKS:
            if builtins is None or name in builtins:
                runs[check].append(check(g))
    return [replace(rs[0], worst=_worst(*(r.worst for r in rs))) for rs in runs.values() if rs]


def run_all_checks() -> list[CheckResult]:
    return run_tree_checks() + run_graph_checks(FINITE_BUILTINS)
