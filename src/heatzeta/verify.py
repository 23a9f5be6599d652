"""Named invariant checks tying the independent computation routes together.

Each check returns (name, worst_discrepancy, budget, passed); the CLI
`verify` command and the acceptance tests both drive this module, so a
green `verify` run means every cross-route identity holds at its stated
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from heatzeta import bessel, graphs, heat_graph, heat_tree, zeta

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


def check_bessel_agreement() -> CheckResult:
    """Series vs quadrature over a grid of orders and arguments."""
    worst = 0.0
    for order in range(21):
        for t in (0.01, 0.1, 1.0, 5.0, 20.0):
            series = bessel.bessel_i(order, t, 1e-15)
            quadrature = bessel.bessel_i_quadrature(order, t, 128)
            worst = max(worst, abs(series - quadrature) / max(1.0, abs(quadrature)))
    return CheckResult("bessel series vs quadrature", worst, 1e-9)


def check_bessel_bound_and_monotonicity() -> CheckResult:
    worst = 0.0
    for order in range(21):
        for t in (0.01, 0.1, 1.0, 5.0, 20.0):
            scaled = math.exp(-t) * bessel.bessel_i(order, t, 1e-15)
            bound = bessel.bessel_upper_bound(order, t)
            worst = max(worst, scaled - bound)
            nxt = bessel.bessel_i(order + 1, t, 1e-15)
            worst = max(worst, nxt - bessel.bessel_i(order, t, 1e-15))
    return CheckResult("bessel uniform bound and order monotonicity", worst, 0.0)


def check_tree_formula_agreement(qs: Iterable[int] = (2, 3, 4)) -> CheckResult:
    worst = 0.0
    for q in qs:
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            series = heat_tree.tree_heat_kernels(q, t, range(11), 1e-12)
            integrals = heat_tree.tree_heat_kernel_integrals(q, t, range(11), 1e-11)
            for value, integral in zip(series, integrals):
                worst = max(worst, abs(value.value - integral))
            # the classical r = 0 integral alone starts from fewer nodes than the row
            alone = heat_tree.tree_heat_kernel_integral(q, t, 0, 1e-11)
            worst = max(worst, abs(series[0].value - alone))
    return CheckResult("tree heat kernel series vs integral", worst, 1e-8)


def check_tree_heat_equation(qs: Iterable[int] = (2, 3, 4)) -> CheckResult:
    worst = 0.0
    for q in qs:
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            values = [value.value for value in heat_tree.tree_heat_kernels(q, t, range(13), 1e-13)]
            dots = [heat_tree.tree_heat_kernel_time_derivative(q, t, r, 1e-13) for r in range(12)]
            worst = max(worst, abs((q + 1) * values[0] - (q + 1) * values[1] + dots[0]))
            for r in range(1, 11):
                residual = (
                    (q + 1) * values[r] - q * values[r + 1] - values[r - 1] + dots[r]
                )
                worst = max(worst, abs(residual))
    return CheckResult("tree heat equation residual", worst, 1e-8)


def check_horocycle_transform(qs: Iterable[int] = (2, 3, 4)) -> CheckResult:
    """Tree kernel summed over the horocycle at height n = -3..3 vs horocycle_solution.

    As 0 <= K <= the building block, the sums at heights r and -r stop where
    bessel.certified_truncation puts the tail below 1e-11 for the larger lead's
    weight (q-1) q^{(m-r)/2-1} q^r on the lattice r + 2, r + 4, ...  Each
    K(t, m) enters with weight at most q^m and is computed to 1e-12 / q^top.
    """
    worst = 0.0
    for q in qs:
        for t in (0.5, 2.0, 5.0):
            for r in range(4):
                weight = (q - 1) * q ** (r / 2 - 1)
                top, _ = bessel.certified_truncation(q, t, 1e-11, r + 2, 2, weight, 0.5)
                orders = range(r, top + 1, 2)
                kernel = heat_tree.tree_heat_kernels(q, t, orders, 1e-12 / q**top)
                weights = [1] + [(q - 1) * q ** (i - 1) for i in range(1, len(orders))]
                transform = math.fsum(w * k.value for w, k in zip(weights, kernel))
                for n in {r, -r}:
                    expected = heat_tree.horocycle_solution(q, t, n)
                    worst = max(worst, abs(q ** max(-n, 0) * transform - expected))
    return CheckResult("horocyclic transform of the tree heat kernel", worst, 1e-9)


def check_tree_mass(q: int = 2) -> CheckResult:
    """Sum of K(t, r) over the spheres, against 1.

    As 0 <= K <= the building block, the radii past series_truncation_order,
    whose weight (q+1) q^{r-1} is the sphere size, hold less than 1e-10.
    """
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        radius = heat_graph.series_truncation_order(q, t, 1e-10)
        values = heat_tree.tree_heat_kernels(q, t, range(radius + 1), 1e-12)
        spheres = [1] + [(q + 1) * q ** (r - 1) for r in range(1, radius + 1)]
        worst = max(worst, abs(math.fsum(s * v.value for s, v in zip(spheres, values)) - 1.0))
    return CheckResult("tree heat kernel mass conservation", worst, 1e-6)


def check_counting_oracles(names: Iterable[str] = FINITE_BUILTINS, k_max: int = 10) -> CheckResult:
    """Recursion counts must equal brute-force enumeration, exactly."""
    worst = 0
    for name in names:
        g = graphs.builtin_graph(name)
        c_transfer = graphs.geodesic_counts(g, 0, k_max)
        c_adjacency = graphs.geodesic_counts_recursion(g, 0, k_max)
        n0 = graphs.closed_geodesics_at_vertex(g, 0, k_max)
        n_total = graphs.closed_geodesics_total(g, k_max)
        for k in range(k_max + 1):
            walks = graphs.enumerate_geodesics(g, 0, k)
            by_vertex = [0] * g.n_vertices
            for w in walks:
                end = g.terminus[w[-1]] if w else 0
                by_vertex[end] += 1
            for x in range(g.n_vertices):
                worst = max(worst, abs(c_transfer[k][x] - by_vertex[x]))
                worst = max(worst, abs(c_adjacency[k][x] - by_vertex[x]))
            worst = max(worst, abs(n0[k] - len(graphs.enumerate_closed_geodesics(g, 0, k))))
            if k >= 1:
                total = sum(
                    len(graphs.enumerate_closed_geodesics(g, v, k))
                    for v in range(g.n_vertices)
                )
                worst = max(worst, abs(n_total[k] - total))
        # Moebius consistency: sum_{d|m} d pi_d = N_m
        primes = graphs.prime_geodesic_counts(n_total, k_max)
        for m in range(1, k_max + 1):
            recomposed = sum(d * primes[d] for d in range(1, m + 1) if m % d == 0)
            worst = max(worst, abs(recomposed - n_total[m]))
        # transitivity scaling where applicable
        verdict, _ = graphs.check_vertex_transitive(g)
        if verdict:
            for k in range(1, k_max + 1):
                worst = max(worst, abs(n_total[k] - g.n_vertices * n0[k]))
    return CheckResult("counting recursions vs enumeration", float(worst), 0.0)


def check_three_way_heat(names: Iterable[str] = FINITE_BUILTINS) -> CheckResult:
    """Scalar series oracle vs spectral, batched row and ODE at every (x0, x, t)."""
    worst = 0.0
    for name in names:
        g = graphs.builtin_graph(name)
        for t in (0.1, 0.5, 1.0, 2.0):
            ode = heat_graph.heat_kernel_ode(g, t, 1e-11)
            for x0 in range(g.n_vertices):
                series_row = heat_graph.heat_kernel_series_row(g, x0, t, 1e-10)
                row = heat_graph.heat_kernel_row(g, x0, t, 1e-10)
                spectral = heat_graph.heat_kernel_spectral_row(g, x0, t)
                for x, series in enumerate(series_row):
                    worst = max(worst, abs(series - spectral[x]))
                    # the batched production route against the scalar oracle
                    worst = max(worst, abs(series - row[x]))
                    # ODE budget is 1e-6; rescale so one budget covers both
                    worst = max(worst, abs(series - ode[x0, x]) * 0.1)
    return CheckResult("heat kernel series vs spectral vs ODE", worst, 1e-7)


def check_diagonal_decomposition(names: Iterable[str] = ("k4", "petersen", "cube")) -> CheckResult:
    worst = 0.0
    for name in names:
        g = graphs.builtin_graph(name)
        for t in (0.5, 1.0):
            lhs = heat_graph.diagonal_tree_decomposition(g, 0, t, 1e-11)
            rhs = heat_graph.heat_kernel_spectral(g, 0, 0, t)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult("diagonal tree-plus-correction decomposition", worst, 1e-8)


def check_four_way_zeta(names: Iterable[str] = FINITE_BUILTINS, M: int = 12) -> CheckResult:
    worst = 0.0
    for name in names:
        g = graphs.builtin_graph(name)
        q = g.regularity()
        n_total = graphs.closed_geodesics_total(g, M)
        primes = graphs.prime_geodesic_counts(n_total, M)
        log_series = zeta.zeta_log_series_from_counts(n_total, M)
        euler = zeta.euler_product_series(primes, M)
        if euler != log_series.exp():
            worst = max(worst, 1.0)
        det_series = zeta.ihara_determinant_series(g, M)
        recovered = zeta.recover_counts(det_series)
        for m in range(1, M + 1):
            worst = max(worst, float(abs(recovered[m] - n_total[m])))
        # pointwise spectral zeta at the base vertex (per-vertex counts)
        verdict, _ = graphs.check_vertex_transitive(g)
        if verdict:
            n0 = graphs.closed_geodesics_at_vertex(g, 0, 40)
            series0 = zeta.zeta_log_series_from_counts(n0, 40)
            measure = zeta.atomic_measure(g, 0)
            for u in (0.02, 0.05, 0.1 / q):
                spectral_recip = zeta.zeta_spectral(measure, q, u)
                series_recip = math.exp(-series0.evaluate(u))
                worst = max(worst, abs(spectral_recip - series_recip))
    return CheckResult("four-way zeta agreement", worst, 1e-8)


def check_g_transform_building_blocks() -> CheckResult:
    worst = 0.0
    for q in (2, 3):
        sq = math.sqrt(q)
        for k in range(7):
            for factor in (0.1, 0.25):
                u = factor / sq
                result = zeta.g_transform_numeric(
                    lambda t, k=k, q=q: bessel.building_block(q, k, t),
                    q,
                    u,
                    tol=1e-11,
                    growth_rate=2.0 * sq,
                )
                worst = max(worst, abs(result.value - u ** (k - 1)))
    return CheckResult("G-transform of building blocks", worst, 1e-6)


def check_g_transform_diagonal(names: Iterable[str] = ("k4", "petersen")) -> CheckResult:
    """Transform of the diagonal heat kernel vs the zeta logarithmic derivative."""
    worst = 0.0
    for name in names:
        g = graphs.builtin_graph(name)
        q = g.regularity()
        n0 = graphs.closed_geodesics_at_vertex(g, 0, 60)
        for u in (0.02, 0.05):
            transform = zeta.g_transform_numeric(
                lambda t, g=g: heat_graph.heat_kernel_spectral(g, 0, 0, t), q, u, tol=1e-11
            )
            expected = (
                1.0 / u
                - (q - 1) * u / (1.0 - u * u)
                + math.fsum(n0[m] * u ** (m - 1) for m in range(1, 61))
            )
            worst = max(worst, abs(transform.value - expected))
    return CheckResult("G-transform of diagonal heat kernel", worst, 1e-6)


def check_two_variable_zeta(names: Iterable[str] = ("k4", "petersen", "k33")) -> CheckResult:
    """Off-diagonal two-variable zeta, every x != 0: exact log-series vs spectral.

    As |b_m(x)| <= (q+1) q^{m-1}, the series tail past M = 60 is below (qu)^60.
    """
    worst = 0.0
    for name in names:
        g = graphs.builtin_graph(name)
        for x in range(1, g.n_vertices):
            series, spectral = zeta.two_variable_zeta(g, 0, x, 60)
            for u in (0.02, 0.05):
                worst = max(worst, abs(series.evaluate(u) - spectral(u)))
    return CheckResult("two-variable zeta series vs spectral", worst, 1e-8)


def check_tree_zeta_identity(qs: Iterable[int] = (2, 3)) -> CheckResult:
    worst = 0.0
    for q in qs:
        measure = zeta.kesten_tree_measure(q)
        for u in (0.05, 0.1, 0.2):
            worst = max(worst, abs(zeta.zeta_spectral(measure, q, u) - 1.0))
        walks = zeta.tree_walk_counts(q, 12)
        for k in range(13):
            moment = measure.integrate(lambda lam, k=k: (q + 1.0 - lam) ** k)
            worst = max(
                worst, abs(moment - walks[k]) / max(1.0, abs(walks[k])) * 1e-1
            )
    return CheckResult("tree zeta identity and spectral moments", worst, 1e-7)


def check_laplace_calibration() -> CheckResult:
    worst = 0.0
    for n in range(7):
        for s in (0.5, 1.0, 2.0):
            numeric, closed = zeta.laplace_identity_check(n, s)
            worst = max(worst, abs(numeric - closed))
    return CheckResult("Laplace transform calibration", worst, 1e-9)


def run_tree_checks(qs: Iterable[int] = (2, 3, 4)) -> list[CheckResult]:
    return [
        check_bessel_agreement(),
        check_bessel_bound_and_monotonicity(),
        check_tree_formula_agreement(qs),
        check_tree_heat_equation(qs),
        check_tree_mass(),
        check_g_transform_building_blocks(),
        check_tree_zeta_identity([q for q in qs if q in (2, 3)] or (2,)),
        check_laplace_calibration(),
        check_horocycle_transform(qs),
    ]


def run_graph_checks(names: Iterable[str]) -> list[CheckResult]:
    names = tuple(names)
    diag_names = tuple(n for n in names if n in ("k4", "petersen", "cube"))
    gdiag_names = tuple(n for n in names if n in ("k4", "petersen"))
    zeta2_names = tuple(n for n in names if n in ("k4", "petersen", "k33"))
    results = [
        check_counting_oracles(names),
        check_three_way_heat(names),
        check_four_way_zeta(names),
    ]
    if diag_names:
        results.append(check_diagonal_decomposition(diag_names))
    if gdiag_names:
        results.append(check_g_transform_diagonal(gdiag_names))
    if zeta2_names:
        results.append(check_two_variable_zeta(zeta2_names))
    return results


def run_all_checks() -> list[CheckResult]:
    return run_tree_checks() + run_graph_checks(FINITE_BUILTINS)
