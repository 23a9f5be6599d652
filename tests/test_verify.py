import dataclasses
import math

import numpy as np
import pytest

from heatzeta import bessel, graphs, heat_graph, heat_tree, verify, zeta

K4, PETERSEN = graphs.builtin_graph("k4"), graphs.builtin_graph("petersen")

ROUTES = ["heat_kernel_rows", "heat_kernel_spectral_row", "heat_kernel_ode", "heat_kernel_series_row"]


@pytest.mark.parametrize(
    "route, shift",
    [pytest.param(route, 1e-5, id=route) for route in ROUTES]
    # five times the 1e-7 budget: the ODE route is compared unscaled
    + [pytest.param("heat_kernel_ode", 5e-7, id="heat_kernel_ode-5e-07")],
)
def test_three_way_heat_catches_a_shifted_route(monkeypatch, route, shift):
    assert verify.check_three_way_heat(K4).passed
    original = getattr(heat_graph, route)
    monkeypatch.setattr(
        heat_graph, route, lambda *args, **kwargs: np.asarray(original(*args, **kwargs)) + shift
    )
    assert not verify.check_three_way_heat(K4).passed


def test_three_way_heat_makes_one_oracle_call_per_graph(monkeypatch):
    # the scalar oracle takes the check's four times at once and builds b once
    calls, runs = [], []
    series_row, b_coefficients = heat_graph.heat_kernel_series_row, heat_graph.b_coefficients
    monkeypatch.setattr(
        heat_graph, "heat_kernel_series_row", lambda *args: calls.append(args[2]) or series_row(*args)
    )
    monkeypatch.setattr(
        heat_graph, "b_coefficients", lambda *args: runs.append(args[1:]) or b_coefficients(*args)
    )
    assert verify.check_three_way_heat(PETERSEN).passed
    assert calls == [(0.1, 0.5, 1.0, 2.0)]
    assert runs == [(None, heat_graph.series_truncation_order(2, 2.0, 1e-16))]


def test_horocycle_check_catches_a_shifted_solution(monkeypatch):
    assert verify.check_horocycle_transform((2,)).passed
    original = heat_tree.horocycle_solution
    monkeypatch.setattr(heat_tree, "horocycle_solution", lambda *args: original(*args) + 1e-5)
    assert not verify.check_horocycle_transform((2,)).passed


@pytest.mark.parametrize("q", [2, 7, 10**6])
def test_horocycle_check_reads_one_table_per_time(monkeypatch, q):
    # the four heights' sums read radii 0..top_max of one table, at 1e-16: each value's
    # tail is relative, so the positive weights q^m need no tighter tol
    calls = []
    original = heat_tree.tree_heat_kernels
    monkeypatch.setattr(
        heat_tree, "tree_heat_kernels", lambda *args: calls.append(args) or original(*args)
    )
    assert verify.check_horocycle_transform((q,)).passed
    assert len(calls) == 3
    for _, t, radii, tol in calls:
        assert radii == range(radii.stop) and tol == 1e-16


def test_diagonal_decomposition_runs_counting_and_b_once(monkeypatch):
    # both times from one counting run and one b run, each to the larger order
    counts, runs = [], []
    at_vertex, b_coefficients = heat_graph.closed_geodesics_at_vertex, heat_graph.b_coefficients
    monkeypatch.setattr(
        heat_graph, "closed_geodesics_at_vertex",
        lambda *args: counts.append(args[1:]) or at_vertex(*args),
    )
    monkeypatch.setattr(
        heat_graph, "b_coefficients", lambda *args: runs.append(args[1:]) or b_coefficients(*args)
    )
    assert verify.check_diagonal_decomposition(PETERSEN).passed
    M = heat_graph.series_truncation_order(2, 1.0, 1e-16)
    assert (counts, runs) == ([(0, M)], [(0, M)])


def test_tree_zeta_check_reads_q_2_or_3(monkeypatch):
    # run_tree_checks' rule, the q <= 3 of qs or else q = 2, and its reason: from
    # q = 4 on the 11th spectral moment's rounding term exceeds TreeDensity.integrate's guard
    with pytest.raises(bessel.QuadratureError, match="rounding error 2.84e-09 exceeds the guard 1e-09"):
        verify.check_tree_zeta_identity((4,))
    seen = []

    def recorded(qs):
        seen.append(list(qs))
        return verify.CheckResult("tree zeta identity and spectral moments", 0.0, 1e-7)

    monkeypatch.setattr(verify, "check_tree_zeta_identity", recorded)
    for qs in ((1,), (2,), (3,), (4,), (7,), (2, 3, 4)):
        verify.run_tree_checks(qs)
    assert seen == [[1], [2], [3], [2], [2], [2, 3]]


def test_two_variable_zeta_check_catches_a_shifted_spectral_side(monkeypatch):
    assert verify.check_two_variable_zeta(K4).passed
    original = zeta.two_variable_zeta

    def shifted(*args):
        return {
            x: (series, lambda u, spectral=spectral: spectral(u) + 1e-5)
            for x, (series, spectral) in original(*args).items()
        }

    monkeypatch.setattr(zeta, "two_variable_zeta", shifted)
    assert not verify.check_two_variable_zeta(K4).passed


def test_tree_formula_check_catches_a_shifted_integral_row(monkeypatch):
    assert verify.check_tree_formula_agreement((2,)).passed
    original = heat_tree.tree_heat_kernel_integrals
    monkeypatch.setattr(
        heat_tree, "tree_heat_kernel_integrals", lambda *args: original(*args) + 1e-5
    )
    assert not verify.check_tree_formula_agreement((2,)).passed


def test_laplace_calibration_catches_a_scaled_bessel_factor(monkeypatch):
    # the G-transform check's rows are all q = 1: a Laplace calibration;
    # I_0 alone scaled by 1 + 1e-6 fails it
    assert verify.check_g_transform_building_blocks().passed
    original = bessel.log_building_blocks
    monkeypatch.setattr(
        bessel,
        "log_building_blocks",
        lambda q, M, t: original(q, M, t) + np.where(np.arange(M + 1) == 0, math.log1p(1e-6), 0.0),
    )
    assert not verify.check_g_transform_building_blocks().passed


def test_g_transform_of_blocks_catches_a_shifted_block(monkeypatch):
    # the check integrates the production evaluator: 1e-9 in every ln B fails it
    assert verify.check_g_transform_building_blocks().passed
    original = bessel.log_building_blocks
    monkeypatch.setattr(bessel, "log_building_blocks", lambda q, M, t: original(q, M, t) + 1e-9)
    assert not verify.check_g_transform_building_blocks().passed


def test_a_shifted_block_evaluator_reaches_every_route(monkeypatch):
    # the tree and graph routes read their blocks through bessel._grid_passes, which
    # calls the evaluator at call time: 1e-7 in every ln B fails the checks built on them
    checks = [
        lambda: verify.check_tree_formula_agreement((2,)),
        lambda: verify.check_tree_heat_equation((2,)),
        lambda: verify.check_horocycle_transform((2,)),
        lambda: verify.check_diagonal_decomposition(K4),
    ]
    assert all(check().passed for check in checks)
    original = bessel.log_building_blocks
    monkeypatch.setattr(bessel, "log_building_blocks", lambda q, M, t: original(q, M, t) + 1e-7)
    assert not any(check().passed for check in checks)


def test_diagonal_decomposition_catches_a_shifted_series_row(monkeypatch):
    # the Bessel-series diagonal, the paper's side of the identity, is checked on its own
    assert verify.check_diagonal_decomposition(K4).passed
    original = heat_graph.heat_kernel_series_row
    monkeypatch.setattr(
        heat_graph, "heat_kernel_series_row", lambda *args: np.asarray(original(*args)) + 1e-7
    )
    assert not verify.check_diagonal_decomposition(K4).passed


@pytest.mark.parametrize("q", [2, 7, 50, 300, 1556, 2000, 10**6, 10**9])
def test_tree_checks_catch_a_scaled_series_at_every_q(monkeypatch, q):
    # the checks run at times in units of the decay time 1 / (sqrt(q) - 1)^2,
    # so a relative 1e-7 shows at every q, not only where K has not underflowed
    checks = (
        verify.check_tree_formula_agreement,
        verify.check_tree_heat_equation,
        verify.check_horocycle_transform,
    )
    assert all(check((q,)).passed for check in checks)
    original = heat_tree.tree_heat_kernels

    def scaled(q, t, *args):  # a list per time where t is a grid
        rows = original(q, t, *args) if np.ndim(t) else [original(q, t, *args)]
        rows = [[dataclasses.replace(k, value=k.value * (1.0 + 1e-7)) for k in row] for row in rows]
        return rows if np.ndim(t) else rows[0]

    monkeypatch.setattr(heat_tree, "tree_heat_kernels", scaled)
    assert not any(check((q,)).passed for check in checks)


def test_tree_heat_equation_catches_a_shifted_derivative_row(monkeypatch):
    assert verify.check_tree_heat_equation((2,)).passed
    original = heat_tree.tree_heat_kernel_time_derivatives
    monkeypatch.setattr(
        heat_tree,
        "tree_heat_kernel_time_derivatives",
        lambda *args: [dot + 1e-7 for dot in original(*args)],
    )
    assert not verify.check_tree_heat_equation((2,)).passed


@pytest.mark.parametrize(
    "checks, module, integrand, transforms, ceiling",
    [
        # one integrand row per node, shared by every order of the check:
        # five transforms at q = 1
        pytest.param(
            [verify.check_g_transform_building_blocks], bessel,
            "log_building_blocks", slice(None), 315, id="g_transform_building_blocks",
        ),
        # the first three transforms alone, at the Laplace calibration's points:
        # the 315 above would not catch these growing while the other two shrank
        pytest.param(
            [verify.check_g_transform_building_blocks], bessel,
            "log_building_blocks", slice(0, 3), 189, id="laplace_calibration",
        ),
        pytest.param(
            [lambda g=g: verify.check_g_transform_diagonal(g) for g in (K4, PETERSEN)],
            heat_graph, "heat_kernel_spectral", slice(None), 252,
            id="g_transform_diagonal",
        ),
    ],
)
def test_half_line_checks_evaluate_few_nodes(
    monkeypatch, checks, module, integrand, transforms, ceiling
):
    # the integrand's only times are the quadrature nodes, a deterministic count
    calls = []
    original = getattr(module, integrand)

    def counted(*args):
        calls.extend(np.ravel(args[-1]))
        return original(*args)

    # nodes per transform, in the order the checks run them
    nodes = []
    transform = zeta.g_transform_numeric

    def counted_transform(*args, **kwargs):
        start = len(calls)
        result = transform(*args, **kwargs)
        nodes.append(len(calls) - start)
        return result

    monkeypatch.setattr(module, integrand, counted)
    monkeypatch.setattr(zeta, "g_transform_numeric", counted_transform)
    assert all(check().passed for check in checks)
    assert sum(nodes) == len(calls)
    assert 0 < sum(nodes[transforms]) <= ceiling


@pytest.mark.parametrize(
    "checks, module, integrand",
    [
        pytest.param([verify.check_g_transform_building_blocks], bessel, "log_building_blocks",
                     id="g_transform_building_blocks"),
        pytest.param([lambda g=g: verify.check_g_transform_diagonal(g) for g in (K4, PETERSEN)],
                     heat_graph, "heat_kernel_spectral", id="g_transform_diagonal"),
    ],
)
def test_half_line_checks_make_one_call_per_level(monkeypatch, checks, module, integrand):
    # the trapezoid rule starts from 7 nodes and adds 8, 16, 32, ...: one call each
    sizes = []
    original = getattr(module, integrand)
    monkeypatch.setattr(
        module, integrand, lambda *args: sizes.append(np.size(args[-1])) or original(*args)
    )
    per_transform = []
    transform = zeta.g_transform_numeric

    def counted_transform(*args, **kwargs):
        start = len(sizes)
        result = transform(*args, **kwargs)
        per_transform.append(sizes[start:])
        return result

    monkeypatch.setattr(zeta, "g_transform_numeric", counted_transform)
    assert all(check().passed for check in checks)
    assert len(per_transform) in (5, 4)
    for levels in per_transform:
        assert levels == [7] + [8 << i for i in range(len(levels) - 1)]


def test_tree_checks_run_few_power_series(monkeypatch):
    # each I_order(t) read once per t, shared by both Bessel checks; the
    # half-line nodes read log_building_blocks, which runs no power series
    runs = []
    series = bessel._power_series
    monkeypatch.setattr(
        bessel, "_power_series", lambda order, t: runs.append((order, t)) or series(order, t)
    )
    assert all(result.passed for result in verify.run_tree_checks((3,)))
    assert len(runs) == 240


def test_bound_check_reads_each_order_once_per_argument(monkeypatch):
    calls = []
    bessel_i = bessel.bessel_i
    monkeypatch.setattr(
        bessel, "bessel_i", lambda order, t: calls.append((order, t)) or bessel_i(order, t)
    )
    values = verify.bessel_grid_values()
    assert verify.check_bessel_bound_and_monotonicity(values).passed
    assert verify.check_bessel_agreement(values).passed
    # orders 0..21 at five arguments, each once, for both checks
    assert len(set(calls)) == len(calls) == 110


@pytest.mark.parametrize(
    "check, t, order, factor",
    [
        ("check_bessel_agreement", 1.0, 3, 1.0 + 1e-6),
        ("check_bessel_agreement", 20.0, 20, 1.0 + 1e-6),
        # I_5(5) above I_4(5) breaks monotonicity in the order
        ("check_bessel_bound_and_monotonicity", 5.0, 5, 3.0),
        # e^{-1} I_0(1) above its bound of 1, with the order still falling
        ("check_bessel_bound_and_monotonicity", 1.0, 0, 2.2),
    ],
)
def test_bessel_checks_catch_a_scaled_series_value(check, t, order, factor):
    values = verify.bessel_grid_values()
    assert getattr(verify, check)(values).passed
    values[t][order] *= factor
    assert not getattr(verify, check)(values).passed


def test_counting_check_runs_one_census_per_vertex_and_one_enumeration(monkeypatch):
    censuses, enumerations = [], []
    census, enumerate_geodesics = graphs.enumerate_geodesic_counts, graphs.enumerate_geodesics
    monkeypatch.setattr(
        graphs,
        "enumerate_geodesic_counts",
        lambda g, x0, K: censuses.append((g.n_vertices, x0, K)) or census(g, x0, K),
    )
    monkeypatch.setattr(
        graphs,
        "enumerate_geodesics",
        lambda g, x0, k: enumerations.append((x0, k)) or enumerate_geodesics(g, x0, k),
    )
    built = [graphs.builtin_graph(name) for name in verify.FINITE_BUILTINS]
    assert all(verify.check_counting_oracles(g).passed for g in built)
    sizes = [g.n_vertices for g in built]
    assert censuses == [(n, x0, 10) for n in sizes for x0 in range(n)]
    assert enumerations == [(0, 10)] * len(verify.FINITE_BUILTINS)


@pytest.mark.parametrize("k, x", [(0, 0), (1, 4), (5, 2), (10, 9)])
def test_counting_check_catches_a_census_off_at_one_end(monkeypatch, k, x):
    assert verify.check_counting_oracles(PETERSEN).passed
    census = graphs.enumerate_geodesic_counts

    def shifted(g, x0, K):
        ends, closed = census(g, x0, K)
        if x0 == 0:
            ends[k][x] += 1
        return ends, closed

    monkeypatch.setattr(graphs, "enumerate_geodesic_counts", shifted)
    assert not verify.check_counting_oracles(PETERSEN).passed


@pytest.mark.parametrize("vertex, k", [(0, 0), (0, 5), (7, 6), (3, 10)])
def test_counting_check_catches_a_census_off_in_one_closed_count(monkeypatch, vertex, k):
    assert verify.check_counting_oracles(PETERSEN).passed
    census = graphs.enumerate_geodesic_counts

    def shifted(g, x0, K):
        ends, closed = census(g, x0, K)
        if x0 == vertex:
            closed[k] += 1
        return ends, closed

    monkeypatch.setattr(graphs, "enumerate_geodesic_counts", shifted)
    assert not verify.check_counting_oracles(PETERSEN).passed

def _nan_first(original):
    # the route's first entry (or its one value) reads NaN, the others stay finite
    def mutant(*args, **kwargs):
        value = np.array(original(*args, **kwargs), dtype=float)
        value.flat[0] = math.nan
        return value

    return mutant


def _nan_census(original):
    def mutant(g, x0, K):
        ends, closed = original(g, x0, K)
        ends[3][1] = math.nan
        return ends, closed

    return mutant


def _nan_two_variable(original):
    def mutant(*args):
        pairs = original(*args)
        x = min(pairs)
        pairs[x] = (pairs[x][0], lambda u: math.nan)
        return pairs

    return mutant


def _nan_tree_kernels(original):
    def mutant(*args):
        values = original(*args)
        return [dataclasses.replace(values[0], value=math.nan)] + values[1:]

    return mutant


@pytest.mark.parametrize(
    "check, module, route, mutate",
    [
        pytest.param(lambda: verify.check_counting_oracles(K4), graphs,
                     "enumerate_geodesic_counts", _nan_census, id="counting"),
        pytest.param(lambda: verify.check_three_way_heat(K4), heat_graph,
                     "heat_kernel_rows", _nan_first, id="three_way_heat"),
        pytest.param(lambda: verify.check_four_way_zeta(K4), zeta,
                     "zeta_spectral", _nan_first, id="four_way_zeta"),
        pytest.param(lambda: verify.check_diagonal_decomposition(K4), heat_graph,
                     "heat_kernel_spectral", _nan_first, id="diagonal_decomposition"),
        pytest.param(lambda: verify.check_diagonal_decomposition(K4), heat_graph,
                     "heat_kernel_series_row", _nan_first, id="diagonal_decomposition_series"),
        pytest.param(lambda: verify.check_g_transform_diagonal(K4), zeta,
                     "g_transform_numeric", _nan_first, id="g_transform_diagonal"),
        pytest.param(lambda: verify.check_two_variable_zeta(K4), zeta,
                     "two_variable_zeta", _nan_two_variable, id="two_variable_zeta"),
        pytest.param(verify.check_g_transform_building_blocks, zeta,
                     "g_transform_numeric", _nan_first, id="g_transform_building_blocks"),
        pytest.param(lambda: verify.check_tree_formula_agreement((2,)), heat_tree,
                     "tree_heat_kernel_integrals", _nan_first, id="tree_formula"),
        pytest.param(lambda: verify.check_tree_heat_equation((2,)), heat_tree,
                     "tree_heat_kernel_time_derivatives", _nan_first, id="tree_heat_equation"),
        pytest.param(verify.check_tree_mass, heat_tree,
                     "tree_heat_kernels", _nan_tree_kernels, id="tree_mass"),
        pytest.param(lambda: verify.check_tree_zeta_identity((2,)), zeta,
                     "zeta_spectral", _nan_first, id="tree_zeta_identity"),
        pytest.param(lambda: verify.check_horocycle_transform((2,)), heat_tree,
                     "horocycle_solution", _nan_first, id="horocycle"),
    ],
)
def test_a_nan_discrepancy_fails_its_check(monkeypatch, check, module, route, mutate):
    # max(worst, nan) keeps worst; every check's worst value keeps a NaN instead
    assert check().passed
    monkeypatch.setattr(module, route, mutate(getattr(module, route)))
    result = check()
    assert math.isnan(result.worst) and not result.passed


@pytest.mark.parametrize("check", ["check_bessel_agreement", "check_bessel_bound_and_monotonicity"])
def test_bessel_checks_fail_on_a_nan_series_value(check):
    values = verify.bessel_grid_values()
    values[5.0][4] = math.nan
    result = getattr(verify, check)(values)
    assert math.isnan(result.worst) and not result.passed


def test_a_nan_on_the_last_graph_survives_the_merge(monkeypatch):
    # petersen reads a finite worst value, then k4 NaN: the merged line keeps the NaN
    rows = heat_graph.heat_kernel_rows
    monkeypatch.setattr(
        heat_graph,
        "heat_kernel_rows",
        lambda g, *args: _nan_first(rows)(g, *args) if g.n_vertices == 4 else rows(g, *args),
    )
    results = {result.name: result for result in verify.run_graph_checks(("petersen", "k4"))}
    heat = results["heat kernel series vs spectral vs ODE"]
    assert math.isnan(heat.worst) and not heat.passed
    assert all(result.passed for name, result in results.items() if result is not heat)


def test_full_verify_builds_each_graph_once_and_caches_one(monkeypatch):
    built = []
    builtin_graph = graphs.builtin_graph
    monkeypatch.setattr(graphs, "builtin_graph", lambda name: built.append(name) or builtin_graph(name))
    heat_graph.spectral_data.cache_clear()
    assert all(result.passed for result in verify.run_all_checks())
    assert built == list(verify.FINITE_BUILTINS)
    info = heat_graph.spectral_data.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (6, 1, 1)


def test_graph_checks_report_in_table_order_whatever_the_graph_order():
    # k33 runs the two-variable check before k4 runs the diagonal ones
    names = [result.name for result in verify.run_graph_checks(("k33", "k4"))]
    assert names == [result.name for result in verify.run_graph_checks(("k4",))]
