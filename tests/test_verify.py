import numpy as np
import pytest

from heatzeta import bessel, graphs, heat_graph, heat_tree, verify, zeta


ROUTES = ["heat_kernel_rows", "heat_kernel_spectral_row", "heat_kernel_ode", "heat_kernel_series_row"]


@pytest.mark.parametrize(
    "route, shift",
    [pytest.param(route, 1e-5, id=route) for route in ROUTES]
    # five times the 1e-7 budget: the ODE route is compared unscaled
    + [pytest.param("heat_kernel_ode", 5e-7, id="heat_kernel_ode-5e-07")],
)
def test_three_way_heat_catches_a_shifted_route(monkeypatch, route, shift):
    assert verify.check_three_way_heat(("k4",)).passed
    original = getattr(heat_graph, route)
    monkeypatch.setattr(
        heat_graph, route, lambda *args, **kwargs: np.asarray(original(*args, **kwargs)) + shift
    )
    assert not verify.check_three_way_heat(("k4",)).passed


def test_horocycle_check_catches_a_shifted_solution(monkeypatch):
    assert verify.check_horocycle_transform((2,)).passed
    original = heat_tree.horocycle_solution
    monkeypatch.setattr(heat_tree, "horocycle_solution", lambda *args: original(*args) + 1e-5)
    assert not verify.check_horocycle_transform((2,)).passed


def test_two_variable_zeta_check_catches_a_shifted_spectral_side(monkeypatch):
    assert verify.check_two_variable_zeta(("k4",)).passed
    original = zeta.two_variable_zeta

    def shifted(*args):
        series, spectral = original(*args)
        return series, lambda u: spectral(u) + 1e-5

    monkeypatch.setattr(zeta, "two_variable_zeta", shifted)
    assert not verify.check_two_variable_zeta(("k4",)).passed


def test_tree_formula_check_catches_a_shifted_integral_row(monkeypatch):
    assert verify.check_tree_formula_agreement((2,)).passed
    original = heat_tree.tree_heat_kernel_integrals
    monkeypatch.setattr(
        heat_tree, "tree_heat_kernel_integrals", lambda *args: original(*args) + 1e-5
    )
    assert not verify.check_tree_formula_agreement((2,)).passed


def test_laplace_calibration_catches_a_scaled_bessel_factor(monkeypatch):
    assert verify.check_laplace_calibration().passed
    original = zeta.bessel_i_scaled_row
    monkeypatch.setattr(zeta, "bessel_i_scaled_row", lambda N, t: original(N, t) * (1.0 + 1e-6))
    assert not verify.check_laplace_calibration().passed


def test_g_transform_of_blocks_catches_a_shifted_block(monkeypatch):
    assert verify.check_g_transform_building_blocks().passed
    original = bessel.bessel_i_scaled_row
    monkeypatch.setattr(bessel, "bessel_i_scaled_row", lambda N, t: original(N, t) + 1e-7)
    assert not verify.check_g_transform_building_blocks().passed


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
    "check, args, module, integrand, ceiling",
    [
        # one integrand row per node, shared by every order of the check
        pytest.param(
            "check_g_transform_building_blocks", (), bessel, "bessel_i_scaled_row", 252,
            id="g_transform_building_blocks",
        ),
        pytest.param(
            "check_laplace_calibration", (), zeta, "bessel_i_scaled_row", 189,
            id="laplace_calibration",
        ),
        pytest.param(
            "check_g_transform_diagonal", (("k4", "petersen"),), heat_graph,
            "heat_kernel_spectral", 252,
            id="g_transform_diagonal",
        ),
    ],
)
def test_half_line_checks_evaluate_few_nodes(monkeypatch, check, args, module, integrand, ceiling):
    # the integrand's only calls are the quadrature nodes, a deterministic count
    calls = []
    original = getattr(module, integrand)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, integrand, counted)
    assert getattr(verify, check)(*args).passed
    assert 0 < len(calls) <= ceiling


def test_tree_checks_run_few_power_series(monkeypatch):
    # one Bessel row per half-line node and each I_order(t) read once per t,
    # shared by both Bessel checks
    runs = []
    series = bessel._power_series
    monkeypatch.setattr(
        bessel, "_power_series", lambda order, t: runs.append((order, t)) or series(order, t)
    )
    assert all(result.passed for result in verify.run_tree_checks((3,)))
    assert len(runs) == 1129


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
    assert verify.check_counting_oracles(verify.FINITE_BUILTINS).passed
    sizes = [graphs.builtin_graph(name).n_vertices for name in verify.FINITE_BUILTINS]
    assert censuses == [(n, x0, 10) for n in sizes for x0 in range(n)]
    assert enumerations == [(0, 10)] * len(verify.FINITE_BUILTINS)


@pytest.mark.parametrize("k, x", [(0, 0), (1, 4), (5, 2), (10, 9)])
def test_counting_check_catches_a_census_off_at_one_end(monkeypatch, k, x):
    assert verify.check_counting_oracles(("petersen",)).passed
    census = graphs.enumerate_geodesic_counts

    def shifted(g, x0, K):
        ends, closed = census(g, x0, K)
        if x0 == 0:
            ends[k][x] += 1
        return ends, closed

    monkeypatch.setattr(graphs, "enumerate_geodesic_counts", shifted)
    assert not verify.check_counting_oracles(("petersen",)).passed


@pytest.mark.parametrize("vertex, k", [(0, 0), (0, 5), (7, 6), (3, 10)])
def test_counting_check_catches_a_census_off_in_one_closed_count(monkeypatch, vertex, k):
    assert verify.check_counting_oracles(("petersen",)).passed
    census = graphs.enumerate_geodesic_counts

    def shifted(g, x0, K):
        ends, closed = census(g, x0, K)
        if x0 == vertex:
            closed[k] += 1
        return ends, closed

    monkeypatch.setattr(graphs, "enumerate_geodesic_counts", shifted)
    assert not verify.check_counting_oracles(("petersen",)).passed