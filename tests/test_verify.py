import numpy as np
import pytest

from heatzeta import heat_graph, heat_tree, verify, zeta


ROUTES = ["heat_kernel_row", "heat_kernel_spectral_row", "heat_kernel_ode", "heat_kernel_series_row"]


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
