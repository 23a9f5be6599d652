import numpy as np
import pytest

from heatzeta import heat_graph, verify


ROUTES = ["heat_kernel_row", "heat_kernel_spectral", "heat_kernel_ode", "heat_kernel_series_row"]


@pytest.mark.parametrize("route", ROUTES)
def test_three_way_heat_catches_a_shifted_route(monkeypatch, route):
    assert verify.check_three_way_heat(("k4",)).passed
    original = getattr(heat_graph, route)
    monkeypatch.setattr(
        heat_graph, route, lambda *args, **kwargs: np.asarray(original(*args, **kwargs)) + 1e-5
    )
    assert not verify.check_three_way_heat(("k4",)).passed
