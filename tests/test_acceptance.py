"""Acceptance gate: ten end-to-end criteria, each printing one pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
summary lines.  Every criterion states its own tolerance; none of them share
state, so they can be run individually.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from heatzeta import graphs as G
from heatzeta.bessel import building_block, log_building_blocks
from heatzeta.heat_graph import (
    heat_kernel_ode,
    heat_kernel_series,
    heat_kernel_spectral,
    spectral_data,
)
from heatzeta.heat_tree import (
    tree_heat_kernel,
    tree_heat_kernel_integral,
    tree_heat_kernel_time_derivatives,
)
from heatzeta.zeta import (
    g_transform_numeric,
    ihara_determinant_series,
    kesten_tree_measure,
    recover_counts,
    tree_walk_counts,
    zeta_spectral,
)

FINITE = ["k4", "c5", "c8", "cube", "k33", "petersen"]


def report(index, label, worst, budget, ok):
    status = "pass" if ok else "FAIL"
    print(f"[{status}] criterion {index:2d} ({label}): worst {worst:.3e} "
          f"budget {budget:.1e}")
    assert ok


def test_criterion_01_tree_series_vs_integral():
    start = time.monotonic()
    worst = 0.0
    for q in (2, 3, 4):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            for r in range(11):
                series = tree_heat_kernel(q, t, r, 1e-12).value
                integral = tree_heat_kernel_integral(q, t, r, 1e-11)
                worst = max(worst, abs(series - integral))
    elapsed = time.monotonic() - start
    report(1, "tree series vs integral", worst, 1e-8, worst <= 1e-8)
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"


def test_criterion_02_tree_heat_equation_residual():
    worst = 0.0
    for q in (2, 3, 4):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            f = [tree_heat_kernel(q, t, r, 1e-13).value for r in range(12)]
            fdot = tree_heat_kernel_time_derivatives(q, t, range(11))
            worst = max(worst, abs((q + 1) * f[0] - (q + 1) * f[1] + fdot[0]))
            for r in range(1, 11):
                residual = (q + 1) * f[r] - q * f[r + 1] - f[r - 1] + fdot[r]
                worst = max(worst, abs(residual))
    report(2, "tree heat-equation residual", worst, 1e-8, worst <= 1e-8)


def test_criterion_03_three_way_heat_kernel_agreement():
    start = time.monotonic()
    worst_spectral = 0.0
    worst_ode = 0.0
    for name in FINITE:
        g = G.builtin_graph(name)
        for t in (0.1, 0.5, 1.0, 2.0):
            ode_row = heat_kernel_ode(g, t)[0]
            for x in range(g.n_vertices):
                series = heat_kernel_series(g, 0, x, t, 1e-10)
                worst_spectral = max(
                    worst_spectral, abs(series - heat_kernel_spectral(g, 0, x, t))
                )
                worst_ode = max(worst_ode, abs(series - ode_row[x]))
    elapsed = time.monotonic() - start
    ok = worst_spectral <= 1e-7 and worst_ode <= 1e-6
    report(3, "three-way heat agreement", max(worst_spectral, worst_ode), 1e-6, ok)
    assert worst_spectral <= 1e-7
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s (budget 30s)"


def test_criterion_04_counting_oracle_equality():
    mismatches = 0
    for name in FINITE:
        g = G.builtin_graph(name)
        c_transfer = G.geodesic_counts(g, 0, 10)
        c_recursion = [c.tolist() for c in G._geodesic_matrices(g, 10, 0)]
        if c_transfer != c_recursion:
            mismatches += 1
        n0 = G.closed_geodesics_at_vertex(g, 0, 10)
        n_total = G.closed_geodesics_total(g, 10)
        for k in range(11):
            brute = G.enumerate_geodesics(g, 0, k)
            per_vertex = [0] * g.n_vertices
            for walk in brute:
                end = g.terminus[walk[-1]] if walk else 0
                per_vertex[end] += 1
            if c_transfer[k] != per_vertex:
                mismatches += 1
            if n0[k] != len(G.enumerate_closed_geodesics(g, 0, k)):
                mismatches += 1
            brute_total = sum(
                len(G.enumerate_closed_geodesics(g, v, k))
                for v in range(g.n_vertices)
            )
            if k >= 1 and n_total[k] != brute_total:
                mismatches += 1
    report(4, "exact counting oracles", float(mismatches), 0.0, mismatches == 0)


def test_criterion_05_determinant_formula_recovery():
    worst = 0.0
    exact_failures = 0
    for name in FINITE:
        g = G.builtin_graph(name)
        series = ihara_determinant_series(g, 12)
        expected = G.closed_geodesics_total(g, 12)
        for m in range(1, 13):
            raw = m * float(series[m])
            worst = max(worst, abs(raw - expected[m]))
        if recover_counts(series)[1:] != expected[1:]:
            exact_failures += 1
    spot = {
        "k4": (3, 24),
        "petersen": (5, 120),
        "c5": (5, 10),
    }
    for name, (m, value) in spot.items():
        got = recover_counts(ihara_determinant_series(G.builtin_graph(name), m))[m]
        if got != value:
            exact_failures += 1
    ok = worst <= 1e-6 and exact_failures == 0
    report(5, "determinant count recovery", worst, 1e-6, ok)


def test_criterion_06_tree_zeta_identity_and_moments():
    worst = 0.0
    for q in (2, 3):
        measure = kesten_tree_measure(q)
        for u in (0.05, 0.1, 0.2):
            worst = max(worst, abs(zeta_spectral(measure, q, u) - 1.0))
    moment_failures = 0
    for q in (2, 3):
        walks = tree_walk_counts(q, 12)
        measure = kesten_tree_measure(q)
        for k in range(13):
            moment = measure.integrate(lambda lam, k=k: (q + 1.0 - lam) ** k)
            if round(moment) != walks[k]:
                moment_failures += 1
            if abs(moment - walks[k]) > 1e-6 * max(1.0, abs(walks[k])):
                moment_failures += 1
    ok = worst <= 1e-7 and moment_failures == 0
    report(6, "tree zeta identity + moments", worst, 1e-7, ok)


def test_criterion_07_g_transform_building_blocks():
    worst = 0.0
    for q in (2, 3):
        for k in range(7):
            for factor in (0.1, 0.25):
                u = factor / math.sqrt(q)
                block = np.vectorize(lambda t: building_block(q, k, t), otypes=[float])
                (value,) = g_transform_numeric(block, q, u)
                worst = max(worst, abs(value - u ** (k - 1)))
    report(7, "G-transform building blocks", worst, 1e-6, worst <= 1e-6)


def test_criterion_08_diagonal_g_transform_identity():
    worst = 0.0
    for name in ("k4", "petersen"):
        g = G.builtin_graph(name)
        q = g.regularity()
        sd = spectral_data(g)
        weights = sd.eigenvectors[0, :] ** 2

        def diag(t, sd=sd, weights=weights):
            return math.fsum(
                w * math.exp(-lam * t)
                for lam, w in zip(sd.eigenvalues, weights)
            )

        n0 = G.closed_geodesics_at_vertex(g, 0, 60)
        for u in (0.02, 0.05):
            # d/du of log u + ((q-1)/2) log(1-u^2) + log zeta at vertex 0
            expected = (
                1.0 / u
                - (q - 1) * u / (1.0 - u * u)
                + math.fsum(n0[m] * u ** (m - 1) for m in range(1, 61))
            )
            (value,) = g_transform_numeric(np.vectorize(diag, otypes=[float]), q, u)
            worst = max(worst, abs(value - expected))
    report(8, "diagonal G-transform identity", worst, 1e-6, worst <= 1e-6)


def test_criterion_09_laplace_calibration():
    # int_0^inf e^{-st} e^{-t} I_n(t) dt = (s + 1 - sqrt(s^2 + 2s))^n / sqrt(s^2 + 2s):
    # the q = 1 block at t is e^{-2t} I_n(2t), so the integral is 2G / (u^{-2} - 1)
    # at u = s + 1 - sqrt(s^2 + 2s)
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        root = math.sqrt(s * s + 2.0 * s)
        u = s + 1.0 - root
        transform = g_transform_numeric(
            lambda t: np.exp(log_building_blocks(1, 6, t)), 1, u, rows=7
        )
        numeric = 2.0 * transform / (u**-2 - 1.0)
        closed = [(s + 1.0 - root) ** n / root for n in range(7)]  # n = 0..6
        worst = max(worst, *(abs(a - b) for a, b in zip(numeric, closed)))
    report(9, "Laplace calibration", worst, 1e-9, worst <= 1e-9)


def test_criterion_10_verify_cli_full_suite():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "heatzeta.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 120.0 and "FAIL" not in proc.stdout
    report(10, "verify CLI end-to-end", elapsed, 120.0, ok)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-v", "-s"]))
