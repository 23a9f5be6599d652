import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from heatzeta import bessel, heat_tree
from heatzeta.bessel import MAX_RECURRENCE, bessel_i, bessel_i_scaled, building_block
from heatzeta.heat_tree import (
    horocycle_solution,
    tree_heat_kernel,
    tree_heat_kernel_integral,
    tree_heat_kernel_integrals,
    tree_heat_kernel_time_derivatives,
    tree_heat_kernels,
)


def block_dots(q, t, top):
    """B'_m = B_{m-1} + q B_{m+1} - (q+1) B_m, B_{-1} = q B_1, for m = 0..top, from one
    list of scalar building blocks B_0..B_{top+1}."""
    blocks = [building_block(q, m, t) for m in range(top + 2)]
    below = [q * blocks[1]] + blocks[:top]
    return [below[m] + q * blocks[m + 1] - (q + 1) * blocks[m] for m in range(top + 1)]


def mp_tree_kernels(q, t, top):
    """K(t, r) for r = 0..top in 50-digit mpmath, t > 0, by the positive series: I_m(tau)
    from mpmath's I_N and I_{N+1} by the downward recurrence I_{m-1} = (2m/tau) I_m + I_{m+1},
    N past every term above 1e-40 of K(t, top)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, t = mp.mpf(q), mp.mpf(t)
        tau = 2 * mp.sqrt(q) * t
        N = top + 40 + int(math.sqrt(160 * float(tau)))
        bessel_values = [mp.mpf(0)] * (N + 2)
        bessel_values[N], bessel_values[N + 1] = mp.besseli(N, tau), mp.besseli(N + 1, tau)
        for m in range(N, 0, -1):
            bessel_values[m - 1] = 2 * m / tau * bessel_values[m] + bessel_values[m + 1]
        scale = mp.exp(-(q + 1) * t) / t
        terms = [m * q ** (-mp.mpf(m) / 2) * scale * bessel_values[m] for m in range(N + 1)]
        sums, kernel = [mp.mpf(0), mp.mpf(0)], [None] * N
        for m in range(N, 0, -1):
            sums[m % 2] += terms[m]
            kernel[m - 1] = sums[m % 2]
        assert terms[N] < mp.mpf(10) ** -40 * kernel[top]
        return kernel[: top + 1]


class TestSeries:
    def test_initial_condition(self):
        for q in (1, 2, 3):
            assert tree_heat_kernel(q, 0.0, 0).value == 1.0
            for r in (1, 2, 5):
                assert tree_heat_kernel(q, 0.0, r).value == 0.0

    def test_subnormal_time_is_the_initial_condition(self):
        # where 2/tau overflows the evaluator's B_1 is 0, and so would be every term
        # (m/t) B_m: K is [r = 0], as 1 - K_0 <= (q+1) t and K_r <= t^r round away
        for t in (1e-310, 5e-324):
            row = tree_heat_kernels(2, [t], range(3))[0]
            assert [(v.value, v.truncation_index, v.tail_bound) for v in row] == [
                (1.0, 0, 0.0), (0.0, 0, 0.0), (0.0, 0, 0.0)
            ]
        assert tree_heat_kernel(2, 1e-300, 0).value == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_q_one_closed_form(self):
        for r in range(5):
            value = tree_heat_kernel(1, 0.8, r, 1e-12).value
            assert value == pytest.approx(math.exp(-1.6) * bessel_i(r, 1.6), rel=1e-12, abs=0)

    def test_tail_certificate_reported(self):
        result = tree_heat_kernel(2, 1.0, 0, 1e-10)
        assert 0.0 < result.tail_bound < 1e-10
        assert result.truncation_index > 0

    def test_value_range(self):
        for q in (2, 3):
            for t in (0.1, 1.0, 5.0):
                for r in range(8):
                    v = tree_heat_kernel(q, t, r, 1e-12).value
                    assert 0.0 < v < 1.0

    def test_positivity_despite_alternation(self):
        # the paper's series subtracts its corrections, so positivity is not evident
        # from it; the production sum's terms are positive
        for t in (0.05, 0.5, 2.0, 10.0):
            assert tree_heat_kernel(4, t, 0, 1e-13).value > 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tree_heat_kernel(0, 1.0, 0)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, -1.0, 0)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, 1.0, -1)
        with pytest.raises(ValueError):
            tree_heat_kernel(2, 1.0, 0, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            tree_heat_kernel(2, 1.0, 0, tol)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 0.1, 2.0, 8.0])
    def test_matches_scalar_alternating_sum(self, q, t):
        # the paper's alternating series of scalar building blocks, summed until its blocks
        # fall below 1e-30 of B_30: where it cancels less than tenfold it rounds to within
        # 1e-14 relative, and there the value is within tol of it; every value is within
        # tol plus rounding of mpmath's
        tol = 1e-12
        blocks = [building_block(q, m, t) for m in range(31)]
        while blocks[-1] > 1e-30 * blocks[30]:
            blocks.append(building_block(q, len(blocks), t))
        exact = mp_tree_kernels(q, t, 30) if t else [float(r == 0) for r in range(31)]
        compared = 0
        for r in range(31):
            result = tree_heat_kernel(q, t, r, tol)
            alternating = blocks[r] - (q - 1) * math.fsum(blocks[r + 2 :: 2])
            if blocks[r] <= 10.0 * alternating:
                compared += 1
                assert result.value == pytest.approx(alternating, rel=tol + 1e-14, abs=0)
            assert result.value == pytest.approx(float(exact[r]), rel=tol + 1e-13, abs=0)
        assert compared >= 12

    def test_values_meet_their_relative_bounds(self):
        # every value within its relative tail_bound of 50-digit mpmath, plus rounding: the
        # log blocks' pinned 8 (|ln B| + 1) u each (TestLogBlockRounding), taken at K, the
        # n - 1 additions' u each, and n steps of the subnormal grid; below e^-700 the tail
        # is relative to e^-700.  Each step K_r - K_{r+2} is the term ((r+1)/t) B_{r+1}
        # of the scalar building block.
        u, floor = 2.0**-53, math.exp(-700.0)
        for q in range(2, 8):
            for t in (0.1, 3.0, 20.0, 100.0, 1000.0):
                exact = [float(k) for k in mp_tree_kernels(q, t, 30)]
                for tol in (1e-10, 1e-16):
                    row = tree_heat_kernels(q, t, range(31), tol)
                    for v, k in zip(row, exact):
                        n = v.truncation_index + 1
                        rounding = (8.0 * (abs(math.log(k)) + 1.0) + n) * u if k else 0.0
                        slack = v.tail_bound * max(k, floor) + rounding * k + n * 2.0**-1074
                        assert abs(v.value - k) <= slack, (q, t, tol, v)
                    for r in range(29):
                        step = row[r].value - row[r + 2].value
                        lead = (r + 1) / t * building_block(q, r + 1, t)
                        k = exact[r]
                        bound = 8.0 * (abs(math.log(k)) + 1.0) * u * k if k else 2.0**-1074
                        assert abs(step - lead) <= bound, (q, t, tol, r)

    def test_large_time_finishes(self):
        # every block underflows at t = 1e6, and so does the log bound of the
        # first correction term: the certified index is 0
        result = tree_heat_kernel(2, 1e6, 3, 1e-10)
        assert result.value == 0.0
        assert result.truncation_index == 0

    def test_order_cap(self):
        # r + 2J is the length of the block vector, refused by the guard of
        # the block recurrence before anything is allocated
        with pytest.raises(ValueError, match=f"recurrence needs .* terms, more than {MAX_RECURRENCE}"):
            tree_heat_kernel(2, 1.0, MAX_RECURRENCE)


class TestIntegralRoute:
    @pytest.mark.parametrize("q,t,r", [(2, 1.0, 0), (2, 0.5, 3), (3, 2.0, 0), (4, 0.1, 7)])
    def test_agrees_with_series(self, q, t, r):
        series = tree_heat_kernel(q, t, r, 1e-12).value
        integral = tree_heat_kernel_integral(q, t, r, 1e-11)
        assert series == pytest.approx(integral, abs=1e-9)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [3.5, 5.0, 8.0])
    def test_converges_at_larger_times(self, q, t):
        # the integrand is scaled by e^{-2t sqrt(q)}, so the error guard
        # meets tol on the returned value where e^{2t sqrt(q)} used to defeat it
        for r in range(31):
            series = tree_heat_kernel(q, t, r, 1e-12).value
            assert tree_heat_kernel_integral(q, t, r, 1e-10) == pytest.approx(series, abs=1e-11)

    def test_initial_condition(self):
        assert tree_heat_kernel_integral(2, 0.0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_no_overflow_past_order_2048(self):
        # q ** (r/2 - 1) alone leaves float range at r = 2050, q = 2; the value underflows instead
        value = tree_heat_kernel_integral(2, 1.0, 2100)
        assert 0.0 <= value < 1e-300
        assert value == pytest.approx(tree_heat_kernel(2, 1.0, 2100).value, abs=1e-300)

    def test_q_one_rows_are_scaled_bessel_values(self):
        # at q = 1 the measure is dtheta / pi and the row e^{-2t} I_r(2t)
        for t in (1e-6, 0.1, 1.0, 20.0, 100.0):
            row = tree_heat_kernel_integrals(1, t, range(31))
            assert np.all(np.abs(row - ive(np.arange(31), 2.0 * t)) <= 1e-15), t

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    def test_trapezoid_row_matches_adaptive_quadrature(self, q, t):
        # the integral formula written out and integrated by QUADPACK, per r
        row = tree_heat_kernel_integrals(q, t, range(31), 1e-12)
        sq = math.sqrt(q)
        for r in range(31):

            def integrand(u):
                num = math.sin(u) * (q * math.sin((r + 1) * u) - math.sin((r - 1) * u))
                den = (q + 1) ** 2 - 4 * q * math.cos(u) ** 2
                return math.exp(2 * t * sq * (math.cos(u) - 1.0)) * num / den

            value, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=200)
            prefactor = 2.0 * math.exp(-((sq - 1.0) ** 2) * t - (r / 2.0 - 1.0) * math.log(q))
            assert row[r] == pytest.approx(prefactor / math.pi * value, abs=1e-12)

    def test_row_spanning_node_chunks_matches_single_radii(self):
        # 174 radii times at least 1023 nodes pass one chunk of the node loop
        radii = range(0, 520, 3)
        row = tree_heat_kernel_integrals(3, 1.0, radii, 1e-12)
        assert len(radii) * 1023 > bessel._CHUNK_ENTRIES
        for r, value in zip(radii, row):
            assert value == pytest.approx(tree_heat_kernel_integral(3, 1.0, r, 1e-12), abs=2e-12)

    @pytest.mark.parametrize("radii, failed", [(range(3), 0), (range(5, 9), 5)])
    def test_unmet_guard_names_the_radius(self, radii, failed):
        # no double-precision rule meets a 1e-16 guard on these values
        with pytest.raises(RuntimeError, match=f"^r = {failed}: rounding error") as exc:
            tree_heat_kernel_integrals(2, 1.0, radii, 1e-16)
        assert exc.value.r == failed


def one_time_integrals(q, t, radii, tol):
    """The integral row of one time as each time had it before grids shared node sets:
    its own spherical rows, scale and start, through bessel._tree_measure."""
    radii = np.array(list(radii), dtype=int)
    sq = math.sqrt(q)
    tau = 2.0 * t * sq
    scale = np.exp(-(sq - 1.0) ** 2 * t - radii / 2.0 * math.log(q))

    def spherical(x):
        peaks = np.exp(tau * (np.cos(x) - 1.0))
        if q == 1:
            return peaks * np.cos(np.outer(radii, x))
        waves = q * np.sin(np.outer(radii + 1, x)) - np.sin(np.outer(radii - 1, x))
        return peaks / ((q + 1) * np.sin(x)) * waves

    start = radii.max(initial=0) + 4.0 * math.sqrt(tau + 1.0) + 8.0
    return bessel._tree_measure(q, spherical, radii, scale, tol, start)


class TestIntegralGrid:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 3.0, 8.0])
    def test_lone_call_is_the_one_time_rule(self, q, t):
        for radii in (range(31), (0,), (9, 2, 5)):
            lone = tree_heat_kernel_integrals(q, t, radii, 1e-11)
            assert lone.tobytes() == one_time_integrals(q, t, radii, 1e-11).tobytes()
            assert tree_heat_kernel_integrals(q, [t], radii, 1e-11)[0].tobytes() == lone.tobytes()

    @pytest.mark.parametrize("q", [2, 3, 4, 7])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_grid_rows_lie_within_the_guard_of_their_lone_calls(self, q, tol):
        # a row shares the doublings of its node set, so it may be summed past its own stop
        grid = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 8.0, 20.0]
        rows = tree_heat_kernel_integrals(q, grid, range(31), tol)
        assert rows.shape == (len(grid), 31)
        for t, row in zip(grid, rows):
            lone = tree_heat_kernel_integrals(q, t, range(31), tol)
            assert np.all(np.abs(row - lone) <= np.maximum(tol, 10.0 * tol * np.abs(lone)))

    @pytest.mark.parametrize(
        "grid, sets", [([0.01, 1000.0], 2), ([0.1, 0.5, 1.0, 2.0, 3.0], 1), ([0.0, 20.0, 0.1], 2)]
    )
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_times_share_a_node_set_that_starts_at_one_count(self, monkeypatch, q, grid, sets):
        # times share nodes only where the rule would start them at one power of two
        starts = []
        original = heat_tree._tree_measure
        monkeypatch.setattr(
            heat_tree, "_tree_measure", lambda *args: starts.append(args[5]) or original(*args)
        )
        tree_heat_kernel_integrals(q, grid, range(31))
        assert len(starts) == sets
        counts = [
            1 << math.ceil(math.log2(30 + 4.0 * math.sqrt(2.0 * t * math.sqrt(q) + 1.0) + 8.0))
            for t in grid
        ]
        assert len(set(counts)) == sets

    def test_duplicate_times_keep_their_rows(self):
        rows = tree_heat_kernel_integrals(3, [1.0, 0.5, 1.0], range(11))
        assert rows.shape == (3, 11) and rows[0].tobytes() == rows[2].tobytes()

    def test_empty_grid(self):
        assert tree_heat_kernel_integrals(3, [], range(7)).shape == (0, 7)

    @pytest.mark.parametrize("grid", [[1.0, -1.0], [0.5, math.nan], [math.inf]])
    def test_grid_times_are_checked(self, grid):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            tree_heat_kernel_integrals(2, grid, range(3))

    def test_grid_of_more_axes_is_refused(self):
        with pytest.raises(ValueError, match="1-D array of times"):
            tree_heat_kernel_integrals(2, [[1.0]], range(3))

    def test_grid_error_names_time_and_radius(self):
        # no double-precision rule meets a 1e-16 guard; the lone call names r alone
        with pytest.raises(bessel.QuadratureError, match="^t = 0.5, r = 0: rounding error") as exc:
            tree_heat_kernel_integrals(2, [0.5, 1.0], range(3), 1e-16)
        assert (exc.value.t, exc.value.r) == (0.5, 0)
        with pytest.raises(bessel.QuadratureError, match="^r = 0: rounding error") as exc:
            tree_heat_kernel_integrals(2, 0.5, range(3), 1e-16)
        assert exc.value.t is None


class TestRows:
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
    def test_series_row_entries_are_the_scalar_values(self, q, t):
        # a lone call cuts at its own lead: the largest radius of each parity, 23 and 24,
        # is its lone call bitwise, and the others lie within both cuts' tails
        row = tree_heat_kernels(q, t, range(25), 1e-12)
        for r, value in enumerate(row):
            lone = tree_heat_kernel(q, t, r, 1e-12)
            if r >= 23:
                assert value == lone
            else:
                assert value.value == pytest.approx(lone.value, rel=2e-12, abs=0)

    @pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
    def test_integral_row_entry_is_the_scalar_integral(self, t):
        for r in (0, 1, 9):
            assert tree_heat_kernel_integral(3, t, r) == tree_heat_kernel_integrals(3, t, (r,))[0]

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
    def test_grid_tables_are_the_single_time_tables(self, q):
        # one evaluator call reads every time's leads, at the orders its own call reads,
        # so the cuts and tail bounds are its own; one more reads each time's terms to
        # its own cut, from its own start, so every table is bitwise its lone call's
        grid = [0.0, 0.1, 3.0, 0.5, 20.0, 3.0]
        calls = []
        original = bessel.log_building_blocks

        def counted(*args):
            calls.append(args)
            return original(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bessel, "log_building_blocks", counted)
            tables = tree_heat_kernels(q, grid, range(31), 1e-10)
        tops = [max(v.r + 2 * v.truncation_index for v in table) + 1 for table in tables]
        assert [(list(args[1]), list(args[2])) for args in calls] == [([31] * len(grid), grid),
                                                                      (tops, grid)]
        assert tables == [tree_heat_kernels(q, t, range(31), 1e-10) for t in grid]

    def test_grid_tables_beside_a_large_time_are_the_single_time_tables(self):
        # each time's terms run from its own cut plus its own margin: where the call
        # started every time at the grid's largest cut, q = 2's t = 70 table moved
        # 3.0e-15 relative beside t = 3,000
        grid = [0.0, 70.0, 3000.0, 0.1]
        tables = tree_heat_kernels(2, grid, range(31))
        assert tables == [tree_heat_kernels(2, t, range(31)) for t in grid]

    def test_grid_past_the_evaluator_cap_runs_in_passes(self, monkeypatch):
        # a cap that holds two of these times at a time: three calls for the leads and
        # three for the terms, the same table
        grid = [0.1, 0.5, 1.0, 2.0, 3.0]
        expected = tree_heat_kernels(3, grid, range(31))
        top = max(v.r + 2 * v.truncation_index + 1 for row in expected for v in row)
        width = top + bessel._miller_margin(3, top, max(grid)) + 1
        passes = []
        original = bessel.log_building_blocks
        monkeypatch.setattr(bessel, "_GRID_ENTRIES", 2 * width)
        monkeypatch.setattr(
            bessel, "log_building_blocks", lambda *args: passes.append(len(args[2])) or original(*args)
        )
        tables = tree_heat_kernels(3, grid, range(31))
        assert passes == [2, 2, 1, 2, 2, 1]
        assert [v.value for row in tables for v in row] == pytest.approx(
            [v.value for row in expected for v in row], rel=1e-15, abs=0.0
        )

    def test_series_row_needs_nonnegative_radii(self):
        with pytest.raises(ValueError, match="r must be >= 0"):
            tree_heat_kernels(2, 1.0, [0, 1, -1])
        with pytest.raises(ValueError, match="r must be >= 0"):
            tree_heat_kernel_integrals(2, 1.0, [0, -1])


class TestHeatEquation:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_residuals(self, q, t):
        f = [tree_heat_kernel(q, t, r, 1e-13).value for r in range(12)]
        fdot = tree_heat_kernel_time_derivatives(q, t, range(11))
        assert abs((q + 1) * f[0] - (q + 1) * f[1] + fdot[0]) <= 1e-8
        for r in range(1, 11):
            residual = (q + 1) * f[r] - q * f[r + 1] - f[r - 1] + fdot[r]
            assert abs(residual) <= 1e-8


    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.1, 2.0, 300.0])
    def test_derivative_row_is_the_per_radius_sum(self, q, t):
        # each radius on its own: three scalar blocks per B'_m, the cut recomputed
        def block_dot(m):
            below = building_block(q, m - 1, t) if m > 0 else q * building_block(q, 1, t)
            return below + q * building_block(q, m + 1, t) - (q + 1) * building_block(q, m, t)

        row = tree_heat_kernel_time_derivatives(q, t, range(12))
        for r in range(12):
            order, _ = bessel.certified_truncation(q, t, 1e-16, r + 1, 2, 2 * (q * q - 1))
            terms = [block_dot(m + 1) for m in range(r + 1, order + 1, 2)]
            assert row[r] == block_dot(r) - (q - 1) * math.fsum(terms)
            assert tree_heat_kernel_time_derivatives(q, t, (r,)) == [row[r]]

    def test_derivative_row_needs_positive_time(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="t must be positive"):
                tree_heat_kernel_time_derivatives(2, t, [0, 1])

    def test_derivative_row_needs_nonnegative_radii(self):
        with pytest.raises(ValueError, match="r must be >= 0"):
            tree_heat_kernel_time_derivatives(2, 1.0, [0, -1])


class TestMassConservation:
    @pytest.mark.parametrize("q", [2, 3, 4, 7])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_sphere_weighted_sum(self, q, t):
        # each value's tail is relative, so the weighted sum keeps it: rounding level
        radius = int(2 * math.sqrt(q) * t) + 60
        total = tree_heat_kernel(q, t, 0, 1e-13).value
        for r in range(1, radius):
            sphere = (q + 1) * q ** (r - 1)
            total += sphere * tree_heat_kernel(q, t, r, 1e-13).value
        assert total == pytest.approx(1.0, abs=1e-14)


class TestHorocycle:
    def test_initial_condition(self):
        assert horocycle_solution(2, 0.0, 0) == 1.0
        assert horocycle_solution(2, 0.0, 3) == 0.0
        assert horocycle_solution(2, 0.0, -2) == 0.0

    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0, 200.0])
    def test_closed_form(self, q, t):
        # q^{-n/2} e^{-(q+1)t} I_|n|(2 sqrt(q) t) at 40 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in range(-6, 7):
                expected = float(
                    mp.mpf(q) ** (-mp.mpf(n) / 2)
                    * mp.exp(-(q + 1) * mp.mpf(t))
                    * mp.besseli(abs(n), 2 * mp.sqrt(q) * mp.mpf(t))
                )
                assert horocycle_solution(q, t, n) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_reflection_symmetry(self):
        # q^{n/2} f(t, n) is even in n
        q, t = 2, 1.0
        for n in (1, 2, 5):
            left = q ** (n / 2) * horocycle_solution(q, t, n)
            right = q ** (-n / 2) * horocycle_solution(q, t, -n)
            assert left == pytest.approx(right, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [-3, 0, 2])
    def test_difference_differential_residual(self, n):
        q, t = 2, 1.0
        h = 1e-6
        fdot = (
            horocycle_solution(q, t + h, n) - horocycle_solution(q, t - h, n)
        ) / (2 * h)
        residual = (
            (q + 1) * horocycle_solution(q, t, n)
            - q * horocycle_solution(q, t, n + 1)
            - horocycle_solution(q, t, n - 1)
            + fdot
        )
        assert abs(residual) <= 1e-8

    def test_residual_with_analytic_derivative(self):
        # derivative through the Bessel recurrence instead of differencing
        q, t, n = 2, 1.0, 0
        fdot = block_dots(q, t, n)[n]
        residual = (
            (q + 1) * horocycle_solution(q, t, n)
            - q * horocycle_solution(q, t, n + 1)
            - horocycle_solution(q, t, n - 1)
            + fdot
        )
        assert abs(residual) <= 1e-12


class TestParityCuts:
    """One truncation search per parity gives every radius its cut, bitwise: the
    value row's search at the lead of the parity's largest radius, and the
    derivative row's the cut of each radius's own search: q 1-7, t 1e-3 to 1e3,
    tol 1e-8 to 1e-13, radii 0-40, 57 and 100, unsorted and repeated."""

    TIMES = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1e3)
    TOLS = (1e-8, 1e-9, 1e-10, 1e-12, 1e-13)
    RADII = [57, *range(40, -1, -1), 100, 3, 57, 0]

    @pytest.mark.parametrize("q", range(1, 8))
    def test_row_cuts_are_the_per_radius_searches(self, monkeypatch, q):
        # every radius of parity p is cut where the one search of that parity, on the
        # block lattice R_p, R_p + 2, ..., stops, weighted by 1 / ((R_p+1)/t) B_{R_p+1}
        # up to e^700, with R_p = 100 and 57 the largest radii
        searches = []
        original = heat_tree.certified_truncation
        monkeypatch.setattr(
            heat_tree, "certified_truncation", lambda *args: searches.append(args) or original(*args)
        )
        for t in self.TIMES:
            logs = bessel.log_building_blocks(q, 101, t)
            for tol in self.TOLS:
                searches.clear()
                row = tree_heat_kernels(q, t, self.RADII, tol)
                assert sorted(args[3] for args in searches) == [59, 102]
                cuts = {}
                for p, last in ((0, 100), (1, 57)):
                    log_weight = math.log(t) - math.log(last + 1) - logs[last + 1]
                    weight = math.exp(min(700.0, log_weight))
                    cuts[p] = bessel.certified_truncation(q, t, tol, last + 2, 2, weight)
                for r, value in zip(self.RADII, row):
                    order, bound = cuts[r % 2]
                    assert (value.r, value.truncation_index) == (r, (order - r) // 2)
                    assert value.tail_bound == bound

    @pytest.mark.parametrize("q", range(1, 8))
    def test_time_zero_row_has_no_tails(self, q):
        # t = 0 (and q = 1, weight 0) certifies at the search's start with bound 0
        row = tree_heat_kernels(q, 0.0, self.RADII, 1e-10)
        assert [(v.r, v.truncation_index, v.tail_bound) for v in row] == [
            (r, 0, 0.0) for r in self.RADII
        ]
        assert [v.value for v in row] == [float(r == 0) for r in self.RADII]

    @pytest.mark.parametrize("q", range(1, 8))
    def test_derivative_row_cuts_are_the_per_radius_searches(self, q):
        for t in self.TIMES:
            orders = [
                bessel.certified_truncation(q, t, 1e-16, r + 1, 2, 2 * (q * q - 1))[0]
                for r in self.RADII
            ]
            top = max(max(r, order + 1) for r, order in zip(self.RADII, orders))
            dots = block_dots(q, t, top)
            expected = [
                dots[r] - (q - 1) * math.fsum(dots[r + 2 : order + 2 : 2])
                for r, order in zip(self.RADII, orders)
            ]
            assert tree_heat_kernel_time_derivatives(q, t, self.RADII) == expected
