"""Heat kernel on a finite (q+1)-regular graph, four independent ways.

1. Bessel series: K(t, x0, x) = e^{-(q+1)t} sum_m b_m(x) q^{-m/2} I_m(2 sqrt(q) t)
   with integer coefficients b_m(x) built from geodesic counts,
2. finite spectral expansion through the Laplacian eigendecomposition,
3. the propagator e^{-Lt} of dK/dt = -Laplacian K (oracle only),
4. heat_kernel_chebyshev_row, a Chebyshev series in A/(q+1), a grid of times from one
   recursion: the CLI's check at q >= 2.

The production route, heat_kernel_rows, streams the series in float64 for a
whole grid of times, one base vertex or all of them: the three-term
recursion for b_m, which depends on neither t nor x0, runs once per grid on
float arrays of b_m / q^m as a step of graphs._recursion, the package's one
walk loop, against weights built ahead from the log blocks of
bessel._grid_passes, which the Chebyshev row and the diagonal decomposition
read too: each time's blocks to its own order and zero past it, so a grid row
is bitwise its lone call and no route trims its weights.  Every series
route, the diagonal decomposition included, stops at series_truncation_order:
bessel.certified_truncation with the coefficient bound |b_m(x)| <= (q+1) q^{m-1}
as weight.  heat_kernel_spectral_row, V (e^{-lambda t} V[x0]), is the one
spectral route; heat_kernel_spectral is its entry x by one dot product,
V[x] . (e^{-lambda t} V[x0]), or for a grid of times by one matrix-vector
product.  The independent oracles that verify and the tests compare against
are heat_kernel_series_row, which builds the exact b_m once per grid of times
and sums them against one list of scalar building_block values per (graph, t)
with math.fsum, no arrays; heat_kernel_series, one entry of that row; and
heat_kernel_ode, the whole propagator e^{-Lt} by Taylor scaling and squaring.

The diagonal of the series collapses, on vertex-transitive graphs, to the
tree heat kernel plus a closed-geodesic correction; that identity is
exposed as diagonal_tree_decomposition.

b_coefficients builds the exact b_m by their definition from the counting
engine's c_m on every call, with no cache, so the series oracle shares no
recursion with heat_kernel_rows.  spectral_data caches one graph, as every
command and verify's run_graph_checks read one graph at a time: that one
eigendecomposition (32 MB at n = 2,000) serves the hundreds of quadrature
nodes of verify's G-transform check, and the benchmark reads its cache_info().
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from heatzeta.bessel import (
    _check_time,
    _check_times,
    _grid_passes,
    building_block,
    certified_truncation,
)
from heatzeta.graphs import (
    Graph,
    _geodesic_matrices,
    _recursion,
    _unit,
    _weighted_sum,
    closed_geodesics_at_vertex,
)
from heatzeta.heat_tree import tree_heat_kernel

__all__ = [
    "b_coefficients",
    "diagonal_tree_decomposition",
    "heat_kernel_chebyshev_row",
    "heat_kernel_ode",
    "heat_kernel_rows",
    "heat_kernel_series",
    "heat_kernel_series_row",
    "heat_kernel_spectral",
    "heat_kernel_spectral_row",
    "laplacian",
    "spectral_data",
    "series_truncation_order",
]

DENSE_EIGEN_CAP = 2048


def laplacian(g: Graph) -> np.ndarray:
    """(q+1) I minus the adjacency matrix, multi-edges counted."""
    mat = (g.regularity() + 1.0) * np.eye(g.n_vertices)
    np.subtract.at(mat, (g.origin, g.terminus), 1.0)
    return mat


@lru_cache(maxsize=1)
def spectral_data(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigen-solve of the Laplacian as numpy's named eigh result:
    eigenvectors[:, j] is the orthonormal eigenvector for eigenvalues[j]; no
    1/n weighting is applied anywhere, which is the normalization pinned down
    by the t = 0 initial condition of the heat kernel.  Refused above
    DENSE_EIGEN_CAP vertices, before any eigen-solve."""
    if g.n_vertices > DENSE_EIGEN_CAP:
        raise ValueError(
            f"{g.n_vertices} vertices exceeds the dense eigen-solve cap "
            f"({DENSE_EIGEN_CAP}); use the series or ODE routes"
        )
    result = np.linalg.eigh(laplacian(g))
    # exact for a connected regular graph; eigh's rounding of it would grow like t
    result.eigenvalues[0] = 0.0
    result.eigenvectors[:, 0] = 1.0 / math.sqrt(g.n_vertices)
    return result


def b_coefficients(g: Graph, x0: int | None, M: int) -> list[list]:
    """b_m(x) = c_m(x) - (q-1)(c_{m-2}(x) + c_{m-4}(x) + ...), m = 0..M.

    The alternating tail ends at c_1(x) for odd m and c_0(x) for even m;
    b_0 = c_0 and b_1 = c_1.  Entries are exact integers and may be
    negative.  Built by that definition from the counting engine's c_m, in
    its dtype: a stored tail c_m + c_{m-2} + ... is at most q^{m+1}/(q-1) + 1
    (m + 1 for q = 1), and (q-1) times the tail of b_m and |b_m| are at most
    (q+1) q^{m-1} (series_truncation_order), none above the (q+1)^2 q^{m-2}
    of graphs._int64_safe.  Row m is [b_m(x) for x] from base vertex x0, or
    for x0 = None the matrix [[b_m(x) from base vertex y for y] for x].
    """
    q = g.regularity()
    rows, tails = [], [0, 0]  # tails[m % 2] = c_{m-2} + c_{m-4} + ...
    for m, c in enumerate(_geodesic_matrices(g, M, x0)):
        rows.append((c - (q - 1) * tails[m % 2]).tolist())
        tails[m % 2] += c
    return rows


def series_truncation_order(q: int, t: float, tol: float) -> int:
    """Smallest certified order M for the graph heat-kernel Bessel series.

    bessel.certified_truncation with the coefficient bound
    |b_m(x)| <= (q+1) q^{m-1} as its weight, on every order m >= 1.

    The coefficient bound: b_m = c_m - (q-1) sum_{j>=1} c_{m-2j} is the
    difference of two nonnegative parts, so |b_m| is at most the larger
    part.  The geodesics of length k >= 1 number (q+1) q^{k-1}, so
    c_k(x) <= (q+1) q^{k-1} and c_0(x) <= 1.  Hence
    (q-1) sum_{j>=1} c_{m-2j}(x) <= (q^2-1) q^{m-1} sum_{j>=1} q^{-2j} + (q-1)
    <= q^{m-1} + q - 1 <= (q+1) q^{m-1} for m >= 2 (b_0 = c_0, b_1 = c_1;
    for q = 1 the second part vanishes).
    It is not true that |b_m(x)| <= c_m(x): on k4, b_2(0) = -1, c_2(0) = 0.
    """
    return certified_truncation(q, t, tol, 1, 1, (q + 1) / q, 1.0)[0]


def heat_kernel_series_row(g: Graph, x0: int | None, t, tol: float = 1e-10) -> list:
    """Bessel-series row K(t, x0, .) from scalar building blocks (oracle); for a 1-D
    array t of times, the list of the rows of its times.

    One certified order M_i per time, the exact b_m once, to the largest M_i, and
    one list of scalar building_block values per (graph, t_i), then one math.fsum
    over orders 0..M_i per entry: no arrays and no log blocks, so the oracle stays
    independent of heat_kernel_rows.  For x0 = None a row is the matrix whose
    [x][y] is K(t, y, x), as b_coefficients lays it out.  A b value too large for
    a float raises OverflowError.
    """
    q = g.regularity()
    times, grid = _check_times(t)
    orders = [series_truncation_order(q, x, tol) for x in times]  # M = 0 at t = 0: e_{x0}
    b = b_coefficients(g, x0, max(orders, default=0))

    def entry(coefficients, blocks) -> float:
        return math.fsum(c * block for c, block in zip(coefficients, blocks))

    rows = []
    for x, M in zip(times, orders):
        blocks = [building_block(q, m, x) for m in range(M + 1)]
        if x0 is None:
            rows.append([[entry(col, blocks) for col in zip(*by_y)] for by_y in zip(*b)])
        else:
            rows.append([entry(col, blocks) for col in zip(*b)])
    return rows if grid else rows[0]


def heat_kernel_series(g: Graph, x0: int, x: int, t, tol: float = 1e-10):
    """Bessel-series heat kernel value K(t, x0, x): entry x of heat_kernel_series_row;
    for a 1-D array t of times, the list of its values, from one row call."""
    rows = heat_kernel_series_row(g, x0, t, tol)
    return [row[x] for row in rows] if np.ndim(t) else rows[x]


def heat_kernel_rows(
    g: Graph, x0: int | None, ts: Iterable[float], tol: float = 1e-10
) -> np.ndarray:
    """The rows K(t_i, x0, .) of the Bessel series for every t_i of ts, in float64.

    A (T, n) array for an int x0; for x0 = None a (T, n, n) array whose
    [i, x, y] is K(t_i, y, x), the X = I layout of graphs._geodesic_matrices.
    Each t_i gets the certified order M_i of heat_kernel_series.  One run of
    graphs._recursion with the integer recursion b_2 = A b_1 - 2q b_0,
    b_m = A b_{m-1} - q b_{m-2} as its step, divided through by q^m, on float
    arrays up to the largest M_i serves the whole grid, so no rounding bias
    builds up over m.  Row i adds, through graphs._weighted_sum,
    W[i, m] b_m / q^m with W[i, m] = e^{ln B_m(t_i) + m ln q} and ln B_m from one
    pass of bessel._grid_passes, to t_i's own M_i and -inf past it, so W is zero
    there.  The recursion depends on q and m only, so column y of the
    x0 = None block is bitwise the row of x0 = y, and row i is bitwise the row of
    t_i alone.  A pass holds at most bessel._GRID_ENTRIES ratios, and so at most
    as many weights.
    """
    q = g.regularity()
    ts = list(ts)
    orders = [series_truncation_order(q, t, tol) for t in ts]  # validates every t
    n = g.n_vertices
    rows = np.empty((len(ts), n) if x0 is not None else (len(ts), n, n))
    for part, log_blocks in _grid_passes(q, orders, ts):
        rows[part] = _rows_pass(g, q, x0, log_blocks)
    return rows


def _rows_pass(g: Graph, q: int, x0: int | None, log_blocks: np.ndarray) -> list[np.ndarray]:
    """One graphs._recursion to the last order of log_blocks, one pass of
    bessel._grid_passes, summed by graphs._weighted_sum against its weights:
    heat_kernel_rows of the pass's times.  This module owns the step and the weights;
    graphs owns the loop.

    The recursion is b_1 = A b_0, b_2 = A b_1 - 2q b_0, b_m = A b_{m-1} - q b_{m-2}.
    By A c_0 = c_1, A c_1 = c_2 + (q+1) c_0 and A c_m = c_{m+1} + q c_{m-1}
    (m >= 2, graphs._geodesic_matrices), b_2 = c_2 - (q-1) c_0 = A b_1 - 2q b_0;
    for m >= 3, A c_i summed over the terms of T_{m-1} = c_{m-3} + c_{m-5} + ...
    is T_m + q T_{m-2}, so A b_{m-1} = b_m + q b_{m-2}.  It runs on w_m = b_m / q^m:
    w_1 = A w_0 / q, w_2 = (A w_1 - 2 w_0) / q and w_m = (A w_{m-1} - w_{m-2}) / q.
    As |b_m| <= (q+1) q^{m-1} (series_truncation_order), |w_m| <= omega = (q+1)/q,
    and A w_{m-1} and its partial sums are at most (q+1)^2 q^{m-2} / q^{m-1}: for q
    a power of two, while (q+1)^2 q^{m-2} < 2^53, every entry is exactly b_m(x) / q^m.
    By sum_k I_k(tau) z^k = e^{(tau/2)(z + 1/z)} (DLMF 10.35.1, I_{-k} = I_k) at
    z = sqrt(q), the weights W_m = q^{m/2} e^{-(q+1)t} I_m(2 sqrt(q) t) sum to at most 1.

    Rounding (u = 2^-53, gamma_j = j u / (1 - j u), gamma = gamma_{q+2}): from the
    computed f_k = w_k + e_k, |f_k| <= 2 omega, step m's q + 2 roundings add
    |delta_m| <= 6 gamma omega + 2^-1074 (an underflow of the division).  The errors
    run the same recursion (at m = 2 against e_0 = 0), so
    e_m = sum_{k<=m} q^{-(m-k)} U_{m-k}(A) delta_k, where U_j = C_j + C_{j-2} + ...
    (graphs._geodesic_matrices) is nonnegative with row sums at most 3 q^j for q >= 2
    and j + 1 for q = 1.  So |e_m| <= 3 sum_k |delta_k| <= 18 gamma m omega for q >= 2
    and 6 gamma m (m+1) for q = 1 (plus 3 m^2 2^-1074), below omega for q < 10^8 up to
    MAX_RECURRENCE, which keeps |f_m| <= 2 omega.  As sum_m W_m <= 1, the vectors add at
    most 18 gamma M omega to an entry (q = 1: 6 gamma (t + sqrt(t)), as sum_m W_m m^2 = t),
    the M + 1 products and sums 2 gamma_{M+1} omega, weights off by rho_m relative
    sum_m rho_m W_m omega (the rounding of ln B_m, ln q, m ln q and their sum, and
    math.exp's), and underflows less than 4 (M+1)^2 2^-1074; the certified tail the rest.
    """
    top = log_blocks.shape[1] - 1
    exponents = (log_blocks + np.arange(top + 1) * math.log(q)).tolist()
    # math.exp: np.exp can differ from it in the last bit
    by_time = [list(map(math.exp, row)) for row in exponents]
    vectors = _recursion(
        g, _unit(g.n_vertices, x0, float), top, lambda m, a, p: (a - (2.0 * p if m == 2 else p)) / q
    )
    return _weighted_sum(vectors, zip(*by_time))


def heat_kernel_spectral_row(g: Graph, x0: int, t: float) -> np.ndarray:
    """The row K(t, x0, .) of the spectral expansion: V (e^{-lambda t} V[x0])."""
    _check_time(t)
    sd = spectral_data(g)
    return sd.eigenvectors @ (np.exp(-sd.eigenvalues * t) * sd.eigenvectors[x0, :])


def heat_kernel_spectral(g: Graph, x0: int, x: int, t):
    """Spectral heat kernel K(t, x0, x) = (e^{-lambda t} V[x0]) . V[x]: one dot product;
    for a 1-D array t of times, the array of its values, by one matrix-vector product."""
    times, grid = _check_times(t)
    sd = spectral_data(g)
    decays = np.exp(np.multiply.outer(times if grid else times[0], -sd.eigenvalues))
    values = (decays * sd.eigenvectors[x0]) @ sd.eigenvectors[x]
    return values if grid else float(values)


def heat_kernel_chebyshev_row(g: Graph, x0: int, t, tol: float = 1e-10) -> np.ndarray:
    """The row K(t, x0, .) as a Chebyshev series in X = A/(q+1), with no eigensolve; for
    a 1-D array t of times, the (T, n) array of their rows.

    e^{tau cos theta} = I_0(tau) + 2 sum_{k>=1} I_k(tau) cos k theta (DLMF 10.35) on the
    spectrum of X, in [-1, 1], gives e^{-tL} = sum_k eps_k w_k T_k(X), tau = (q+1) t,
    w_k = e^{-tau} I_k(tau), eps_0 = 1, eps_k = 2: Tal-Ezer and Kosloff's propagator (J. Chem.
    Phys. 81, 1984).  ln w_k is log_building_blocks(1, M, tau/2); as |T_k(X) e_x0| <= 1,
    certified_truncation(1, tau/2, tol, 1, 1, 2.0) holds the tail below tol.  v_k = T_k(X) e_x0
    follow v_1 = A v_0 / (q+1) and v_{k+1} = 2 A v_k / (q+1) - v_{k-1}, the step of one
    graphs._recursion, one gather per order.  At q = 1 the two series agree term by term
    (b_m = 2 T_m(A/2) e_x0, the same log weights): no check there.  The v_k depend on neither
    t nor the weights, so a grid runs one recursion to its largest M, which
    graphs._weighted_sum adds against the weights eps_k w_k of one pass of
    bessel._grid_passes, per order a list of the times' floats, each time's zero past its
    own M: a grid row is bitwise its lone call.

    Rounding, to first order (u = 2^-53, gamma_j = j u / (1 - j u)): step k adds at most
    gamma_{q+2} (2 X|f_{k-1}| + |f_{k-2}|) to an entry of the computed f = v + e (q
    additions, a division by the exact (q+1)/2, a subtraction), 3 gamma_{q+3} in 2-norm,
    as X >= 0, ||X||_2 = 1 and ||f||_2 <= 1 + 1/(q+2).  The errors run the same
    recurrence, e_k = sum_{j<=k} U_{k-j}(X) delta_j with ||U_j(X)||_2 <= j + 1, so
    ||e_k||_2 <= 1.5 gamma_{q+3} k (k+1), which bounds ||f||_2 so while below 1/(q+2).
    As sum_k eps_k w_k k^2 = tau (the DLMF series differentiated twice at theta = 0) and
    sum_k eps_k w_k k <= sqrt(tau) (Cauchy-Schwarz), the vectors add at most
    1.5 gamma_{q+3} (tau + sqrt(tau)) to an entry and the row's products and sums
    2 gamma_{M+1}.  Log weights off by 4 (|ln w_k| + 1) u (under half that against
    40-digit mpmath, tau <= 4e4) add 4 (ln(M+1) + 3) u, as p_k = eps_k w_k have
    sum_k p_k |ln p_k| <= ln(M+1) + 1/e.
    """
    times, grid = _check_times(t)
    q = g.regularity()
    halves = [(q + 1) * x / 2 for x in times]  # tau / 2
    orders = [certified_truncation(1, h, tol, 1, 1, 2.0)[0] for h in halves]  # validates tol
    rows = np.empty((len(times), g.n_vertices))
    for part, log_blocks in _grid_passes(1, orders, halves):
        weights = np.exp(log_blocks)  # eps_k w_k
        weights[:, 1:] *= 2.0
        start, top = _unit(g.n_vertices, x0, float), weights.shape[1] - 1
        vectors = _recursion(g, start, top, lambda k, a, p: a / ((q + 1) / 2 if k > 1 else q + 1) - p)
        rows[part] = _weighted_sum(vectors, weights.T.tolist())
    return rows if grid else rows[0]


def heat_kernel_ode(g: Graph, t: float) -> np.ndarray:
    """Heat propagator e^{-Lt}, which solves dY/dt = -Y L, Y(0) = I (oracle).

    Scaling and squaring (Moler and Van Loan, SIAM Review 2003): the degree-18
    Taylor polynomial T of e^{-A}, A = L t / 2^s with the least s >= 0 making
    ||A||_1 <= 1, squared s times.  In the 1-norm e^{-A} - T(A) is at most
    sum_{k>=19} 1/k! < (1/19!)(1 + 1/20 + 1/20^2 + ...) < 8.7e-18 < 2^-53, and
    as e^{-A} is doubly stochastic a squaring turns an error E into at most
    2||E|| + ||E||^2.  Row x0 is K(t, x0, .), with neither eigensolve nor
    Bessel series; its n^2 entries suit small graphs only.
    """
    _check_time(t)
    lap = laplacian(g)
    squarings = max(0, math.frexp(np.abs(lap).sum(axis=0).max() * t)[1])
    a = lap * math.ldexp(t, -squarings)
    propagator = identity = np.eye(g.n_vertices)
    for k in range(18, 0, -1):
        propagator = identity - (a @ propagator) / k
    for _ in range(squarings):
        propagator = propagator @ propagator
    return propagator


def diagonal_tree_decomposition(g: Graph, x0: int, t, tol: float = 1e-10):
    """Diagonal heat kernel as tree value plus closed-geodesic correction; for a
    1-D array t of times, the list of its values.

    K(t, x0, x0) = K_tree(t, 0) + e^{-(q+1)t} sum_{m>=1} N_m^0 q^{-m/2} I_m(...),
    valid on vertex-transitive graphs (the caller asserts transitivity).  The
    correction terms are sign(N_m^0) exp(ln |N_m^0| + ln B_m): N_m^0 leaves
    float range from m = 1026 on k4, and off transitive graphs the formula
    N_m^0 of closed_geodesics_at_vertex can be negative, so the sum is total.
    A grid runs the counting engine once, to its largest order, takes each
    ln |N_m^0| once, and reads its tree values from one grid call and its log
    blocks, each time's to its own order and -inf past it, through
    bessel._grid_passes: a grid value is bitwise its lone call.
    """
    times, grid = _check_times(t)
    q = g.regularity()
    tree_parts = tree_heat_kernel(q, times, 0, tol)
    orders = [series_truncation_order(q, x, tol) for x in times]
    n0 = closed_geodesics_at_vertex(g, x0, max(orders, default=0))
    # (m, sign, ln |N_m^0|) of the nonzero counts, in order of m
    signed_logs = [(m, -1.0 if c < 0 else 1.0, math.log(abs(c))) for m, c in enumerate(n0) if m and c]
    values = []
    for part, blocks in _grid_passes(q, orders, times):
        for tree_part, log_blocks in zip(tree_parts[part], blocks):
            row = log_blocks.tolist()  # -inf, a zero term, past the time's own order
            terms = [sign * math.exp(ln + row[m]) for m, sign, ln in signed_logs if m < len(row)]
            values.append(tree_part.value + math.fsum(terms))
    return values if grid else values[0]
