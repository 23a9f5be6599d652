"""Heat kernel on a finite (q+1)-regular graph, three independent ways.

1. Bessel series: K(t, x0, x) = e^{-(q+1)t} sum_m b_m(x) q^{-m/2} I_m(2 sqrt(q) t)
   with integer coefficients b_m(x) built from geodesic counts,
2. finite spectral expansion through the Laplacian eigendecomposition,
3. the propagator e^{-Lt} of dK/dt = -Laplacian K (oracle only).

The production route, heat_kernel_rows, streams the series in float64 for a
whole grid of times, one base vertex or all of them: its own three-term
recursion for b_m, which depends on neither t nor x0, runs once per grid on
rescaled float arrays through the gather of graphs, against weights built
ahead from one vector of bessel.log_building_blocks per t.  Every series
route, the diagonal decomposition included, stops at series_truncation_order:
bessel.certified_truncation with the coefficient bound |b_m(x)| <= (q+1) q^{m-1}
as weight.  heat_kernel_spectral_row is the one spectral route;
heat_kernel_spectral is one entry of it.  The independent oracles that
verify and the tests compare against are heat_kernel_series_row, which sums
the exact b_m against one list of scalar building_block values per (graph, t)
with math.fsum, no arrays; heat_kernel_series, one entry of that row; and
heat_kernel_ode, the whole propagator e^{-Lt} by Taylor scaling and squaring.

The diagonal of the series collapses, on vertex-transitive graphs, to the
tree heat kernel plus a closed-geodesic correction; that identity is
exposed as diagonal_tree_decomposition.

b_coefficients builds the exact b_m by their definition from the counting
engine's c_m on every call, with no cache, so the series oracle shares no
recursion with heat_kernel_rows.  spectral_data keeps its cache: the
benchmark reads its cache_info(), and verify's G-transform check integrates
heat_kernel_spectral at hundreds of quadrature nodes per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from heatzeta.bessel import (
    MAX_RECURRENCE,
    _check_time,
    building_block,
    certified_truncation,
    log_building_blocks,
)
from heatzeta.graphs import Graph, _adjacency_gather, _geodesic_matrices, closed_geodesics_at_vertex
from heatzeta.heat_tree import tree_heat_kernel

__all__ = [
    "SpectralData",
    "b_coefficients",
    "diagonal_tree_decomposition",
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
# heat_kernel_rows' rescale; times 2^9, ln 2 keeps its float's relative error, 3e-17
_UNSCALE = 2.0**-512
_LOG_RESCALE = 512 * math.log(2.0)
# weights (t, order) one pass of heat_kernel_rows holds: 8 MB, one t at the recurrence guard
_PASS_WEIGHTS = MAX_RECURRENCE


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the Laplacian of a finite regular graph.

    eigenvectors[:, j] is the orthonormal eigenvector for eigenvalues[j];
    no 1/n weighting is applied anywhere, which is the normalization pinned
    down by the t = 0 initial condition of the heat kernel.
    """

    q: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def laplacian(g: Graph) -> np.ndarray:
    """(q+1) I minus the adjacency matrix, multi-edges counted."""
    mat = (g.regularity() + 1.0) * np.eye(g.n_vertices)
    np.subtract.at(mat, (g.origin, g.terminus), 1.0)
    return mat


@lru_cache(maxsize=64)
def spectral_data(g: Graph) -> SpectralData:
    """Dense symmetric eigen-solve; refused above DENSE_EIGEN_CAP vertices."""
    if g.n_vertices > DENSE_EIGEN_CAP:
        raise ValueError(
            f"{g.n_vertices} vertices exceeds the dense eigen-solve cap "
            f"({DENSE_EIGEN_CAP}); use the series or ODE routes"
        )
    lap = laplacian(g)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    # exact for a connected regular graph; eigh's rounding of it would grow like t
    eigenvalues[0] = 0.0
    eigenvectors[:, 0] = 1.0 / math.sqrt(g.n_vertices)
    return SpectralData(g.regularity(), eigenvalues, eigenvectors)


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


def heat_kernel_series_row(g: Graph, x0: int | None, t: float, tol: float = 1e-10) -> list:
    """Bessel-series row K(t, x0, .) from scalar building blocks (oracle).

    One certified order M, the exact b_m and one list of scalar
    building_block values per (graph, t), then one math.fsum per entry: no
    arrays and no log blocks, so the oracle stays independent of
    heat_kernel_rows.  For x0 = None it is the matrix whose [x][y] is
    K(t, y, x), as b_coefficients lays it out.  A b value too large for a
    float raises OverflowError.
    """
    q = g.regularity()
    M = series_truncation_order(q, t, tol)  # validates t; M = 0 at t = 0, where the row is e_{x0}
    b = b_coefficients(g, x0, M)
    blocks = [building_block(q, m, t) for m in range(M + 1)]

    def entry(coefficients) -> float:
        return math.fsum(c * block for c, block in zip(coefficients, blocks))

    if x0 is None:
        return [[entry(col) for col in zip(*rows)] for rows in zip(*b)]
    return [entry(col) for col in zip(*b)]


def heat_kernel_series(g: Graph, x0: int, x: int, t: float, tol: float = 1e-10) -> float:
    """Bessel-series heat kernel value K(t, x0, x): entry x of heat_kernel_series_row."""
    return heat_kernel_series_row(g, x0, t, tol)[x]


def _rescale_schedule(q: int, M: int) -> np.ndarray:
    """r_m for m = 0..M: the exact 2^-512 rescales heat_kernel_rows has taken by order m.

    r_m is the least r >= 0 with beta_m 2^{-512 r} <= 2^512, where beta_0 = 1
    and beta_m = (q+1) q^{m-1} >= |b_m| (series_truncation_order).
    Throughout, M <= MAX_RECURRENCE, as the guard of bessel.log_building_blocks
    enforces, and q < 10^8.  The float log2 then misses r_m's test by less
    than a factor 1 + 1e-8, so S_m = beta_m 2^{-512 r_m} lies in [1/2, 2^513],
    and r grows by at most 1 a step.

    No entry of the recursion passes 2^1023.  Step m forms, at scale
    2^{-512 r_{m-1}}, A v_{m-1} - s v_{m-2} (s = 2q at m = 2, else q) from
    v_k = 2^{-512 r_k} b_k, then multiplies both arrays by 2^-512 where r
    grows.  The terms' absolute values add up to at most
    ((q+1) beta_{m-1} + 2q beta_{m-2}) 2^{-512 r_{m-1}} <= 4 beta_m 2^{-512 r_{m-1}}
    <= 4 (q+1) 2^513 in exact arithmetic.  In floats, if every computed
    f_k = v_k + e_k, k < m, has |f_k| <= 2 beta_k 2^{-512 r_k}, step m adds a
    rounding delta_m of at most 8 gamma beta_m 2^{-512 r_m}, gamma = gamma_{2q+5}
    = (2q+5) u / (1 - (2q+5) u), u = 2^-53: q+2 roundings, and q+3 possible
    underflows, each off by less than 2^-1074 <= u S_m.  The exact rescales
    carry errors along unchanged and from order 3 on they follow the same
    recursion, so e_m = sum_{k<=m} U_{m-k}(A) delta_k 2^{-512(r_m - r_k)} with
    U_j(A) = C_j + C_{j-2} + ... (C_j of graphs._geodesic_matrices),
    nonnegative with row sums at most 3 q^j for q >= 2 and j + 1 for q = 1.
    As beta_k q^{m-k} = beta_m, |e_m| <= 24 gamma M beta_m 2^{-512 r_m} for
    q >= 2 and <= 4 gamma M (M+1) beta_m for q = 1, both at most
    beta_m 2^{-512 r_m}.  So |f_m| <= 2 beta_m 2^{-512 r_m}, and every float
    partial sum is at most 9 (q+1) 2^513 < 2^1023.
    """
    m = np.arange(M + 1)
    log2_bound = math.log2(q + 1) + (m - 1) * math.log2(q)
    return np.maximum(np.ceil(log2_bound / 512.0) - 1.0, 0.0).astype(np.int64)


def heat_kernel_rows(
    g: Graph, x0: int | None, ts: Iterable[float], tol: float = 1e-10
) -> np.ndarray:
    """The rows K(t_i, x0, .) of the Bessel series for every t_i of ts, in float64.

    A (T, n) array for an int x0; for x0 = None a (T, n, n) array whose
    [i, x, y] is K(t_i, y, x), the X = I layout of graphs._geodesic_matrices.
    Each t_i gets the certified order M_i of heat_kernel_series.  One run of
    the integer recursion b_2 = A b_1 - 2q b_0, b_m = A b_{m-1} - q b_{m-2}
    on float arrays, up to the largest M_i, serves the whole grid, so no
    rounding bias builds up over m.  After _rescale_schedule's exact 2^-512
    steps the arrays hold v_m = 2^{-512 r_m} b_m, and row i adds
    W[i, m] v_m with W[i, m] = e^{ln B_m(t_i) + 512 r_m ln 2}, zero past M_i,
    and ln B_m from bessel.log_building_blocks.  The schedule depends on q
    and m only, so row i is bitwise the row of t_i alone, and column y of the
    x0 = None block is bitwise the row of x0 = y.  A grid runs in consecutive
    passes of at most _PASS_WEIGHTS weights.
    """
    q = g.regularity()
    ts = list(ts)
    orders = [series_truncation_order(q, t, tol) for t in ts]  # validates every t
    n = g.n_vertices
    rows = np.empty((len(ts), n) if x0 is not None else (len(ts), n, n))
    start, top = 0, -1
    for i, M in enumerate(orders):
        if i > start and (i - start + 1) * (max(top, M) + 1) > _PASS_WEIGHTS:
            rows[start:i] = _rows_pass(g, q, x0, ts[start:i], orders[start:i])
            start, top = i, -1
        top = max(top, M)
    if ts:
        rows[start:] = _rows_pass(g, q, x0, ts[start:], orders[start:])
    return rows


def _rows_pass(g: Graph, q: int, x0: int | None, ts: list[float], orders: list[int]) -> np.ndarray:
    """One recursion to max(orders) against weights built ahead: heat_kernel_rows of ts.

    The recursion is b_1 = A b_0, b_2 = A b_1 - 2q b_0, b_m = A b_{m-1} - q b_{m-2}.
    By A c_0 = c_1, A c_1 = c_2 + (q+1) c_0 and A c_m = c_{m+1} + q c_{m-1}
    (m >= 2, graphs._geodesic_matrices), b_2 = c_2 - (q-1) c_0 = A b_1 - 2q b_0;
    for m >= 3, A c_i summed over the terms of T_{m-1} = c_{m-3} + c_{m-5} + ...
    is T_m + q T_{m-2}, so A b_{m-1} = b_m + q b_{m-2}.  As |b_0| <= 1 and
    |b_m| <= (q+1) q^{m-1} (series_truncation_order), A b_{m-1} and its partial
    sums are at most (q+1)^2 q^{m-2} in absolute value, and 2q |b_0| and
    q |b_{m-2}| are smaller: while that is below 2^53 and no rescale has
    fired, every array entry is the exact integer b_m(x).
    """
    top = max(orders)
    columns = []  # log_building_blocks refuses a t before anything of its size is allocated
    for t, M in zip(ts, orders):
        exponents = log_building_blocks(q, M, t) + _rescale_schedule(q, M) * _LOG_RESCALE
        # math.exp: np.exp can differ from it in the last bit
        columns.append(np.fromiter(map(math.exp, exponents), float, M + 1))
    weights = np.zeros((top + 1, len(ts)))
    for i, column in enumerate(columns):
        weights[: len(column), i] = column
    rescale_at = set((np.flatnonzero(np.diff(_rescale_schedule(q, top))) + 1).tolist())
    if x0 is None:
        cur = np.eye(g.n_vertices)
        weights = weights[:, :, None, None]
    else:
        cur = np.zeros(g.n_vertices)
        cur[x0] = 1.0
        weights = weights[:, :, None]
    apply_a = _adjacency_gather(g)
    prev = np.zeros_like(cur)
    rows = weights[0] * cur
    for m in range(1, top + 1):
        prev, cur = cur, apply_a(cur) - (2 * q if m == 2 else q) * prev
        if m in rescale_at:
            prev *= _UNSCALE
            cur *= _UNSCALE
        rows += weights[m] * cur
    return rows


def heat_kernel_spectral_row(g: Graph, x0: int, t: float) -> np.ndarray:
    """The row K(t, x0, .) of the spectral expansion: V (e^{-lambda t} V[x0])."""
    _check_time(t)
    sd = spectral_data(g)
    return sd.eigenvectors @ (np.exp(-sd.eigenvalues * t) * sd.eigenvectors[x0, :])


def heat_kernel_spectral(g: Graph, x0: int, x: int, t: float) -> float:
    """Spectral heat kernel K(t, x0, x): entry x of heat_kernel_spectral_row."""
    return float(heat_kernel_spectral_row(g, x0, t)[x])


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


def diagonal_tree_decomposition(g: Graph, x0: int, t: float, tol: float = 1e-10) -> float:
    """Diagonal heat kernel as tree value plus closed-geodesic correction.

    K(t, x0, x0) = K_tree(t, 0) + e^{-(q+1)t} sum_{m>=1} N_m^0 q^{-m/2} I_m(...),
    valid on vertex-transitive graphs (the caller asserts transitivity).  The
    correction terms are exp(ln N_m^0 + ln B_m): N_m^0 leaves float range
    from m = 1026 on k4.
    """
    _check_time(t)
    q = g.regularity()
    tree_part = tree_heat_kernel(q, t, 0, tol).value
    M = series_truncation_order(q, t, tol)
    n0 = closed_geodesics_at_vertex(g, x0, M)
    log_blocks = log_building_blocks(q, M, t)
    terms = [math.exp(math.log(n0[m]) + log_blocks[m]) for m in range(1, M + 1) if n0[m]]
    return tree_part + math.fsum(terms)
