"""Heat kernel on a finite (q+1)-regular graph, three independent ways.

1. Bessel series: K(t, x0, x) = e^{-(q+1)t} sum_m b_m(x) q^{-m/2} I_m(2 sqrt(q) t)
   with integer coefficients b_m(x) built from geodesic counts,
2. finite spectral expansion through the Laplacian eigendecomposition,
3. direct high-order ODE integration of dK/dt = -Laplacian K (oracle only).

The production route, heat_kernel_row, streams the series in float64 with
O(n) memory at any t: bessel.log_building_blocks and the b_m recursion of
the counting engine on two rescaled float vectors.  Every series route, the
diagonal decomposition included, stops at series_truncation_order:
bessel.certified_truncation with the coefficient bound
|b_m(x)| <= (q+1) q^{m-1} as weight.
heat_kernel_spectral_row is the one spectral route; heat_kernel_spectral
is one entry of it.  The independent oracles that verify and the tests
compare against are heat_kernel_series_row, which sums the exact b_m against
one list of scalar building_block values per (x0, t) with math.fsum, no
arrays; heat_kernel_series, one entry of that row; and heat_kernel_ode, the
whole propagator e^{-Lt} from one matrix ODE solve.

The diagonal of the series collapses, on vertex-transitive graphs, to the
tree heat kernel plus a closed-geodesic correction; that identity is
exposed as diagonal_tree_decomposition.

The exact b_m rows come from the counting engine of graphs on every call,
with no cache.  spectral_data keeps its cache: the benchmark reads its
cache_info(), and verify's G-transform check integrates heat_kernel_spectral
at hundreds of quadrature nodes per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from heatzeta.bessel import (
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
    "heat_kernel_row",
    "heat_kernel_series",
    "heat_kernel_series_row",
    "heat_kernel_spectral",
    "heat_kernel_spectral_row",
    "laplacian",
    "spectral_data",
    "series_truncation_order",
]

DENSE_EIGEN_CAP = 2048
# heat_kernel_row's rescale; times 2^9, ln 2 keeps its float's relative error, 3e-17
_RESCALE_AT = 2.0**512
_LOG_RESCALE = 512 * math.log(2.0)


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


def b_coefficients(g: Graph, x0: int, M: int) -> list[list[int]]:
    """b_m(x) = c_m(x) - (q-1)(c_{m-2}(x) + c_{m-4}(x) + ...), m = 0..M.

    The alternating tail ends at c_1(x) for odd m and c_0(x) for even m;
    b_0 = c_0 and b_1 = c_1.  Entries are exact integers and may be
    negative.  Computed by the counting engine with b_2 = A b_1 - 2q b_0 and
    b_m = A b_{m-1} - q b_{m-2} (derived at graphs._geodesic_matrices).
    """
    return [b.tolist() for b in _geodesic_matrices(g, M, x0, s2=2 * g.regularity())]


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


def heat_kernel_series_row(g: Graph, x0: int, t: float, tol: float = 1e-10) -> list[float]:
    """Bessel-series row K(t, x0, .) from scalar building blocks (oracle).

    One certified order M, the exact b_m and one list of scalar
    building_block values per (x0, t), then one math.fsum per vertex: no
    arrays and no log blocks, so the oracle stays independent of
    heat_kernel_row.  A b value too large for a float raises OverflowError.
    """
    q = g.regularity()
    M = series_truncation_order(q, t, tol)  # validates t; M = 0 at t = 0, where the row is e_{x0}
    b = b_coefficients(g, x0, M)
    blocks = [building_block(q, m, t) for m in range(M + 1)]
    return [
        math.fsum(b[m][x] * blocks[m] for m in range(M + 1)) for x in range(g.n_vertices)
    ]


def heat_kernel_series(g: Graph, x0: int, x: int, t: float, tol: float = 1e-10) -> float:
    """Bessel-series heat kernel value K(t, x0, x): entry x of heat_kernel_series_row."""
    return heat_kernel_series_row(g, x0, t, tol)[x]


def heat_kernel_row(g: Graph, x0: int, t: float, tol: float = 1e-10) -> np.ndarray:
    """The row K(t, x0, .) of the Bessel series, all vertices at once, in float64.

    Same certified order M as heat_kernel_series, and the integer recursion
    b_2 = A b_1 - 2q b_0, b_m = A b_{m-1} - q b_{m-2} of
    graphs._geodesic_matrices on two float vectors, so no rounding bias
    builds up over m.  When an entry passes 2^512 both are multiplied by
    2^-512, exactly; the row adds e^{ln B_m + 512 k ln 2} b_m after k such
    steps, with ln B_m from bessel.log_building_blocks.
    """
    q = g.regularity()
    M = series_truncation_order(q, t, tol)  # validates t
    log_blocks = log_building_blocks(q, M, t)
    apply_a = _adjacency_gather(g)
    prev = np.zeros(g.n_vertices)
    cur = np.zeros(g.n_vertices)
    cur[x0] = 1.0
    row = math.exp(log_blocks[0]) * cur
    rescales = 0
    for m in range(1, M + 1):
        prev, cur = cur, apply_a(cur) - (2 * q if m == 2 else q) * prev
        if np.abs(cur).max() > _RESCALE_AT:
            prev *= 1.0 / _RESCALE_AT
            cur *= 1.0 / _RESCALE_AT
            rescales += 1
        row += math.exp(log_blocks[m] + rescales * _LOG_RESCALE) * cur
    return row


def heat_kernel_spectral_row(g: Graph, x0: int, t: float) -> np.ndarray:
    """The row K(t, x0, .) of the spectral expansion: V (e^{-lambda t} V[x0])."""
    _check_time(t)
    sd = spectral_data(g)
    return sd.eigenvectors @ (np.exp(-sd.eigenvalues * t) * sd.eigenvectors[x0, :])


def heat_kernel_spectral(g: Graph, x0: int, x: int, t: float) -> float:
    """Spectral heat kernel K(t, x0, x): entry x of heat_kernel_spectral_row."""
    return float(heat_kernel_spectral_row(g, x0, t)[x])


def heat_kernel_ode(g: Graph, t: float, tol: float = 1e-10) -> np.ndarray:
    """Heat propagator e^{-Lt} by adaptive ODE integration (oracle).

    Integrates dY/dt = -Y L from Y(0) = I with one eighth-order Runge-Kutta
    (DOP853) solve; row x0 of the returned n x n matrix is K(t, x0, .).
    The state holds n^2 values, so this serves small graphs only.
    """
    _check_time(t)
    lap = laplacian(g)
    n = g.n_vertices
    sol = solve_ivp(
        lambda _t, y: -(y.reshape(n, n) @ lap).ravel(),
        (0.0, t),
        np.eye(n).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
    )
    if not sol.success:  # pragma: no cover
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)


def diagonal_tree_decomposition(g: Graph, x0: int, t: float, tol: float = 1e-10) -> float:
    """Diagonal heat kernel as tree value plus closed-geodesic correction.

    K(t, x0, x0) = K_tree(t, 0) + e^{-(q+1)t} sum_{m>=1} N_m^0 q^{-m/2} I_m(...),
    valid on vertex-transitive graphs (the caller asserts transitivity).  The
    correction is N_m^0 against one building-block vector.
    """
    _check_time(t)
    q = g.regularity()
    tree_part = tree_heat_kernel(q, t, 0, tol).value
    M = series_truncation_order(q, t, tol)
    n0 = closed_geodesics_at_vertex(g, x0, M)
    blocks = np.exp(log_building_blocks(q, M, t)).tolist()
    correction = math.fsum(n0[m] * blocks[m] for m in range(1, M + 1))
    return tree_part + correction
