"""Ihara-type zeta functions and the Laplace-transform bridge from heat kernels.

log zeta is computed four ways and cross-checked:

* directly from closed-geodesic counts, sum_m N_m u^m / m, exact rationals,
* as an Euler product over prime geodesic classes, prod (1 - u^k)^{-pi_k},
* from the determinant formula, exact rationals from the closed-walk traces
  tr A^k and, past order n, the characteristic polynomial of A,
* pointwise from a spectral measure (atomic for finite graphs, the
  Kesten-McKay density of the infinite regular tree otherwise, integrated
  by bessel._tree_measure at every q >= 1).

The bridge is the weighted Laplace transform

    Gf(u) = (u^{-2} - q) int_0^inf e^{-(qu + 1/u)t} e^{(q+1)t} f(t) dt,

which sends each heat-kernel building block of order k to u^{k-1} and the
diagonal heat kernel to the logarithmic derivative of zeta plus elementary
terms.  The half-line integral is the G-transform's alone, in
g_transform_numeric: one row of integrands over one node set, which like
every integral in the package runs on bessel._nested_trapezoid (its one
caller outside bessel: every tree integral goes through _tree_measure), here
in the variable s of the double-exponential map t = exp(s - e^{-s}) / decay
(Takahasi and Mori 1974; Mori and Sugihara 2001), decay the integrand's
exponential rate: t falls to 0 like e^{-e^{-s}} at one end and e^{-decay t}
like e^{-e^{s}} at the other, so the cut ends are negligible and the nodes
gather where the integrand lives.  Both cuts are on decay t, so the s-window
is the same two constants for every call.  decay = (1 - u)(1 - qu)/u is
positive for u < 1/q and u > 1, the transform's domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from heatzeta.bessel import QuadratureError, _check_q, _nested_trapezoid, _tree_measure
from heatzeta.graphs import Graph, _walk_traces
from heatzeta.heat_graph import b_coefficients, spectral_data
from heatzeta.series import PowerSeries

__all__ = [
    "AtomicMeasure",
    "TreeDensity",
    "atomic_measure",
    "euler_product_series",
    "g_transform_numeric",
    "ihara_determinant_series",
    "kesten_tree_measure",
    "recover_counts",
    "tree_walk_counts",
    "two_variable_zeta",
    "zeta_log_series_from_counts",
    "zeta_spectral",
]

# tol of the G-transform's half-line integral
_G_TOL = 1e-11
# its s-window on the map decay t = exp(s - e^{-s}): s - e^{-s} is ln(tol) - 20
# at _S_LO and ln(ln(1/tol) + 20) at _S_HI
_S_LO = -3.728108051172721
_S_HI = 3.8355245723043865


# ---------------------------------------------------------------------------
# series-side zeta


def zeta_log_series_from_counts(n_table: Sequence[int], M: int) -> PowerSeries:
    """log zeta as the exact rational series sum_{m=1}^{M} N_m u^m / m."""
    if len(n_table) <= M:
        raise ValueError(f"need counts up to order {M}, got {len(n_table) - 1}")
    coeffs = [Fraction(0)] + [Fraction(n_table[m], m) for m in range(1, M + 1)]
    return PowerSeries(coeffs)


def euler_product_series(pi_table: Sequence[int], M: int) -> PowerSeries:
    """Expand prod_k (1 - u^k)^{-pi_k} to order M with exact coefficients.

    Each factor is expanded by the negative binomial theorem,
    [u^{km}] (1 - u^k)^{-p} = C(p + m - 1, m), which keeps this route
    independent of the exp/log series machinery.
    """
    result = PowerSeries.one(M)
    for k in range(1, M + 1):
        p = pi_table[k] if k < len(pi_table) else 0
        if p == 0:
            continue
        coeffs = [Fraction(0)] * (M + 1)
        for m in range(0, M // k + 1):
            coeffs[k * m] = Fraction(math.comb(p + m - 1, m))
        result = result * PowerSeries(coeffs)
    return result


def ihara_determinant_series(g: Graph, M: int) -> PowerSeries:
    """log zeta^{Ih} to order M from the determinant formula, exact rationals N_m / m.

    1/zeta(u) = (1 - u^2)^{n(q-1)/2} det(I - uA + q u^2 I) (Ihara 1966; Bass 1992).
    Factor each 1 - u lambda + q u^2, lambda an eigenvalue of A, as
    (1 - alpha u)(1 - beta u) with alpha + beta = lambda, alpha beta = q; then
    alpha^m + beta^m = S_m(lambda), S_0 = 2, S_1 = x, S_m = x S_{m-1} - q S_{m-2},
    and taking -log gives

        N_m = m [u^m] log zeta^{Ih} = tr S_m(A) + n (q - 1) [m even].

    tr S_m(A) = sum_k s_{m,k} p_k over S_m's integer coefficients s_{m,k} and the
    closed-walk traces p_k = tr A^k, k <= min(M, n), of graphs._walk_traces.
    From M >= n,
    Newton's identities k c_k = -sum_{i=1}^{k} c_{k-i} p_i give the
    characteristic polynomial chi_A = x^n + c_1 x^{n-1} + ... + c_n exactly,
    and each S_m is kept reduced modulo chi_A (Cayley-Hamilton), one O(n) fold
    per step.  No eigen-solve and no rounding: ArithmeticError if a Newton
    division is not exact.
    """
    n, q = g.n_vertices, g.regularity()
    p = _walk_traces(g, min(M, n))
    chi = [1]  # 1, c_1, ..., c_n, read only from M >= n
    for k in range(1, n + 1 if M >= n else 1):
        kc = -sum(chi[k - i] * p[i] for i in range(1, k + 1))
        if kc % k:
            raise ArithmeticError(f"Newton's identities: {k} c_{k} = {kc}, not a multiple of {k}")
        chi.append(kc // k)
    # x^n = -(c_n + c_{n-1} x + ... + c_1 x^{n-1}) modulo chi_A; for M < n, S_0..S_M fit
    # M + 1 coefficients unreduced, and a zero fold only cuts the unused S_{M+1}
    fold = chi[:0:-1] if M >= n else [0] * (M + 1)

    def times_x(poly: list[int]) -> list[int]:
        return [a - poly[-1] * c for a, c in zip([0, *poly], fold)]

    unit = [1] + [0] * (len(fold) - 1)
    older, s, counts = [2 * a for a in unit], times_x(unit), [0]
    for m in range(1, M + 1):
        counts.append(sum(a * t for a, t in zip(s, p)) + (0 if m % 2 else n * (q - 1)))
        older, s = s, [a - q * b for a, b in zip(times_x(s), older)]
    return zeta_log_series_from_counts(counts, M)


def recover_counts(log_series: PowerSeries) -> list[int]:
    """m * [u^m] of a log-zeta series, read exactly, as the integers N_m.

    Raises ValueError if any m * [u^m] is not an integer.
    """
    counts = [0]
    for m in range(1, log_series.order + 1):
        value = m * Fraction(log_series[m])
        if value.denominator != 1:
            raise ValueError(f"coefficient m={m}: {value} is not an integer")
        counts.append(value.numerator)
    return counts


# ---------------------------------------------------------------------------
# spectral measures


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms at the Laplacian eigenvalues lambda_j: weights psi_j(x0)^2 for the
    spectral measure at a base vertex, psi_j(x) psi_j(x0) off the diagonal."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def integrate(self, f: Callable[[float], float]) -> float:
        """sum_j w_j f(lambda_j), by math.fsum."""
        return math.fsum(w * f(lam) for lam, w in zip(self.points, self.weights))


@dataclass(frozen=True)
class TreeDensity:
    """Continuous Laplacian spectral density of the infinite (q+1)-regular tree.

    Supported on [q + 1 - 2 sqrt(q), q + 1 + 2 sqrt(q)] with density

        d(lam) = (q+1) sqrt(4q - (q+1-lam)^2) / (2 pi ((q+1)^2 - (q+1-lam)^2)).

    This density is admitted only through its moment oracle: integrals of
    (q + 1 - lam)^k must reproduce exact closed-walk counts on the tree.
    """

    q: int

    def integrate(self, f: Callable[[float], float]) -> float:
        """Integral of f against the measure by bessel._tree_measure, f called on
        lambda at each node.  Its tol is 1e-9 as the guard is absolute near 0, where
        the rounding term alone reaches 1e-10 (the 11th moment at q = 3)."""
        q, sq = self.q, math.sqrt(self.q)

        def rows(theta: np.ndarray) -> np.ndarray:
            return np.array([[f(q + 1.0 - 2.0 * sq * c) for c in np.cos(theta)]])

        return float(_tree_measure(q, rows, np.array([0]), 1.0, 1e-9, 8.0)[0])


def kesten_tree_measure(q: int) -> TreeDensity:
    _check_q(q)
    return TreeDensity(q)


def atomic_measure(g: Graph, x0: int, x: int) -> AtomicMeasure:
    """Atoms at g's Laplacian eigenvalues with weights psi_j(x) psi_j(x0): the
    spectral measure at x0 for x = x0 (total weight 1), else total weight 0."""
    sd = spectral_data(g)
    weights = sd.eigenvectors[x, :] * sd.eigenvectors[x0, :]
    return AtomicMeasure(tuple(sd.eigenvalues.tolist()), tuple(weights.tolist()))


def tree_walk_counts(q: int, K: int) -> list[int]:
    """Closed walks of length k at a vertex of the (q+1)-regular tree, exact.

    Distance-layer recursion: from the root there are q+1 ways outward;
    from distance d >= 1 there are q ways outward and one way inward.
    """
    _check_q(q)
    layers, counts = [1] + [0] * (K + 1), [1]  # walks ending at distance 0..K+1
    for _ in range(K):
        outward = [0, (q + 1) * layers[0]] + [q * w for w in layers[1:-1]]
        layers = [w + v for w, v in zip(outward, layers[1:] + [0])]
        counts.append(layers[0])
    return counts


def _log_determinant(measure: AtomicMeasure | TreeDensity, q: int, u: float) -> float:
    """int log(1 - (q+1-lam) u + q u^2) dmu(lam), for 0 < u < 1/q only.

    There every logarithm is real: on the spectrum, 0 <= lam <= 2(q+1), the
    quadratic is at least 1 - (q+1) u + q u^2 = (1 - u)(1 - q u) > 0.
    """
    if not 0.0 < u < 1.0 / q:
        raise ValueError(f"u={u} outside the admissible interval (0, 1/{q})")
    return measure.integrate(lambda lam: math.log(1.0 - (q + 1.0 - lam) * u + q * u * u))


def zeta_spectral(measure: AtomicMeasure | TreeDensity, q: int, u: float) -> float:
    """Reciprocal zeta from a spectral measure:

        zeta(u)^{-1} = (1 - u^2)^{(q-1)/2}
                       exp( int log(1 - (q+1-lam) u + q u^2) dmu(lam) ).

    Requires 0 < u < 1/q so every logarithm stays real.
    """
    return (1.0 - u * u) ** ((q - 1) / 2.0) * math.exp(_log_determinant(measure, q, u))


# ---------------------------------------------------------------------------
# the G-transform


def g_transform_numeric(
    f: Callable[[np.ndarray], np.ndarray], q: int, u: float, rows: int = 1
) -> np.ndarray:
    """(u^{-2} - q) int_0^inf e^{-(qu + 1/u)t} e^{(q+1)t} f(t) dt, numerically.

    f takes the 1-D array of the nodes t_i that bessel._nested_trapezoid adds at
    one level (or a chunk of it) and returns the (nodes, rows) array of the rows
    functions at them ((nodes,) where rows = 1), all transformed over one node
    set: the rows x nodes array goes to bessel._nested_trapezoid.  The result is
    one value per row, each one's error estimate within the guard
    max(tol, 10 tol |value|), tol = 1e-11.  f is taken as bounded, so the
    integrand e^{-decay t} f(t) falls at the margin
    decay = qu + 1/u - (q + 1) = (1 - u)(1 - qu)/u, which certifies the cuts:
    the domain is u < 1/q or u > 1.  Tree building blocks need no other rate:
    G_q B_k(u) = q^{(1-k)/2} G_1 B_k(sqrt(q) u) (substitute t -> t / sqrt(q)).

    With tol = 1e-11, the t-integral runs from decay t = tol e^{-20} to
    decay t = ln(1/tol) + 20, so each cut drops about e^{-20} tol times the
    size of the integrand.  In between it is taken in s on the
    double-exponential map t = exp(s - e^{-s}) / decay, dt = t (1 + e^{-s}) ds
    (Takahasi and Mori 1974; Mori and Sugihara, J. Comput. Appl. Math. 2001).
    As s falls, t goes to 0 like e^{-e^{-s}}; as s rises, e^{-decay t} goes
    to 0 like e^{-e^{s}}.  So at both s-cuts the integrand and its
    derivatives are negligible, the trapezoid rule converges as on the whole
    line, geometrically (Trefethen and Weideman, SIAM Review 2014), and its
    nodes crowd at the peak near decay t = 1 instead of spreading over the
    tiny-t end.  Both cuts are on decay t and the map is scale-free, so the
    s-window is the same for every call: the module constants _S_LO and
    _S_HI, where s - e^{-s} meets ln(tol) - 20 and ln(ln(1/tol) + 20).
    s is mapped linearly onto [0, pi] for bessel._nested_trapezoid, from 8
    nodes.

    ValueError, before any node, where u is not finite and positive, u^2 is
    not a normal float (so u^{-2} would overflow), or there is no decay
    margin.  RuntimeError where a row's error estimate misses the guard
    max(tol, 10 tol |value|).
    """
    if not (math.isfinite(u) and u > 0.0):
        raise ValueError(f"u must be finite and positive, got {u}")
    if u * u < sys.float_info.min:
        raise ValueError(f"u = {u}: u^-2 overflows")
    decay = q * u + 1.0 / u - (q + 1.0)
    if decay <= 0:
        raise ValueError(
            f"u={u} gives no exponential decay margin (rate {decay}); "
            "the transform integral does not converge"
        )
    width = _S_HI - _S_LO

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = _S_LO + (width / math.pi) * theta
        e = np.exp(-s)
        t = np.exp(s - e) / decay
        values = np.asarray(f(t), dtype=float).reshape(len(t), rows)
        return values.T * np.exp(-decay * t) * t * (1.0 + e)

    scale = (1.0 / (u * u) - q) * width / math.pi
    try:
        return _nested_trapezoid(integrand, np.arange(rows), scale, _G_TOL, 8.0)
    except QuadratureError as exc:
        raise RuntimeError(f"G-transform did not converge: {exc.reason}") from exc


# ---------------------------------------------------------------------------
# two-variable zeta


def two_variable_zeta(
    g: Graph, x0: int, M: int
) -> dict[int, tuple[PowerSeries, Callable[[float], float]]]:
    """Off-diagonal two-variable zeta at every x != x0: series and spectral closed form.

    Returns {x: (log-series sum_m b_m(x) u^m / m with exact coefficients, a
    callable evaluating -sum_j psi_j(x) psi_j(x0) log(1 - (q+1-lambda_j) u
    + q u^2))}, every series from one b_coefficients run; each pair agrees on
    (0, 1/q) (verify checks it).  The diagonal x = x0 carries an extra
    d/du log u term and is not served here.
    """
    b = b_coefficients(g, x0, M)
    q = g.regularity()

    def pair(x: int) -> tuple[PowerSeries, Callable[[float], float]]:
        series = PowerSeries([Fraction(0)] + [Fraction(b[m][x], m) for m in range(1, M + 1)])
        measure = atomic_measure(g, x0, x)
        return series, lambda u: -_log_determinant(measure, q, u)

    return {x: pair(x) for x in range(g.n_vertices) if x != x0}
