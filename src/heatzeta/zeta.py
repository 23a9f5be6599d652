"""Ihara-type zeta functions and the Laplace-transform bridge from heat kernels.

log zeta is computed four ways and cross-checked:

* directly from closed-geodesic counts, sum_m N_m u^m / m, exact rationals,
* as an Euler product over prime geodesic classes, prod (1 - u^k)^{-pi_k},
* from the determinant formula through Laplacian eigenvalues,
* pointwise from a spectral measure (atomic for finite graphs, the
  arcsine-type density of the infinite regular tree otherwise).

The bridge is the weighted Laplace transform

    Gf(u) = (u^{-2} - q) int_0^inf e^{-(qu + 1/u)t} e^{(q+1)t} f(t) dt,

which sends each heat-kernel building block of order k to u^{k-1} and the
diagonal heat kernel to the logarithmic derivative of zeta plus elementary
terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from heatzeta.bessel import bessel_i_scaled
from heatzeta.graphs import Graph
from heatzeta.heat_graph import b_coefficients, spectral_data
from heatzeta.series import PowerSeries

__all__ = [
    "AtomicMeasure",
    "GTransformResult",
    "TreeDensity",
    "atomic_measure",
    "euler_product_series",
    "g_transform_numeric",
    "ihara_determinant_series",
    "kesten_tree_measure",
    "laplace_identity_check",
    "recover_counts",
    "tree_walk_counts",
    "two_variable_zeta",
    "zeta_log_series_from_counts",
    "zeta_spectral",
]


def _guarded_quad(f, upper, tol, epsabs, limit, what, scale=1.0) -> tuple[float, float]:
    """scale times quad's integral of f over [0, upper], and its error estimate.

    The one guard of every quadrature here: quad's IntegrationWarning is
    silenced, and RuntimeError is raised when the scaled estimate exceeds
    100 max(tol, |value| tol).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        integral, err = quad(f, 0.0, upper, epsabs=epsabs, epsrel=tol, limit=limit)
    value, err = scale * integral, abs(scale) * err
    if err > 100 * max(tol, abs(value) * tol):
        raise RuntimeError(f"{what} did not converge: estimated error {err}")
    return value, err


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
    """log zeta^{Ih} to order M from the determinant formula.

    With alpha_j = q + 1 - lambda_j, the reciprocal zeta is
    (1 - u^2)^{n(q-1)/2} prod_j (1 - alpha_j u + q u^2); taking -log and
    expanding via Newton power sums s_m = alpha s_{m-1} - q s_{m-2} gives

        m [u^m] log zeta^{Ih} = sum_j s_m(alpha_j) + n (q - 1) [m even].

    Coefficients are floats (they come through the eigen-solve); use
    recover_counts to round them back to the integers N_m.  Past float
    range they come out inf or nan, silently: the caller checks.
    """
    sd = spectral_data(g)
    q = sd.q
    n = g.n_vertices
    alphas = (q + 1.0) - sd.eigenvalues
    s_prev = np.full_like(alphas, 2.0)  # s_0 = 2 roots
    s_cur = alphas.copy()  # s_1
    coeffs = [0.0, float(np.sum(s_cur))]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(2, M + 1):
            s_next = alphas * s_cur - q * s_prev
            s_prev, s_cur = s_cur, s_next
            total = float(np.sum(s_cur))
            if m % 2 == 0:
                total += n * (q - 1)
            coeffs.append(total / m)
    return PowerSeries(coeffs)


def recover_counts(log_series: PowerSeries, guard: float = 1e-6) -> list[int]:
    """m * [u^m] of a float log-zeta series, rounded to the integers N_m.

    Raises if any pre-round deviation exceeds the guard.
    """
    counts = [0]
    for m in range(1, log_series.order + 1):
        raw = m * float(log_series[m])
        rounded = round(raw)
        if abs(raw - rounded) > guard:
            raise ValueError(f"coefficient m={m}: {raw} is not integral within {guard}")
        counts.append(int(rounded))
    return counts


# ---------------------------------------------------------------------------
# spectral measures


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite-graph spectral measure at a base vertex: weights psi_j(x0)^2."""

    points: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class TreeDensity:
    """Continuous Laplacian spectral density of the infinite (q+1)-regular tree.

    Supported on [q + 1 - 2 sqrt(q), q + 1 + 2 sqrt(q)] with density

        d(lam) = (q+1) sqrt(4q - (q+1-lam)^2) / (2 pi ((q+1)^2 - (q+1-lam)^2)).

    This density is admitted only through its moment oracle: integrals of
    (q + 1 - lam)^k must reproduce exact closed-walk counts on the tree.
    """

    q: int

    def integrate(self, f: Callable[[float], float], tol: float = 1e-11) -> float:
        """Integral of f against the measure, via the smoothing substitution
        q + 1 - lam = 2 sqrt(q) cos(theta)."""
        q = self.q
        sq = math.sqrt(q)

        def integrand(theta: float) -> float:
            lam = q + 1.0 - 2.0 * sq * math.cos(theta)
            density = (
                2.0
                * q
                * (q + 1.0)
                * math.sin(theta) ** 2
                / (math.pi * ((q + 1.0) ** 2 - 4.0 * q * math.cos(theta) ** 2))
            )
            return f(lam) * density

        return _guarded_quad(integrand, math.pi, tol, tol, 300, "spectral integral")[0]


def kesten_tree_measure(q: int) -> TreeDensity:
    if q < 1:
        raise ValueError("q must be >= 1")
    return TreeDensity(q)


def atomic_measure(g: Graph, x0: int) -> AtomicMeasure:
    sd = spectral_data(g)
    weights = sd.eigenvectors[x0, :] ** 2
    return AtomicMeasure(tuple(sd.eigenvalues.tolist()), tuple(weights.tolist()))


def tree_walk_counts(q: int, K: int) -> list[int]:
    """Closed walks of length k at a vertex of the (q+1)-regular tree, exact.

    Distance-layer recursion: from the root there are q+1 ways outward;
    from distance d >= 1 there are q ways outward and one way inward.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    layers = [0] * (K + 2)
    layers[0] = 1
    counts = [1]
    for _ in range(K):
        nxt = [0] * (K + 2)
        for d, w in enumerate(layers):
            if w == 0:
                continue
            if d == 0:
                nxt[1] += (q + 1) * w
            else:
                if d + 1 < len(nxt):
                    nxt[d + 1] += q * w
                nxt[d - 1] += w
        layers = nxt
        counts.append(layers[0])
    return counts


def _log_quadratic(alpha: float, q: int, u: float) -> float:
    value = 1.0 - alpha * u + q * u * u
    if value <= 0.0:
        raise AssertionError(
            f"quadratic 1 - {alpha} u + {q} u^2 is nonpositive at u={u}; "
            "u is outside the admissible domain"
        )
    return math.log(value)


def zeta_spectral(measure: AtomicMeasure | TreeDensity, q: int, u: float) -> float:
    """Reciprocal zeta from a spectral measure:

        zeta(u)^{-1} = (1 - u^2)^{(q-1)/2}
                       exp( int log(1 - (q+1-lam) u + q u^2) dmu(lam) ).

    Requires 0 < u < 1/q so every logarithm stays real.
    """
    if not 0.0 < u < 1.0 / q:
        raise ValueError(f"u={u} outside the admissible interval (0, 1/{q})")
    if isinstance(measure, AtomicMeasure):
        integral = math.fsum(
            w * _log_quadratic(q + 1.0 - lam, q, u)
            for lam, w in zip(measure.points, measure.weights)
        )
    else:
        integral = measure.integrate(lambda lam: _log_quadratic(q + 1.0 - lam, q, u))
    return (1.0 - u * u) ** ((q - 1) / 2.0) * math.exp(integral)


# ---------------------------------------------------------------------------
# the G-transform


@dataclass(frozen=True)
class GTransformResult:
    u: float
    value: float
    quadrature_error: float


def g_transform_numeric(
    f: Callable[[float], float],
    q: int,
    u: float,
    tol: float = 1e-10,
    growth_rate: float | None = None,
) -> GTransformResult:
    """(u^{-2} - q) int_0^inf e^{-(qu + 1/u)t} e^{(q+1)t} f(t) dt, numerically.

    growth_rate bounds the exponential growth of e^{(q+1)t} f(t): it
    defaults to q+1 (right for bounded f such as finite-graph heat
    kernels); pass 2 sqrt(q) for single tree building blocks.  The
    truncation point of the t-integral is certified from the resulting
    decay margin.  Raises RuntimeError when quad's error estimate exceeds
    100 max(tol, |value| tol), the guard of every quadrature in this module.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if growth_rate is None:
        growth_rate = q + 1.0
    decay = q * u + 1.0 / u - growth_rate
    if decay <= 0:
        raise ValueError(
            f"u={u} gives no exponential decay margin (rate {decay}); "
            "the transform integral does not converge"
        )
    upper = (math.log(1.0 / tol) + 20.0) / decay
    rate = (q + 1.0) - q * u - 1.0 / u

    def integrand(t: float) -> float:
        return math.exp(rate * t) * f(t)

    scale = 1.0 / (u * u) - q
    value, err = _guarded_quad(integrand, upper, tol, tol * 1e-2, 400, "G-transform", scale)
    return GTransformResult(u, value, err)


def laplace_identity_check(n: int, s: float, tol: float = 1e-12) -> tuple[float, float]:
    """Calibration identity for the quadrature stack:

        int_0^inf e^{-st} e^{-t} I_n(t) dt
            = (s + 1 - sqrt(s^2 + 2s))^n / sqrt(s^2 + 2s).

    Returns (numeric integral, closed form).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if n < 0:
        raise ValueError("n must be >= 0")
    upper = (math.log(1.0 / tol) + 20.0) / s

    def integrand(t: float) -> float:
        return math.exp(-s * t) * bessel_i_scaled(n, t)

    numeric, _ = _guarded_quad(integrand, upper, tol, tol, 400, "calibration integral")
    root = math.sqrt(s * s + 2.0 * s)
    closed = (s + 1.0 - root) ** n / root
    return numeric, closed


# ---------------------------------------------------------------------------
# two-variable zeta


def two_variable_zeta(
    g: Graph, x0: int, x: int, M: int
) -> tuple[PowerSeries, Callable[[float], float]]:
    """Off-diagonal two-variable zeta: series and spectral closed form.

    Returns (log-series sum_m b_m(x) u^m / m with exact coefficients, and a
    callable evaluating -sum_j psi_j(x) psi_j(x0) log(1 - (q+1-lambda_j) u
    + q u^2)); the two agree on (0, 1/q) (verify checks it).  The diagonal
    x = x0 carries an extra d/du log u term and is not served here.
    """
    if x == x0:
        raise ValueError("diagonal case is served by zeta_log_series_from_counts")
    b = b_coefficients(g, x0, M)
    coeffs = [Fraction(0)] + [Fraction(b[m][x], m) for m in range(1, M + 1)]
    series = PowerSeries(coeffs)
    sd = spectral_data(g)
    q = sd.q
    weights = sd.eigenvectors[x, :] * sd.eigenvectors[x0, :]
    lams = sd.eigenvalues

    def spectral_log_zeta(u: float) -> float:
        if not 0.0 < u < 1.0 / q:
            raise ValueError(f"u={u} outside (0, 1/{q})")
        return -math.fsum(
            w * _log_quadratic(q + 1.0 - lam, q, u)
            for lam, w in zip(lams, weights)
        )

    return series, spectral_log_zeta
