"""Modified Bessel functions I_n of integer order, and the heat-kernel building block.

Two independent evaluation routes are provided: the power series and a
trapezoidal quadrature of the integral representation

    I_n(t) = (1/pi) int_0^pi e^{t cos(theta)} cos(n theta) dtheta,

which is spectrally accurate because the integrand extends to a smooth
2pi-periodic function.  A log-domain scaled evaluation e^{-t} I_n(t) keeps
large arguments from overflowing, and a uniform bound

    sqrt(t) e^{-t} I_n(t) <= (1 + n/t)^{-n/2}

gives building_block_bound, which certifies every series tail in the package.

building_blocks evaluates the whole vector of building blocks for a grid of
times at once from scipy's exponentially scaled ive (the AMOS algorithm,
ACM TOMS 644): the production evaluator behind every heat value.  The scalar
building_block and the routes above stay as its independent oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive

__all__ = [
    "bessel_i",
    "bessel_i_quadrature",
    "bessel_i_scaled",
    "bessel_upper_bound",
    "building_block",
    "building_block_bound",
    "building_block_time_derivative",
    "building_blocks",
]

# exp() overflows just above 709; keep a margin for the n-term prefactors
_EXP_LIMIT = 700.0


def _check_order_arg(order: int, t: float) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"argument must be finite and >= 0, got {t}")


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def bessel_i(order: int, t: float, tol: float = 1e-15) -> float:
    """I_order(t) by direct summation of the power series.

    Terms are accumulated until a term is below tol * (sum + tol) and the
    term index is past the mode of the summand, after which the terms decay
    faster than geometrically: relative to the sum, with an absolute floor
    of about tol^2 below which values carry no relative accuracy.
    """
    _check_order_arg(order, t)
    _check_tol(tol)
    if t == 0.0:
        return 1.0 if order == 0 else 0.0
    if t > _EXP_LIMIT:
        raise OverflowError(
            f"bessel_i overflows for t={t}; use bessel_i_scaled(order, t)"
        )
    half = t / 2.0
    # leading term (t/2)^order / order!, in log form so large orders underflow
    # gracefully instead of tripping pow() overflow on intermediate factors
    log_lead = order * math.log(half) - math.lgamma(order + 1)
    if log_lead < -745.0:
        return 0.0
    term = math.exp(log_lead)
    total = term
    n = 0
    while True:
        n += 1
        term *= half * half / (n * (n + order))
        total += term
        if term < tol * (total + tol) and 2 * n + order > t:
            break
        if n > 10_000_000:  # pragma: no cover
            raise RuntimeError("bessel_i series failed to terminate")
    return total


def bessel_i_scaled(order: int, t: float) -> float:
    """Exponentially scaled value e^{-t} I_order(t), safe for any t >= 0.

    The series is summed entirely in the log domain (streaming log-sum-exp),
    so no intermediate quantity can overflow.
    """
    _check_order_arg(order, t)
    if t == 0.0:
        return 1.0 if order == 0 else 0.0
    log_half = math.log(t / 2.0)
    log_term = order * log_half - math.lgamma(order + 1)
    # streaming log-sum-exp: track the running max and rescaled sum
    log_max = log_term
    acc = 1.0
    n = 0
    quarter_sq = (t / 2.0) ** 2
    while True:
        n += 1
        log_term += 2.0 * log_half - math.log(n) - math.log(n + order)
        if log_term > log_max:
            acc = acc * math.exp(log_max - log_term) + 1.0
            log_max = log_term
        else:
            acc += math.exp(log_term - log_max)
        if n * (n + order) > quarter_sq and log_term < log_max - 45.0:
            break
        if n > 10_000_000:  # pragma: no cover
            raise RuntimeError("bessel_i_scaled series failed to terminate")
    return math.exp(log_max + math.log(acc) - t)


def bessel_i_quadrature(order: int, t: float, nodes: int = 64) -> float:
    """I_order(t) via the trapezoidal rule on the integral representation.

    The rule uses a fixed number of nodes on [0, pi]; for this analytic
    periodic integrand the error decays geometrically in the node count.
    """
    _check_order_arg(order, t)
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    if t > _EXP_LIMIT:
        raise OverflowError(
            f"bessel_i_quadrature overflows for t={t}; use bessel_i_scaled"
        )
    h = math.pi / nodes
    total = 0.5 * (math.exp(t) + math.exp(-t) * math.cos(math.pi * order))
    for i in range(1, nodes):
        theta = i * h
        total += math.exp(t * math.cos(theta)) * math.cos(theta * order)
    return total * h / math.pi


def bessel_upper_bound(order: int, t: float) -> float:
    """Upper bound on the scaled value: e^{-t} I_order(t) <= this.

    Returns (1/sqrt(t)) (1 + order/t)^{-order/2}.
    """
    _check_order_arg(order, t)
    if t <= 0:
        raise ValueError("t must be positive")
    if order == 0:
        return 1.0 / math.sqrt(t)
    return math.exp(
        -0.5 * math.log(t) - 0.5 * order * math.log1p(order / t)
    )


def building_block(q: int, r: int, t: float, tol: float = 1e-15) -> float:
    """The radial building block q^{-r/2} e^{-(q+1)t} I_r(2 sqrt(q) t).

    Since (q+1) - 2 sqrt(q) = (sqrt(q)-1)^2 >= 0 the value lies in [0, 1];
    large arguments are routed through the scaled evaluation so the result
    never overflows.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_order_arg(r, t)
    if t == 0.0:
        return 1.0 if r == 0 else 0.0
    arg = 2.0 * math.sqrt(q) * t
    shrink = (math.sqrt(q) - 1.0) ** 2  # (q+1) - 2 sqrt(q)
    if arg > 500.0:
        scaled = bessel_i_scaled(r, arg)
    else:
        scaled = math.exp(-arg) * bessel_i(r, arg, tol)
    return math.exp(-0.5 * r * math.log(q) - shrink * t) * scaled


def building_block_bound(q: int, m: int, t: float, power: int = 0) -> float:
    """Uniform bound q^power * building_block(q, m, t) <= this, for t > 0.

    Returns q^{power - m/2} e^{-(sqrt(q)-1)^2 t} bessel_upper_bound(m, 2 sqrt(q) t).
    The power of q a caller's coefficient bound carries enters the exponent
    together with q^{-m/2}, so a coefficient growing like q^{m-1} never
    overflows on its own.
    """
    shrink = (math.sqrt(q) - 1.0) ** 2  # (q+1) - 2 sqrt(q)
    log_scale = (power - 0.5 * m) * math.log(q) - shrink * t
    return math.exp(log_scale) * bessel_upper_bound(m, 2.0 * math.sqrt(q) * t)


def building_blocks(q: int, M: int, ts) -> np.ndarray:
    """blocks[k, m] = building_block(q, m, ts[k]) for m = 0..M, as one array.

    Computed as exp(-m/2 log q - (sqrt(q)-1)^2 t) * ive(m, 2 sqrt(q) t),
    where ive(m, x) = e^{-x} I_m(x) lies in [0, 1]: both factors are at most
    one, so nothing overflows for any finite t, and t = 0 gives the
    indicator of m = 0 exactly.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if M < 0:
        raise ValueError(f"order must be >= 0, got {M}")
    ts = np.asarray(ts, dtype=float).reshape(-1)
    for t in ts.tolist():
        _check_time(t)
    m = np.arange(M + 1)
    log_prefactor = -0.5 * math.log(q) * m - (math.sqrt(q) - 1.0) ** 2 * ts[:, None]
    return np.exp(log_prefactor) * ive(m, 2.0 * math.sqrt(q) * ts[:, None])


def building_block_time_derivative(q: int, r: int, t: float, tol: float = 1e-15) -> float:
    """Analytic d/dt of building_block(q, r, t).

    The derivative recurrence 2 I_r' = I_{r-1} + I_{r+1} gives
    B_{r-1} + q B_{r+1} - (q+1) B_r, with B_{-1} = q B_1 because
    I_{-1} = I_1; used to make heat-equation residual checks tight.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    below = building_block(q, r - 1, t, tol) if r > 0 else q * building_block(q, 1, t, tol)
    return below + q * building_block(q, r + 1, t, tol) - (q + 1) * building_block(q, r, t, tol)
