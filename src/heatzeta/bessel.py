"""Modified Bessel functions I_n of integer order, and the heat-kernel building block.

Two independent evaluation routes are provided: the power series and a
trapezoidal quadrature of the integral representation

    I_n(t) = (1/pi) int_0^pi e^{t cos(theta)} cos(n theta) dtheta,

which is spectrally accurate because the integrand extends to a smooth
2pi-periodic function.  A log-domain scaled evaluation e^{-t} I_n(t) keeps
large arguments from overflowing, and a uniform bound

    sqrt(t) e^{-t} I_n(t) <= (1 + n/t)^{-n/2}

certifies series tails elsewhere in the package.
"""

from __future__ import annotations

import math

__all__ = [
    "bessel_i",
    "bessel_i_derivative",
    "bessel_i_quadrature",
    "bessel_i_scaled",
    "bessel_upper_bound",
    "building_block",
    "building_block_time_derivative",
]

# exp() overflows just above 709; keep a margin for the n-term prefactors
_EXP_LIMIT = 700.0


def _check_order_arg(order: int, t: float) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"argument must be finite and >= 0, got {t}")


def bessel_i(order: int, t: float, tol: float = 1e-15) -> float:
    """I_order(t) by direct summation of the power series.

    Terms are accumulated until the next term is below tol relative to the
    running sum and the term index is past the mode of the summand, after
    which the terms decay faster than geometrically.
    """
    _check_order_arg(order, t)
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def bessel_i_derivative(order: int, t: float, tol: float = 1e-15) -> float:
    """d/dt I_order(t) via the recurrence I_{n-1} + I_{n+1} = 2 I_n'.

    Uses I_{-1} = I_1 for the order-zero case.
    """
    _check_order_arg(order, t)
    if t <= 0:
        raise ValueError("t must be positive")
    lower = abs(order - 1)  # I_{-1} = I_1
    return 0.5 * (bessel_i(lower, t, tol) + bessel_i(order + 1, t, tol))


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


def building_block_time_derivative(q: int, r: int, t: float, tol: float = 1e-15) -> float:
    """Analytic d/dt of building_block(q, r, t).

    Product rule plus the derivative recurrence for I_r; used to make
    heat-equation residual checks tight.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_order_arg(r, t)
    if t <= 0:
        raise ValueError("t must be positive")
    arg = 2.0 * math.sqrt(q) * t
    if arg > 500.0:
        i_r = bessel_i_scaled(r, arg)
        i_pair = bessel_i_scaled(abs(r - 1), arg) + bessel_i_scaled(r + 1, arg)
        prefactor = math.exp(-0.5 * r * math.log(q) - ((math.sqrt(q) - 1.0) ** 2) * t)
    else:
        i_r = bessel_i(r, arg, tol)
        i_pair = bessel_i(abs(r - 1), arg, tol) + bessel_i(r + 1, arg, tol)
        prefactor = math.exp(-0.5 * r * math.log(q) - (q + 1) * t)
    return prefactor * (math.sqrt(q) * i_pair - (q + 1) * i_r)
