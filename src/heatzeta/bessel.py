"""Modified Bessel functions I_n of integer order, and the heat-kernel building block.

Two independent evaluation routes are provided: the power series and a
trapezoidal quadrature of the integral representation

    I_n(t) = (1/pi) int_0^pi e^{t cos(theta)} cos(n theta) dtheta,

which is spectrally accurate because the integrand extends to a smooth
2pi-periodic function.  A log-domain scaled evaluation e^{-t} I_n(t) keeps
large arguments from overflowing, and a uniform bound

    sqrt(t) e^{-t} I_n(t) <= (1 + n/t)^{-n/2}

gives log_block_bound.  certified_truncation turns it into the one truncation
rule of every building-block series in the package, whatever its weights.

log_building_blocks evaluates the log of the whole vector of building blocks
at one time from Miller's backward recurrence for the ratios I_{m+1}/I_m:
the production evaluator behind every heat value, in float range at any t.
The scalar building_block and the routes above stay as its independent
oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_i",
    "bessel_i_quadrature",
    "bessel_i_scaled",
    "bessel_upper_bound",
    "building_block",
    "building_block_time_derivative",
    "certified_truncation",
    "log_block_bound",
    "log_building_blocks",
]

# exp() overflows just above 709; keep a margin for the n-term prefactors
_EXP_LIMIT = 700.0
# longest ratio recurrence log_building_blocks runs: a time and memory guard
MAX_RECURRENCE = 1_000_000
# L of the Miller start of log_building_blocks
_MILLER_LOG = 54.0


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

    Terms are accumulated until a term is at most tol times the sum and
    the term index is past the mode of the summand, after which the terms
    decay faster than geometrically, so the rule is relative at every
    magnitude.  "At most" rather than "below": where tol times a subnormal
    sum rounds to 0, the sum ends once the terms underflow to 0 as well.
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
    # leading term (t/2)^order / order! as a product, whose partial products stay
    # below e^{t/2}: the log form, two logs near 300 apart, loses 1e-13 relative
    if order * math.log(half) - math.lgamma(order + 1) < -745.0:
        return 0.0
    term = 1.0
    for j in range(1, order + 1):
        term *= half / j
    total = term
    n = 0
    while True:
        n += 1
        term *= half * half / (n * (n + order))
        total += term
        if term <= tol * total and 2 * n + order > t:
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


def log_building_blocks(q: int, M: int, t: float) -> np.ndarray:
    """ln building_block(q, m, t) for m = 0..M at one t, as one vector.

    With tau = 2 sqrt(q) t, Miller's backward recurrence
    r_k = 1 / (2(k+1)/tau + r_{k+1}) from r_N = 0 (Gautschi, SIAM Review 1967)
    gives the ratios r_k = I_{k+1}(tau) / I_k(tau); the cumulative sums of
    their logs, compensated for rounding, are ln(I_m / I_0);
    e^tau = I_0 (1 + 2 sum_{m>=1} I_m / I_0) normalises them, and
    -(m/2) ln q - (sqrt(q)-1)^2 t is added.  No ratio exceeds 1, so nothing
    overflows at any t; t = 0 gives 0 and -inf.

    The start N = M + d, d >= L/3 + sqrt(L^2/9 + 2 L tau), L = 54: Turan's
    inequality r_k <= r_{k-1} and the log-convexity of K_m in m give
    r_k <= e^{-a_k} <= K_k / K_{k+1}, a_k = asinh(k/tau), so the start is off
    by I_{N+1} K_m / (I_m K_{N+1}) <= exp(-2 sum_{k=m}^N a_k) relative at
    order m, and the normalisation, terms past N included, by at most
    (4N + 5 + 3 tau / N) e^{-A}, A = sum_{k=M}^N a_k.  As a_{M+j} >= ln(1 + j/tau),
    A >= (tau + d) ln(1 + d/tau) - d >= d^2 / (2 tau + 2d/3) >= L, and with
    N <= MAX_RECURRENCE no ln value is off by 2e-17 before rounding.
    ValueError, before anything is allocated, where M + d > MAX_RECURRENCE.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if M < 0:
        raise ValueError(f"order must be >= 0, got {M}")
    _check_time(t)
    if t == 0.0:
        return np.where(np.arange(M + 1) == 0, 0.0, -np.inf)
    tau = 2.0 * math.sqrt(q) * t
    third = _MILLER_LOG / 3.0
    margin = third + math.hypot(third, math.sqrt(2.0 * _MILLER_LOG) * math.sqrt(tau))
    if M + margin > MAX_RECURRENCE:  # in float, so that tau = inf refuses too
        raise ValueError(
            f"t = {t}: the Bessel ratio recurrence needs {M + margin:.4g} terms, "
            f"more than {MAX_RECURRENCE}"
        )
    ratio, ratios = 0.0, []
    for k in range(M + math.ceil(margin), 0, -1):
        ratio = 1.0 / (2.0 * k / tau + ratio)  # I_k / I_{k-1}
        ratios.append(ratio)
    # TwoSum: each addition's exact rounding error, summed apart; the plain
    # cumulative sum loses about 1e-11 relative at t = 1e4.  Where tau is
    # subnormal, 2k / tau overflows and the ratios are 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log([1.0] + ratios[::-1])
        log_rel = np.cumsum(logs)
        before = np.concatenate(([0.0], log_rel[:-1]))
        added = log_rel - before
        rounding = np.nan_to_num((before - (log_rel - added)) + (logs - added), nan=0.0)
    log_rel += np.cumsum(rounding)
    log_norm = math.log(2.0 * np.exp(log_rel).sum() - 1.0)  # ln(e^tau / I_0)
    # the constants first: each rounding at the size of ln B costs about |ln B| eps
    offset = 0.5 * math.log(q) * np.arange(M + 1) + (log_norm + (math.sqrt(q) - 1.0) ** 2 * t)
    return log_rel[: M + 1] - offset


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


def log_block_bound(q: int, m: int, t: float) -> float:
    """ln of a bound on building_block(q, m, t), t > 0, in float range for every m.

    -(m/2) ln q - (sqrt(q)-1)^2 t + ln bessel_upper_bound(m, tau), tau = 2 sqrt(q) t:
    it falls in m and is concave in m, as m ln(1 + m/tau) is convex.
    """
    tau = 2.0 * math.sqrt(q) * t
    return (
        -0.5 * m * math.log(q)
        - (math.sqrt(q) - 1.0) ** 2 * t
        - 0.5 * math.log(tau)
        - 0.5 * m * math.log1p(m / tau)
    )


def certified_truncation(
    q: int, t: float, tol: float, first: int, step: int, weight: float, power: float = 0.0
) -> tuple[int, float]:
    """Smallest certified last order M of a building-block series, and its tail bound.

    The terms sit at orders first, first + step, ... (first >= 1) and are at
    most weight q^{power m} building_block(q, m, t).  Their log bound
    beta(m) = ln weight + power m ln q + log_block_bound(q, m, t) is concave
    in m, so once beta(M + step) < beta(M) the tail past M is at most
    next / (1 - next / current), next = e^{beta(M + step)}, current = e^{beta(M)}.
    That test fails before the peak of beta and holds for good after, so
    doubling, then bisection, from first - step (or first if negative) finds M.
    A zero weight, or t = 0, has no tail: M is that start and the bound 0.
    ValueError where the search passes order 2^53, past which orders are
    inexact as floats.
    """
    _check_tol(tol)
    _check_time(t)
    start = first - step if first >= step else first
    if weight == 0.0 or t == 0.0:
        return start, 0.0
    log_tol = math.log(tol)

    def beta(m: int) -> float:
        return math.log(weight) + power * m * math.log(q) + log_block_bound(q, m, t)

    def log_tail(m: int) -> float:
        current, following = beta(m), beta(m + step)
        if following == -math.inf:  # 1 + m/tau overflows where t is subnormal
            return -math.inf
        if following >= current:
            return math.inf
        return following - math.log1p(-math.exp(following - current))

    # lo is uncertified (start - step stands for "no order yet") and hi certified
    lo, width = start - step, step
    while log_tail(lo + width) >= log_tol:
        lo, width = lo + width, 2 * width
        if lo + width > 2**53:
            raise ValueError(f"t = {t}: the series runs past order 2^53, where floats are inexact")
    hi = lo + width
    while hi - lo > step:
        mid = lo + (hi - lo) // (2 * step) * step
        if log_tail(mid) < log_tol:
            hi = mid
        else:
            lo = mid
    return hi, math.exp(log_tail(hi))
