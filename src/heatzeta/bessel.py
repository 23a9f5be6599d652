"""Modified Bessel functions I_n of integer order, and the heat-kernel building block.

Two independent evaluation routes are provided: one power series and a
trapezoidal quadrature of the integral representation

    I_n(t) = (1/pi) int_0^pi e^{t cos(theta)} cos(n theta) dtheta,

spectrally accurate on this smooth 2pi-periodic integrand; _nested_trapezoid,
the package's one quadrature rule, also serves every integral of heat_tree
and zeta.  The series rescales itself by exact powers 2^-512, so bessel_i
is the plain sum and bessel_i_scaled, e^{-t} I_n(t), is in float range at
any t with no switch of route.  bessel_i_quadrature integrates the row
of orders 0..N over one node set.
A uniform bound

    sqrt(t) e^{-t} I_n(t) <= (1 + n/t)^{-n/2}

in log form gives log_block_bound, the one bound on a building block;
certified_truncation turns it into the one truncation rule of every
building-block series in the package, whatever its weights.

log_building_blocks evaluates the log of the whole vector of building blocks
at one time from Miller's backward recurrence for the ratios I_{m+1}/I_m:
the production evaluator behind every heat value, in float range at any t.
The scalar building_block and the routes above stay as its independent
oracle, and verify's G-transform of building blocks integrates it against
the paper's closed form u^{k-1}.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "bessel_i",
    "bessel_i_quadrature",
    "bessel_i_scaled",
    "building_block",
    "certified_truncation",
    "log_block_bound",
    "log_building_blocks",
]

# exp() overflows just above 709; keep a margin for the n-term prefactors
_EXP_LIMIT = 700.0
# the power series' exact rescale, and fdlibm's Cody-Waite split of ln 2
_RESCALE, _UNSCALE = 2.0**512, 2.0**-512
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# longest ratio recurrence log_building_blocks runs: a time and memory guard
MAX_RECURRENCE = 1_000_000
# L of the Miller start of log_building_blocks
_MILLER_LOG = 54.0
# (rows x nodes) entries per chunk of the trapezoid rule: 2^17 floats are 1 MB an array
_CHUNK_ENTRIES = 1 << 17
# the trapezoid rule converges long before this; t up to about 1e10 starts below it
_MAX_NODES = 1 << 20
# largest argument of bessel_i_scaled: its exponent k stays below 2^21 (see there)
MAX_SCALED_ARGUMENT = 1.45e6


def _check_order_arg(order: int, t: float) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"argument must be finite and >= 0, got {t}")


def _check_q(q: int) -> None:
    if q < 1:
        raise ValueError("q must be >= 1")


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _power_series(order: int, t: float) -> tuple[float, int]:
    """I_order(t) = mantissa 2^{512 s}, by summing the power series.

    The leading term (t/2)^order / order! is a product (the log form loses
    1e-13 relative).  Terms are added until one is at most 1e-15 times the
    sum past the mode of the summand: relative at every magnitude, and a
    subnormal sum ends once its terms underflow to 0.  In both loops a value
    past 2^512 is multiplied by 2^-512, exactly, and s counts those rescales:
    the mantissa ends at most 2^512, and s = 0 below t = 354 (I_order <= e^t).
    Against 40-digit mpmath it is off by 60-80 u, u = 2^-53, at t = 1e4 (orders 0, 50): the
    term recurrence's roundings add up like sqrt(n) over the ~t/2 terms before the peak, so
    Kahan summation reads 64-73 u there, while terms rounded once sum to within 3.3 u.
    """
    half = t / 2.0
    if half == 0.0:  # t = 0, or the least subnormal, whose half rounds to 0
        return (1.0 if order == 0 else 0.0), 0
    if order * math.log(half) - math.lgamma(order + 1) < -745.0:
        return 0.0, 0
    term, s = 1.0, 0
    for j in range(1, order + 1):
        term *= half / j
        if term > _RESCALE:
            term, s = term * _UNSCALE, s + 1
    total = term
    n = 0
    while True:
        n += 1
        term *= half * half / (n * (n + order))
        total += term
        if total > _RESCALE:
            term, total, s = term * _UNSCALE, total * _UNSCALE, s + 1
        if term <= 1e-15 * total and 2 * n + order > t:
            break
        if n > 10_000_000:  # pragma: no cover
            raise RuntimeError("Bessel power series failed to terminate")
    return total, s


def bessel_i(order: int, t: float) -> float:
    """I_order(t) from _power_series, whose exact rescales leave the plain sum's bits."""
    _check_order_arg(order, t)
    if t > _EXP_LIMIT:
        raise OverflowError(f"bessel_i overflows for t={t}; use bessel_i_scaled(order, t)")
    mantissa, s = _power_series(order, t)
    return math.ldexp(mantissa, 512 * s)


def bessel_i_scaled(order: int, t: float) -> float:
    """Exponentially scaled value e^{-t} I_order(t), safe for any t >= 0.

    With I_order(t) = mantissa 2^k from _power_series (k = 512 s, plus one more
    2^512 taken from the mantissa and returned by ldexp where s > 0, so that
    the exponential is at least the value and underflows only where it does),
    the value is mantissa e^{k ln2_hi - t} e^{k ln2_lo}, ln 2 split as in fdlibm.
    ln2_hi has 32 significant bits, so k ln2_hi is exact for k < 2^21; the
    mantissa exceeds 1 where s > 0, so k < t / ln 2 + 512 < 2^21 for
    t <= MAX_SCALED_ARGUMENT, and a larger t is refused with ValueError
    before the series runs.  At orders up to t/2 with s > 0,
    ln I_order(t) <= k ln 2 <= ln I_order(t) + 355 puts k ln2_hi in [t/2, 2t],
    and by Sterbenz's lemma k ln2_hi - t is exact.
    """
    _check_order_arg(order, t)
    if t > MAX_SCALED_ARGUMENT:
        raise ValueError(
            f"t = {t}: bessel_i_scaled is exact only up to t = {MAX_SCALED_ARGUMENT:g}"
        )
    mantissa, s = _power_series(order, t)
    fold = 512 if s else 0
    k = 512 * s + fold
    return math.ldexp(mantissa * math.exp(k * _LN2_HI - t) * math.exp(k * _LN2_LO), -fold)


def bessel_i_quadrature(N: int, t: float) -> np.ndarray:
    """I_n(t) for n = 0..N by _nested_trapezoid on the integral representation, one row
    per order over shared nodes, tol 1e-10, from N + 4 sqrt(t + 1) + 8 nodes, which
    resolve e^{t cos(theta)} cos(N theta)."""
    _check_order_arg(N, t)
    if t > _EXP_LIMIT:
        raise OverflowError(f"bessel_i_quadrature overflows for t={t}; use bessel_i_scaled")
    orders = np.arange(N + 1)
    ends = 0.5 * (math.exp(t) + math.exp(-t) * (-1.0) ** orders)
    return _nested_trapezoid(
        lambda x: np.exp(t * np.cos(x)) * np.cos(orders[:, None] * x),
        orders, 1.0 / math.pi, 1e-10, N + 4.0 * math.sqrt(t + 1.0) + 8.0, ends,
    )


class QuadratureError(RuntimeError):
    """The trapezoid rule missed its error guard; r is the first row (radius or order) that did."""

    def __init__(self, r: int, reason: str):
        super().__init__(f"r = {r}: {reason}")
        self.r = r
        self.reason = reason


def _nested_trapezoid(integrand, rows: np.ndarray, scale, tol: float, start: float, ends=0.0):
    """scale (pi/n) (ends + sum_{0<j<n} f(j pi / n)) per row: the trapezoid rule on [0, pi].

    f = integrand(nodes) is a (rows x nodes) array, evaluated in chunks of
    about _CHUNK_ENTRIES entries; ends, one value or one per row, is half
    its sum at 0 and pi, which are never evaluated.  n starts at the power
    of two past start and doubles over nested nodes until each row's
    |T_2n - T_n| plus QUADPACK's rounding term 50 eps (pi/n) |scale| sum |f|
    is at most max(tol, 10 tol |value|).
    QuadratureError names the first row whose sum of |f| is not finite (at
    the node set where that first happens), whose rounding term alone
    exceeds that guard, or that misses it at _MAX_NODES.
    """
    step = max(1, _CHUNK_ENTRIES // max(1, len(rows)))

    def sums(nodes):  # per row, the sums of f and of |f| over the nodes
        both = np.zeros((2, len(rows)))
        for lo in range(0, len(nodes), step):
            f = integrand(nodes[lo : lo + step])
            both += f.sum(axis=1), np.abs(f).sum(axis=1)
        return both

    def finite(total):  # a non-finite f makes every error estimate NaN: refuse it at once
        bad = ~np.isfinite(total[1])
        if bad.any():
            raise QuadratureError(int(rows[np.argmax(bad)]), f"integrand is not finite at {n} nodes")
        return total

    n = 1 << math.ceil(math.log2(start))
    ends = np.broadcast_to(ends, rows.shape)
    total = finite(sums(np.arange(1, n) * (math.pi / n)) + [ends, np.abs(ends)])
    value = scale * (math.pi / n) * total[0]
    while True:
        n *= 2
        total = finite(total + sums(np.arange(1, n, 2) * (math.pi / n)))
        previous, value = value, scale * (math.pi / n) * total[0]
        rounding = 50.0 * np.finfo(float).eps * (math.pi / n) * np.abs(scale) * total[1]
        error = np.abs(value - previous) + rounding
        guard = np.maximum(tol, 10.0 * tol * np.abs(value))
        if np.all(error <= guard):
            return value
        if np.any(rounding > guard):
            first = int(np.argmax(rounding > guard))
            raise QuadratureError(
                int(rows[first]),
                f"rounding error {rounding[first]:.3g} exceeds the guard {guard[first]:.3g}",
            )
        if n >= _MAX_NODES:
            first = int(np.argmax(error > guard))
            raise QuadratureError(
                int(rows[first]),
                f"estimated error {error[first]:.3g} > guard {guard[first]:.3g} at {n} nodes",
            )


def building_block(q: int, r: int, t: float) -> float:
    """The radial building block q^{-r/2} e^{-(q+1)t} I_r(2 sqrt(q) t).

    As (q+1) - 2 sqrt(q) = (sqrt(q)-1)^2 >= 0, it is q^{-r/2} e^{-(sqrt(q)-1)^2 t}
    times bessel_i_scaled(r, 2 sqrt(q) t): both factors lie in [0, 1], so
    nothing overflows at any t.
    """
    _check_q(q)
    _check_order_arg(r, t)
    prefactor = math.exp(-0.5 * r * math.log(q) - (math.sqrt(q) - 1.0) ** 2 * t)
    return prefactor * bessel_i_scaled(r, 2.0 * math.sqrt(q) * t)


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
    Rounding (measured, not derived): ln B is off by 1.93 (|ln B| + 1) u, u = 2^-53, or less at
    q = 1, tau 1e-3 to 4e4 (TestLogBlockRounding pins 4), but by 5.2 at q = 2, tau = 4e4.
    """
    _check_q(q)
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
        rounding = (before - (log_rel - added)) + (logs - added)
    rounding[np.isnan(rounding)] = 0.0  # a -inf log gives NaN here, never +-inf
    log_rel += np.cumsum(rounding)
    log_norm = math.log(2.0 * np.exp(log_rel).sum() - 1.0)  # ln(e^tau / I_0)
    # the constants first: each rounding at the size of ln B costs about |ln B| eps
    offset = 0.5 * math.log(q) * np.arange(M + 1) + (log_norm + (math.sqrt(q) - 1.0) ** 2 * t)
    return log_rel[: M + 1] - offset


def log_block_bound(q: int, m: int, t: float) -> float:
    """ln of a bound on building_block(q, m, t), t > 0, in float range for every m.

    -(m/2) ln q - (sqrt(q)-1)^2 t plus the log of the module docstring's
    uniform bound on e^{-tau} I_m(tau), tau = 2 sqrt(q) t: it falls in m and
    is concave in m, as m ln(1 + m/tau) is convex.
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
