"""Modified Bessel functions I_n of integer order, and the heat-kernel building block.

Two independent evaluation routes are provided: one power series and a
trapezoidal quadrature of the integral representation

    I_n(t) = (1/pi) int_0^pi e^{t cos(theta)} cos(n theta) dtheta,

spectrally accurate on this smooth 2pi-periodic integrand.  _nested_trapezoid
is the package's one quadrature rule, and _tree_measure, the one integral
against the Kesten-McKay spectral measure of the (q+1)-regular tree, holds
that measure's density and runs every tree integral on the rule:
bessel_i_quadrature is its q = 1 case, where the measure is dtheta / pi, and
heat_tree's integral route and zeta's TreeDensity call it too; zeta's
G-transform calls the rule itself.  The series rescales itself by exact
powers 2^-512, so bessel_i is the plain sum and bessel_i_scaled,
e^{-t} I_n(t), is in float range at any t with no switch of route.
bessel_i_quadrature integrates the row of orders 0..N over one node set.
Two bounds, the uniform one and one from the generating function
e^{(t/2)(z + 1/z)} = sum_k I_k(t) z^k (DLMF 10.35.1) at z = e^s, sinh s = n/t,

    sqrt(t) e^{-t} I_n(t) <= (1 + n/t)^{-n/2},
    e^{-t} I_n(t) <= e^{t (sqrt(1 + (n/t)^2) - 1) - n asinh(n/t)},

the second far below the first where n is near t, give in log form, the
lesser of the two, log_block_bound, the one bound on a building block;
certified_truncation turns it into the one truncation rule of every
building-block series in the package, whatever its weights.

log_building_blocks evaluates the log of the whole vector of building blocks
at one time, or at every time of a grid in one call, each time to its own
order, from Miller's backward recurrence for the ratios I_{m+1}/I_m: the
production evaluator behind every heat value, in float range at any t, which
every heat route reads through _grid_passes, the one rule that splits a grid
of times into its calls.  Each time starts its recurrence at its own order
plus its own margin, and reads zero blocks past its order, so a grid value is
bitwise the lone call's, whatever times share its call.
The scalar building_block and the routes above stay as its independent
oracle, and verify's G-transform of building blocks integrates it against
the paper's closed form u^{k-1}.
"""

from __future__ import annotations

import contextlib
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
# ratios (T x (N_max + 1)) one log_building_blocks call holds: no more than one t at the guard
_GRID_ENTRIES = MAX_RECURRENCE + 1
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
    """I_n(t) for n = 0..N by _tree_measure at q = 1, whose measure is dtheta / pi, on
    the integral representation, one row per order over shared nodes, tol 1e-10, from
    N + 4 sqrt(t + 1) + 8 nodes, which resolve e^{t cos(theta)} cos(N theta)."""
    _check_order_arg(N, t)
    if t > _EXP_LIMIT:
        raise OverflowError(f"bessel_i_quadrature overflows for t={t}; use bessel_i_scaled")
    orders = np.arange(N + 1)
    return _tree_measure(
        1, lambda x: np.exp(t * np.cos(x)) * np.cos(orders[:, None] * x),
        orders, 1.0, 1e-10, N + 4.0 * math.sqrt(t + 1.0) + 8.0,
    )


class QuadratureError(RuntimeError):
    """The trapezoid rule missed its error guard; r is the first row (radius or order) that
    did, and t its time where the rows of a grid of times shared the rule (else None)."""

    def __init__(self, r: int, reason: str, t: float | None = None):
        super().__init__(f"r = {r}: {reason}" if t is None else f"t = {t}, r = {r}: {reason}")
        self.r = r
        self.reason = reason
        self.t = t


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


def _tree_measure(q: int, rows, names: np.ndarray, scale, tol: float, start: float):
    """scale int_0^pi rows(theta) dmu_q(theta) per row by _nested_trapezoid, mu_q the
    Kesten-McKay spectral measure of the (q+1)-regular tree at lambda = q + 1 -
    2 sqrt(q) cos(theta), whose density in theta is

        (2 q (q+1) / pi) sin^2(theta) / ((q-1)^2 + 4q sin^2(theta)).

    rows(theta) is the (rows x nodes) array of the integrand, names the row labels
    that a QuadratureError reports, scale one value or one per row.  The density is
    analytic in |Im theta| < ln(q)/2 and 0 at 0 and pi, which are never evaluated,
    but for q = 1, where it is 1/pi and those ends come from rows at 0 and pi.
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        sin2 = np.sin(theta) ** 2
        return rows(theta) * (sin2 / ((q - 1.0) ** 2 + 4.0 * q * sin2))

    ends = 0.125 * rows(np.array([0.0, math.pi])).sum(axis=1) if q == 1 else 0.0
    density = 2.0 * q * (q + 1.0) / math.pi
    return _nested_trapezoid(integrand, names, scale * density, tol, start, ends)


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


def _miller_margin(q: int, M: int, t: float) -> int:
    """ceil(d), d = L/3 + sqrt(L^2/9 + 2 L tau), tau = 2 sqrt(q) t: log_building_blocks
    starts the recurrence of t at M + ceil(d); 0 at t = 0, which runs none.
    ValueError where M + d > MAX_RECURRENCE."""
    if t == 0.0:
        return 0
    tau = 2.0 * math.sqrt(q) * t
    third = _MILLER_LOG / 3.0
    margin = third + math.hypot(third, math.sqrt(2.0 * _MILLER_LOG) * math.sqrt(tau))
    if M + margin > MAX_RECURRENCE:  # in float, so that tau = inf refuses too
        raise ValueError(
            f"t = {t}: the Bessel ratio recurrence needs {M + margin:.4g} terms, "
            f"more than {MAX_RECURRENCE}"
        )
    return math.ceil(margin)


def _check_times(t) -> tuple[list[float], bool]:
    """(the times of t as floats, whether t is a 1-D array of them rather than one
    float); ValueError at the first time that is not finite and >= 0, or where t
    has more axes."""
    if isinstance(t, (float, int)):
        _check_time(t)
        return [float(t)], False
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a float or a 1-D array of times, got {times.ndim} axes")
    values = times.ravel().tolist()
    for value in values:
        _check_time(value)
    return values, times.ndim == 1


def _grid_passes(q: int, tops: list[int], times: list[float]):
    """(part, log_building_blocks(q, tops[part], times[part])) for consecutive slices
    part of times, each call's T (max(M_t + d_t) + 1) ratios within _GRID_ENTRIES,
    which holds any one time _miller_margin accepts.  ValueError, from _miller_margin,
    where one time's recurrence passes MAX_RECURRENCE."""
    ends = [M + _miller_margin(q, M, t) for M, t in zip(tops, times)]
    start, width = 0, 0
    for i, end in enumerate(ends):
        if (i - start + 1) * max(width, end + 1) > _GRID_ENTRIES:
            yield slice(start, i), log_building_blocks(q, tops[start:i], times[start:i])
            start, width = i, 0
        width = max(width, end + 1)
    if times:
        yield slice(start, len(times)), log_building_blocks(q, tops[start:], times[start:])


def log_building_blocks(q: int, M, t) -> np.ndarray:
    """ln building_block(q, m, t) for m = 0..M: a vector at one t, or a (T, max M + 1)
    array whose row i is the vector at t[i] for a 1-D array t of T times, to its own
    order M[i] where M is a sequence of T orders (one M serves every time).

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

    A grid runs each t's recurrence in Python floats from its own start
    N_t = M_t + d_t, as a lone call does, into one (T, max N_t + 1) array padded
    with ratios 1; the logs, the compensated sums, the exponentials and, by
    np.add.reduceat, each row's normalising sum over its own N_t + 1 terms
    run once over it, and a row reads -inf, a zero block, past its M_t, so every
    row is bitwise the lone call at its t and order.
    ValueError, before anything of the grid's size is allocated, at the first
    t that is not finite and >= 0, at an order below 0, where M is neither one
    order nor T of them, where some M_t + d_t passes MAX_RECURRENCE, or where
    T (max N_t + 1) passes _GRID_ENTRIES.
    Rounding (measured, not derived): ln B is off by at most 1.93 (|ln B| + 1) u,
    u = 2^-53, at every 8th order at q = 1, tau 1e-3 to 4e4 (TestLogBlockRounding
    pins 4), and 5.08 at q = 2, 3, 4, 6, t 1e-3 to 1000 (pinned at 8); every order
    at q = 2 reads 5.32 at t = 1000 and 5.61 at t = 5,000.
    """
    _check_q(q)
    times, grid = _check_times(t)
    scalar = isinstance(M, (int, np.integer))
    orders, top = ([M] * len(times), M) if scalar else (list(M), max(M, default=0))
    if len(orders) != len(times) or min(orders, default=top) < 0:
        raise ValueError(f"orders must be >= 0, one per time, got {M}")
    ends = [m + _miller_margin(q, m, x) for m, x in zip(orders, times)]
    width = max(ends, default=top) + 1
    if len(times) * width > _GRID_ENTRIES:
        raise ValueError(
            f"{len(times)} times of {width} ratios each: more than {_GRID_ENTRIES} in one call"
        )
    # padded with ratios 1, whose logs 0 add nothing (and cost numpy less than -inf)
    ratios = np.empty((len(times), width))
    ratios.fill(1.0)
    sqrt_q, zeros = math.sqrt(q), False
    for row, x, end in zip(ratios, times, ends):
        if not x:  # I_m(0) = 0 from m = 1 on
            row[1:], zeros = 0.0, True
            continue
        tau = 2.0 * sqrt_q * x
        ratio, column = 0.0, [1.0] * (end + 1)
        for k in range(end, 0, -1):
            column[k] = ratio = 1.0 / (2.0 * k / tau + ratio)  # I_k / I_{k-1}
        row[: end + 1] = column
        # the least ratio, 0 where tau is so small that 2 N_t / tau overflows
        zeros = zeros or column[end] == 0.0
    # TwoSum: each addition's exact rounding error, summed apart; the plain
    # cumulative sum loses about 1e-11 relative at t = 1e4.  A row holds 0, the
    # cumulative sums, and a spare 0 that ends every reduceat segment below.
    cumulative = np.zeros((len(times), width + 2))
    log_rel, before = cumulative[:, 1:-1], cumulative[:, :-2]
    # only a ratio 0 makes a log -inf and a rounding NaN: numpy's error state costs a call
    with np.errstate(divide="ignore", invalid="ignore") if zeros else contextlib.nullcontext():
        logs = np.log(ratios)
        np.add.accumulate(logs, axis=1, out=log_rel)
        added = log_rel - before
        rounding = (before - (log_rel - added)) + (logs - added)
    if zeros:
        rounding[np.isnan(rounding)] = 0.0  # a -inf log gives NaN here, never +-inf
    log_rel += np.add.accumulate(rounding, axis=1)
    # each row's N_t + 1 terms I_m / I_0 after a 0: np.add.reduceat sums that segment as
    # numpy sums the terms of a lone row, 0 plus their pairwise sum, whatever the padding
    terms = np.exp(cumulative)
    terms[:, 0] = 0.0
    stride = width + 2
    bounds = [b for i, end in enumerate(ends) for b in (i * stride, i * stride + end + 2)]
    sums = np.add.reduceat(terms.ravel(), bounds)[::2]
    # ln(e^tau / I_0) + (sqrt(q)-1)^2 t, the constants first: each rounding at the
    # size of ln B costs about |ln B| eps
    decay = (sqrt_q - 1.0) ** 2
    constants = [math.log(2.0 * total - 1.0) + decay * x for total, x in zip(sums.tolist(), times)]
    blocks = log_rel[:, : top + 1] - np.add.outer(constants, 0.5 * math.log(q) * np.arange(top + 1))
    for row, m in zip(blocks, orders):  # -inf, a zero block, past each time's own order
        if m < top:
            row[m + 1 :] = -math.inf
    return blocks if grid else blocks[0]


def _log_bound(q: int, t: float):
    """m -> log_block_bound(q, m, t), its m-free terms computed once."""
    log_q, tau = math.log(q), 2.0 * math.sqrt(q) * t
    decay, half_log_tau = (math.sqrt(q) - 1.0) ** 2 * t, 0.5 * math.log(tau)

    def bound(m):
        p = m / tau
        uniform = -half_log_tau - 0.5 * m * math.log1p(p)
        # tau (sqrt(1 + p^2) - 1) = m p / (1 + hypot(1, p)); NaN where p overflows
        sharp = m * (p / (1.0 + math.hypot(1.0, p)) - math.asinh(p))
        return -0.5 * m * log_q - decay + (sharp if sharp < uniform else uniform)

    return bound


def log_block_bound(q: int, m: int, t: float) -> float:
    """ln of a bound on building_block(q, m, t), t > 0, in float range for every m.

    -(m/2) ln q - (sqrt(q)-1)^2 t plus the lesser of two bounds on
    ln(e^{-tau} I_m(tau)), tau = 2 sqrt(q) t, p = m/tau: the log of the module
    docstring's uniform bound, -(1/2) ln tau - (m/2) ln(1 + p), and
    tau (sqrt(1 + p^2) - 1) - m asinh(p).  The second is DLMF 10.35.1,
    e^{tau cosh s} = sum_k I_k(tau) e^{ks} over all integers k, whose terms are
    positive: so I_m(tau) <= e^{tau cosh s - m s} for every s, least at
    sinh s = p.  Both fall in m and are concave in m: m ln(1 + p) is convex,
    and the second's derivative in m is -asinh(p), which falls.  So their
    minimum is concave too.  Where p overflows (a subnormal t) the second is
    NaN and the uniform bound stands alone.
    """
    return _log_bound(q, t)(m)


def _log_tail(q: int, t: float, step: int, weight: float, power: float = 0.0):
    """m -> ln of certified_truncation's tail bound past m (inf before the peak of
    beta), for weight > 0 and t > 0; beta's m-free terms are computed once."""
    log_weight, log_q, bound = math.log(weight), math.log(q), _log_bound(q, t)

    def beta(m: int) -> float:
        return log_weight + power * m * log_q + bound(m)

    def log_tail(m: int) -> float:
        current, following = beta(m), beta(m + step)
        if following == -math.inf:  # 1 + m/tau overflows where t is subnormal
            return -math.inf
        if following >= current:
            return math.inf
        return following - math.log1p(-math.exp(following - current))

    return log_tail


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
    log_tol, log_tail = math.log(tol), _log_tail(q, t, step, weight, power)
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
