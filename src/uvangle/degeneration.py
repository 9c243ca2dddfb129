"""The degenerate limit connecting the log-angle with the slope difference.

The first-order limit: the cross ratio against the isotropic slope pair
(1/t, -1/t) recovers the plain slope difference as t -> 0.  The closed
slope form of the angle, kernel.slope_cross_ratio_angle, lives beside the
(u, v) decomposition that produces the slopes.
"""

import math

from .errors import PoleAtT
from .kernel import ABS_EPS, RESIDUAL_FLOOR, _check_finite_slopes, _Frozen, _slot_setters

_DEFAULT_T_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class SlopePair(_Frozen):
    __slots__ = ("m1", "m2")

    def __init__(self, m1: float, m2: float) -> None:
        if m1 == 0.0 or m2 == 0.0:
            raise ValueError("slopes must be nonzero")
        if not (math.isfinite(m1) and math.isfinite(m2)):
            _check_finite_slopes(m1, m2)
        _set_slopes_m1(self, m1)
        _set_slopes_m2(self, m2)


_set_slopes_m1, _set_slopes_m2 = _slot_setters(SlopePair)


class LimitReport(_Frozen):
    __slots__ = ("samples", "extrapolated_limit", "residual_order")

    def __init__(
        self,
        samples: list[tuple[float, float]],  # (t, normalized log value), t decreasing
        extrapolated_limit: float,
        residual_order: float,
    ) -> None:
        _set_report_samples(self, samples)
        _set_report_extrapolated_limit(self, extrapolated_limit)
        _set_report_residual_order(self, residual_order)


_set_report_samples, _set_report_extrapolated_limit, _set_report_residual_order = (
    _slot_setters(LimitReport)
)


def degenerate_cross_ratio(m: SlopePair, t: float) -> float:
    """((1 - m1 t)(1 + m2 t)) / ((1 + m1 t)(1 - m2 t)).

    Raises PoleAtT when a factor is within ABS_EPS of 0 against its scale,
    OverflowError naming the product of two factors that overflows, and
    ValueError for a NaN t.
    """
    m1t, m2t = m.m1 * t, m.m2 * t
    f1, f2, f3, f4 = 1.0 - m1t, 1.0 + m2t, 1.0 + m1t, 1.0 - m2t
    floor = ABS_EPS * max(1.0, abs(m1t), abs(m2t))
    if abs(f1) <= floor or abs(f2) <= floor or abs(f3) <= floor or abs(f4) <= floor:
        raise PoleAtT(f"t = {t!r} hits a pole or zero of the cross ratio")
    num, den = f1 * f2, f3 * f4
    ratio = num / den
    # Each factor is at least ABS_EPS times the largest |m t|, so with both
    # products finite the ratio is finite and nonzero: this screen, True for
    # 0, +-inf and nan, costs the success path two comparisons.
    if ratio == 0.0 or ratio * 0.0 != 0.0:
        for name, value in (("(1 - m1 t)(1 + m2 t)", num), ("(1 + m1 t)(1 - m2 t)", den)):
            if math.isinf(value):
                raise OverflowError(f"t = {t!r}: the product {name} = {value!r} overflows")
        # No product overflowed, so they are nan: t is nan (an infinite t is a pole).
        raise ValueError(f"t must be finite, got {t!r}")
    return ratio


def first_order_limit(m: SlopePair, t_sequence: list[float] | None = None) -> LimitReport:
    """Normalized log cross-ratio samples and their Richardson-extrapolated limit.

    Each sample is log(cr(t)) / (-2 t); the limit is the slope difference
    m1 - m2.  The ratio's residual is even in t, so extrapolation on the two
    smallest t values removes the leading t^2 term.  residual_order is the
    log-log slope of |value - (m1 - m2)| against t over the samples whose
    residuals exceed the roundoff floor (NaN when fewer than two qualify).
    Raises ValueError when the smallest t is so small that 1 + |m| t rounds to
    1 for both slopes: every factor of the cross ratio would then be 1 and
    the samples would carry no trace of the slopes.  One slope alone may
    round away: its share of the limit is then below the samples' own
    roundoff, about 1e-16 / t.
    """
    if t_sequence is None:
        t_sequence = _DEFAULT_T_SEQUENCE
    if not t_sequence:
        raise ValueError("t_sequence must be nonempty")
    for t in t_sequence:
        if not t > 0.0:  # a NaN t fails this test too
            raise ValueError("t values must be positive")
    previous = math.nan  # no t compares >= nan, so the first one passes
    for t in t_sequence:
        if t >= previous:
            raise ValueError("t_sequence must be strictly decreasing")
        previous = t
    bound = min(1.0 / abs(m.m1), 1.0 / abs(m.m2)) / 2.0
    for t in t_sequence:
        if t > bound:
            raise PoleAtT(f"t values must stay below {bound!r} to keep clear of the poles")

    t_last = t_sequence[-1]
    if len(t_sequence) >= 2:
        t_prev = t_sequence[-2]
        w = t_prev * t_prev - t_last * t_last  # the Richardson weight
        if w == 0.0:  # t_prev > t_last > 0, so only by underflow
            raise ValueError(f"t = {t_prev!r} is too small to extrapolate from: t**2 underflows")
    # 1 + |m|*t grows with t, so the smallest t is the first to round.
    if 1.0 + abs(m.m1) * t_last == 1.0 and 1.0 + abs(m.m2) * t_last == 1.0:
        raise ValueError(f"t = {t_last!r} is too small: 1 + |m1|*t and 1 + |m2|*t round to 1")

    samples = [(t, math.log(degenerate_cross_ratio(m, t)) / (-2.0 * t)) for t in t_sequence]

    if len(t_sequence) >= 2:
        v_prev, v_last = samples[-2][1], samples[-1][1]
        extrapolated = (t_prev * t_prev * v_last - t_last * t_last * v_prev) / w
    else:
        extrapolated = samples[0][1]

    target = m.m1 - m.m2
    floor = RESIDUAL_FLOOR * max(1.0, abs(target))
    # The log-log fit.  Its sums add left to right, as sum() does up to Python 3.11.
    logs = []
    sum_t = sum_r = 0.0
    for t, v in samples:
        r = abs(v - target)
        if r > floor:
            log_t, log_r = math.log(t), math.log(r)
            logs.append((log_t, log_r))
            sum_t += log_t
            sum_r += log_r
    if len(logs) >= 2:
        n = len(logs)
        mean_t = sum_t / n
        mean_r = sum_r / n
        denom = cov = 0.0
        for log_t, log_r in logs:
            dev_t = log_t - mean_t
            denom += dev_t ** 2
            cov += dev_t * (log_r - mean_r)
        order = cov / denom
    else:
        order = math.nan
    return LimitReport(samples, extrapolated, order)
