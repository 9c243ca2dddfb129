"""The degenerate limit connecting the log-angle with the slope difference.

The first-order limit: the cross ratio against the isotropic slope pair
(1/t, -1/t) recovers the plain slope difference as t -> 0.  The closed
slope form of the angle, kernel.slope_cross_ratio_angle, lives beside the
(u, v) decomposition that produces the slopes.
"""

from __future__ import annotations

import math

from .errors import PoleAtT
from .kernel import ABS_EPS, RESIDUAL_FLOOR, _Frozen, _set

_DEFAULT_T_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class SlopePair(_Frozen):
    __slots__ = ("m1", "m2")

    def __init__(self, m1: float, m2: float) -> None:
        if m1 == 0.0 or m2 == 0.0:
            raise ValueError("slopes must be nonzero")
        _set(self, "m1", m1)
        _set(self, "m2", m2)


class LimitReport(_Frozen):
    __slots__ = ("samples", "extrapolated_limit", "residual_order")

    def __init__(
        self,
        samples: list[tuple[float, float]],  # (t, normalized log value), t decreasing
        extrapolated_limit: float,
        residual_order: float,
    ) -> None:
        _set(self, "samples", samples)
        _set(self, "extrapolated_limit", extrapolated_limit)
        _set(self, "residual_order", residual_order)


def degenerate_cross_ratio(m: SlopePair, t: float) -> float:
    """((1 - m1 t)(1 + m2 t)) / ((1 + m1 t)(1 - m2 t))."""
    factors = (1.0 - m.m1 * t, 1.0 + m.m2 * t, 1.0 + m.m1 * t, 1.0 - m.m2 * t)
    for f in factors:
        if abs(f) <= ABS_EPS * max(1.0, abs(m.m1 * t), abs(m.m2 * t)):
            raise PoleAtT(f"t = {t!r} hits a pole or zero of the cross ratio")
    return (factors[0] * factors[1]) / (factors[2] * factors[3])


def first_order_limit(m: SlopePair, t_sequence: list[float] | None = None) -> LimitReport:
    """Normalized log cross-ratio samples and their Richardson-extrapolated limit.

    Each sample is log(cr(t)) / (-2 t); the limit is the slope difference
    m1 - m2.  The ratio's residual is even in t, so extrapolation on the two
    smallest t values removes the leading t^2 term.  residual_order is the
    log-log slope of |value - (m1 - m2)| against t over the samples whose
    residuals exceed the roundoff floor (NaN when fewer than two qualify).
    """
    if t_sequence is None:
        t_sequence = list(_DEFAULT_T_SEQUENCE)
    if not t_sequence:
        raise ValueError("t_sequence must be nonempty")
    if any(t <= 0.0 for t in t_sequence):
        raise ValueError("t values must be positive")
    if any(t2 >= t1 for t1, t2 in zip(t_sequence, t_sequence[1:])):
        raise ValueError("t_sequence must be strictly decreasing")
    bound = min(1.0 / abs(m.m1), 1.0 / abs(m.m2)) / 2.0
    if any(t > bound for t in t_sequence):
        raise PoleAtT(f"t values must stay below {bound!r} to keep clear of the poles")

    samples = [(t, math.log(degenerate_cross_ratio(m, t)) / (-2.0 * t)) for t in t_sequence]

    if len(samples) >= 2:
        (t_prev, v_prev), (t_last, v_last) = samples[-2], samples[-1]
        w = t_prev * t_prev - t_last * t_last
        extrapolated = (t_prev * t_prev * v_last - t_last * t_last * v_prev) / w
    else:
        extrapolated = samples[0][1]

    target = m.m1 - m.m2
    floor = RESIDUAL_FLOOR * max(1.0, abs(target))
    usable = [(t, abs(v - target)) for t, v in samples if abs(v - target) > floor]
    if len(usable) >= 2:
        logs_t = [math.log(t) for t, _ in usable]
        logs_r = [math.log(r) for _, r in usable]
        n = len(usable)
        mean_t = sum(logs_t) / n
        mean_r = sum(logs_r) / n
        denom = sum((lt - mean_t) ** 2 for lt in logs_t)
        order = sum((lt - mean_t) * (lr - mean_r) for lt, lr in zip(logs_t, logs_r)) / denom
    else:
        order = math.nan
    return LimitReport(samples=samples, extrapolated_limit=extrapolated, residual_order=order)
