import math
import random

import pytest

from uvangle import (
    DirectionPair,
    DirectionVector,
    Point,
    SlopePair,
    affine_angle,
    degenerate_cross_ratio,
    first_order_limit,
    slope_cross_ratio_angle,
)
from uvangle.degeneration import _DEFAULT_T_SEQUENCE
from uvangle.errors import ComponentMismatch, PoleAtT

AXES = DirectionPair(DirectionVector(1, 0), DirectionVector(0, 1))


def test_slope_angle_examples():
    assert slope_cross_ratio_angle(3.0, 3.0) == 0.0
    assert slope_cross_ratio_angle(2.0 * math.e**2, 2.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ComponentMismatch):
        slope_cross_ratio_angle(1.0, -1.0)
    with pytest.raises(OverflowError, match="^m1/m2 overflows$"):
        slope_cross_ratio_angle(1e300, 1e-300)
    with pytest.raises(ValueError, match="^m1/m2 underflows to 0$"):
        slope_cross_ratio_angle(1e-300, 1e300)


@pytest.mark.parametrize("m1, m2", [(math.inf, math.inf), (math.inf, 1.0), (math.nan, 1.0)])
def test_slope_angle_rejects_non_finite_slopes(m1, m2):
    # inf/inf is nan, inf/1 overflows and nan fails the sign test: each branch names
    # the slope that is not finite, as SlopePair does.
    with pytest.raises(ValueError, match=f"^slopes must be finite, got {m1!r}$"):
        slope_cross_ratio_angle(m1, m2)


def test_slope_angle_matches_area_machinery():
    rng = random.Random(51)
    o = Point(0, 0)
    for _ in range(300):
        sign = rng.choice((-1.0, 1.0))
        m_a = sign * math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        m_b = sign * math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        result = affine_angle(o, Point(1.0, m_a), Point(1.0, m_b), AXES)
        assert result.is_real
        assert abs(result.theta - slope_cross_ratio_angle(m_a, m_b)) <= 1e-10


def test_cross_ratio_values():
    pair = SlopePair(2.0, 1.0)
    assert degenerate_cross_ratio(SlopePair(3.0, 3.0), 0.05) == 1.0
    assert degenerate_cross_ratio(pair, 0.0) == 1.0
    assert degenerate_cross_ratio(pair, 0.1) == pytest.approx(22.0 / 27.0, rel=1e-14)


def test_cross_ratio_pole():
    with pytest.raises(PoleAtT):
        degenerate_cross_ratio(SlopePair(2.0, 1.0), 0.5)
    with pytest.raises(PoleAtT):
        degenerate_cross_ratio(SlopePair(2.0, 1.0), 1.0)


def test_cross_ratio_names_the_product_that_overflows():
    # Each factor is 1e308 in magnitude, so both products overflow to -inf.
    with pytest.raises(OverflowError, match=r"^t = -1.0: the product \(1 - m1 t\)\(1 \+ m2 t\)"):
        degenerate_cross_ratio(SlopePair(1e308, 1e308), -1.0)


def test_slope_pair_validation():
    with pytest.raises(ValueError):
        SlopePair(0.0, 1.0)


def test_slope_pair_rejects_non_finite_slopes():
    # A NaN slope would give first_order_limit a NaN limit with no error.
    # The zero test comes first, then the first non-finite slope is named.
    for m1, m2, message in (
        (math.nan, 1.0, "slopes must be finite, got nan"),
        (2.0, math.inf, "slopes must be finite, got inf"),
        (-math.inf, math.nan, "slopes must be finite, got -inf"),
        (0.0, math.nan, "slopes must be nonzero"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SlopePair(m1, m2)


def test_limit_equal_slopes_is_zero():
    report = first_order_limit(SlopePair(3.0, 3.0))
    assert all(v == 0.0 for _, v in report.samples)
    assert report.extrapolated_limit == 0.0
    assert math.isnan(report.residual_order)


def test_limit_worked_example():
    report = first_order_limit(SlopePair(2.0, 1.0), [1e-2, 1e-3, 1e-4])
    assert report.extrapolated_limit == pytest.approx(1.0, abs=1e-8)
    assert report.residual_order == pytest.approx(2.0, abs=0.2)
    # samples are stored with decreasing t
    ts = [t for t, _ in report.samples]
    assert ts == sorted(ts, reverse=True)


def test_limit_default_sequence():
    report = first_order_limit(SlopePair(2.0, 1.0))
    assert len(report.samples) == 5
    assert report.extrapolated_limit == pytest.approx(1.0, abs=1e-8)


def test_limit_antisymmetric():
    rng = random.Random(52)
    for _ in range(100):
        m1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 4.0)
        m2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 4.0)
        forward = first_order_limit(SlopePair(m1, m2))
        backward = first_order_limit(SlopePair(m2, m1))
        # roundoff in log(1 + O(t)) / t at the smallest t leaves ~1e-10 noise
        assert forward.extrapolated_limit == pytest.approx(
            -backward.extrapolated_limit, abs=1e-9
        )


def test_limit_sequence_validation():
    with pytest.raises(ValueError):
        first_order_limit(SlopePair(2.0, 1.0), [1e-3, 1e-2])
    with pytest.raises(ValueError):
        first_order_limit(SlopePair(2.0, 1.0), [])
    with pytest.raises(PoleAtT):
        first_order_limit(SlopePair(2.0, 1.0), [0.4, 0.3])


def test_limit_sequence_reports_the_first_rule_it_breaks():
    # Each sequence breaks two rules or more; the checks run positive, decreasing, pole
    # bound (0.25 here), each over the whole sequence before the next.
    m = SlopePair(2.0, 0.5)
    for ts, message in (
        ([0.3, -0.1], "t values must be positive"),
        ([-0.1, 0.3], "t values must be positive"),
        ([0.01, 0.3], "t_sequence must be strictly decreasing"),
        ([0.3, 0.3], "t_sequence must be strictly decreasing"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            first_order_limit(m, ts)
    assert first_order_limit(m) == first_order_limit(m, list(_DEFAULT_T_SEQUENCE))


def test_limit_sequence_rejects_nan_t():
    # No comparison holds for NaN, so the positivity test is written to fail for it.
    for ts in ([0.01, math.nan], [math.nan], [math.nan, 0.01]):
        with pytest.raises(ValueError, match="^t values must be positive$"):
            first_order_limit(SlopePair(2.0, 1.0), ts)


def test_log_expansion_third_order():
    rng = random.Random(53)
    for _ in range(50):
        m1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        m2 = m1 + math.copysign(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        if m2 == 0.0 or abs(m1**3 - m2**3) < 0.1:
            continue
        pair = SlopePair(m1, m2)
        ts = [1e-2 * (0.1 ** (i / 4.0)) for i in range(9)]  # 1e-2 down to 1e-4
        residuals = []
        for t in ts:
            if t > min(1.0 / abs(m1), 1.0 / abs(m2)) / 2.0:
                continue
            value = math.log(degenerate_cross_ratio(pair, t)) + 2.0 * (m1 - m2) * t
            residuals.append((t, abs(value)))
        usable = [(t, r) for t, r in residuals if r > 1e-15]
        if len(usable) < 5:
            continue
        logs_t = [math.log(t) for t, _ in usable]
        logs_r = [math.log(r) for _, r in usable]
        n = len(usable)
        mean_t, mean_r = sum(logs_t) / n, sum(logs_r) / n
        slope = sum(
            (lt - mean_t) * (lr - mean_r) for lt, lr in zip(logs_t, logs_r)
        ) / sum((lt - mean_t) ** 2 for lt in logs_t)
        assert slope >= 2.8
