import importlib
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_point_close,
    axis_aligned,
    direction_pair,
    log_uniform,
    on_line,
    random_hyperbola,
    random_off_curve_point,
    random_secant_direction,
    run_cli,
    unit_direction,
)
from uvangle import (
    AffineMap,
    AxisHyperbola,
    DirectionVector,
    Line,
    Point,
    chord_intersection_x,
    chord_line,
    core_quantity,
    cross,
    intersect_lines,
    invert_map,
    power,
    progression_quadrilateral_area,
    radical_axis,
    radical_center,
    secant_intersections,
)
from uvangle.errors import (
    CoincidentParameters,
    DegenerateIntersection,
    EmptyRadicalAxis,
    IdenticalCurves,
    InvalidPosition,
    NoRealIntersection,
    NonLinearDifference,
    NotOnCurve,
    ParallelAxes,
    ParallelChords,
)
from uvangle.kernel import PAR_EPS
from uvangle.power_theorem import (
    asymptotic_projections,
    one_sided_identity,
    projected_areas,
    symmetric_area,
)

UNIT = axis_aligned(Point(0, 0), 1.0)


def test_core_quantity_examples():
    assert core_quantity(Point(1, 1), UNIT) == 0.0
    assert core_quantity(Point(2, 2), UNIT) == 3.0
    assert core_quantity(Point(0, 0), UNIT) == -1.0


def test_negative_kappa_is_normalized():
    h = axis_aligned(Point(0, 0), -1.0)  # the curve x*y = -1
    assert h.kappa == 1.0
    assert core_quantity(Point(1, -1), h) == 0.0       # on the curve
    assert core_quantity(Point(0, 0), h) == -1.0       # center side
    assert power(Point(0, 0), h) == 1.0


def test_secant_worked_example():
    result = secant_intersections(Point(2, 2), DirectionVector(1, -1), UNIT)
    root = math.sqrt(3.0)
    assert not result.tangent
    assert sorted((result.alpha, result.beta)) == pytest.approx([2 - root, 2 + root], rel=1e-12)
    for point in (result.a, result.b):
        assert abs(point.x * point.y - 1.0) <= 1e-9
        # collinearity with P along the secant
        assert abs((point.x - 2.0) + (point.y - 2.0)) <= 1e-9


def test_secant_asymptote_direction_rejected():
    with pytest.raises(NoRealIntersection):
        secant_intersections(Point(2, 2), DirectionVector(1, 0), UNIT)


def _secant_outcome(p, d, h):
    """The float.hex of every float of the result, or the error's class and message."""
    try:
        r = secant_intersections(p, d, h)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return tuple(x.hex() for x in (r.a.x, r.a.y, r.b.x, r.b.y, r.alpha, r.beta)), r.tangent


def test_secant_is_bit_identical_under_power_of_two_direction_scaling():
    # Only the secant line matters, so d and d * 2^k give the same bits wherever
    # the frame image of d * 2^k is finite and normal: |k| <= 1000 on these frames.
    rng = random.Random(41)
    for i in range(20):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        d = random_secant_direction(rng, p, h) if i % 2 else unit_direction(rng)
        expected = _secant_outcome(p, d, h)
        for k in range(-1000, 1001):
            scaled = DirectionVector(math.ldexp(d.dx, k), math.ldexp(d.dy, k))
            assert _secant_outcome(p, scaled, h) == expected, (i, k)


def test_secant_miss_raises():
    with pytest.raises(NoRealIntersection):
        secant_intersections(Point(0, 0), DirectionVector(1, -1), UNIT)


def test_tangent_reported_via_flag():
    # from (0.5, 0.5) (negative core) the tangency points are at x = 2 +- sqrt(3)
    x0 = 2.0 + math.sqrt(3.0)
    touch = Point(x0, 1.0 / x0)
    d = DirectionVector(touch.x - 0.5, touch.y - 0.5)
    result = secant_intersections(Point(0.5, 0.5), d, UNIT)
    assert result.tangent
    assert_point_close(result.a, result.b, tol=1e-6)
    assert_point_close(result.a, touch, tol=1e-5)


def test_tangents_exist_iff_core_negative_off_axes():
    rng = random.Random(31)
    for _ in range(300):
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        core = core_quantity(p, UNIT)
        if abs(core) < 1e-3 or abs(p.x) < 1e-3 or abs(p.y) < 1e-3:
            continue
        # tangency condition: q*x0^2 - 2*kappa*x0 + kappa*p has a real root x0 != 0
        disc = 4.0 - 4.0 * p.y * p.x
        assert (disc > 0.0) == (core < 0.0)


def test_projections_worked_examples():
    a1, a2 = asymptotic_projections(Point(1, 1), UNIT)
    assert_point_close(a1, Point(1, 0), tol=1e-12)
    assert_point_close(a2, Point(0, 1), tol=1e-12)
    four = axis_aligned(Point(0, 0), 4.0)
    b1, b2 = asymptotic_projections(Point(2, 2), four)
    assert_point_close(b1, Point(2, 0), tol=1e-12)
    assert_point_close(b2, Point(0, 2), tol=1e-12)
    with pytest.raises(NotOnCurve):
        asymptotic_projections(Point(2, 3), UNIT)
    # kappa = 5e-324 rounds the tolerance ON_CURVE_TOL * max(|x*y|, kappa) to 0, and
    # the residual of (1, 5e-324) is exactly 0.
    least = axis_aligned(Point(0, 0), 5e-324)
    assert asymptotic_projections(Point(1, 5e-324), least) == (Point(1, 0), Point(0, 5e-324))


@pytest.mark.parametrize("k", [0, 20, -20])
def test_on_curve_test_is_relative_to_the_curve(k):
    # On x*y = 1e-20, the point (1e-5, 1e-5) has x*y = 1e10 * kappa: far off the
    # curve, whatever the scale, although its residual 1e-10 is below ON_CURVE_TOL.
    small = axis_aligned(Point(0, 0), math.ldexp(1e-20, 2 * k))
    with pytest.raises(NotOnCurve, match=r"^point is not on the hyperbola \(residual "):
        asymptotic_projections(Point(math.ldexp(1e-5, k), math.ldexp(1e-5, k)), small)


def test_projected_area_worked_examples():
    p, a = Point(2, 2), Point(1, 1)
    # oracle: raw cross products of (a - p) with (a_i - p)
    assert projected_areas(p, a, UNIT) == pytest.approx((1.0, 1.0), rel=1e-12)
    assert projected_areas(a, a, UNIT) == (0.0, 0.0)
    assert symmetric_area(p, a, UNIT) == pytest.approx(1.0, rel=1e-12)
    assert symmetric_area(a, a, UNIT) == 0.0


def test_symmetric_area_square_identity():
    rng = random.Random(32)
    for _ in range(200):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        alpha = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.2, 5.0)
        a = h.point_at(alpha)
        lhs = symmetric_area(p, a, h) ** 2
        s1, s2 = projected_areas(p, a, h)
        rhs = s1 * s2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_power_brute_force_oracle():
    p = Point(2, 2)
    rng = random.Random(33)
    for _ in range(5):
        d = random_secant_direction(rng, p, UNIT)
        result = secant_intersections(p, d, UNIT)
        product = symmetric_area(p, result.a, UNIT) * symmetric_area(p, result.b, UNIT)
        assert product == pytest.approx(3.0, rel=1e-9)
    assert power(p, UNIT) == pytest.approx(3.0, abs=1e-12)


_COORD = st.floats(-4.0, 4.0)
_COMPONENT = st.floats(-3.0, 3.0)


@st.composite
def power_configurations(draw):
    """An axis hyperbola on a random sheared, non-unit frame and an off-curve point."""
    ux, uy, vx, vy = (draw(_COMPONENT) for _ in range(4))
    assume(min(math.hypot(ux, uy), math.hypot(vx, vy)) >= 0.1)
    u, v = DirectionVector(ux, uy), DirectionVector(vx, vy)
    assume(abs(cross(u, v)) >= 0.05 * u.norm * v.norm)
    center = Point(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    kappa = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.2, 5.0))
    h = AxisHyperbola.from_directions(center, kappa, u, v)
    p = Point(draw(_COORD), draw(_COORD))
    assume(abs(core_quantity(p, h)) > 1e-3)
    return h, p


class _FixedAngle(random.Random):
    """Draws every ``uniform`` as one angle, so each secant direction is fixed."""

    def __init__(self, phi: float) -> None:
        super().__init__(0)
        self.phi = phi

    def uniform(self, a: float, b: float) -> float:
        return self.phi


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(config=power_configurations(), rng=st.randoms(use_true_random=False))
# P = (2, 0) lies on an asymptote (frame coordinates (0, 16)), and one secant
# point lies far out along the other, at frame y ~ -8e-4: its plane
# coordinates carry that y only to ~2e-9 relative, beyond the bound.
@example(
    config=(
        AxisHyperbola(
            Point(0.0, 0.0), 1.0, AffineMap(0.0, 0.6772486772486772, 8.0, -5.172187262654119)
        ),
        Point(2.0, 0.0),
    ),
    rng=_FixedAngle(0.99609375),
)
def test_power_is_secant_independent_on_sheared_frames(config, rng):
    h, p = config
    expected = power(p, h)
    for _ in range(2):
        d = random_secant_direction(rng, p, h)
        result = secant_intersections(p, d, h)
        assert not result.tangent
        product = symmetric_area(p, result.a, h) * symmetric_area(p, result.b, h)
        assert product == pytest.approx(expected, rel=1e-9)


def test_power_on_curve_is_zero():
    assert power(Point(1, 1), UNIT) == 0.0


def test_power_formula_random():
    rng = random.Random(34)
    for _ in range(100):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        assert power(p, h) == pytest.approx(h.kappa * abs(core_quantity(p, h)), rel=1e-12)


def test_one_sided_identity_worked_and_degenerate():
    lhs, mid1, mid2 = one_sided_identity(Point(2, 2), DirectionVector(1, -1), UNIT)
    assert lhs == pytest.approx(3.0, rel=1e-9)
    assert mid1 == pytest.approx(3.0, rel=1e-9)
    assert mid2 == pytest.approx(3.0, rel=1e-9)
    on_curve = Point(1, 1)
    lhs, mid1, mid2 = one_sided_identity(on_curve, DirectionVector(1, -2), UNIT)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert mid1 == pytest.approx(0.0, abs=1e-12)
    assert mid2 == pytest.approx(0.0, abs=1e-12)


def test_one_sided_identity_random():
    rng = random.Random(35)
    for _ in range(200):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        d = random_secant_direction(rng, p, h)
        lhs, mid1, mid2 = one_sided_identity(p, d, h)
        scale = max(lhs, mid1, mid2)
        assert abs(lhs - mid1) <= 1e-9 * scale
        assert abs(lhs - mid2) <= 1e-9 * scale


def test_chord_line_worked_example():
    line = chord_line(1.0, 2.0, 1.0)
    # y = (3 - x) / 2 passes through (1, 1) and (2, 0.5)
    for t in (1.0, 2.0):
        p = Point(t, 1.0 / t)
        assert line.distance_to(p) <= 1e-12
    with pytest.raises(CoincidentParameters):
        chord_line(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        chord_line(0.0, 1.0, 1.0)


def test_chord_intersection_examples():
    assert chord_intersection_x(1.0, 2.0, 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)
    assert chord_intersection_x(1.0, 4.0, 2.0, 3.0) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ParallelChords):
        chord_intersection_x(1.0, 6.0, 2.0, 3.0)


def test_chord_intersection_names_the_product_that_overflows():
    with pytest.raises(OverflowError, match=r"^chord parameter product t1\*t2 = inf overflows$"):
        chord_intersection_x(1e288, 1e288, 1e288, 1e288)
    with pytest.raises(OverflowError, match=r"^chord parameter product t3\*t4 = inf overflows$"):
        chord_intersection_x(1.0, 2.0, 1e288, 1e288)
    # The CLI reaches this guard: chord_line accepts these parameters.
    run = run_cli("chords", "--t", "1e288,2e288,3e288,5e288")
    assert (run.returncode, run.stdout, run.stderr) == (
        2, b"", "uvangle chords: domain error: chord parameter product t1*t2 = inf overflows\n"
    )


@pytest.mark.parametrize("k", [-400, -350, -250, -41, -1, 1, 41, 250, 350, 400])
def test_chords_scale_with_their_abscissae(k):
    # t -> t*2^k with kappa -> kappa*2^(2k) scales the chord and its meet by 2^k, bit for
    # bit.  From |k| = 350 on, chord_intersection_x's cubic numerator t*t1*t2 would leave
    # the normal range if it were formed at the inputs' own scale.
    ts, kappa = (1.0, 4.0, 2.0, 3.0), 1.5
    scaled_ts = [math.ldexp(t, k) for t in ts]
    assert chord_intersection_x(*scaled_ts) == math.ldexp(chord_intersection_x(*ts), k)
    for i in (0, 2):
        line = chord_line(ts[i], ts[i + 1], kappa)
        scaled = chord_line(scaled_ts[i], scaled_ts[i + 1], math.ldexp(kappa, 2 * k))
        coords = (line.base.x, line.base.y, line.dir.dx, line.dir.dy)
        assert (scaled.base.x, scaled.base.y, scaled.dir.dx, scaled.dir.dy) == tuple(
            math.ldexp(c, k) for c in coords
        )


def test_chord_intersection_matches_line_machinery():
    rng = random.Random(36)
    done = 0
    while done < 200:
        ts = [rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.2, 5.0) for _ in range(4)]
        p12, p34 = ts[0] * ts[1], ts[2] * ts[3]
        if abs(p12 - p34) < 1e-3 * max(abs(p12), abs(p34)):
            continue
        if abs(ts[0] - ts[1]) < 1e-6 or abs(ts[2] - ts[3]) < 1e-6:
            continue
        expected = intersect_lines(chord_line(ts[0], ts[1], 1.0), chord_line(ts[2], ts[3], 1.0))
        got = chord_intersection_x(*ts)
        assert abs(got - expected.x) <= 1e-10 * max(1.0, abs(expected.x))
        done += 1


@pytest.mark.parametrize("kappa", [2.0, -0.5, 1e3])
def test_chord_intersection_abscissa_does_not_depend_on_kappa(kappa):
    # The chord through abscissae t1, t2 of x*y = kappa is y = kappa*(t1 + t2 - x)/(t1*t2).
    rng = random.Random(37)
    for _ in range(50):
        ts = [rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.2, 5.0) for _ in range(4)]
        p12, p34 = ts[0] * ts[1], ts[2] * ts[3]
        if abs(p12 - p34) < 1e-3 * max(abs(p12), abs(p34)):
            continue
        if abs(ts[0] - ts[1]) < 1e-6 or abs(ts[2] - ts[3]) < 1e-6:
            continue
        meet = intersect_lines(chord_line(ts[0], ts[1], kappa), chord_line(ts[2], ts[3], kappa))
        assert abs(chord_intersection_x(*ts) - meet.x) <= 1e-10 * max(1.0, abs(meet.x))


def test_radical_axis_worked_example():
    h2 = axis_aligned(Point(-1, -0.5), 3.0)  # (x+1)(y+1/2) = 3
    axis = radical_axis(UNIT, h2)
    # the common chord x + 2y = 3 through (1, 1) and (2, 1/2)
    assert on_line(axis, Point(1, 1), 1e-12)
    assert on_line(axis, Point(2, 0.5), 1e-12)
    a, b, c = axis.implicit()
    norm = math.sqrt(5.0)
    assert (a, b, c) == pytest.approx((1 / norm, 2 / norm, 3 / norm), rel=1e-9)


def test_radical_axis_identical_curves():
    with pytest.raises(IdenticalCurves):
        radical_axis(UNIT, axis_aligned(Point(0, 0), 1.0))


def test_radical_axis_tangent_curves_gives_common_tangent():
    # q2 = q1 + (x + y - 2) touches x*y = 1 exactly at (1, 1)
    h2 = axis_aligned(Point(-1, -1), 4.0)
    axis = radical_axis(UNIT, h2)
    assert on_line(axis, Point(1, 1), 1e-12)
    a, b, c = axis.implicit()
    norm = math.sqrt(2.0)
    assert (a, b, c) == pytest.approx((1 / norm, 1 / norm, 2 / norm), rel=1e-9)


def test_radical_axis_incompatible_frames():
    rotated = AxisHyperbola.from_directions(
        Point(0, 0), 1.0, DirectionVector(1, 1), DirectionVector(0, 1)
    )
    with pytest.raises(NonLinearDifference):
        radical_axis(UNIT, rotated)


@pytest.mark.parametrize(
    "u", [DirectionVector(1.0, 0.0), DirectionVector(1.3576740221785215, -1.4714950502067226)]
)
def test_radical_axis_rejects_curves_that_share_one_asymptote_direction(u):
    # v = (0, 1e-300) and (1e-300, 1e-300) are 45 degrees apart; in the first
    # curve's frame, whose y is scaled by ~1e300, they differ by ~1e-300.
    h1 = AxisHyperbola.from_directions(Point(0.0, 0.0), 1.0, u, DirectionVector(0.0, 1e-300))
    h2 = AxisHyperbola.from_directions(Point(1.0, 1.0), 2.0, u, DirectionVector(1e-300, 1e-300))
    for pair in ((h1, h2), (h2, h1)):
        with pytest.raises(NonLinearDifference):
            radical_axis(*pair)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("factor, shared", [(0.9, True), (1.1, False)])
def test_radical_axis_decides_shared_directions_at_par_eps(factor, shared, swapped):
    # The partner's v is turned by factor * PAR_EPS; built from (v, u) it enters
    # the first curve's frame through the swapped-axes branch.
    u, phi = DirectionVector(0.6, 0.8), math.atan2(-0.3, 1.0)
    v = DirectionVector(math.cos(phi), math.sin(phi))
    turned = DirectionVector(math.cos(phi + factor * PAR_EPS), math.sin(phi + factor * PAR_EPS))
    h1 = AxisHyperbola.from_directions(Point(0.5, -1.0), 1.5, u, v)
    directions = (turned, u) if swapped else (u, turned)
    h2 = AxisHyperbola.from_directions(Point(2.0, 1.0), -0.7, *directions)
    chord_point = Point(1.8632952942854917, -0.5589885882856476)
    for pair in ((h1, h2), (h2, h1)):
        if shared:
            assert on_line(radical_axis(*pair), chord_point, 1e-9)
        else:
            with pytest.raises(NonLinearDifference):
                radical_axis(*pair)


def test_radical_axis_core_equality():
    # same frame for both curves; a conjugate-family partner (negative kappa
    # input) carries a reflected frame and its core differs by sign
    rng = random.Random(37)
    for _ in range(100):
        dirs = direction_pair(rng)
        h1 = random_hyperbola(rng, dirs, positive_kappa=True)
        h2 = random_hyperbola(rng, dirs, positive_kappa=True)
        try:
            axis = radical_axis(h1, h2)
        except (IdenticalCurves, ParallelAxes):
            continue
        for t in (-2.0, -0.5, 0.0, 0.5, 2.0):
            p = axis.point_at(t)
            c1, c2 = core_quantity(p, h1), core_quantity(p, h2)
            assert abs(c1 - c2) <= 1e-9 * max(1.0, abs(c1), abs(c2))


def test_radical_axis_common_points_lie_on_it():
    rng = random.Random(38)
    found = 0
    while found < 50:
        dirs = direction_pair(rng)
        h1 = random_hyperbola(rng, dirs)
        h2 = random_hyperbola(rng, dirs)
        try:
            axis = radical_axis(h1, h2)
        except Exception:
            continue
        # intersect the axis with h1: those points must satisfy h2 as well
        try:
            result = secant_intersections(axis.base, axis.dir, h1)
        except NoRealIntersection:
            continue
        if result.tangent:
            continue
        for p in (result.a, result.b):
            assert abs(core_quantity(p, h2)) <= 1e-8 * max(1.0, h2.kappa)
            assert on_line(axis, p, 1e-8)
        found += 1


def test_radical_center_concurrency():
    rng = random.Random(39)
    for _ in range(50):
        dirs = direction_pair(rng)
        curves = [random_hyperbola(rng, dirs) for _ in range(3)]
        try:
            center = radical_center(*curves)
        except (IdenticalCurves, ParallelAxes):
            continue
        axes = [
            radical_axis(curves[0], curves[1]),
            radical_axis(curves[1], curves[2]),
            radical_axis(curves[2], curves[0]),
        ]
        scale = max(1.0, abs(center.x), abs(center.y))
        for axis in axes:
            assert axis.distance_to(center) <= 1e-8 * scale


@pytest.mark.parametrize("u, v", [((1.0, 0.0), (0.0, 1.0)), ((2.0, 0.5), (-0.6, 1.5))])
def test_radical_center_scales_with_its_curves(u, v):
    # Centers scaled by 2^k, with kappa by 2^(2k), scale the radical center by 2^k, bit for
    # bit.  radical_axis tests each coefficient difference against coefficients of its own
    # degree in length; one tolerance over both degrees, floored at 1, called the README
    # curves coincident for k <= -50 and their axes empty for k near 200.
    dirs = DirectionVector(*u), DirectionVector(*v)

    def curve(cx, cy, kappa, k):
        center = Point(math.ldexp(cx, k), math.ldexp(cy, k))
        return AxisHyperbola.from_directions(center, math.ldexp(kappa, 2 * k), *dirs)

    readme = ((0.0, 0.0, 1.0), (-1.0, -0.5, 3.0), (1.0, 2.0, 2.0))
    center = radical_center(*(curve(*c, 0) for c in readme))
    for k in range(-500, 201):
        got = radical_center(*(curve(*c, k) for c in readme))
        assert (got.x, got.y) == (math.ldexp(center.x, k), math.ldexp(center.y, k)), k
        with pytest.raises(IdenticalCurves):
            radical_axis(curve(1.0, 2.0, 1.0, k), curve(1.0, 2.0, 1.0, k))
        with pytest.raises(EmptyRadicalAxis):
            radical_axis(curve(1.0, 2.0, 1.0, k), curve(1.0, 2.0, 2.0, k))


def test_radical_structure_ignores_the_order_of_the_directions():
    # from_directions(c, kappa, v, u) is the curve of (c, kappa, u, v) with its
    # frame rows swapped, so it enters the other curve's frame anti-diagonally.
    rng = random.Random(40)
    for _ in range(50):
        dirs = direction_pair(rng)
        specs = [
            (Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
             rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.2, 5.0))
            for _ in range(3)
        ]
        uv = [AxisHyperbola.from_directions(c, k, dirs.u, dirs.v) for c, k in specs]
        vu = [AxisHyperbola.from_directions(c, k, dirs.v, dirs.u) for c, k in specs]
        axis = radical_axis(uv[0], uv[1])
        for other in (radical_axis(uv[0], vu[1]), radical_axis(vu[0], uv[1])):
            assert abs(cross(axis.dir, other.dir)) <= 1e-9 * axis.dir.norm * other.dir.norm
            for t in (-1.0, 0.0, 1.0):
                p = other.point_at(t)
                assert axis.distance_to(p) <= 1e-9 * max(1.0, abs(p.x), abs(p.y))
        try:
            center = radical_center(*uv)
        except ParallelAxes:
            with pytest.raises(ParallelAxes):
                radical_center(uv[0], vu[1], vu[2])
            continue
        assert_point_close(radical_center(uv[0], vu[1], vu[2]), center, 1e-8)
        assert_point_close(radical_center(vu[0], uv[1], vu[2]), center, 1e-8)


def test_rescaling_u_or_v_keeps_the_frame_invertible():
    # Scaling u and v by independent powers of two keeps the curve's asymptote
    # directions, so a frame that inverts for unit u and v must still invert.
    rng = random.Random(5)
    center = Point(0.5, -1.0)
    for i in range(20_000):
        phi_u, phi_v = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        ju, jv = rng.randint(-40, 40), rng.randint(-40, 40)
        u = DirectionVector(math.cos(phi_u), math.sin(phi_u))
        v = DirectionVector(math.cos(phi_v), math.sin(phi_v))
        kappa = 1.5 if i % 2 else -1.5
        AxisHyperbola.from_directions(center, kappa, u, v)  # accepted as unit vectors
        AxisHyperbola.from_directions(
            center, kappa, u.scaled(math.ldexp(1.0, ju)), v.scaled(math.ldexp(1.0, jv))
        )


@pytest.mark.parametrize(
    "guard, call, bad",
    [
        # The frame scales by 1e100, so the secant direction's image is (1e350, 1e100).
        ("_map_direction", lambda: secant_intersections(
            Point(0.0, 0.0), DirectionVector(1e250, 1.0),
            AxisHyperbola.from_directions(Point(0.0, 0.0), 1.0, DirectionVector(1e-100, 0.0),
                                          DirectionVector(0.0, 1e-100))), "inf"),
        # The second frame, composed with the first's inverse, scales by ~1.9e308.
        ("_monic_in_frame", lambda: radical_axis(
            AxisHyperbola(Point(0.0, 0.0), 1.0, AffineMap(7e-155, 0.0, 0.0, 7e-155)),
            AxisHyperbola(Point(0.0, 0.0), 2.0, AffineMap(1.34e154, 0.0, 0.0, 1.34e154))), "inf"),
        # Centers at +-1e308: the linear coefficient ex = -1e308 - 1e308 overflows.
        ("_radical_line", lambda: radical_axis(
            axis_aligned(Point(0.0, 1e308), 1.0),
            axis_aligned(Point(0.0, -1e308), 1.0)), "-inf"),
        # On frames scaling by 1e-150 the coefficients stay finite, and the axis direction's
        # plane image, about the centers' difference 2e308, overflows.
        ("_radical_line", lambda: radical_center(
            AxisHyperbola(Point(0.0, -1e308), 1.0, AffineMap(1e-150, 0.0, 0.0, 1e-150)),
            AxisHyperbola(Point(0.0, 1e308), 1.0, AffineMap(1e-150, 0.0, 0.0, 1e-150)),
            AxisHyperbola(Point(1.0, 0.0), 1.0, AffineMap(1e-150, 0.0, 0.0, 1e-150))), "inf"),
    ],
)
def test_power_finiteness_guards_name_the_overflow(monkeypatch, guard, call, bad):
    # power's guards call its own binding of _check_finite; the frame helpers call kernel's.
    callers = []
    for name in ("uvangle.power", "uvangle.kernel"):  # the package exports power()
        module = importlib.import_module(name)

        def spy(*values, check=module._check_finite):
            callers.append(sys._getframe(1).f_code.co_name)
            check(*values)

        monkeypatch.setattr(module, "_check_finite", spy)
    with pytest.raises(ValueError, match=f"^coordinates must be finite, got {bad}$"):
        call()
    assert callers == [guard]


def test_radical_center_identical_pair_raises():
    h2 = axis_aligned(Point(1, 1), 2.0)
    with pytest.raises(IdenticalCurves):
        radical_center(UNIT, axis_aligned(Point(0, 0), 1.0), h2)


def test_radical_center_equal_centers_distinct_kappa():
    h1 = axis_aligned(Point(0, 0), 1.0)
    h2 = axis_aligned(Point(0, 0), 2.0)
    h3 = axis_aligned(Point(0, 0), 3.0)
    with pytest.raises(ParallelAxes):
        radical_center(h1, h2, h3)


def test_progression_worked_examples():
    value = progression_quadrilateral_area(1.0, 2.0, 5.0, 1.0)
    assert value == pytest.approx(0.375, rel=1e-9)
    far = progression_quadrilateral_area(1.0, 2.0, 100.0, 1.0)
    assert far == pytest.approx(0.375, rel=1e-9)
    with pytest.raises(InvalidPosition):
        progression_quadrilateral_area(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^a, r, p, kappa must be positive$"):
        progression_quadrilateral_area(1.0, -2.0, 5.0, 1.0)  # unchecked, the area is 3.375
    with pytest.raises(ValueError, match="^r must differ from 1$"):
        progression_quadrilateral_area(1.0, 1.0, 5.0, 1.0)
    for r in (1.0000000000000002, 0.9999999999):  # the chord parameters a and a*r**2 coincide
        with pytest.raises(DegenerateIntersection, match="^chord intersection is undefined$") as exc:
            progression_quadrilateral_area(1.0, r, 5.0, 1.0)
        assert isinstance(exc.value.__cause__, CoincidentParameters)


def test_progression_matches_closed_form():
    rng = random.Random(40)
    for _ in range(50):
        a = log_uniform(rng, 0.3, 3.0)
        r = rng.choice((rng.uniform(1.2, 3.0), rng.uniform(0.3, 0.8)))
        hi = max(a, a * r**3)
        p = rng.choice((rng.uniform(0.01, 0.9) * min(a, a * r**3), hi * rng.uniform(1.1, 50.0)))
        kappa = log_uniform(rng, 0.5, 2.0)
        value = progression_quadrilateral_area(a, r, p, kappa)
        expected = kappa * (r + 1.0) * abs(r - 1.0) ** 3 / (2.0 * r * r)
        assert value == pytest.approx(expected, rel=1e-9)


def test_hyperbola_general_frame_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        h = random_hyperbola(rng)
        alpha = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.3, 3.0)
        p = h.point_at(alpha)
        assert abs(core_quantity(p, h)) <= 1e-9 * max(1.0, h.kappa)
        a1, a2 = asymptotic_projections(p, h)
        # projections land on the asymptote lines through the center
        inverse = invert_map(h.frame)
        axis_u = Line(h.center, inverse.apply_linear(DirectionVector(1, 0)))
        axis_v = Line(h.center, inverse.apply_linear(DirectionVector(0, 1)))
        assert axis_u.contains(a1)
        assert axis_v.contains(a2)
        # plane_point inverts relative_coords, also on a frame reflected for kappa < 0.
        q = random_off_curve_point(rng, h)
        for g in (h, AxisHyperbola(h.center, -h.kappa, h.frame)):
            for point in (p, q):
                assert_point_close(g.plane_point(*g.relative_coords(point)), point, tol=1e-9)
    with pytest.raises(ValueError, match="^abscissa on the asymptote$"):
        h.point_at(0.0)
    far = axis_aligned(Point(1e308, 0.0), 1.0)
    with pytest.raises(ValueError, match="^coordinates must be finite, got inf$"):
        far.plane_point(1e308, 0.0)
