import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    IDENTITY,
    assert_point_close,
    direction_pair,
    random_invertible_map,
    random_vertex,
)
from uvangle import (
    AffineMap,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    AxisHyperbola,
    affine_angle,
    basis_map,
    compose_maps,
    cross,
    decompose,
    intersect_lines,
    invert_map,
    is_parallel,
    is_same_component,
    midpoint_ray,
    normalize_configuration,
    secant_intersections,
    signed_area,
    vec,
)
from uvangle.errors import DegenerateConfiguration, ParallelLines, SingularMap
from uvangle.kernel import PAR_EPS


def test_signed_area_unit_right_triangle():
    assert signed_area(Point(0, 0), Point(1, 0), Point(0, 1)) == 0.5


def test_signed_area_collinear():
    assert signed_area(Point(0, 0), Point(1, 1), Point(2, 2)) == 0.0


def test_signed_area_hand_value():
    # 0.5 * (p*s - q*r) with (p, q) = (2, 0), (r, s) = (1, 3)
    assert signed_area(Point(0, 0), Point(2, 0), Point(1, 3)) == 3.0


def test_signed_area_antisymmetry_exact():
    rng = random.Random(1)
    for _ in range(1000):
        x, y, z = (random_vertex(rng, -5, 5) for _ in range(3))
        assert signed_area(x, y, z) == -signed_area(x, z, y)


def test_signed_area_affine_scaling():
    rng = random.Random(2)
    for _ in range(300):
        t = random_invertible_map(rng)
        x, y, z = (random_vertex(rng, -3, 3) for _ in range(3))
        before = signed_area(x, y, z)
        after = signed_area(t.apply_point(x), t.apply_point(y), t.apply_point(z))
        assert abs(after - t.det * before) <= 1e-10 * max(1.0, abs(after), abs(t.det * before))


def test_intersect_axes():
    x_axis = Line(Point(0, 0), DirectionVector(1, 0))
    y_axis = Line(Point(0, 0), DirectionVector(0, 1))
    assert_point_close(intersect_lines(x_axis, y_axis), Point(0, 0))


def test_intersect_hand_system():
    # y = x meets x + y = 2 at (1, 1)
    diag = Line(Point(0, 0), DirectionVector(1, 1))
    anti = Line(Point(2, 0), DirectionVector(-1, 1))
    assert_point_close(intersect_lines(diag, anti), Point(1, 1))


def test_intersect_parallel_raises():
    l1 = Line(Point(0, 0), DirectionVector(1, 0))
    l2 = Line(Point(0, 1), DirectionVector(1, 0))
    with pytest.raises(ParallelLines):
        intersect_lines(l1, l2)


def test_intersection_lies_on_both_lines():
    rng = random.Random(3)
    for _ in range(300):
        l1 = Line(random_vertex(rng), DirectionVector(rng.uniform(-1, 1) or 1.0, rng.uniform(-1, 1)))
        l2 = Line(random_vertex(rng), DirectionVector(rng.uniform(-1, 1), rng.uniform(-1, 1) or 1.0))
        if abs(l1.dir.dx * l2.dir.dy - l1.dir.dy * l2.dir.dx) < 0.05:
            continue
        p = intersect_lines(l1, l2)
        assert l1.contains(p)
        assert l2.contains(p)


def test_apply_identity_and_translation():
    p = Point(3, -2)
    assert IDENTITY.apply_point(p) == p
    tr = AffineMap.translation(5, 5)
    tri = [Point(0, 0), Point(1, 0), Point(0, 1)]
    moved = [tr.apply_point(q) for q in tri]
    assert signed_area(*moved) == signed_area(*tri)
    d = DirectionVector(1, 2)
    assert (tr.apply_point(p), tr.apply_linear(d)) == (Point(8, 3), d)


def test_apply_scaling_area():
    t = AffineMap.scaling(2, 3)
    tri = [Point(0, 0), Point(1, 0), Point(0, 1)]
    scaled = [t.apply_point(q) for q in tri]
    assert signed_area(*scaled) == pytest.approx(3.0, rel=1e-12)


def test_invert_identity_and_diagonal():
    assert invert_map(IDENTITY) == IDENTITY
    inv = invert_map(AffineMap.scaling(2, 4))
    assert inv.xx == 0.5 and inv.yy == 0.25
    # Rows of unequal length: the rows are orthogonal, whatever their lengths.
    for sx, sy in ((1.0, 1e13), (1e-3, 1e9)):
        inv = invert_map(AffineMap.scaling(sx, sy))
        assert (inv.xx, inv.xy, inv.yx, inv.yy) == pytest.approx((1 / sx, 0, 0, 1 / sy), rel=1e-15)


def test_invert_singular_raises():
    with pytest.raises(SingularMap):
        invert_map(AffineMap(1.0, 2.0, 0.5, 1.0))
    # det = 1e310 overflows, though ABS_EPS * 1e155**2 does not: the inverse divided down to 0.
    with pytest.raises(OverflowError, match=r"^linear part's determinant overflows: det = inf$"):
        invert_map(AffineMap(1e155, 0.0, 0.0, 1e155))
    # Both products overflow, so det = inf - inf is nan, for a singular and a nonsingular map
    # (det 1e310); the entries divided to nan.
    for m in (AffineMap(1e155, 1e155, 1e155, 1e155), AffineMap(1e155, 1e155, 1e155, 2e155)):
        with pytest.raises(
            OverflowError, match=r"^linear part's determinant overflows: det = nan$"
        ):
            invert_map(m)


def test_invert_small_well_conditioned_map():
    # A rotation scaled by 1e-6 has det 1e-12, but it is perfectly conditioned.
    s = 1e-6
    c, n = s * math.cos(0.3), s * math.sin(0.3)
    t = AffineMap(c, -n, n, c, 2.0 * s, -3.0 * s)
    inv = invert_map(t)
    for got, want in zip(
        (inv.xx, inv.xy, inv.yx, inv.yy), (c / s**2, n / s**2, -n / s**2, c / s**2)
    ):
        assert got == pytest.approx(want, rel=1e-15)
    roundtrip = compose_maps(t, inv)
    assert (roundtrip.xx, roundtrip.xy, roundtrip.yx, roundtrip.yy) == pytest.approx(
        (1.0, 0.0, 0.0, 1.0), abs=1e-15
    )
    for p in (Point(0.0, 0.0), Point(1e6, -2e6), Point(-3.5, 7.25)):
        assert_point_close(inv.apply_point(t.apply_point(p)), p, tol=1e-14)
    with pytest.raises(SingularMap):
        invert_map(AffineMap(s, 2.0 * s, 0.5 * s, s))


def test_compose_inverse_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        t = random_invertible_map(rng)
        round_trip = compose_maps(t, invert_map(t))
        for _ in range(5):
            p = random_vertex(rng, -5, 5)
            assert_point_close(round_trip.apply_point(p), p, tol=1e-9)


def test_normalize_canonical_is_identity():
    t = normalize_configuration(
        Point(-1, 0), Point(1, 0), DirectionPair(DirectionVector(1, 1), DirectionVector(1, -1))
    )
    assert_point_close(t.apply_point(Point(-1, 0)), Point(-1, 0), tol=1e-12)
    assert_point_close(t.apply_point(Point(1, 0)), Point(1, 0), tol=1e-12)
    assert t.xx == pytest.approx(1.0, abs=1e-12)
    assert t.xy == pytest.approx(0.0, abs=1e-12)
    assert t.yx == pytest.approx(0.0, abs=1e-12)
    assert t.yy == pytest.approx(1.0, abs=1e-12)


def _check_normalization_postconditions(a, b, dirs, tol=1e-9):
    t = normalize_configuration(a, b, dirs)
    assert_point_close(t.apply_point(a), Point(-1, 0), tol=tol)
    assert_point_close(t.apply_point(b), Point(1, 0), tol=tol)
    iu = t.apply_linear(dirs.u)
    iv = t.apply_linear(dirs.v)
    assert abs(iu.dx * 1 - iu.dy * 1) <= tol * iu.norm * math.sqrt(2)  # parallel (1, 1)
    assert abs(iv.dx * -1 - iv.dy * 1) <= tol * iv.norm * math.sqrt(2)  # parallel (1, -1)


def test_normalize_worked_example():
    _check_normalization_postconditions(
        Point(0, 0), Point(2, 0), DirectionPair(DirectionVector(1, 1), DirectionVector(1, -1))
    )


def test_normalize_segment_parallel_to_reference_raises():
    with pytest.raises(DegenerateConfiguration):
        normalize_configuration(
            Point(0, 0), Point(1, 1), DirectionPair(DirectionVector(1, 1), DirectionVector(1, -1))
        )


def test_normalize_dependent_directions_raise():
    # normalize_configuration takes a DirectionPair, whose constructor refuses them.
    with pytest.raises(DegenerateConfiguration):
        normalize_configuration(
            Point(0, 0), Point(1, 0), DirectionPair(DirectionVector(1, 1), DirectionVector(2, 2))
        )


def test_normalize_random_postconditions():
    rng = random.Random(5)
    done = 0
    while done < 1000:
        a = random_vertex(rng, -3, 3)
        b = random_vertex(rng, -3, 3)
        dirs = direction_pair(rng)
        try:
            d = vec(a, b)
        except ValueError:
            continue
        if d.norm < 0.3:
            continue
        c1 = abs(d.dx * dirs.u.dy - d.dy * dirs.u.dx) / (d.norm * dirs.u.norm)
        c2 = abs(d.dx * dirs.v.dy - d.dy * dirs.v.dx) / (d.norm * dirs.v.norm)
        if min(c1, c2) < 0.1:
            continue
        _check_normalization_postconditions(a, b, dirs)
        done += 1


def test_line_implicit_form_is_deterministic():
    line = Line(Point(1, 2), DirectionVector(3, 4))
    a, b, c = line.implicit()
    assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-15)
    assert a > 0 or (a == 0 and b > 0)
    # the same geometric line, differently presented, yields the same triple
    other = Line(Point(4, 6), DirectionVector(-6, -8))
    a2, b2, c2 = other.implicit()
    assert (a, b) == pytest.approx((a2, b2), abs=1e-15)
    assert c == pytest.approx(c2, abs=1e-12)


@pytest.mark.parametrize("k", [0, 60, -60])
def test_line_contains_is_relative_to_the_point_and_the_base(k):
    # (1e-10, 1e-10) lies 1e-10 off the x-axis, as far off as it is from the origin.
    x_axis = Line(Point(0, 0), DirectionVector(1, 0))
    assert not x_axis.contains(Point(math.ldexp(1e-10, k), math.ldexp(1e-10, k)))
    assert x_axis.contains(Point(math.ldexp(1e-10, k), 0.0))


def test_basis_map_sends_u_and_v_to_the_unit_vectors():
    rng = random.Random(8)
    for _ in range(200):
        dirs = direction_pair(rng)
        scale_u, scale_v = rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)
        u, v = dirs.u.scaled(scale_u), dirs.v.scaled(scale_v)
        frame = basis_map(u, v)
        assert (frame.tx, frame.ty) == (0.0, 0.0)
        iu, iv = frame.apply_linear(u), frame.apply_linear(v)
        for got, want in ((iu.dx, 1.0), (iu.dy, 0.0), (iv.dx, 0.0), (iv.dy, 1.0)):
            assert abs(got - want) <= 1e-12
        alpha, beta = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        d = DirectionVector(alpha * u.dx + beta * v.dx, alpha * u.dy + beta * v.dy)
        a, b = decompose(d, DirectionPair(u, v))
        assert abs(a - alpha) <= 1e-9 * max(1.0, abs(alpha)) and abs(b - beta) <= 1e-9 * max(1.0, abs(beta))


def test_basis_map_rejects_dependent_directions():
    for u, v in (
        (DirectionVector(1, 1), DirectionVector(-2, -2)),
        (DirectionVector(1, 0), DirectionVector(1, 1e-11)),
    ):
        with pytest.raises(DegenerateConfiguration):
            basis_map(u, v)
        with pytest.raises(DegenerateConfiguration):
            decompose(DirectionVector(1, 2), DirectionPair(u, v))
        with pytest.raises(DegenerateConfiguration):
            AxisHyperbola.from_directions(Point(0, 0), 1.0, u, v)


# A nonzero subnormal direction, off both reference directions, whose (u, v) coordinates
# both underflow to 0 in this frame.
_DIRS = DirectionPair(DirectionVector(1e10, 1e10), DirectionVector(1e10, -1e10))
_O, _A, _B = Point(0.0, 0.0), Point(5e-324, 0.0), Point(1.0, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: decompose(vec(_O, _A), _DIRS),
        lambda: affine_angle(_O, _A, _B, _DIRS),
        lambda: is_same_component(_O, _A, _B, _DIRS),
        lambda: midpoint_ray(_O, Ray(_O, vec(_O, _A)), Ray(_O, vec(_O, _B)), _DIRS),
        lambda: secant_intersections(
            _B, vec(_O, _A), AxisHyperbola.from_directions(_O, 1.0, _DIRS.u, _DIRS.v)
        ),
    ],
    ids=["decompose", "affine_angle", "is_same_component", "midpoint_ray", "secant_intersections"],
)
def test_underflowing_direction_raises_one_message(call):
    with pytest.raises(ValueError, match=r"^direction's \(u, v\) coefficients both underflow to 0$"):
        call()


def test_decompose_raises_for_coefficients_out_of_range():
    # Both coefficients of a nonzero subnormal direction underflow to 0.
    tiny = DirectionPair(DirectionVector(1e10, 0.0), DirectionVector(0.0, 1e10))
    with pytest.raises(ValueError, match=r"^direction's \(u, v\) coefficients both underflow"):
        decompose(DirectionVector(5e-324, 0.0), tiny)
    assert decompose(DirectionVector(1e-300, 0.0), tiny) == (1e-310, 0.0)
    huge = DirectionPair(DirectionVector(1e-10, 0.0), DirectionVector(0.0, 1e-10))
    with pytest.raises(ValueError, match=r"^coordinates must be finite, got inf$"):
        decompose(DirectionVector(1e300, 1.0), huge)


def _reference_is_parallel(d1: DirectionVector, d2: DirectionVector) -> bool:
    return abs(cross(d1, d2)) <= PAR_EPS * d1.norm * d2.norm


_norms = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _near_parallel_pairs(draw):
    """Directions turned by 0.9-1.1 PAR_EPS (or that plus pi): both sides of the boundary."""
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    turn = draw(st.floats(min_value=0.9, max_value=1.1)) * PAR_EPS
    turn = draw(st.sampled_from([turn, -turn, math.pi + turn, math.pi - turn]))
    r1, r2 = draw(_norms), draw(_norms)
    return (
        DirectionVector(r1 * math.cos(angle), r1 * math.sin(angle)),
        DirectionVector(r2 * math.cos(angle + turn), r2 * math.sin(angle + turn)),
    )


_coordinates = st.floats(min_value=-1e150, max_value=1e150)
_directions = st.tuples(_coordinates, _coordinates).filter(lambda d: d != (0.0, 0.0))
_any_pairs = st.tuples(_directions, _directions).map(
    lambda pair: (DirectionVector(*pair[0]), DirectionVector(*pair[1]))
)


@settings(max_examples=500, deadline=None, database=None)
@given(pair=st.one_of(_near_parallel_pairs(), _any_pairs))
@example(pair=(DirectionVector(1.0, 0.0), DirectionVector(1.0, PAR_EPS)))  # on the boundary
@example(pair=(DirectionVector(1.0, 0.0), DirectionVector(-1.0, 1.01 * PAR_EPS)))
def test_is_parallel_decides_as_the_cross_product_reference(pair):
    d1, d2 = pair
    assert is_parallel(d1, d2) == _reference_is_parallel(d1, d2)
    assert is_parallel(d2, d1) == _reference_is_parallel(d2, d1)


def test_near_parallel_directions_reach_both_decisions():
    u, angle = DirectionVector(0.6, 0.8), math.atan2(0.8, 0.6)
    decisions = set()
    for k in range(80, 121):
        turn = k / 100.0 * PAR_EPS
        v = DirectionVector(math.cos(angle + turn), math.sin(angle + turn))
        decisions.add(is_parallel(u, v))
        assert is_parallel(u, v) == _reference_is_parallel(u, v)
    assert decisions == {True, False}


@pytest.mark.parametrize(
    "u, v",
    [
        (DirectionVector(1.0, 1.0), DirectionVector(-2.0, -2.0)),
        (DirectionVector(3.0, 4.0), DirectionVector(3.0, 4.0)),
        (DirectionVector(1.0, 0.0), DirectionVector(1.0, PAR_EPS)),
        (DirectionVector(1e-200, 0.0), DirectionVector(-1e200, 0.5 * PAR_EPS * 1e200)),
    ],
)
def test_direction_pair_of_parallel_directions_keeps_its_message(u, v):
    with pytest.raises(DegenerateConfiguration) as info:
        DirectionPair(u, v)
    assert str(info.value) == "reference directions must be independent"
