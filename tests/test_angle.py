import math
import random

import mpmath
import pytest

from helpers import (
    basis_point,
    direction_pair,
    log_uniform,
    random_vertex,
    same_component_slopes,
    same_ray,
    unit_direction,
)
from uvangle import (
    AffineMap,
    ComponentLabel,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    affine_angle,
    area_cross_ratio,
    compose_maps,
    invert_map,
    is_same_component,
    midpoint_ray,
    preserves_affine_angle,
    sigma_lambda,
    sigma_sign,
    signed_area,
    vec,
)
from uvangle.kernel import PAR_EPS, _slope
from uvangle.errors import (
    CoincidentIntersection,
    ComponentMismatch,
    DegenerateConfiguration,
    LambdaParallel,
    SingularRay,
    UndefinedCrossRatio,
)

ORIGIN = Point(0, 0)
X_AXIS = Line(ORIGIN, DirectionVector(1, 0))
Y_AXIS = Line(ORIGIN, DirectionVector(0, 1))
AXES = DirectionPair(DirectionVector(1, 0), DirectionVector(0, 1))
# Frames of extreme scale: d = (1, 1) has the slope |u|/|v| in each.
SMALL_SLOPES = DirectionPair(DirectionVector(1e-100, 0.0), DirectionVector(0.0, 1e100))
LARGE_SLOPES = DirectionPair(DirectionVector(1e100, 0.0), DirectionVector(0.0, 1e-100))


def _aux_line(a: float, b: float) -> Line:
    """The line a*x + b*y = 1."""
    if abs(a) >= abs(b):
        base = Point(1.0 / a, 0.0)
    else:
        base = Point(0.0, 1.0 / b)
    return Line(base, DirectionVector(-b, a))


def test_sigma_worked_example_matches_raw_area_quotient():
    aux = _aux_line(1.0, 2.0)
    value = sigma_lambda(ORIGIN, Ray(ORIGIN, DirectionVector(1, 3)), X_AXIS, Y_AXIS, aux)
    assert not value.infinite
    # independent oracle: intersection points and the literal area quotient
    p_u, p_v, p_l = Point(1, 0), Point(0, 0.5), Point(1 / 7, 3 / 7)
    oracle = signed_area(ORIGIN, p_l, p_u) / signed_area(ORIGIN, p_l, p_v)
    assert value.value == pytest.approx(oracle, rel=1e-12)
    assert value.value == pytest.approx(-6.0, rel=1e-12)
    # magnitude agrees with the slope times the auxiliary coefficient ratio
    assert abs(value.value) == pytest.approx((2.0 / 1.0) * 3.0, rel=1e-12)
    # the intersection point sits between P_U and P_V, so the sign is negative
    assert sigma_sign(ORIGIN, Ray(ORIGIN, DirectionVector(1, 3)), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.NEGATIVE


def test_sigma_boundary_parallel_u_is_zero():
    aux = _aux_line(1.0, 2.0)
    value = sigma_lambda(ORIGIN, Ray(ORIGIN, DirectionVector(1, 0)), X_AXIS, Y_AXIS, aux)
    assert not value.infinite and value.value == 0.0


def test_sigma_boundary_parallel_v_is_infinite():
    aux = _aux_line(1.0, 2.0)
    value = sigma_lambda(ORIGIN, Ray(ORIGIN, DirectionVector(0, 1)), X_AXIS, Y_AXIS, aux)
    assert value.infinite


def test_sigma_auxiliary_parallel_to_ray_raises():
    aux = Line(Point(1, 0), DirectionVector(1, 3))
    with pytest.raises(LambdaParallel):
        sigma_lambda(ORIGIN, Ray(ORIGIN, DirectionVector(1, 3)), X_AXIS, Y_AXIS, aux)


def test_sigma_auxiliary_through_vertex_raises():
    # aux through (c, 0): at c = 0 all three points on it coincide with the vertex, and
    # every tolerance is 0.  For c > 0 they are apart, and the tests compare with their
    # distances from the vertex, so c = 1e-7 gives -3 as c = 1e-5 does.  At c = 1e-170
    # both areas and the denominator's tolerance underflow to 0, and the ratio is 0/0.
    ray = Ray(ORIGIN, DirectionVector(1, 3))
    for c, message in (
        (0.0, "intersection points on the auxiliary line coincide"),
        (1e-170, "degenerate area in the ratio denominator"),
    ):
        aux = Line(Point(c, 0), DirectionVector(1, -1))
        with pytest.raises(CoincidentIntersection, match=f"^{message}$"):
            sigma_lambda(ORIGIN, ray, X_AXIS, Y_AXIS, aux)
    aux = Line(Point(1e-7, 0), DirectionVector(1, -1))
    assert math.isclose(sigma_lambda(ORIGIN, ray, X_AXIS, Y_AXIS, aux).value, -3.0, rel_tol=1e-15)
    aux = Line(Point(1e-5, 0), DirectionVector(1, -1))
    assert sigma_lambda(ORIGIN, ray, X_AXIS, Y_AXIS, aux).value == -3.0


@pytest.mark.parametrize(
    "u_line, v_line, error, message",
    [
        (Line(Point(0, 1), DirectionVector(1, 0)), Y_AXIS, ValueError,
         "line U must pass through the vertex"),
        (X_AXIS, Line(ORIGIN, DirectionVector(2, 0)), DegenerateConfiguration,
         "reference lines must have independent directions"),
    ],
)
def test_sigma_rejects_invalid_reference_lines(u_line, v_line, error, message):
    ray = Ray(ORIGIN, DirectionVector(1, 3))
    with pytest.raises(error, match=f"^{message}$"):
        sigma_lambda(ORIGIN, ray, u_line, v_line, _aux_line(1.0, 2.0))


def test_sigma_sign_cases():
    aux = _aux_line(1.0, 1.0)  # x + y = 1, P_U = (1, 0), P_V = (0, 1)
    midpoint_dir = DirectionVector(1, 1)  # crosses at (0.5, 0.5), the midpoint
    beyond_v_dir = DirectionVector(-1, 2)  # crosses at (-1, 2), beyond P_V
    assert sigma_sign(ORIGIN, Ray(ORIGIN, midpoint_dir), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.NEGATIVE
    assert sigma_sign(ORIGIN, Ray(ORIGIN, beyond_v_dir), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.POSITIVE
    assert sigma_sign(ORIGIN, Ray(ORIGIN, DirectionVector(1, 0)), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.SINGULAR
    # The sine of (1, 5e-10) against U is above PAR_EPS, but P_L lies within REL_EPS of P_U.
    assert sigma_sign(ORIGIN, Ray(ORIGIN, DirectionVector(1, 5e-10)), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.SINGULAR
    assert sigma_sign(ORIGIN, Ray(ORIGIN, DirectionVector(1, 1e-9)), X_AXIS, Y_AXIS, aux) \
        is ComponentLabel.NEGATIVE
    # An auxiliary line through the vertex puts P_L, P_U and P_V at one position.
    through_vertex = Line(ORIGIN, DirectionVector(1, -1))
    assert sigma_sign(ORIGIN, Ray(ORIGIN, midpoint_dir), X_AXIS, Y_AXIS, through_vertex) \
        is ComponentLabel.SINGULAR


def test_cross_ratio_against_reference_pair_is_sigma_quotient():
    aux = _aux_line(1.0, 2.0)
    # sigma = -2 * slope in this frame, so slopes -3 and -1 give sigma values 6 and 2
    l1 = Ray(ORIGIN, DirectionVector(1, -3))
    l2 = Ray(ORIGIN, DirectionVector(1, -1))
    r1 = Ray(ORIGIN, DirectionVector(1, 0))  # along U: sigma 0
    r2 = Ray(ORIGIN, DirectionVector(0, 1))  # along V: sigma infinite
    s1 = sigma_lambda(ORIGIN, l1, X_AXIS, Y_AXIS, aux).value
    s2 = sigma_lambda(ORIGIN, l2, X_AXIS, Y_AXIS, aux).value
    assert (s1, s2) == pytest.approx((6.0, 2.0), rel=1e-12)
    assert area_cross_ratio(l1, l2, r1, r2, ORIGIN, aux) == pytest.approx(
        s1 / s2, rel=1e-12
    )


def test_cross_ratio_worked_values_two_one_zero_infinity():
    # sigma exactly 1 is the limit of a ray parallel to the auxiliary line,
    # which the cross ratio handles as the point at infinity
    aux = _aux_line(1.0, 1.0)
    l1 = Ray(ORIGIN, DirectionVector(1, -2))  # sigma 2
    l2 = Ray(ORIGIN, DirectionVector(1, -1))  # parallel to aux: sigma -> 1
    r1 = Ray(ORIGIN, DirectionVector(1, 0))  # sigma 0
    r2 = Ray(ORIGIN, DirectionVector(0, 1))  # sigma infinite
    assert area_cross_ratio(l1, l2, r1, r2, ORIGIN, aux) == pytest.approx(2.0, rel=1e-12)
    # Only the denominator vanishes when l2 = r1 or l1 = r2: a signed infinity.
    s1, s2, s3, s5 = (Ray(ORIGIN, DirectionVector(1, m)) for m in (1, 2, 3, 5))
    assert area_cross_ratio(s1, s2, s2, s5, ORIGIN, aux) == math.inf
    assert area_cross_ratio(s1, s2, s3, s1, ORIGIN, aux) == -math.inf


def test_cross_ratio_takes_a_ray_parallel_within_par_eps_as_the_point_at_infinity():
    # The tolerance, not exact parallelism, decides: this ray's sine against
    # aux is ~1e-11, and as a finite point it would sit ~5e10 along aux.
    aux = _aux_line(1.0, 1.0)
    near = DirectionVector(1.0, -1.0 + 2e-11)
    sine = (near.dx * aux.dir.dy - near.dy * aux.dir.dx) / (near.norm * aux.dir.norm)
    assert 1e-12 < sine < PAR_EPS
    l1 = Ray(ORIGIN, DirectionVector(1, -2))
    r1 = Ray(ORIGIN, DirectionVector(1, 0))
    r2 = Ray(ORIGIN, DirectionVector(0, 1))
    parallel = area_cross_ratio(l1, Ray(ORIGIN, DirectionVector(1, -1)), r1, r2, ORIGIN, aux)
    assert area_cross_ratio(l1, Ray(ORIGIN, near), r1, r2, ORIGIN, aux) == parallel


def test_cross_ratio_equal_first_pair_is_one():
    aux = _aux_line(1.0, 1.0)
    ray = Ray(ORIGIN, DirectionVector(1, 2))
    other = Ray(ORIGIN, DirectionVector(2, -1))
    reference = Ray(ORIGIN, DirectionVector(1, -3))
    assert area_cross_ratio(ray, ray, other, reference, ORIGIN, aux) \
        == pytest.approx(1.0, rel=1e-12)


def test_cross_ratio_independent_of_auxiliary_line():
    rng = random.Random(11)
    for _ in range(200):
        rays = [Ray(ORIGIN, unit_direction(rng)) for _ in range(4)]
        values = []
        for _ in range(2):
            base = Point(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            d = unit_direction(rng)
            aux = Line(base, d)
            if aux.distance_to(ORIGIN) < 0.1:
                break
            if any(abs(d.dx * r.dir.dy - d.dy * r.dir.dx) < 0.05 for r in rays):
                break
            try:
                values.append(area_cross_ratio(*rays, ORIGIN, aux))
            except UndefinedCrossRatio:
                break
        if len(values) == 2 and all(map(math.isfinite, values)):
            assert values[0] == pytest.approx(values[1], rel=1e-9)


def test_cross_ratio_undefined_when_three_entries_coincide():
    aux = _aux_line(1.0, 1.0)
    l1 = Ray(ORIGIN, DirectionVector(1, 2))
    l2 = Ray(ORIGIN, DirectionVector(1, -3))
    with pytest.raises(UndefinedCrossRatio):
        area_cross_ratio(l1, l2, l1, l1, ORIGIN, aux)
    # On x = 1 a ray (1, m) has the position m, and (0, 1) is the point at infinity.
    # Two entries at 0, or two at infinity, make a determinant and its scale both 0;
    # each case zeroes one numerator and one denominator determinant.
    x_is_one = _aux_line(1.0, 0.0)
    rays = {m: Ray(ORIGIN, DirectionVector(1, m)) for m in (0, 2)}
    rays[None] = Ray(ORIGIN, DirectionVector(0, 1))
    for entries in ((0, 0, 0, 2), (0, 0, 2, 0), (None, None, None, 2), (None, None, 2, None)):
        with pytest.raises(UndefinedCrossRatio):
            area_cross_ratio(*(rays[m] for m in entries), ORIGIN, x_is_one)


def test_angle_zero_for_coincident_rays():
    result = affine_angle(ORIGIN, Point(1, 2), Point(2, 4), AXES)
    assert result.is_real
    assert abs(result.theta) <= 1e-12


def test_angle_worked_slope_ratio():
    m_b = 2.0
    m_a = m_b * math.e**2
    result = affine_angle(ORIGIN, Point(1, m_a), Point(1, m_b), AXES)
    assert result.is_real
    assert result.theta == pytest.approx(1.0, abs=1e-12)


def test_angle_non_real_across_components():
    result = affine_angle(ORIGIN, Point(1, 1), Point(1, -1), AXES)
    assert not result.is_real
    assert "components" in result.reason


def test_angle_singular_ray_raises():
    with pytest.raises(SingularRay):
        affine_angle(ORIGIN, Point(1, 0), Point(1, 2), AXES)
    with pytest.raises(SingularRay):
        affine_angle(ORIGIN, Point(1, 2), Point(0, 3), AXES)


def test_angle_handles_ray_parallel_to_default_auxiliary():
    # slope -1 is parallel to the primary auxiliary direction u - v
    result = affine_angle(ORIGIN, Point(1, -1), Point(1, -2), AXES)
    assert result.is_real
    assert result.theta == pytest.approx(0.5 * math.log(0.5), rel=1e-12)


def test_angle_slope_formula_consistency():
    rng = random.Random(12)
    for _ in range(300):
        m_a, m_b = same_component_slopes(rng, 2)
        result = affine_angle(ORIGIN, Point(1, m_a), Point(1, m_b), AXES)
        if m_a < 0:
            # opposite rays carry the same line; pick representatives on it
            result = affine_angle(ORIGIN, Point(-1, -m_a), Point(1, m_b), AXES)
        assert result.is_real
        assert result.theta == pytest.approx(0.5 * math.log(m_a / m_b), abs=1e-10)


def _random_auxiliary(rng: random.Random, o: Point, avoid) -> Line:
    """A random line that misses o and is not nearly parallel to any direction in avoid."""
    while True:
        d = unit_direction(rng)
        line = Line(Point(o.x + rng.uniform(-2.0, 2.0), o.y + rng.uniform(-2.0, 2.0)), d)
        if line.distance_to(o) > 0.05 and all(
            abs(d.dx * w.dy - d.dy * w.dx) > 0.05 * w.norm for w in avoid
        ):
            return line


def test_angle_matches_auxiliary_line_oracle():
    """The slope form agrees with the paper's area ratios on random auxiliary lines."""
    rng = random.Random(21)
    for _ in range(300):
        o = random_vertex(rng)
        dirs = direction_pair(rng)
        m_a, m_b = (rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.05, 20.0) for _ in range(2))
        a = basis_point(o, dirs, m_a, scale=rng.uniform(0.2, 3.0))
        b = basis_point(o, dirs, m_b, scale=rng.uniform(0.2, 3.0))
        rays = (Ray(o, vec(o, a)), Ray(o, vec(o, b)))
        u_line, v_line = Line(o, dirs.u), Line(o, dirs.v)
        aux = _random_auxiliary(rng, o, (dirs.u, dirs.v, rays[0].dir, rays[1].dir))
        sa, sb = (sigma_lambda(o, r, u_line, v_line, aux).value for r in rays)
        label_a, label_b = (sigma_sign(o, r, u_line, v_line, aux) for r in rays)
        same = is_same_component(o, a, b, dirs)
        assert same == (sa * sb > 0.0) == (label_a is label_b)
        result = affine_angle(o, a, b, dirs)
        assert result.is_real == same
        if same:
            assert result.theta == pytest.approx(0.5 * math.log(sa / sb), abs=1e-9)
        else:
            # the reported signs are those of sigma on the line through o + u + v along u - v
            through = Line(
                Point(o.x + dirs.u.dx + dirs.v.dx, o.y + dirs.u.dy + dirs.v.dy),
                DirectionVector(dirs.u.dx - dirs.v.dx, dirs.u.dy - dirs.v.dy),
            )
            signs = ("+" if sigma_lambda(o, r, u_line, v_line, through).value > 0 else "-" for r in rays)
            assert result.reason.endswith("(sigma signs {}, {})".format(*signs))


def test_angle_independent_of_representative_points():
    rng = random.Random(13)
    for _ in range(200):
        o = random_vertex(rng)
        dirs = direction_pair(rng)
        m_a, m_b = same_component_slopes(rng, 2)
        a = basis_point(o, dirs, m_a)
        b = basis_point(o, dirs, m_b)
        base = affine_angle(o, a, b, dirs)
        scaled = affine_angle(
            o,
            basis_point(o, dirs, m_a, scale=rng.uniform(0.1, 5.0)),
            basis_point(o, dirs, m_b, scale=rng.uniform(0.1, 5.0)),
            dirs,
        )
        assert base.is_real and scaled.is_real
        assert abs(base.theta - scaled.theta) <= 1e-12


def test_sigma_monotone_in_slope_within_component():
    rng = random.Random(14)
    aux = _aux_line(0.7, 1.3)
    slopes = sorted(log_uniform(rng, 0.05, 20.0) for _ in range(50))
    values = [
        sigma_lambda(ORIGIN, Ray(ORIGIN, DirectionVector(1, m)), X_AXIS, Y_AXIS, aux).value
        for m in slopes
    ]
    deltas = [b - a for a, b in zip(values, values[1:])]
    assert all(d < 0 for d in deltas) or all(d > 0 for d in deltas)
    assert len(set(values)) == len(values)


def test_is_same_component():
    assert is_same_component(ORIGIN, Point(1, 1), Point(1, 2), AXES)
    assert not is_same_component(ORIGIN, Point(1, 1), Point(1, -1), AXES)
    # Slopes of about 1e-200 and 2e-200, whose product underflows to 0.
    assert is_same_component(ORIGIN, Point(1, 1), Point(1, 2), SMALL_SLOPES)
    with pytest.raises(SingularRay):
        is_same_component(ORIGIN, Point(1, 0), Point(1, 1), AXES)


def test_midpoint_of_equal_rays_is_the_ray():
    ray = Ray(ORIGIN, DirectionVector(1, 3))
    result = midpoint_ray(ORIGIN, ray, ray, AXES)
    assert same_ray(result, ray)


def test_midpoint_worked_example():
    result = midpoint_ray(
        ORIGIN, Ray(ORIGIN, DirectionVector(1, 1)), Ray(ORIGIN, DirectionVector(1, 4)), AXES
    )
    assert same_ray(result, Ray(ORIGIN, DirectionVector(1, 2)), tol=1e-12)


def test_midpoint_component_mismatch():
    with pytest.raises(ComponentMismatch):
        midpoint_ray(
            ORIGIN, Ray(ORIGIN, DirectionVector(1, 1)), Ray(ORIGIN, DirectionVector(1, -1)), AXES
        )


@pytest.mark.parametrize(
    "dirs, message",
    [
        (DirectionPair(DirectionVector(1e-200, 0.0), DirectionVector(0.0, 1e200)),
         "ray d's slope beta/alpha underflows to 0"),
        (DirectionPair(DirectionVector(1e200, 0.0), DirectionVector(0.0, 1e-200)),
         "ray d's slope beta/alpha overflows"),
    ],
)
def test_slope_out_of_range_is_a_singular_ray(dirs, message):
    with pytest.raises(SingularRay) as exc:
        _slope(1.0, 1.0, dirs, "d")
    assert str(exc.value) == message


@pytest.mark.parametrize("dirs", [SMALL_SLOPES, LARGE_SLOPES], ids=["small", "large"])
def test_midpoint_of_slopes_whose_product_leaves_the_range(dirs):
    # Slopes near 1e-200 or 1e200: m_r*m_s underflows or overflows, the mean does not.
    r = Ray(ORIGIN, DirectionVector(1.0, 1.0))
    for s in (r, Ray(ORIGIN, DirectionVector(1.0, 2.0))):
        m_r, m_s = (_slope(ray.dir.dx, ray.dir.dy, dirs, "d") for ray in (r, s))
        t = midpoint_ray(ORIGIN, r, s, dirs)
        m_t = _slope(t.dir.dx, t.dir.dy, dirs, "t")
        with mpmath.workdps(50):
            mean = mpmath.sqrt(mpmath.mpf(m_r) * mpmath.mpf(m_s))
            assert abs(mpmath.mpf(m_t) - mean) <= math.ulp(float(mean))


def test_midpoint_keeps_the_bits_of_the_slope_product_form():
    # Wherever m_r*m_s is a normal float, the mean built from mantissas and exponents is
    # sqrt(m_r*m_s) to the bit.  Scaling u and v by independent powers of two spreads the
    # slopes over 2^-480 .. 2^480.
    rng = random.Random(27)
    for _ in range(500):
        o = random_vertex(rng)
        unit = direction_pair(rng)
        i, j = rng.randint(-240, 240), rng.randint(-240, 240)
        dirs = DirectionPair(unit.u.scaled(math.ldexp(1.0, i)), unit.v.scaled(math.ldexp(1.0, j)))
        r, s = (
            Ray(o, DirectionVector(unit.u.dx + m * unit.v.dx, unit.u.dy + m * unit.v.dy))
            for m in same_component_slopes(rng, 2)
        )
        m_r, m_s = (_slope(ray.dir.dx, ray.dir.dy, dirs, "d") for ray in (r, s))
        m_t = math.copysign(math.sqrt(m_r * m_s), m_r)
        d_t = DirectionVector(dirs.u.dx + m_t * dirs.v.dx, dirs.u.dy + m_t * dirs.v.dy)
        if d_t.dx * r.dir.dx + d_t.dy * r.dir.dy < 0.0:
            d_t = d_t.scaled(-1.0)
        t = midpoint_ray(o, r, s, dirs)
        assert (t.dir.dx.hex(), t.dir.dy.hex()) == (d_t.dx.hex(), d_t.dy.hex()), (m_r, m_s)


@pytest.mark.parametrize("k", [0, 40, -40])
def test_midpoint_rejects_a_ray_off_the_vertex_at_every_scale(k):
    # The vertex is the origin, so REL_EPS times its largest coordinate is 0 at every
    # scale, and r, which starts 7e-10 from it, is refused at each 2^k.
    def scaled(x, y):
        return math.ldexp(x, k), math.ldexp(y, k)

    r = Ray(Point(*scaled(5e-10, 5e-10)), DirectionVector(*scaled(1e-12, 1e-12)))
    s = Ray(Point(0, 0), DirectionVector(*scaled(1e-12, 4e-12)))
    with pytest.raises(ValueError, match="^ray must emanate from the vertex$"):
        midpoint_ray(Point(0, 0), r, s, AXES)


def test_midpoint_bisects():
    rng = random.Random(15)
    for _ in range(200):
        o = random_vertex(rng)
        dirs = direction_pair(rng)
        m_r, m_s = same_component_slopes(rng, 2)
        r = Ray(o, DirectionVector(dirs.u.dx + m_r * dirs.v.dx, dirs.u.dy + m_r * dirs.v.dy))
        s = Ray(o, DirectionVector(dirs.u.dx + m_s * dirs.v.dx, dirs.u.dy + m_s * dirs.v.dy))
        t = midpoint_ray(o, r, s, dirs)
        a_point = Line(r.origin, r.dir).point_at(1.0)
        t_point = Line(t.origin, t.dir).point_at(1.0)
        s_point = Line(s.origin, s.dir).point_at(1.0)
        first = affine_angle(o, a_point, t_point, dirs)
        second = affine_angle(o, t_point, s_point, dirs)
        whole = affine_angle(o, a_point, s_point, dirs)
        assert abs(first.theta - second.theta) <= 1e-9
        assert abs(first.theta - 0.5 * whole.theta) <= 1e-9


@pytest.mark.parametrize("beta", [2e-11, 5e-10, 2e-9])
def test_midpoint_and_component_share_the_singular_ray_rule(beta):
    # sin angle(u, v) = 0.1, so u + beta*v is within PAR_EPS of u for beta <= 1e-9.
    dirs = DirectionPair(DirectionVector(1.0, 0.0), DirectionVector(math.sqrt(0.99), 0.1))
    d_r = DirectionVector(1.0 + beta * dirs.v.dx, beta * dirs.v.dy)
    d_s = DirectionVector(dirs.u.dx + dirs.v.dx, dirs.u.dy + dirs.v.dy)

    def singular(call) -> bool:
        try:
            call()
        except SingularRay:
            return True
        return False

    midpoint = singular(lambda: midpoint_ray(ORIGIN, Ray(ORIGIN, d_r), Ray(ORIGIN, d_s), dirs))
    component = singular(
        lambda: is_same_component(ORIGIN, Point(d_r.dx, d_r.dy), Point(d_s.dx, d_s.dy), dirs)
    )
    assert midpoint == component == (beta <= 1e-9)


def test_preserves_translation_and_diagonal():
    assert preserves_affine_angle(AffineMap.translation(4, -7), AXES)
    assert preserves_affine_angle(AffineMap.scaling(2, 3), AXES)
    assert not preserves_affine_angle(AffineMap.scaling(1, -1), AXES)
    assert not preserves_affine_angle(AffineMap(1.0, 0.5, 0.0, 1.0), AXES)
    # Eigenvalues whose product underflows to 0 keep their signs.
    assert preserves_affine_angle(AffineMap.scaling(1e-200, 1e-200), AXES)
    assert not preserves_affine_angle(AffineMap.scaling(1e-200, -1e-200), AXES)
    sheared = DirectionPair(DirectionVector(3, 1), DirectionVector(1, 2))
    basis = AffineMap(3.0, 1.0, 1.0, 2.0)
    tiny = compose_maps(compose_maps(basis, AffineMap.scaling(1e-170, 3e-170)), invert_map(basis))
    assert preserves_affine_angle(tiny, sheared)
    # Directions whose |d|^2 underflows or overflows: the eigenvalue signs come
    # from a sign test, so no dot(u, u) divides or goes to inf.
    for u in ((1e-200, 0.0), (1e155, 0.0)):
        dirs = DirectionPair(DirectionVector(*u), DirectionVector(0.0, 1.0))
        assert preserves_affine_angle(AffineMap.scaling(2, 3), dirs)
        assert preserves_affine_angle(AffineMap.scaling(-2, -3), dirs)
        assert not preserves_affine_angle(AffineMap.scaling(2, -3), dirs)
    slanted = DirectionPair(DirectionVector(3e-170, 1e-170), DirectionVector(0.0, 1.0))
    basis = AffineMap(3.0, 0.0, 1.0, 1.0)
    for (su, sv), kept in (((2, 3), True), ((-2, -3), True), ((2, -3), False)):
        t = compose_maps(compose_maps(basis, AffineMap.scaling(su, sv)), invert_map(basis))
        assert preserves_affine_angle(t, slanted) == kept, (su, sv)


def test_preserves_conjugated_diagonal():
    rng = random.Random(16)
    for _ in range(100):
        dirs = direction_pair(rng)
        basis = AffineMap(dirs.u.dx, dirs.v.dx, dirs.u.dy, dirs.v.dy)
        sx = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0)
        sy = math.copysign(rng.uniform(0.2, 5.0), sx)
        good = compose_maps(compose_maps(basis, AffineMap.scaling(sx, sy)), invert_map(basis))
        assert preserves_affine_angle(good, dirs)
        bad = compose_maps(compose_maps(basis, AffineMap(1.0, 0.6, 0.0, 1.0)), invert_map(basis))
        assert not preserves_affine_angle(bad, dirs)


def test_angle_invariant_under_direction_preserving_maps():
    rng = random.Random(17)
    for _ in range(100):
        o = random_vertex(rng)
        dirs = direction_pair(rng)
        m_a, m_b = same_component_slopes(rng, 2)
        a = basis_point(o, dirs, m_a)
        b = basis_point(o, dirs, m_b)
        basis = AffineMap(dirs.u.dx, dirs.v.dx, dirs.u.dy, dirs.v.dy)
        sx = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0)
        sy = math.copysign(rng.uniform(0.2, 5.0), sx)
        t = compose_maps(
            AffineMap.translation(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            compose_maps(compose_maps(basis, AffineMap.scaling(sx, sy)), invert_map(basis)),
        )
        before = affine_angle(o, a, b, dirs)
        after = affine_angle(t.apply_point(o), t.apply_point(a), t.apply_point(b), dirs)
        assert before.is_real and after.is_real
        assert abs(before.theta - after.theta) <= 1e-9
