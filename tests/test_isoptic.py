import math
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_point_close,
    conic_scale,
    conic_value,
    direction_pair,
    log_uniform,
    random_vertex,
)
from uvangle import (
    ConicCoefficients,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    IsopticSpec,
    affine_angle,
    asymptote_directions,
    conic_center,
    cross,
    is_admissible,
    isoptic_curve,
    isoptic_point,
    reflect_branch,
    sample_locus,
    sector_area_equivalence,
    sigma_lambda,
    vec,
)
from uvangle.errors import (
    ComponentMismatch,
    DegenerateConfiguration,
    GeometryError,
    SingularMap,
    SingularPosition,
    ThetaTooSmall,
)
from uvangle.isoptic import THETA_MAX, THETA_MIN, _classify

CANONICAL_DIRS = DirectionPair(DirectionVector(1, 1), DirectionVector(1, -1))
AXES = DirectionPair(DirectionVector(1, 0), DirectionVector(0, 1))


def canonical_spec(theta: float) -> IsopticSpec:
    return IsopticSpec(Point(-1, 0), Point(1, 0), CANONICAL_DIRS, theta)


def random_spec(rng: random.Random) -> IsopticSpec:
    while True:
        a = random_vertex(rng, -3, 3)
        b = random_vertex(rng, -3, 3)
        dirs = direction_pair(rng)
        try:
            d = vec(a, b)
        except ValueError:
            continue
        if d.norm < 0.8:
            continue
        margin_u = abs(cross(d, dirs.u)) / (d.norm * dirs.u.norm)
        margin_v = abs(cross(d, dirs.v)) / (d.norm * dirs.v.norm)
        if min(margin_u, margin_v) < 0.15:
            continue
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        return IsopticSpec(a, b, dirs, theta)


def test_spec_validation():
    with pytest.raises(ValueError):
        IsopticSpec(Point(-1, 0), Point(1, 0), CANONICAL_DIRS, 0.0)
    with pytest.raises(DegenerateConfiguration):
        IsopticSpec(Point(0, 0), Point(1, 1), CANONICAL_DIRS, 1.0)  # segment parallel to u
    with pytest.raises(DegenerateConfiguration):
        IsopticSpec(Point(0, 0), Point(0, 0), CANONICAL_DIRS, 1.0)


def test_curve_worked_example_ratio_three():
    theta = 0.5 * math.log(3.0)  # exp(2*theta) = 3, so beta = (3+1)/(3-1) = 2
    curve = isoptic_curve(canonical_spec(theta))
    assert curve.beta == pytest.approx(2.0, rel=1e-12)
    expected = ConicCoefficients(1.0, 0.0, -1.0, 0.0, -4.0, -1.0)
    assert curve.normalized_conic.as_tuple() == pytest.approx(expected.as_tuple(), abs=1e-12)
    center = conic_center(curve.normalized_conic)
    assert_point_close(center, Point(0.0, -2.0), tol=1e-12)


def test_curve_passes_through_endpoints():
    curve = isoptic_curve(canonical_spec(1.0))
    for x in (-1.0, 1.0):
        assert abs(conic_value(curve.normalized_conic, x, 0.0)) <= 1e-9


def test_curve_center_formula():
    for theta in (0.3, -0.7, 2.0):
        curve = isoptic_curve(canonical_spec(theta))
        center = conic_center(curve.normalized_conic)
        assert_point_close(center, Point(0.0, -1.0 / math.tanh(theta)), tol=1e-9)


def test_original_conic_is_the_pullback_and_keeps_the_center():
    rng = random.Random(31)
    for _ in range(100):
        dirs = direction_pair(rng)
        a, b = random_vertex(rng), random_vertex(rng)
        try:
            spec = IsopticSpec(a, b, dirs, rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
        except DegenerateConfiguration:
            continue
        curve = isoptic_curve(spec)
        center = conic_center(curve.original_conic)
        assert_point_close(center, curve.frame.apply_point(Point(0.0, -curve.beta)), tol=1e-9)
        # original(frame(p)) = k * normalized(p) for one constant k
        origin = curve.frame.apply_point(Point(0.0, 0.0))
        k = conic_value(curve.original_conic, origin.x, origin.y) / curve.normalized_conic.c_0
        for _ in range(5):
            x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            q = curve.frame.apply_point(Point(x, y))
            got = conic_value(curve.original_conic, q.x, q.y)
            want = k * conic_value(curve.normalized_conic, x, y)
            assert abs(got - want) <= 1e-9 * conic_scale(curve.original_conic, q.x, q.y)


def test_conic_center_pivots_and_rejects_non_central_conics():
    # (x - 2)(y + 1) = 3: the quadratic part has c_xx = c_yy = 0, so the solve must pivot
    hyperbola = ConicCoefficients(0.0, 1.0, 0.0, 1.0, -2.0, -5.0)
    assert_point_close(conic_center(hyperbola), Point(2.0, -1.0), tol=1e-15)
    for conic in (
        ConicCoefficients(1.0, 0.0, 0.0, 0.0, 1.0, 0.0),  # parabola x^2 + y = 0
        ConicCoefficients(0.0, 0.0, 1.0, 0.0, 0.0, -1.0),  # lines y^2 = 1: first pivot 0
        ConicCoefficients(1.0, 2.0, 1.0, 1.0, 0.0, 0.0),  # parabola (x + y)^2 + x = 0: second 0
    ):
        with pytest.raises(ValueError, match="^conic has no unique center$"):
            conic_center(conic)


def test_theta_too_small():
    with pytest.raises(ThetaTooSmall):
        isoptic_curve(canonical_spec(1e-7))
    with pytest.raises(ThetaTooSmall):
        isoptic_point(1e-7, 0.1)


def test_reflect_branch_checks_theta_min():
    # 1/tanh(theta) is inf at +-0.0 and overflows at 1e-320; the reason is the size of theta.
    p = isoptic_point(1.0, 0.5)
    for theta in (0.0, -0.0, 1e-320, -1e-320, math.nextafter(THETA_MIN, 0.0)):
        with pytest.raises(ThetaTooSmall, match=r"^\|theta\| must be at least 1e-06$"):
            reflect_branch(p, theta)
    assert reflect_branch(p, THETA_MIN).x == -p.x


def test_theta_above_max_cannot_be_sampled():
    spec = canonical_spec(THETA_MAX)
    assert len(sample_locus(spec, 4)) == 4
    assert math.isfinite(isoptic_point(-THETA_MAX, THETA_MAX + 2.0).x)
    for theta in (math.nextafter(THETA_MAX, math.inf), -709.0):
        with pytest.raises(ValueError, match=r"^\|theta\| must be at most 708\.0$"):
            sample_locus(canonical_spec(theta), 4)
        with pytest.raises(ValueError, match=r"^\|theta\| must be at most 708\.0$"):
            isoptic_point(theta, 0.0)
    isoptic_curve(canonical_spec(709.0))  # the curve itself has no upper bound


def test_sample_locus_checks_in_order():
    # The sample count first, then |theta| >= THETA_MIN, then |theta| <= THETA_MAX.
    with pytest.raises(ValueError, match="^need at least two samples$"):
        sample_locus(canonical_spec(1e-7), 1)
    with pytest.raises(ThetaTooSmall, match=r"^\|theta\| must be at least 1e-06$"):
        sample_locus(canonical_spec(-1e-7), 2)
    with pytest.raises(ValueError, match="^need at least two samples$"):
        sample_locus(canonical_spec(709.0), 0)


def test_sample_locus_reports_an_underflowing_canonical_map():
    # |AB| ~ 2e170 underflows the canonical map's determinant.  The spec
    # inverts that map when it is built, so sample_locus and isoptic_curve
    # never see it and both report the one singular inverse.
    with pytest.raises(SingularMap, match=r"^linear part is singular \(det = 0\.0\)$"):
        IsopticSpec(Point(-1e170, 0), Point(1e170, 0), CANONICAL_DIRS, 1.0)


def test_the_largest_accepted_segment_samples_below_the_documented_bound():
    # sample_locus builds its points with no finiteness test: IsopticSpec's bound is
    # the check.  Its largest accepted segment keeps every sample below 1e178.
    dirs = DirectionPair(DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5))
    a, b = (-3e161, 9e160), (3e161, -6e160)
    for theta in (THETA_MIN, -THETA_MIN, THETA_MAX, -THETA_MAX):
        spec = IsopticSpec(Point(*a), Point(*b), dirs, theta)
        samples = sample_locus(spec, 257)
        assert len(samples) == 257
        for p, _ in samples:
            assert abs(p.x) < 1e178 and abs(p.y) < 1e178
    with pytest.raises(SingularMap):  # the same segment scaled to 1e162
        IsopticSpec(Point(-1e162, 3e161), Point(1e162, -2e161), dirs, 1.0)


def test_parametrization_at_zero():
    theta = 0.8
    p = isoptic_point(theta, 0.0)
    assert p.x == 0.0
    assert p.y == pytest.approx((1.0 - math.cosh(theta)) / math.sinh(theta), rel=1e-12)


def test_parametrization_residual_and_symmetry():
    rng = random.Random(21)
    for _ in range(300):
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 3.0)
        if abs(theta) < 1e-6:
            continue
        t = rng.uniform(-4.0, 4.0)
        curve = isoptic_curve(canonical_spec(theta))
        p = isoptic_point(theta, t)
        residual = conic_value(curve.normalized_conic, p.x, p.y)
        scale = conic_scale(curve.normalized_conic, p.x, p.y)
        assert abs(residual) <= 1e-9 * max(1.0, scale)
        mirrored = isoptic_point(theta, -t)
        assert mirrored.x == pytest.approx(-p.x, rel=1e-12, abs=1e-15)
        assert mirrored.y == pytest.approx(p.y, rel=1e-12)
        # the reflected branch satisfies the same equation
        q = reflect_branch(p, theta)
        residual2 = conic_value(curve.normalized_conic, q.x, q.y)
        assert abs(residual2) <= 1e-9 * max(1.0, conic_scale(curve.normalized_conic, q.x, q.y))


def test_admissibility_worked_examples():
    spec = canonical_spec(1.0)
    assert is_admissible(Point(3, 0), spec)            # (16) * (4) > 0
    assert is_admissible(Point(0, 0.5), spec)          # (0.75) * (0.75) > 0
    assert not is_admissible(Point(1.0, 1.5), spec)    # (1.75) * (-2.25) < 0
    with pytest.raises(SingularPosition):
        is_admissible(Point(-1, 0), spec)              # the endpoint itself


def test_admissibility_matches_sigma_sign_oracle():
    spec = canonical_spec(0.7)
    rng = random.Random(22)
    checked = 0
    while checked < 1000:
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        try:
            fast = is_admissible(p, spec)
        except SingularPosition:
            continue
        u_line, v_line = Line(p, spec.dirs.u), Line(p, spec.dirs.v)
        aux = Line(Point(0.0, 0.0), DirectionVector(1.0, 0.0))  # the segment line
        try:
            s_a = sigma_lambda(p, Ray(p, vec(p, spec.a)), u_line, v_line, aux)
            s_b = sigma_lambda(p, Ray(p, vec(p, spec.b)), u_line, v_line, aux)
        except Exception:
            continue
        if s_a.infinite or s_b.infinite:
            continue
        assert fast == (s_a.value * s_b.value > 0.0), p
        checked += 1


def test_sample_locus_counts_and_residuals():
    spec = canonical_spec(1.0)
    curve = isoptic_curve(spec)
    two = sample_locus(spec, 2)
    assert len(two) == 2
    hundred = sample_locus(spec, 100)
    assert len(hundred) == 100
    for p, _ in hundred:
        residual = conic_value(curve.original_conic, p.x, p.y)
        scale = conic_scale(curve.original_conic, p.x, p.y)
        assert abs(residual) <= 1e-9 * max(1.0, scale)
    with pytest.raises(ValueError):
        sample_locus(spec, 1)


def test_sample_locus_round_trip_angle():
    rng = random.Random(23)
    spec = random_spec(rng)
    for p, admissible in sample_locus(spec, 24):
        if not admissible:
            continue
        result = affine_angle(p, spec.a, spec.b, spec.dirs)
        assert result.is_real
        assert abs(result.theta - spec.theta) <= 1e-7


def test_original_frame_incidence_and_asymptotes():
    rng = random.Random(24)
    for _ in range(25):
        spec = random_spec(rng)
        curve = isoptic_curve(spec)
        for endpoint in (spec.a, spec.b):
            residual = conic_value(curve.original_conic, endpoint.x, endpoint.y)
            scale = conic_scale(curve.original_conic, endpoint.x, endpoint.y)
            assert abs(residual) <= 1e-8 * max(1.0, scale)
        d1, d2 = asymptote_directions(curve.original_conic)
        refs = (spec.dirs.u, spec.dirs.v)
        for d in (d1, d2):
            angles = [
                abs(cross(d, ref)) / (d.norm * ref.norm) for ref in refs
            ]
            assert min(angles) <= 1e-8


def _axis_parallel(d: DirectionVector) -> str:
    assert d.norm == pytest.approx(1.0, rel=1e-15)
    if abs(d.dy) <= 1e-15:
        return "x"
    assert abs(d.dx) <= 1e-15
    return "y"


def test_asymptote_directions_of_axis_conics():
    # c_xx = c_yy = 0: the null directions are the coordinate axes.
    d1, d2 = asymptote_directions(ConicCoefficients(0, 1, 0, 0, 0, -1))
    assert {_axis_parallel(d1), _axis_parallel(d2)} == {"x", "y"}
    spec = IsopticSpec(Point(0, 0), Point(2, 1), AXES, 0.8)
    d1, d2 = asymptote_directions(isoptic_curve(spec).original_conic)
    assert {_axis_parallel(d1), _axis_parallel(d2)} == {"x", "y"}
    with pytest.raises(ValueError, match="^quadratic part has no two real null directions$"):
        asymptote_directions(ConicCoefficients(1, 0, 4, 0, 0, -1))  # an ellipse


def test_sector_area_worked_example():
    # rays meeting x*y = 1 at abscissae 1 and e
    o = Point(0, 0)
    a = Point(1, 1)
    b = Point(math.e, math.exp(-1.0))
    angle, sector = sector_area_equivalence(o, a, b, AXES)
    # quadrature oracle: shoelace area of the region swept between the rays
    n = 20000
    xs = [1.0 * (math.e / 1.0) ** (i / n) for i in range(n + 1)]
    pts = [(0.0, 0.0)] + [(x, 1.0 / x) for x in xs]
    area2 = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        area2 += x1 * y2 - x2 * y1
    quadrature = 0.5 * abs(area2)
    assert quadrature == pytest.approx(1.0, abs=1e-6)
    assert sector == pytest.approx(quadrature, abs=1e-6)
    assert sector == pytest.approx(1.0, rel=1e-12)
    assert angle == pytest.approx(sector, abs=1e-9)


def test_sector_area_identical_rays():
    o = Point(2, -1)
    a = Point(3, 1)
    angle, sector = sector_area_equivalence(o, a, a, AXES)
    assert angle == 0.0
    assert sector == 0.0


def test_sector_area_antisymmetric():
    o = Point(0, 0)
    a = Point(1, 2)
    b = Point(2, 1)
    angle, sector = sector_area_equivalence(o, a, b, AXES)
    angle_r, sector_r = sector_area_equivalence(o, b, a, AXES)
    assert angle_r == pytest.approx(-angle, rel=1e-12)
    assert sector_r == pytest.approx(-sector, rel=1e-12)


def test_sector_area_component_mismatch():
    with pytest.raises(ComponentMismatch):
        sector_area_equivalence(Point(0, 0), Point(1, 1), Point(1, -1), AXES)


def test_sector_matches_angle_in_general_frames():
    rng = random.Random(25)
    for _ in range(100):
        o = random_vertex(rng)
        dirs = direction_pair(rng)
        sign = rng.choice((-1.0, 1.0))
        m_a = sign * math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        m_b = sign * math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        a = Point(o.x + dirs.u.dx + m_a * dirs.v.dx, o.y + dirs.u.dy + m_a * dirs.v.dy)
        b = Point(o.x + dirs.u.dx + m_b * dirs.v.dx, o.y + dirs.u.dy + m_b * dirs.v.dy)
        angle, sector = sector_area_equivalence(o, a, b, dirs)
        assert abs(angle - sector) <= 1e-9 * max(1.0, abs(angle))


_COORD = st.floats(-4.0, 4.0)
_COMPONENT = st.floats(-3.0, 3.0)


@st.composite
def sheared_specs(draw) -> IsopticSpec:
    """Random non-unit, generally non-orthogonal frames with an admissible segment."""
    ux, uy, vx, vy = (draw(_COMPONENT) for _ in range(4))
    assume(min(math.hypot(ux, uy), math.hypot(vx, vy)) >= 0.1)
    u, v = DirectionVector(ux, uy), DirectionVector(vx, vy)
    assume(abs(cross(u, v)) >= 0.05 * u.norm * v.norm)
    a = Point(draw(_COORD), draw(_COORD))
    b = Point(draw(_COORD), draw(_COORD))
    # AB as far from u and from v as u is from v: a segment nearly parallel to a
    # reference direction lets is_admissible disagree with the flag (see
    # test_a_segment_nearly_parallel_to_u_or_v_can_flip_is_admissible).
    abx, aby = b.x - a.x, b.y - a.y
    for d in (u, v):
        assume(abs(abx * d.dy - aby * d.dx) >= 0.05 * math.hypot(abx, aby) * d.norm)
    # |AB| at least 1e-3 of the endpoints' largest coordinate, so rounding a sample's
    # plane coordinates moves it by at most ~2e-13 of |AB|, far inside BOUNDARY_EPS.
    # A shorter segment lets the printed sample cross the band (the third case of
    # test_a_segment_nearly_parallel_to_u_or_v_can_flip_is_admissible); in 3,000
    # seeded runs every disagreement had |AB| below 3e-10 of that coordinate.
    assume(math.hypot(abx, aby) >= 1e-3 * max(abs(a.x), abs(a.y), abs(b.x), abs(b.y)))
    theta = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 8.0))
    try:
        return IsopticSpec(a, b, DirectionPair(u, v), theta)
    except (ValueError, DegenerateConfiguration, SingularMap, OverflowError):
        # A segment of size ~1e-154 or less overflows the canonical map's determinant.
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=sheared_specs(), n=st.integers(2, 40))
# theta = 1 with four samples per branch puts a sample exactly at t = theta,
# i.e. on the endpoint B, which lies on the singular line pair.
@example(
    spec=IsopticSpec(
        Point(0.3, -0.7), Point(2.1, 0.4),
        DirectionPair(DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5)), 1.0,
    ),
    n=8,
)
def test_sample_locus_flags_match_is_admissible(spec, n):
    for p, ok in sample_locus(spec, n):
        try:
            expected = is_admissible(p, spec)
        except SingularPosition:
            expected = False
        assert ok == expected, (p, spec, n)


def _reference_locus(theta: float, n: int) -> list[Point]:
    """sample_locus's canonical points, built from isoptic_point and reflect_branch."""
    span = abs(theta) + 2.0

    def grid(count: int) -> list[float]:
        if count == 1:
            return [0.0]
        step = 2.0 * span / (count - 1)
        return [-span + i * step for i in range(count)]

    n_primary = (n + 1) // 2
    return [isoptic_point(theta, t) for t in grid(n_primary)] + [
        reflect_branch(isoptic_point(theta, t), theta) for t in grid(n - n_primary)
    ]


_EDGE_FRAME = ((0.3, -0.7), (2.1, 0.4), (2.0, 0.5), (-0.6, 1.5))


def _random_sheared_batch(seed: int, count: int, k: int = 0) -> tuple[list, list[float]]:
    """count random sheared frames and angles with |theta| log-uniform in [0.05, 60].

    The endpoints are scaled by 2^k, which is exact; the directions and angles
    do not depend on k.
    """
    rng = random.Random(seed)
    frames, thetas = [], []
    while len(frames) < count:
        u, v = ((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(2))
        if min(math.hypot(*u), math.hypot(*v)) < 0.1:
            continue
        if abs(u[0] * v[1] - u[1] * v[0]) < 0.05 * math.hypot(*u) * math.hypot(*v):
            continue
        a, b = ((math.ldexp(rng.uniform(-4.0, 4.0), k), math.ldexp(rng.uniform(-4.0, 4.0), k))
                for _ in range(2))
        frames.append((a, b, u, v))
        thetas.append(rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.05, 60.0))
    return frames, thetas


def _adversarial_batch(n: int, i: int, ks: tuple[int, ...]) -> tuple[list, list[float]]:
    """Angles where sample_locus's proof of a True flag is tightest, on scaled frames.

    With c = ceil(n/2) points on the parametrized branch's t grid, the angle
    (2i - c + 1) / (c - 1 - i) puts grid point i at t = theta: on B.  It comes
    as is and nudged by a relative +-1e-15, 1e-9 and 1e-5, beside |theta| = 1e-6,
    either side of the switch (~9.748) above which the reflected branch is tested
    sample by sample, 20 and 708, all of both signs.  Each angle runs on the
    canonical frame and on _EDGE_FRAME with its endpoints scaled by 2^k.
    """
    c = (n + 1) // 2
    on_grid = (2 * i - c + 1) / (c - 1 - i)
    angles = [on_grid * (1.0 + d) for d in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-5, -1e-5)]
    angles += [1e-6, 9.747, 9.749, 20.0, 708.0]
    angles += [-angle for angle in angles]
    (ax, ay), (bx, by), u, v = _EDGE_FRAME
    frames = [((-1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, -1.0))] + [
        ((math.ldexp(ax, k), math.ldexp(ay, k)), (math.ldexp(bx, k), math.ldexp(by, k)), u, v)
        for k in ks
    ]
    return [f for f in frames for _ in angles], [a for _ in frames for a in angles]


@pytest.mark.parametrize(
    "frame, theta, n, admissible",
    [
        (_EDGE_FRAME, 1.0, 8, 6),
        (_EDGE_FRAME, -1.3, 33, 33),
        (_EDGE_FRAME, 20.0, 256, 52),
        # Frames where mapping a sample to the plane and back moves it across the band.
        (((-1.1127540929319564, -0.2793661707110817), (2.316937531330388, 0.12978142320726826),
          (2.6652673764278303, 0.31821649456664114), (-0.5355612804056964, 0.17168464355188248)),
         -17.67872548753787, 8, 4),
        (((-0.9627835416448249, 2.5104127978207558), (2.2195688548660257, -0.10294837667550816),
          (0.0019465444695150513, 0.10111960263101431), (-1.2136167399896878, 0.9979599694379915)),
         43.71408743888777, 256, 0),
        # The flag is the boundary test alone; _classify also tests the sign.
        pytest.param(*_random_sheared_batch(1601, 200), 64, 10214, id="random-sheared-batch"),
        # Odd n: the branches have their own t grids.
        pytest.param(*_random_sheared_batch(1601, 200), 3, 472, id="random-sheared-batch-n3"),
        pytest.param(*_random_sheared_batch(1601, 200), 33, 5262, id="random-sheared-batch-n33"),
        # Endpoints scaled by 2^k: every scale keeps every flag.
        *(pytest.param(*_random_sheared_batch(1601, 200, k), 64, 10214,
                       id=f"random-sheared-batch-2^{k}")
          for k in (-300, -100, 100, 300)),
        # A grid point on B, nudged, and the angles where the flags' proof changes.
        pytest.param(*_adversarial_batch(9, 3, (0, -300, 300)), 9, 616, id="adversarial-n9"),
        pytest.param(*_adversarial_batch(32, 11, (0, -40, 40)), 32, 2512, id="adversarial-n32"),
        pytest.param(*_adversarial_batch(255, 85, (-40, 300)), 255, 15498,
                     id="adversarial-n255"),
        pytest.param(*_adversarial_batch(256, 86, (40, -300)), 256, 15564,
                     id="adversarial-n256"),
    ],
)
def test_sample_locus_classifies_the_canonical_sample(frame, theta, n, admissible):
    # Each flag is _classify's verdict on the canonical point itself (a singular point
    # is False), and the sample is that point mapped out through the frame once.  The
    # batch entries pass lists of frames and angles and skip the specs IsopticSpec
    # rejects.  Coordinates compare by float.hex, which tells -0.0 from 0.0.
    batch = isinstance(theta, list)
    cases = zip(frame, theta, strict=True) if batch else [(frame, theta)]
    total = 0
    for (a, b, u, v), angle in cases:
        dirs = DirectionPair(DirectionVector(*u), DirectionVector(*v))
        try:
            spec = IsopticSpec(Point(*a), Point(*b), dirs, angle)
        except (ValueError, GeometryError):
            if batch:
                continue
            raise
        samples = sample_locus(spec, n)
        total += sum(ok for _, ok in samples)
        for (p, ok), q in zip(samples, _reference_locus(angle, n), strict=True):
            try:
                expected = _classify(q.x, q.y)
            except SingularPosition:
                expected = False
            r = spec._frame.apply_point(q)
            assert (p.x.hex(), p.y.hex(), ok) == (r.x.hex(), r.y.hex(), expected), (q, angle, n)
    assert total == admissible


@pytest.mark.parametrize("k", [-300, -100, -40, 40, 100, 300])
def test_sample_locus_scales_with_the_segment(k):
    # Scaling A and B by 2^k keeps u and v, so the locus scales by 2^k and keeps its
    # flags, bit for bit: the segment's coincidence test has no absolute floor.
    a, b, u, v = _EDGE_FRAME
    dirs = DirectionPair(DirectionVector(*u), DirectionVector(*v))
    unit = sample_locus(IsopticSpec(Point(*a), Point(*b), dirs, 1.0), 64)
    scaled_a, scaled_b = (Point(math.ldexp(x, k), math.ldexp(y, k)) for x, y in (a, b))
    scaled = sample_locus(IsopticSpec(scaled_a, scaled_b, dirs, 1.0), 64)
    expected = [(math.ldexp(p.x, k).hex(), math.ldexp(p.y, k).hex(), ok) for p, ok in unit]
    assert [(p.x.hex(), p.y.hex(), ok) for p, ok in scaled] == expected


@pytest.mark.parametrize(
    "a, b, u, v, theta, n, flipped",
    [
        ((1.0, 1.192092896e-07), (1.0, 0.0), (1.0, 0.0), (1.192092896e-07, 1.0), -3.0, 3, 0),
        ((1.0, 0.0), (1.0, 1.0), (1e-9, 1.0), (1.0, 0.0), -8.0, 3, 1),
        # |AB| = 1e-9 beside endpoints of size 2: the plane coordinates carry a sample
        # only to ~1e-7 of the segment.
        ((2.0, 0.0), (2.0, 1e-9), (1.0, 2.0), (0.25, 3.0), -2.998046875, 11, 1),
    ],
)
def test_a_segment_nearly_parallel_to_u_or_v_can_flip_is_admissible(a, b, u, v, theta, n,
                                                                     flipped):
    # AB nearly parallel to a reference direction, or short beside its distance
    # from the origin, makes the round trip through the printed sample
    # ill-conditioned.  The flag is still _classify's verdict on the canonical
    # sample, but is_admissible maps the printed sample back, lands inside the
    # band and calls it singular: the documented disagreement, at a small |theta|.
    dirs = DirectionPair(DirectionVector(*u), DirectionVector(*v))
    spec = IsopticSpec(Point(*a), Point(*b), dirs, theta)
    samples = sample_locus(spec, n)
    for (p, ok), q in zip(samples, _reference_locus(theta, n), strict=True):
        assert ok == _classify(q.x, q.y)
    assert [ok for _, ok in samples] == [True] * n
    for i, (p, _) in enumerate(samples):
        if i == flipped:
            with pytest.raises(SingularPosition):
                is_admissible(p, spec)
        else:
            assert is_admissible(p, spec)


@pytest.mark.parametrize(
    "theta, n, admissible",
    [(1.0, 8, 6), (4.0, 256, 256), (-4.0, 256, 256), (20.0, 256, 52), (50.0, 256, 0),
     (-50.0, 256, 0)],
)
def test_a_false_flag_marks_a_sample_on_the_singular_line_pair(theta, n, admissible):
    # Every locus point off A and B sees AB at the real angle theta, so no sample is
    # inadmissible outright: a False flag is a sample is_admissible calls singular.  At
    # theta = 1, n = 8 two samples are A and B; from |theta| ~ 20 the whole locus is singular.
    dirs = DirectionPair(DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5))
    spec = IsopticSpec(Point(0.3, -0.7), Point(2.1, 0.4), dirs, theta)
    samples = sample_locus(spec, n)
    assert sum(ok for _, ok in samples) == admissible
    for p, ok in samples:
        if not ok:
            with pytest.raises(SingularPosition):
                is_admissible(p, spec)


def test_sector_area_overflow_is_not_reported_as_coincidence():
    with pytest.raises(ValueError, match="^coordinates must be finite, got -inf$"):
        sector_area_equivalence(Point(1e308, 0), Point(-1e308, 1), Point(1, 2), AXES)
    with pytest.raises(ValueError, match="^point B coincides with the vertex$"):
        sector_area_equivalence(Point(1e308, 0), Point(1, 2), Point(1e308, 0), AXES)
