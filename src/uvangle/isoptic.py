"""Isoptic loci of a segment under the direction-pair angle.

For fixed endpoints A, B and a nonzero target angle, the set of vertices P
with angle(P; A, B) equal to the target is a hyperbola through A and B whose
asymptotes are parallel to the reference directions.  In the canonical frame
(A at (-1, 0), B at (1, 0), u along (1, 1), v along (1, -1)) the curve is

    p^2 - (q + beta)^2 = 1 - beta^2,      beta = coth(theta),

with center (0, -beta).  The rapidity parametrization

    p = sinh(t) / sinh(theta),  q = cosh(t) / sinh(theta) - coth(theta)

covers one branch; the other branch is its image under the central
reflection (p, q) -> (-p, -q - 2*beta).
"""

import math

from .errors import SingularPosition, ThetaTooSmall
from .kernel import (
    BOUNDARY_EPS,
    AffineMap,
    DirectionPair,
    DirectionVector,
    Point,
    _Frozen,
    _map_point,
    _set_point_x,
    _set_point_y,
    _slope_pair,
    _slot_setters,
    invert_map,
    normalize_configuration,
    slope_cross_ratio_angle,
)

THETA_MIN = 1e-6
# The rapidity sweep of sample_locus spans |theta| + 2, and sinh overflows
# past ~710.48, so larger angles cannot be sampled.
THETA_MAX = 708.0


class IsopticSpec(_Frozen):
    """Segment ab, reference directions and target angle of an isoptic.

    ``_to_canonical`` is the map to the canonical frame and ``_frame`` its
    inverse.  Raises DegenerateConfiguration for coincident endpoints or a
    segment parallel to a reference direction, and SingularMap when the
    canonical map is numerically singular (a segment longer than ~1e162).
    A segment shorter than ~1e-154 raises SingularMap too, with the wrong
    reason "det = inf": that map is well conditioned, but its determinant
    overflows along with its row norms (ROADMAP item 3).  An accepted spec
    therefore has |AB| below ~1e161, so every sample of sample_locus stays
    below ~1e178 and is finite.
    """

    __slots__ = ("a", "b", "dirs", "theta", "_to_canonical", "_frame")

    def __init__(self, a: Point, b: Point, dirs: DirectionPair, theta: float) -> None:
        if not math.isfinite(theta) or theta == 0.0:
            raise ValueError("theta must be finite and nonzero")
        to_canonical = normalize_configuration(a, b, dirs)
        _set_spec_a(self, a)
        _set_spec_b(self, b)
        _set_spec_dirs(self, dirs)
        _set_spec_theta(self, theta)
        _set_spec_to_canonical(self, to_canonical)
        _set_spec_frame(self, invert_map(to_canonical))


(
    _set_spec_a, _set_spec_b, _set_spec_dirs, _set_spec_theta, _set_spec_to_canonical,
    _set_spec_frame,
) = _slot_setters(IsopticSpec)


class ConicCoefficients(_Frozen):
    """c_xx x^2 + c_xy xy + c_yy y^2 + c_x x + c_y y + c_0 = 0.

    Stored normalized: the largest-magnitude coefficient has magnitude 1 and
    the sign is fixed so that c_xx >= 0 (next nonzero positive when c_xx = 0).
    A one-slot type: ``_c`` holds the six coefficients in the constructor's
    order, and ``as_tuple`` returns it.
    """

    __slots__ = ("_c",)
    _fields = ("c_xx", "c_xy", "c_yy", "c_x", "c_y", "c_0")

    def __init__(
        self, c_xx: float, c_xy: float, c_yy: float, c_x: float, c_y: float, c_0: float
    ) -> None:
        coeffs = [c_xx, c_xy, c_yy, c_x, c_y, c_0]
        if max(abs(c) for c in coeffs[:3]) == 0.0:
            raise ValueError("quadratic part must be nonzero")
        scale = max(abs(c) for c in coeffs)
        coeffs = [c / scale for c in coeffs]
        # Sign: c_xx >= 0, falling back to the first nonzero coefficient.
        for c in coeffs:
            if c != 0.0:
                if c < 0.0:
                    coeffs = [-x for x in coeffs]
                break
        _set_conic(self, tuple([float(c) for c in coeffs]))

    def _values(self) -> tuple:
        return self._c

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return self._c


(_set_conic,) = _slot_setters(ConicCoefficients)


class IsopticCurve(_Frozen):
    __slots__ = ("normalized_conic", "beta", "frame", "original_conic")

    def __init__(
        self,
        normalized_conic: ConicCoefficients,
        beta: float,
        frame: AffineMap,  # canonical frame -> original plane
        original_conic: ConicCoefficients,
    ) -> None:
        _set_curve_normalized_conic(self, normalized_conic)
        _set_curve_beta(self, beta)
        _set_curve_frame(self, frame)
        _set_curve_original_conic(self, original_conic)


_set_curve_normalized_conic, _set_curve_beta, _set_curve_frame, _set_curve_original_conic = (
    _slot_setters(IsopticCurve)
)


def _pullback_conic(conic: ConicCoefficients, t: AffineMap) -> ConicCoefficients:
    """Coefficients of x |-> conic(t(x)): the congruence H^T C H of the symmetric matrices."""
    xx, xy, yx, yy, tx, ty = t._m
    c_xx, c_xy, c_yy, c_x, c_y, c_0 = conic._c
    h = ((xx, xy, tx), (yx, yy, ty), (0.0, 0.0, 1.0))
    c = (
        (c_xx, c_xy / 2.0, c_x / 2.0),
        (c_xy / 2.0, c_yy, c_y / 2.0),
        (c_x / 2.0, c_y / 2.0, c_0),
    )
    ch = [[sum(c[i][k] * h[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    def m(i: int, j: int) -> float:
        return sum(h[k][i] * ch[k][j] for k in range(3))

    return ConicCoefficients(m(0, 0), 2.0 * m(0, 1), m(1, 1), 2.0 * m(0, 2), 2.0 * m(1, 2), m(2, 2))


def conic_center(conic: ConicCoefficients) -> Point:
    """Center of a central conic: the zero of the gradient.

    The 2x2 system is solved by elimination with partial pivoting, in the
    order LAPACK uses, so an exactly zero coordinate keeps the sign a
    LAPACK solve gives it.
    """
    c_xx, c_xy, c_yy, c_x, c_y, _ = conic._c
    a, b, c = 2.0 * c_xx, c_xy, 2.0 * c_yy
    r0, r1 = -c_x, -c_y
    if abs(b) > abs(a):
        (p00, p01, q0), (p10, p11, q1) = (b, c, r1), (a, b, r0)
    else:
        (p00, p01, q0), (p10, p11, q1) = (a, b, r0), (b, c, r1)
    if p00 == 0.0:
        raise ValueError("conic has no unique center")
    factor = p10 / p00
    pivot = p11 - factor * p01
    if pivot == 0.0:
        raise ValueError("conic has no unique center")
    y = (q1 - factor * q0) / pivot
    return Point((q0 - p01 * y) / p00, y)


def asymptote_directions(conic: ConicCoefficients) -> tuple[DirectionVector, DirectionVector]:
    """Null directions of the quadratic part (asymptote directions of a hyperbola).

    With q the larger-magnitude root of q^2 + b*q + a*c = 0, the directions
    (q, a) and (c, q) are null; q is nonzero whenever the discriminant is
    positive, so neither form divides.
    """
    a, b, c, _, _, _ = conic._c
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ValueError("quadratic part has no two real null directions")
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    d1, d2 = DirectionVector(q, a), DirectionVector(c, q)
    return d1.scaled(1.0 / d1.norm), d2.scaled(1.0 / d2.norm)


def _require_theta_min(theta: float) -> None:
    if abs(theta) < THETA_MIN:
        raise ThetaTooSmall(f"|theta| must be at least {THETA_MIN}")


def isoptic_curve(spec: IsopticSpec) -> IsopticCurve:
    """The isoptic hyperbola of spec, in the canonical and the original frame."""
    _require_theta_min(spec.theta)
    beta = 1.0 / math.tanh(spec.theta)
    # p^2 - (q + beta)^2 = 1 - beta^2  <=>  p^2 - q^2 - 2*beta*q - 1 = 0
    normalized = ConicCoefficients(1.0, 0.0, -1.0, 0.0, -2.0 * beta, -1.0)
    original = _pullback_conic(normalized, spec._to_canonical)
    return IsopticCurve(
        normalized_conic=normalized,
        beta=beta,
        frame=spec._frame,
        original_conic=original,
    )


def _require_theta_max(theta: float) -> None:
    if abs(theta) > THETA_MAX:
        raise ValueError(f"|theta| must be at most {THETA_MAX}")


def isoptic_point(theta: float, t: float) -> Point:
    """Rapidity parametrization of the canonical-frame isoptic hyperbola."""
    _require_theta_min(theta)
    _require_theta_max(theta)
    sh = math.sinh(theta)
    return Point(math.sinh(t) / sh, math.cosh(t) / sh - 1.0 / math.tanh(theta))


def reflect_branch(p: Point, theta: float) -> Point:
    """Central reflection mapping the parametrized branch onto the second branch."""
    _require_theta_min(theta)
    beta = 1.0 / math.tanh(theta)
    return Point(-p.x, -p.y - 2.0 * beta)


def _band_product(qx: float, qy: float) -> float | None:
    """f1 * f2 for the boundary factors f1 = (qx + 1)^2 - qy^2, f2 = (qx - 1)^2 - qy^2.

    None when either factor is at most BOUNDARY_EPS * max(1, qx^2 + qy^2) in
    magnitude: the point lies numerically on the singular line pair through
    the endpoints.  The squares are products, because float ** 2 calls libm
    pow, and the test is spelled with comparisons alone, which give abs()'s
    and max()'s verdicts for every float, nan and +-inf included.
    """
    a, b, qy2 = qx + 1.0, qx - 1.0, qy * qy
    f1 = a * a - qy2
    f2 = b * b - qy2
    r2 = qx * qx + qy2
    tol = BOUNDARY_EPS * (r2 if r2 > 1.0 else 1.0)
    if -tol <= f1 <= tol or -tol <= f2 <= tol:
        return None
    return f1 * f2


def _classify(qx: float, qy: float) -> bool:
    """Admissibility of the canonical-frame point (qx, qy); see is_admissible.

    The band test is _band_product's, the one sample_locus decides its flags by.
    """
    product = _band_product(qx, qy)
    if product is None:
        raise SingularPosition("point lies on the singular line pair through the endpoints")
    return product > 0.0


def is_admissible(p: Point, spec: IsopticSpec) -> bool:
    """True when both viewing rays from p lie in one component (real angle).

    In the canonical frame the condition is ((p+1)^2 - q^2)((p-1)^2 - q^2) > 0.
    Points on (or numerically at) the singular line pair raise
    SingularPosition.
    """
    return _classify(*_map_point(spec._to_canonical, p.x, p.y))


def sample_locus(spec: IsopticSpec, n: int) -> list[tuple[Point, bool]]:
    """n deterministic samples of the isoptic locus in the original frame.

    The rapidity parameter sweeps [-T, T] with T = |theta| + 2 on the
    parametrized branch for the first ceil(n/2) samples and on the reflected
    branch for the rest; each point is tagged with its admissibility.  When
    n is even the two branches share the t grid, so each grid point's
    sinh and cosh are evaluated once and its canonical point is reflected.
    The flag is is_admissible's boundary test alone, decided on the computed
    canonical sample: False marks a sample within BOUNDARY_EPS of the
    singular line pair.  Its sign test cannot fail on the locus.  With
    sh = sinh(theta), the boundary factors f1 = (p + 1)^2 - q^2 and
    f2 = (p - 1)^2 - q^2 are

        f1 = 4 sinh^2((t + theta)/2) / sh^2,   f2 = 4 sinh^2((t - theta)/2) / sh^2

    on the parametrized branch and

        f1 = -4 cosh^2((t + theta)/2) / sh^2,  f2 = -4 cosh^2((t - theta)/2) / sh^2

    on the reflected one, so every locus point other than A and B sees AB
    at the real angle theta.  The hyperbola closes onto two of the singular
    lines like exp(-2|theta|), so once |theta| exceeds about 20 to 50 every
    sample is tagged False.  Raises ValueError when |theta| exceeds
    THETA_MAX.

    Most flags are proved, not computed.  Q = max(1, 5 (cosh(T) / sh)^2) is
    at least max(1, |q|^2) on both branches, as |t| <= T and |theta| < T,
    so the band is at most BOUNDARY_EPS Q wide, and the computed factors are
    off by about 1e-15 Q.  Where both exact factors are at least
    2 BOUNDARY_EPS Q, a margin of a factor 2, the computed test therefore
    answers True.  On the parametrized branch that holds outside the windows

        |t -+ theta| < w,   w = 2 asinh(|sh| sqrt(BOUNDARY_EPS Q / 2)),

    so _band_product runs only on the grid points inside them, with one
    index of slack each side.  On the reflected branch |f| >= 4 / sh^2, so
    every flag there is True while Q sh^2 <= 2 / BOUNDARY_EPS, which is
    |theta| below about 9.748; above it each sample is tested.  A branch of
    one sample, or windows wider than T, is tested sample by sample.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    theta = spec.theta
    _require_theta_min(theta)
    _require_theta_max(theta)
    fxx, fxy, fyx, fyy, ftx, fty = spec._frame._m
    sinh, cosh, new = math.sinh, math.cosh, object.__new__
    sh, beta = sinh(theta), 1.0 / math.tanh(theta)
    span = abs(theta) + 2.0

    def canonical(count: int) -> tuple[list[float], list[float]]:
        """The x and y columns of one branch's t grid: isoptic_point's float expressions.

        Two float lists, not a list of (x, y) tuples: each tuple would be one
        more GC-tracked object per sample, so the collector would run more often.
        """
        if count == 1:
            ts = [0.0]
        else:
            step = 2.0 * span / (count - 1)
            ts = [-span + i * step for i in range(count)]
        return [sinh(t) / sh for t in ts], [cosh(t) / sh - beta for t in ts]

    n_primary = (n + 1) // 2
    primary = canonical(n_primary)
    reflected = primary if n == 2 * n_primary else canonical(n - n_primary)
    two_beta = 2.0 * beta
    # cosh(T) is finite up to T = THETA_MAX + 2.  Q and Q sh^2 are products, not
    # **: float ** raises OverflowError where a product gives inf, as sh * sh
    # does near THETA_MAX.
    ratio = cosh(span) / sh
    q_scale = max(1.0, 5.0 * ratio * ratio)
    width = 2.0 * math.asinh(abs(sh) * math.sqrt(BOUNDARY_EPS * q_scale / 2.0))

    def branch_flags(xs: list[float], ys: list[float], reflect: int) -> list[bool]:
        """One branch's flags: True where the closed form proves it, else _band_product's."""
        count = len(xs)
        if reflect:
            if count > 1 and q_scale * sh * sh <= 2.0 / BOUNDARY_EPS:
                return [True] * count
            return [_band_product(-x, -y - two_beta) is not None for x, y in zip(xs, ys)]
        if count == 1 or width >= span:
            return [_band_product(x, y) is not None for x, y in zip(xs, ys)]
        step = 2.0 * span / (count - 1)
        flags = [True] * count
        for center in (-theta, theta):
            lo = math.floor((center - width + span) / step) - 1
            hi = math.ceil((center + width + span) / step) + 1
            for i in range(max(0, lo), min(count, hi + 1)):
                flags[i] = _band_product(xs[i], ys[i]) is not None
        return flags

    samples: list[tuple[Point, bool]] = []
    append = samples.append
    for branch, (xs, ys) in ((0, primary), (1, reflected)):
        for cx, cy, ok in zip(xs, ys, branch_flags(xs, ys, branch)):
            if branch:  # reflect_branch
                cx, cy = -cx, -cy - two_beta
            # The float expressions of _map_point, stored past Point.__init__:
            # IsopticSpec's bound keeps every sample finite, so the
            # constructor's frame and isfinite tests would only cost time.
            p = new(Point)
            _set_point_x(p, fxx * cx + fxy * cy + ftx)
            _set_point_y(p, fyx * cx + fyy * cy + fty)
            append((p, ok))
    return samples


def sector_area_equivalence(
    o: Point, a: Point, b: Point, dirs: DirectionPair
) -> tuple[float, float]:
    """Angle and the matching hyperbolic sector area.

    In the frame with the reference lines as axes, the two rays meet the
    rectangular hyperbola XY = +-1 (sign of the component) at abscissae x_1
    and x_2, and the signed sector area swept from the first ray to the
    second is log(x_2 / x_1).  The returned pair is (angle, sector area) and
    the two values agree up to roundoff.
    """
    m_a, m_b = _slope_pair(o, a, b, dirs)
    theta = slope_cross_ratio_angle(m_a, m_b)
    x_a = 1.0 / math.sqrt(abs(m_a))
    x_b = 1.0 / math.sqrt(abs(m_b))
    return theta, math.log(x_b / x_a)
