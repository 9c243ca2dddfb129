"""The direction-pair angle and its area-ratio machinery.

Fix a vertex O and two independent reference directions (u, v), carried by
lines U and V through O.  An auxiliary line cuts U, V, and a ray L from O in
the points P_U, P_V, P_L, and the area ratio

    sigma(L) = [O P_L P_U] / [O P_L P_V]

depends only on the direction of L once ratios of two rays are taken.  The
angle between rays OA and OB is half the logarithm of sigma(L_A)/sigma(L_B);
it is real exactly when both intersection points fall in the same component
of the auxiliary line minus {P_U, P_V}, which is equivalent to the two sigma
values having the same sign.

Sign convention: sigma is the literal quotient of signed areas, so it is
negative precisely when P_L lies strictly between P_U and P_V.  Components
are labelled by the sign of sigma itself; no absolute orientation of the
plane is imposed.

In the (u, v) coordinates d = alpha*u + beta*v of a ray direction, an
auxiliary line meeting U at O + a*u and V at O + b*v gives
sigma = -(a/b) * m with the slope m = beta/alpha.  The production angle
therefore works with slopes, 0.5 * log(m_A / m_B), and never builds an
auxiliary line; sigma_lambda, sigma_sign and area_cross_ratio keep the
area-ratio definitions.
"""

from __future__ import annotations

import enum
import math

from .errors import (
    CoincidentIntersection,
    ComponentMismatch,
    DegenerateConfiguration,
    LambdaParallel,
    ParallelLines,
    SingularRay,
    UndefinedCrossRatio,
)
from .kernel import (
    ABS_EPS,
    PAR_EPS,
    REL_EPS,
    AffineMap,
    DirectionVector,
    Line,
    Point,
    Ray,
    _Frozen,
    decompose,
    distance,
    dot,
    intersect_lines,
    is_parallel,
    signed_area,
    vec,
)


class DirectionPair(_Frozen):
    __slots__ = ("u", "v")

    def __init__(self, u: DirectionVector, v: DirectionVector) -> None:
        if is_parallel(u, v):
            raise DegenerateConfiguration("reference directions must be independent")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


class SigmaValue(_Frozen):
    """Extended-real area ratio: a finite value or the positive-infinite limit."""

    __slots__ = ("value", "infinite")

    def __init__(self, value: float, infinite: bool = False) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "infinite", infinite)

    @classmethod
    def finite(cls, value: float) -> "SigmaValue":
        return cls(value, False)

    @classmethod
    def infinity(cls) -> "SigmaValue":
        return cls(math.inf, True)

    @property
    def is_finite(self) -> bool:
        return not self.infinite


class ComponentLabel(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    SINGULAR = "singular"


class AngleResult(_Frozen):
    """A real angle value, or a non-real marker with a component diagnosis."""

    __slots__ = ("theta", "reason")

    def __init__(self, theta: float | None, reason: str | None = None) -> None:
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "reason", reason)

    @classmethod
    def real(cls, theta: float) -> "AngleResult":
        return cls(theta, None)

    @classmethod
    def non_real(cls, reason: str) -> "AngleResult":
        return cls(None, reason)

    @property
    def is_real(self) -> bool:
        return self.theta is not None


def _require_through(line: Line, o: Point, name: str) -> None:
    if not line.contains(o, tol=REL_EPS):
        raise ValueError(f"line {name} must pass through the vertex")


def _require_vertex(ray: Ray, o: Point) -> None:
    scale = max(1.0, abs(o.x), abs(o.y))
    if distance(ray.origin, o) > REL_EPS * scale:
        raise ValueError("ray must emanate from the vertex")


def sigma_lambda(o: Point, ray: Ray, u_line: Line, v_line: Line, aux: Line) -> SigmaValue:
    """Area ratio of a ray against the reference lines, cut by an auxiliary line.

    Boundary cases: a ray parallel to U gives Finite(0); a ray parallel to V
    gives the infinite limit value.
    """
    _require_through(u_line, o, "U")
    _require_through(v_line, o, "V")
    if is_parallel(u_line.dir, v_line.dir):
        raise DegenerateConfiguration("reference lines must have independent directions")
    _require_vertex(ray, o)
    d = ray.dir
    if is_parallel(d, u_line.dir):
        return SigmaValue.finite(0.0)
    if is_parallel(d, v_line.dir):
        return SigmaValue.infinity()
    try:
        p_u = intersect_lines(u_line, aux)
        p_v = intersect_lines(v_line, aux)
        p_l = intersect_lines(Line(o, d), aux)
    except ParallelLines as exc:
        raise LambdaParallel("auxiliary line misses U, V, or the ray") from exc
    scale = max(1.0, distance(o, p_u), distance(o, p_v), distance(o, p_l))
    if (
        distance(p_l, p_u) <= REL_EPS * scale
        or distance(p_l, p_v) <= REL_EPS * scale
        or distance(p_u, p_v) <= REL_EPS * scale
    ):
        raise CoincidentIntersection("intersection points on the auxiliary line coincide")
    num = signed_area(o, p_l, p_u)
    den = signed_area(o, p_l, p_v)
    if abs(den) <= ABS_EPS * scale * scale:
        raise CoincidentIntersection("degenerate area in the ratio denominator")
    return SigmaValue.finite(num / den)


def sigma_sign(o: Point, ray: Ray, u_line: Line, v_line: Line, aux: Line) -> ComponentLabel:
    """Component label of a ray: negative iff P_L falls strictly between P_U and P_V."""
    _require_through(u_line, o, "U")
    _require_through(v_line, o, "V")
    _require_vertex(ray, o)
    d = ray.dir
    if is_parallel(d, u_line.dir) or is_parallel(d, v_line.dir):
        return ComponentLabel.SINGULAR
    try:
        p_u = intersect_lines(u_line, aux)
        p_v = intersect_lines(v_line, aux)
        p_l = intersect_lines(Line(o, d), aux)
    except ParallelLines as exc:
        raise LambdaParallel("auxiliary line misses U, V, or the ray") from exc
    # Positions along the auxiliary line.
    def param(p: Point) -> float:
        dd = aux.dir
        if abs(dd.dx) >= abs(dd.dy):
            return (p.x - aux.base.x) / dd.dx
        return (p.y - aux.base.y) / dd.dy

    t_u, t_v, t_l = param(p_u), param(p_v), param(p_l)
    span = max(abs(t_u - t_v), abs(t_l - t_u), abs(t_l - t_v), ABS_EPS)
    if min(abs(t_l - t_u), abs(t_l - t_v), abs(t_u - t_v)) <= REL_EPS * span:
        return ComponentLabel.SINGULAR
    product = (t_l - t_u) * (t_l - t_v)
    return ComponentLabel.NEGATIVE if product < 0.0 else ComponentLabel.POSITIVE


def _projective_param(ray: Ray, aux: Line) -> tuple[float, float]:
    """Position of the ray-line's intersection along ``aux`` as a projective pair."""
    if is_parallel(ray.dir, aux.dir):
        return (1.0, 0.0)
    p = intersect_lines(ray.line(), aux)
    dd = aux.dir
    if abs(dd.dx) >= abs(dd.dy):
        return ((p.x - aux.base.x) / dd.dx, 1.0)
    return ((p.y - aux.base.y) / dd.dy, 1.0)


def area_cross_ratio(l1: Ray, l2: Ray, r1: Ray, r2: Ray, o: Point, aux: Line) -> float:
    """Classical cross ratio of the four area ratios on the extended real line.

    Because every area ratio is a Moebius function of the intersection point's
    position on the auxiliary line, the value equals the cross ratio of the
    four intersection points themselves and does not depend on the reference
    pair or on the auxiliary line.  Rays parallel to the auxiliary line enter
    as the point at infinity.
    """
    for ray in (l1, l2, r1, r2):
        _require_vertex(ray, o)
    pairs = [_projective_param(ray, aux) for ray in (l1, l2, r1, r2)]

    def det(i: int, j: int) -> tuple[float, float]:
        (ni, di), (nj, dj) = pairs[i], pairs[j]
        value = ni * dj - nj * di
        scale = abs(ni * dj) + abs(nj * di)
        return value, scale

    d13, s13 = det(0, 2)
    d24, s24 = det(1, 3)
    d23, s23 = det(1, 2)
    d14, s14 = det(0, 3)
    num = d13 * d24
    den = d23 * d14
    num_zero = abs(d13) <= REL_EPS * s13 + ABS_EPS or abs(d24) <= REL_EPS * s24 + ABS_EPS
    den_zero = abs(d23) <= REL_EPS * s23 + ABS_EPS or abs(d14) <= REL_EPS * s14 + ABS_EPS
    if num_zero and den_zero:
        raise UndefinedCrossRatio("coinciding entries make the cross ratio 0/0")
    if den_zero:
        return math.inf if num > 0 else -math.inf
    return num / den


def _ray_direction(o: Point, p: Point, name: str) -> DirectionVector:
    try:
        return vec(o, p)
    except ValueError:
        raise ValueError(f"point {name} coincides with the vertex") from None


def ray_slope(
    d: DirectionVector, dirs: DirectionPair, name: str, per_direction: bool = False
) -> float:
    """Slope m = beta/alpha of d = alpha*u + beta*v; raises SingularRay near u or v.

    By default d is singular when is_parallel(d, u) or is_parallel(d, v).  With
    ``per_direction`` the test bounds each coefficient instead, and the error
    names the direction that d is parallel to.
    """
    alpha, beta = decompose(d, dirs.u, dirs.v)
    if per_direction:
        if abs(alpha) * dirs.u.norm <= PAR_EPS * d.norm:
            raise SingularRay(f"ray {name} is parallel to the v direction")
        if abs(beta) * dirs.v.norm <= PAR_EPS * d.norm:
            raise SingularRay(f"ray {name} is parallel to the u direction")
    elif is_parallel(d, dirs.u) or is_parallel(d, dirs.v):
        raise SingularRay(f"ray {name} is parallel to a reference direction")
    return beta / alpha


def _slope_pair(o: Point, a: Point, b: Point, dirs: DirectionPair) -> tuple[float, float]:
    da = _ray_direction(o, a, "A")
    db = _ray_direction(o, b, "B")
    return ray_slope(da, dirs, "OA"), ray_slope(db, dirs, "OB")


def affine_angle(o: Point, a: Point, b: Point, dirs: DirectionPair) -> AngleResult:
    """Half the log of the area-ratio quotient for rays OA, OB; NonReal across components."""
    m_a, m_b = _slope_pair(o, a, b, dirs)
    if m_a * m_b <= 0.0:
        # Signs of sigma on the auxiliary line through O + u + v, where sigma = -m.
        sign_a = "-" if m_a > 0 else "+"
        sign_b = "-" if m_b > 0 else "+"
        return AngleResult.non_real(
            f"rays OA, OB lie in different components (sigma signs {sign_a}, {sign_b})"
        )
    return AngleResult.real(0.5 * math.log(m_a / m_b))


def is_same_component(o: Point, a: Point, b: Point, dirs: DirectionPair) -> bool:
    """True iff the two area ratios (equivalently, the two slopes) have the same sign."""
    m_a, m_b = _slope_pair(o, a, b, dirs)
    return m_a * m_b > 0.0


def midpoint_ray(o: Point, r: Ray, s: Ray, dirs: DirectionPair) -> Ray:
    """The unique ray bisecting the angle between r and s inside their component.

    In basis coordinates the area ratio is proportional to the slope, so the
    bisector carries the geometric mean of the two slopes.
    """
    _require_vertex(r, o)
    _require_vertex(s, o)
    m_r = ray_slope(r.dir, dirs, "r", per_direction=True)
    m_s = ray_slope(s.dir, dirs, "s", per_direction=True)
    if m_r * m_s <= 0.0:
        raise ComponentMismatch("rays lie in different components")
    m_t = math.copysign(math.sqrt(m_r * m_s), m_r)
    d_t = DirectionVector(dirs.u.dx + m_t * dirs.v.dx, dirs.u.dy + m_t * dirs.v.dy)
    if dot(d_t, r.dir) < 0.0:
        d_t = d_t.scaled(-1.0)
    return Ray(o, d_t)


def preserves_affine_angle(t: AffineMap, dirs: DirectionPair) -> bool:
    """True iff u and v are eigendirections of the linear part with same-sign eigenvalues."""
    try:
        image_u = t.apply_linear(dirs.u)
        image_v = t.apply_linear(dirs.v)
    except ValueError:
        return False
    if not is_parallel(image_u, dirs.u) or not is_parallel(image_v, dirs.v):
        return False
    eig_u = dot(image_u, dirs.u) / dot(dirs.u, dirs.u)
    eig_v = dot(image_v, dirs.v) / dot(dirs.v, dirs.v)
    return eig_u * eig_v > 0.0
