"""The paper's area-ratio definitions of the angle, kept as test oracles.

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

The ratios compute on floats.  Each intersection point is a pair of floats
from ``kernel._line_meet``, the formula of ``intersect_lines``, with its
errors: ParallelLines, and the ValueError of a coordinate that is not
finite.  Direction tests call ``kernel._cross_if_independent``, and the
distances and signed areas are written out on the coordinates, so no Line
or Point is built per intersection, and every value and error is that of
the ``intersect_lines``, ``distance`` and ``signed_area`` forms.
"""

import enum
import math

from .errors import (
    CoincidentIntersection,
    DegenerateConfiguration,
    LambdaParallel,
    ParallelLines,
    UndefinedCrossRatio,
)
from .kernel import (
    ABS_EPS,
    REL_EPS,
    DirectionVector,
    Line,
    Point,
    Ray,
    _check_finite,
    _cross_if_independent,
    _Frozen,
    _line_meet,
    _require_vertex,
    _slot_setters,
)


class SigmaValue(_Frozen):
    """Extended-real area ratio: a finite value or the positive-infinite limit."""

    __slots__ = ("value", "infinite")

    def __init__(self, value: float, infinite: bool = False) -> None:
        _set_sigma_value(self, value)
        _set_sigma_infinite(self, infinite)

    @classmethod
    def infinity(cls) -> "SigmaValue":
        return cls(math.inf, True)


_set_sigma_value, _set_sigma_infinite = _slot_setters(SigmaValue)


class ComponentLabel(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    SINGULAR = "singular"


def _require_through(line: Line, o: Point, name: str) -> None:
    if not line.contains(o):
        raise ValueError(f"line {name} must pass through the vertex")


def _meet(
    bx: float, by: float, dx: float, dy: float, ax: float, ay: float, wx: float, wy: float
) -> tuple[float, float]:
    """Where the line through (bx, by) along (dx, dy) meets the line through (ax, ay)
    along (wx, wy): the floats of ``intersect_lines``, with its errors, ParallelLines
    and the ValueError of a point coordinate that is not finite.
    """
    t = _line_meet(bx, by, dx, dy, ax, ay, wx, wy)
    x, y = bx + t * dx, by + t * dy
    if not (math.isfinite(x) and math.isfinite(y)):
        _check_finite(x, y)
    return x, y


def _aux_points(
    o: Point, d: DirectionVector, u_line: Line, v_line: Line, aux: Line
) -> tuple[float, float, float, float, float, float]:
    """P_U, P_V, P_L as (x, y) pairs: where the auxiliary line cuts U, V and the line of the ray."""
    a, w, ub, ud, vb, vd = aux.base, aux.dir, u_line.base, u_line.dir, v_line.base, v_line.dir
    ax, ay, wx, wy = a.x, a.y, w.dx, w.dy
    try:
        ux, uy = _meet(ub.x, ub.y, ud.dx, ud.dy, ax, ay, wx, wy)
        vx, vy = _meet(vb.x, vb.y, vd.dx, vd.dy, ax, ay, wx, wy)
        lx, ly = _meet(o.x, o.y, d.dx, d.dy, ax, ay, wx, wy)
    except ParallelLines as exc:
        raise LambdaParallel("auxiliary line misses U, V, or the ray") from exc
    return ux, uy, vx, vy, lx, ly


def _position(x: float, y: float, aux: Line) -> float:
    """Position of the point (x, y) along the auxiliary line, in units of its direction."""
    w = aux.dir
    if abs(w.dx) >= abs(w.dy):
        return (x - aux.base.x) / w.dx
    return (y - aux.base.y) / w.dy


def sigma_lambda(o: Point, ray: Ray, u_line: Line, v_line: Line, aux: Line) -> SigmaValue:
    """Area ratio of a ray against the reference lines, cut by an auxiliary line.

    Boundary cases: a ray parallel to U gives SigmaValue(0.0); a ray parallel to V
    gives the infinite limit value.
    """
    _require_through(u_line, o, "U")
    _require_through(v_line, o, "V")
    u, v = u_line.dir, v_line.dir
    if _cross_if_independent(u.dx, u.dy, v.dx, v.dy) == 0.0:
        raise DegenerateConfiguration("reference lines must have independent directions")
    _require_vertex(ray, o)
    d = ray.dir
    if _cross_if_independent(d.dx, d.dy, u.dx, u.dy) == 0.0:
        return SigmaValue(0.0)
    if _cross_if_independent(d.dx, d.dy, v.dx, v.dy) == 0.0:
        return SigmaValue.infinity()
    ux, uy, vx, vy, lx, ly = _aux_points(o, d, u_line, v_line, aux)
    ox, oy = o.x, o.y
    hypot = math.hypot
    scale = max(hypot(ux - ox, uy - oy), hypot(vx - ox, vy - oy), hypot(lx - ox, ly - oy))
    if (
        hypot(ux - lx, uy - ly) <= REL_EPS * scale
        or hypot(vx - lx, vy - ly) <= REL_EPS * scale
        or hypot(vx - ux, vy - uy) <= REL_EPS * scale
    ):
        raise CoincidentIntersection("intersection points on the auxiliary line coincide")
    # The signed areas [O P_L P_U] and [O P_L P_V], each half a cross product.
    num = 0.5 * ((lx - ox) * (uy - oy) - (ly - oy) * (ux - ox))
    den = 0.5 * ((lx - ox) * (vy - oy) - (ly - oy) * (vx - ox))
    if abs(den) <= ABS_EPS * scale * scale:
        raise CoincidentIntersection("degenerate area in the ratio denominator")
    return SigmaValue(num / den)


def sigma_sign(o: Point, ray: Ray, u_line: Line, v_line: Line, aux: Line) -> ComponentLabel:
    """Component label of a ray: negative iff P_L falls strictly between P_U and P_V."""
    _require_through(u_line, o, "U")
    _require_through(v_line, o, "V")
    _require_vertex(ray, o)
    d, u, v = ray.dir, u_line.dir, v_line.dir
    if (_cross_if_independent(d.dx, d.dy, u.dx, u.dy) == 0.0
            or _cross_if_independent(d.dx, d.dy, v.dx, v.dy) == 0.0):
        return ComponentLabel.SINGULAR
    ux, uy, vx, vy, lx, ly = _aux_points(o, d, u_line, v_line, aux)
    t_u, t_v, t_l = _position(ux, uy, aux), _position(vx, vy, aux), _position(lx, ly, aux)
    span = max(abs(t_u - t_v), abs(t_l - t_u), abs(t_l - t_v))
    if min(abs(t_l - t_u), abs(t_l - t_v), abs(t_u - t_v)) <= REL_EPS * span:
        return ComponentLabel.SINGULAR
    product = (t_l - t_u) * (t_l - t_v)
    return ComponentLabel.NEGATIVE if product < 0.0 else ComponentLabel.POSITIVE


def _projective_param(ray: Ray, aux: Line) -> tuple[float, float]:
    """Position of the ray-line's intersection along ``aux`` as a projective pair."""
    r, d, a, w = ray.origin, ray.dir, aux.base, aux.dir
    try:
        x, y = _meet(r.x, r.y, d.dx, d.dy, a.x, a.y, w.dx, w.dy)
    except ParallelLines:  # the ray's line meets aux at infinity
        return (1.0, 0.0)
    return (_position(x, y, aux), 1.0)


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
    num_zero = abs(d13) <= REL_EPS * s13 or abs(d24) <= REL_EPS * s24
    den_zero = abs(d23) <= REL_EPS * s23 or abs(d14) <= REL_EPS * s14
    if num_zero and den_zero:
        raise UndefinedCrossRatio("coinciding entries make the cross ratio 0/0")
    if den_zero:
        return math.inf if num > 0 else -math.inf
    if den == 0.0:  # no determinant is zero against its own scale: the product underflows
        raise ValueError(
            f"the determinant products underflow: d13*d24 = {num!r}, d23*d14 = {den!r}"
        )
    return num / den
