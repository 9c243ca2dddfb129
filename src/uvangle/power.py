"""Power of a point with respect to axis-aligned hyperbolas.

A hyperbola whose asymptotes are parallel to a fixed direction pair is stored
as a frame map (taking the asymptote directions to the coordinate axes), a
center, and a constant kappa: in frame coordinates relative to the center the
curve is x*y = kappa.  The core quantity of a point (p, q) in those
coordinates is p*q - kappa; the power kappa * |p*q - kappa| equals the
product of asymptotic symmetric areas cut by any secant through the point
(``power_theorem`` computes those areas).

kappa is normalized positive at construction by reflecting one frame axis,
so curves with branches in the second/fourth frame quadrants are handled
transparently.  Note that real tangent lines from an off-axis point exist
exactly when the core quantity is negative.
"""

import math

from .errors import (
    CoincidentParameters,
    DegenerateIntersection,
    EmptyRadicalAxis,
    IdenticalCurves,
    InvalidPosition,
    NoRealIntersection,
    NonLinearDifference,
    ParallelAxes,
    ParallelChords,
    ParallelLines,
)
from .kernel import (
    ABS_EPS,
    REL_EPS,
    TANGENT_TOL,
    AffineMap,
    DirectionVector,
    Line,
    Point,
    _check_finite,
    _cross_if_independent,
    _Frozen,
    _line_meet,
    _map_direction,
    _map_point,
    _slot_setters,
    basis_map,
    compose_maps,
    intersect_lines,
    invert_map,
)

_REFLECT_X = AffineMap(-1.0, 0.0, 0.0, 1.0)


class AxisHyperbola(_Frozen):
    """Hyperbola (x - c)(y - d) = kappa in the coordinates of ``frame``.

    ``center`` lives in the original plane; its frame image (c, d) is held
    in ``_frame_center``, the one place to read it.  ``frame`` maps the
    original plane to the frame where the asymptote directions become the
    coordinate axes; ``_inverse`` maps back.  ``relative_coords`` and
    ``plane_point`` are the two conversions between plane points and
    center-relative frame coordinates.
    """

    __slots__ = ("center", "kappa", "frame", "_inverse", "_frame_center")

    def __init__(self, center: Point, kappa: float, frame: AffineMap) -> None:
        if not math.isfinite(kappa) or kappa == 0.0:
            raise ValueError("kappa must be finite and nonzero")
        if kappa < 0.0:
            # The reflection keeps |det| and both row norms, so invert_map
            # decides singularity as it would for the given frame.
            frame, kappa = compose_maps(_REFLECT_X, frame), -kappa
        inverse = invert_map(frame)  # raises SingularMap for a degenerate frame
        frame_center = _map_point(frame, center.x, center.y)
        _set_hyperbola_center(self, center)
        _set_hyperbola_kappa(self, kappa)
        _set_hyperbola_frame(self, frame)
        _set_hyperbola_inverse(self, inverse)
        _set_hyperbola_frame_center(self, frame_center)

    @classmethod
    def from_directions(
        cls, center: Point, kappa: float, u: DirectionVector, v: DirectionVector
    ) -> "AxisHyperbola":
        """Curve with asymptote directions u, v; the frame sends u, v to the axes."""
        return cls(center, kappa, basis_map(u, v))

    def relative_coords(self, p: Point) -> tuple[float, float]:
        """Frame coordinates of p relative to the center."""
        x, y = _map_point(self.frame, p.x, p.y)
        c, d = self._frame_center
        return x - c, y - d

    def plane_point(self, x: float, y: float) -> Point:
        """The plane point with center-relative frame coordinates (x, y).

        The inverse of ``relative_coords``; raises ValueError naming a frame
        or plane coordinate that is not finite.
        """
        c, d = self._frame_center
        fx, fy = c + x, d + y
        if not (math.isfinite(fx) and math.isfinite(fy)):
            _check_finite(fx, fy)
        px, py = _map_point(self._inverse, fx, fy)
        return Point(px, py)

    def point_at(self, alpha: float) -> Point:
        """The curve point with center-relative frame abscissa alpha."""
        if alpha == 0.0:
            raise ValueError("abscissa on the asymptote")
        return self.plane_point(alpha, self.kappa / alpha)


(
    _set_hyperbola_center, _set_hyperbola_kappa, _set_hyperbola_frame, _set_hyperbola_inverse,
    _set_hyperbola_frame_center,
) = _slot_setters(AxisHyperbola)


class SecantResult(_Frozen):
    __slots__ = ("a", "b", "alpha", "beta", "tangent")

    def __init__(
        self, a: Point, b: Point, alpha: float, beta: float, tangent: bool = False
    ) -> None:
        _set_secant_a(self, a)
        _set_secant_b(self, b)
        _set_secant_alpha(self, alpha)
        _set_secant_beta(self, beta)
        _set_secant_tangent(self, tangent)


_set_secant_a, _set_secant_b, _set_secant_alpha, _set_secant_beta, _set_secant_tangent = (
    _slot_setters(SecantResult)
)


def core_quantity(p: Point, h: AxisHyperbola) -> float:
    """p*q - kappa in center-relative frame coordinates; zero iff p is on the curve."""
    x, y = h.relative_coords(p)
    return x * y - h.kappa


def secant_intersections(p: Point, direction: DirectionVector, h: AxisHyperbola) -> SecantResult:
    """Both intersections of the line through p with the curve.

    Tangency (a double root within tolerance) is reported via the ``tangent``
    flag with coinciding points, not as an error.  Asymptote-parallel
    directions meet the curve at most once and raise NoRealIntersection.
    """
    px, py = h.relative_coords(p)
    dx, dy = _map_direction(h.frame, direction.dx, direction.dy)
    # Only the line matters: an exact power of two brings the larger coordinate into [0.5, 1).
    e = -math.frexp(max(abs(dx), abs(dy)))[1]
    dx, dy = math.ldexp(dx, e), math.ldexp(dy, e)
    if (_cross_if_independent(dx, dy, 1.0, 0.0) == 0.0
            or _cross_if_independent(dx, dy, 0.0, 1.0) == 0.0):
        raise NoRealIntersection("secant direction is parallel to an asymptote")
    a2 = dx * dy
    a1 = dx * py + dy * px
    a0 = px * py - h.kappa
    disc = a1 * a1 - 4.0 * a2 * a0
    scale = a1 * a1 + abs(4.0 * a2 * a0)
    if disc < -TANGENT_TOL * scale:
        raise NoRealIntersection("line misses the hyperbola")
    tangent = disc <= TANGENT_TOL * scale
    if tangent:
        t1 = t2 = -a1 / (2.0 * a2)
    else:
        root = math.sqrt(disc)
        q = -(a1 + math.copysign(root, a1)) / 2.0 if a1 != 0.0 else root / 2.0
        t1, t2 = q / a2, a0 / q
        if t1 > t2:
            t1, t2 = t2, t1
    alpha, beta = px + t1 * dx, px + t2 * dx
    point_a = h.plane_point(alpha, py + t1 * dy)
    point_b = h.plane_point(beta, py + t2 * dy)
    return SecantResult(point_a, point_b, alpha, beta, tangent)


def power(p: Point, h: AxisHyperbola) -> float:
    """kappa * |core|; the secant-independent product of symmetric areas."""
    return h.kappa * abs(core_quantity(p, h))


def chord_line(t1: float, t2: float, kappa: float) -> Line:
    """Chord of x*y = kappa through the points with abscissae t1, t2."""
    if t1 == 0.0 or t2 == 0.0 or kappa == 0.0:
        raise ValueError("chord parameters and kappa must be nonzero")
    if abs(t1 - t2) <= REL_EPS * max(abs(t1), abs(t2)):
        raise CoincidentParameters("chord parameters coincide")
    base = Point(t1, kappa / t1)
    return Line(base, DirectionVector(t2 - t1, kappa / t2 - kappa / t1))


def chord_intersection_x(t1: float, t2: float, t3: float, t4: float) -> float:
    """x-coordinate of the intersection of the chords (t1, t2) and (t3, t4) of x*y = kappa.

    The chord through abscissae t1, t2 is y = kappa*(t1 + t2 - x)/(t1*t2), so
    kappa cancels and the abscissa is the same for every nonzero kappa.
    Raises OverflowError naming a parameter product that overflows.
    """
    p12, p34 = t1 * t2, t3 * t4
    if math.isinf(p12) or math.isinf(p34):
        name, value = ("t1*t2", p12) if math.isinf(p12) else ("t3*t4", p34)
        raise OverflowError(f"chord parameter product {name} = {value!r} overflows")
    if abs(p12 - p34) <= REL_EPS * max(abs(p12), abs(p34)):
        raise ParallelChords("chords with equal parameter products are parallel")
    # An exact power of two brings the larger product into [0.5, 1), so the cubic numerator
    # keeps the scale of t: the bits are unchanged wherever it was a normal float.
    e = -math.frexp(max(abs(p12), abs(p34)))[1]
    p12, p34 = math.ldexp(p12, e), math.ldexp(p34, e)
    return ((t3 + t4) * p12 - (t1 + t2) * p34) / (p12 - p34)


def _monic_in_frame(h: AxisHyperbola, other: AxisHyperbola) -> tuple[float, float, float]:
    """Coefficients (ex, ey, e0) of the monic form w_x*w_y + ex*w_x + ey*w_y + e0
    of ``h`` expressed in the frame coordinates of ``other``."""
    fxx, fxy, fyx, fyy, ftx, fty = h.frame._m
    gxx, gxy, gyx, gyy, gtx, gty = other._inverse._m
    # The entries of compose_maps(h.frame, other._inverse), with the checks of its AffineMap.
    xx, xy = fxx * gxx + fxy * gyx, fxx * gxy + fxy * gyy
    yx, yy = fyx * gxx + fyy * gyx, fyx * gxy + fyy * gyy
    tx = fxx * gtx + fxy * gty + ftx
    ty = fyx * gtx + fyy * gty + fty
    if not (
        math.isfinite(xx) and math.isfinite(xy) and math.isfinite(yx)
        and math.isfinite(yy) and math.isfinite(tx) and math.isfinite(ty)
    ):
        _check_finite(xx, xy, yx, yy, tx, ty)
    # The frames share their axes when their rows, the coordinate functionals, are parallel.
    oxx, oxy, oyx, oyy, _, _ = other.frame._m
    c, d = h._frame_center
    gx, gy = tx - c, ty - d
    if (_cross_if_independent(fxx, fxy, oxx, oxy) == 0.0
            and _cross_if_independent(fyx, fyy, oyx, oyy) == 0.0):
        # z_x = xx*wx + tx, z_y = yy*wy + ty
        return gy / yy, gx / xx, (gx * gy - h.kappa) / (xx * yy)
    if (_cross_if_independent(fxx, fxy, oyx, oyy) == 0.0
            and _cross_if_independent(fyx, fyy, oxx, oxy) == 0.0):
        # z_x = xy*wy + tx, z_y = yx*wx + ty
        return gx / xy, gy / yx, (gx * gy - h.kappa) / (xy * yx)
    raise NonLinearDifference("hyperbolas do not share an asymptote direction pair")


def _radical_line(h1: AxisHyperbola, h2: AxisHyperbola) -> tuple[float, float, float, float]:
    """Base point and direction of ``radical_axis(h1, h2)``, as plane coordinates (bx, by, dx, dy).

    Raises every error of ``radical_axis``, in its order: the direction is
    tested as DirectionVector tests it, with its messages, so a coordinate
    that is not finite, or both underflowing to 0, raises its ValueError.
    """
    e1x, e1y, e10 = _monic_in_frame(h1, h1)
    e2x, e2y, e20 = _monic_in_frame(h2, h1)
    ex, ey, e0 = e1x - e2x, e1y - e2y, e10 - e20
    # Each difference is tested against the coefficients of its own degree in length.
    tol = ABS_EPS * max(abs(e1x), abs(e1y), abs(e2x), abs(e2y))
    if abs(ex) <= tol and abs(ey) <= tol:
        if abs(e0) <= ABS_EPS * max(abs(e10), abs(e20)):
            raise IdenticalCurves("the two hyperbolas coincide")
        raise EmptyRadicalAxis("equal centers with different kappa give an empty axis")
    # The base point (bx, by) and direction (dx, dy) in h1's frame, with the
    # checks of their values, mapped back by h1's inverse frame.
    if abs(ex) >= abs(ey):
        bx, by = -e0 / ex, 0.0
    else:
        bx, by = 0.0, -e0 / ey
    dx, dy = -ey, ex
    if not (math.isfinite(bx) and math.isfinite(by) and math.isfinite(dx) and math.isfinite(dy)):
        _check_finite(bx, by, dx, dy)
    g = h1._inverse
    px, py = _map_point(g, bx, by)
    gxx, gxy, gyx, gyy, _, _ = g._m
    wx, wy = gxx * dx + gxy * dy, gyx * dx + gyy * dy
    if not (math.isfinite(wx) and math.isfinite(wy)):
        _check_finite(wx, wy)
    if wx == 0.0 and wy == 0.0:  # (dx, dy) is nonzero and g invertible: only by underflow
        raise ValueError("direction vector must be nonzero")
    return px, py, wx, wy


def radical_axis(h1: AxisHyperbola, h2: AxisHyperbola) -> Line:
    """Zero set of the difference of the two monic defining quadratics.

    Both curves are expressed in the frame of the first one; the product
    terms cancel, leaving a line on which the two core quantities agree.
    When the curves intersect, the line carries the common chord (or the
    common tangent at a tangency point).
    """
    bx, by, dx, dy = _radical_line(h1, h2)
    return Line(Point(bx, by), DirectionVector(dx, dy))


def radical_center(h1: AxisHyperbola, h2: AxisHyperbola, h3: AxisHyperbola) -> Point:
    """Common point of the three pairwise radical axes: the meet of (h1, h2)'s and (h2, h3)'s."""
    try:
        bx, by, dx, dy = _radical_line(h1, h2)
        line23 = _radical_line(h2, h3)
    except EmptyRadicalAxis as exc:
        raise ParallelAxes("a pairwise radical axis is empty") from exc
    try:
        t = _line_meet(bx, by, dx, dy, *line23)
    except ParallelLines as exc:
        raise ParallelAxes("radical axes are parallel") from exc
    return Point(bx + t * dx, by + t * dy)


def _shoelace(points: list[Point]) -> float:
    total = 0.0
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        total += p.x * q.y - q.x * p.y
    return 0.5 * abs(total)


def progression_quadrilateral_area(a: float, r: float, p: float, kappa: float) -> float:
    """Area of the chord-intersection quadrilateral over a geometric progression.

    Four points with abscissae a, a*r, a*r^2, a*r^3 sit on x*y = kappa
    (positive branch) together with a probe point at abscissa p.  With Q the
    intersection of chords (a, a*r^2) and (p, a*r) and R that of
    (a*r, a*r^3) and (p, a*r^2), the area of the quadrilateral through the
    second point, third point, R, Q does not depend on p; for kappa = 1 it
    equals (r + 1)|r - 1|^3 / (2 r^2).  The probe must avoid the four node
    abscissae, where the construction degenerates.  An r whose cube
    overflows, or a node that does, raises OverflowError.
    """
    if a <= 0.0 or r <= 0.0 or p <= 0.0 or kappa <= 0.0:
        raise ValueError("a, r, p, kappa must be positive")
    if r == 1.0:
        raise ValueError("r must differ from 1")
    try:
        nodes = (a, a * r, a * r * r, a * r**3)
    except OverflowError:
        raise OverflowError(f"progression a={a!r}, r={r!r} overflows: r**3 is out of range") from None
    for k, node in enumerate(nodes):
        if math.isinf(node):
            raise OverflowError(f"progression a={a!r}, r={r!r} overflows: a*r**{k} is out of range")
        if abs(p - node) <= REL_EPS * max(p, node):
            raise InvalidPosition("probe abscissa coincides with a progression node")
    x_b, x_c, x_d = nodes[1:]
    try:
        q = intersect_lines(chord_line(a, x_c, kappa), chord_line(p, x_b, kappa))
        rr = intersect_lines(chord_line(x_b, x_d, kappa), chord_line(p, x_c, kappa))
    except (ParallelLines, CoincidentParameters) as exc:
        raise DegenerateIntersection("chord intersection is undefined") from exc
    b_point = Point(x_b, kappa / x_b)
    c_point = Point(x_c, kappa / x_c)
    return _shoelace([b_point, c_point, rr, q])
