"""Planar primitives: points, directions, lines, rays, affine maps, and slopes.

Coordinates are IEEE-754 doubles.  The segment test of
``normalize_configuration``, the determinant test of ``invert_map``,
``_require_vertex`` and ``Line.contains`` compare a quantity with its own
inputs, with no absolute floor, so scaling a configuration by 2^k leaves
their verdicts alone while the values stay normal floats.  Every direction
test goes through one float predicate, ``_cross_if_independent``, which
takes coordinates and returns the cross product, or 0.0 when the sine is at
most PAR_EPS, so no caller computes the cross product twice.  It compares
products of the coordinates, so it is scale invariant while those products stay
representable (not for directions scaled by 2^1000 or 2^-1000).  Two lines
meet through one formula, ``_line_meet``, which takes coordinates and
returns the parameter of the meeting point on the first line;
``intersect_lines``, the area ratios and ``power.radical_center`` all call
it.  The query paths of the package, the area ratios and the radical center
included, compute on floats and build no intermediate values; where such a
value's constructor would have raised on a state that valid inputs can
reach, they raise its error.  They apply a map through ``_map_point`` and
``_map_direction``, which raise the finiteness and underflow errors; only
``sample_locus``'s per-sample loop, ``normalize_configuration``,
``compose_maps``, ``power._monic_in_frame``, ``AffineMap.apply_linear`` and
``power._radical_line``'s direction multiply a map out inline.  The (u, v)
frame of the reference directions (``basis_map``, kept by
``DirectionPair``), the (u, v) slope of a ray with its vertex checks
(``_slope``, ``_slope_pair``, ``_require_vertex``) and the slope form of the
angle live here.  All operations are pure, so everything here is safe to
share freely between threads.

The value types of the package (here and in the other modules) are
immutable ``__slots__`` classes built on ``_Frozen``: assigning or deleting
a field raises AttributeError, equality and hashing go by type and field
values, the repr lists the fields by name, and pickling and copying
rebuild through the constructor, which validates.  A changed value is a new
instance built with the constructor.  Derived slots (names with a leading
underscore) keep the maps a constructor builds while validating its fields,
so that no consumer builds them again; they take no part in equality,
hashing, the repr or pickling, and a copy rebuilds them.  Constructors store
each slot through its descriptor's bound setter, which ``_slot_setters``
binds once per class at import.  ``AffineMap`` and ``ConicCoefficients``
are one-slot types: each keeps its six entries as one tuple in one private
slot (``_m``, ``_c``), because every reader in the package takes all of
them at once.  A constructor then makes one store instead of six, and a
reader one slot load and one tuple unpack; the entries by name are
read-only properties, for callers outside the package.  The other types
keep a slot per field, whose reads CPython 3.11 specializes and a
property's do not.  ``Point``, ``DirectionVector`` and ``AffineMap`` test
their fields with ``math.isfinite`` inline and call ``_check_finite`` only
when a test fails, for the ValueError that names the first non-finite
value.  ``sample_locus`` is the one place that builds ``Point``s past the
constructor, with ``object.__new__`` and the slot setters;
``IsopticSpec``'s documented bound keeps every sample finite, so the
skipped tests could never fail there.
"""

import math

from .errors import (
    ComponentMismatch,
    DegenerateConfiguration,
    ParallelLines,
    SingularMap,
    SingularRay,
)

# Relative tolerance of scalar comparisons and of point-on-line/vertex tests.
REL_EPS = 1e-9
# A quantity vanishes when it is at most ABS_EPS times the largest input it is
# formed from: a segment's half length against its endpoints' coordinates, a
# determinant against the product of its row norms, a signed area against the
# square of its points' distances from the vertex, a radical-axis coefficient
# against the curves' coefficients of its degree, a factor 1 +- m*t against 1
# and |m*t|.
ABS_EPS = 1e-12
# Largest |sine| between two directions that still counts as parallel.
PAR_EPS = 1e-10
# Largest |boundary factor| / max(1, |q|^2) of a canonical point on the isoptic's singular lines.
BOUNDARY_EPS = 1e-10
# Largest |x*y - kappa| / max(|x*y|, kappa) of a point still on an axis hyperbola.
ON_CURVE_TOL = 1e-7
# Largest |discriminant| / (a1^2 + |4*a2*a0|) of a secant that counts as tangent.
TANGENT_TOL = 1e-10
# Largest limit residual / max(1, |limit|) that counts as roundoff, not truncation.
RESIDUAL_FLOOR = 1e-12


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"coordinates must be finite, got {v!r}")


class _Frozen:
    """Base of the immutable value types.

    The fields are the public ``__slots__`` names, unless the class declares
    ``_fields`` itself.  Then it is a one-slot type: it keeps the field values
    as one tuple, in ``_fields`` order, in its only slot, its ``_values``
    returns that tuple, and each field is a read-only property, generated
    here, that indexes it.  Subclasses store fields and derived ``_`` slots
    in ``__init__`` through the setters ``_slot_setters`` returns.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
            return
        (slot,) = cls.__slots__
        get = cls.__dict__[slot].__get__
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(lambda self, i=i: get(self)[i]))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


def _slot_setters(cls: type) -> tuple:
    """The bound ``__set__`` of each of cls's slot descriptors, in ``__slots__`` order.

    A setter stores into the slot directly, past ``_Frozen.__setattr__``, in
    about half the time of the generic attribute store.
    """
    return tuple([cls.__dict__[name].__set__ for name in cls.__slots__])


class Point(_Frozen):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            _check_finite(x, y)
        _set_point_x(self, x)
        _set_point_y(self, y)


_set_point_x, _set_point_y = _slot_setters(Point)


class DirectionVector(_Frozen):
    __slots__ = ("dx", "dy")

    def __init__(self, dx: float, dy: float) -> None:
        if not (math.isfinite(dx) and math.isfinite(dy)):
            _check_finite(dx, dy)
        if dx == 0.0 and dy == 0.0:
            raise ValueError("direction vector must be nonzero")
        _set_direction_dx(self, dx)
        _set_direction_dy(self, dy)

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def scaled(self, s: float) -> "DirectionVector":
        return DirectionVector(s * self.dx, s * self.dy)


_set_direction_dx, _set_direction_dy = _slot_setters(DirectionVector)


def vec(p: Point, q: Point) -> DirectionVector:
    """Direction from p to q.  Raises ValueError for coincident points."""
    return DirectionVector(q.x - p.x, q.y - p.y)


def cross(d1: DirectionVector, d2: DirectionVector) -> float:
    return d1.dx * d2.dy - d1.dy * d2.dx


def dot(d1: DirectionVector, d2: DirectionVector) -> float:
    return d1.dx * d2.dx + d1.dy * d2.dy


def _cross_if_independent(x1: float, y1: float, x2: float, y2: float) -> float:
    """The cross product x1*y2 - y1*x2, or 0.0 when the two directions are parallel.

    Parallel means |cross| <= PAR_EPS * |(x1, y1)| * |(x2, y2)|, so a nonzero
    result always belongs to independent directions.
    """
    c = x1 * y2 - y1 * x2
    if abs(c) <= PAR_EPS * math.hypot(x1, y1) * math.hypot(x2, y2):
        return 0.0
    return c


def is_parallel(d1: DirectionVector, d2: DirectionVector) -> bool:
    """Scale-invariant parallelism test: |d1 x d2| <= PAR_EPS * |d1| * |d2|."""
    return _cross_if_independent(d1.dx, d1.dy, d2.dx, d2.dy) == 0.0


def distance(p: Point, q: Point) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


class Line(_Frozen):
    __slots__ = ("base", "dir")

    def __init__(self, base: Point, dir: DirectionVector) -> None:
        _set_line_base(self, base)
        _set_line_dir(self, dir)

    def point_at(self, t: float) -> Point:
        return Point(self.base.x + t * self.dir.dx, self.base.y + t * self.dir.dy)

    def implicit(self) -> tuple[float, float, float]:
        """Implicit form a*x + b*y = c with unit (a, b), first nonzero of (a, b) positive."""
        a, b = -self.dir.dy, self.dir.dx
        n = math.hypot(a, b)
        a, b = a / n, b / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b = -a, -b
        return a, b, a * self.base.x + b * self.base.y

    def distance_to(self, p: Point) -> float:
        a, b, c = self.implicit()
        return abs(a * p.x + b * p.y - c)

    def contains(self, p: Point) -> bool:
        scale = max(math.hypot(p.x, p.y), math.hypot(self.base.x, self.base.y))
        return self.distance_to(p) <= REL_EPS * scale


_set_line_base, _set_line_dir = _slot_setters(Line)


class Ray(_Frozen):
    __slots__ = ("origin", "dir")

    def __init__(self, origin: Point, dir: DirectionVector) -> None:
        _set_ray_origin(self, origin)
        _set_ray_dir(self, dir)


_set_ray_origin, _set_ray_dir = _slot_setters(Ray)


class AffineMap(_Frozen):
    """x |-> linear * x + translation with linear part [[xx, xy], [yx, yy]].

    A one-slot type: ``_m`` holds (xx, xy, yx, yy, tx, ty), the constructor's
    arguments in order, so ``AffineMap(*m._m) == m``.
    """

    __slots__ = ("_m",)
    _fields = ("xx", "xy", "yx", "yy", "tx", "ty")

    def __init__(
        self, xx: float, xy: float, yx: float, yy: float, tx: float = 0.0, ty: float = 0.0
    ) -> None:
        if not (
            math.isfinite(xx) and math.isfinite(xy) and math.isfinite(yx)
            and math.isfinite(yy) and math.isfinite(tx) and math.isfinite(ty)
        ):
            _check_finite(xx, xy, yx, yy, tx, ty)
        _set_map(self, (xx, xy, yx, yy, tx, ty))

    def _values(self) -> tuple:
        return self._m

    @classmethod
    def translation(cls, dx: float, dy: float) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, dx, dy)

    @classmethod
    def scaling(cls, sx: float, sy: float) -> "AffineMap":
        return cls(sx, 0.0, 0.0, sy, 0.0, 0.0)

    def apply_linear(self, d: DirectionVector) -> DirectionVector:
        xx, xy, yx, yy, _, _ = self._m
        return DirectionVector(xx * d.dx + xy * d.dy, yx * d.dx + yy * d.dy)

    def apply_point(self, p: Point) -> Point:
        return Point(*_map_point(self, p.x, p.y))


(_set_map,) = _slot_setters(AffineMap)


def _map_point(f: AffineMap, x: float, y: float) -> tuple[float, float]:
    """f's image of the point (x, y); ValueError naming a non-finite image coordinate."""
    xx, xy, yx, yy, tx, ty = f._m
    ix, iy = xx * x + xy * y + tx, yx * x + yy * y + ty
    if not (math.isfinite(ix) and math.isfinite(iy)):
        _check_finite(ix, iy)
    return ix, iy


def _map_direction(f: AffineMap, dx: float, dy: float) -> tuple[float, float]:
    """The linear image under the invertible f of the nonzero direction (dx, dy).

    Raises ValueError when an image coordinate is not finite, or when both
    underflow to 0, which only underflow can do.
    """
    xx, xy, yx, yy, _, _ = f._m
    ix, iy = xx * dx + xy * dy, yx * dx + yy * dy
    if not (math.isfinite(ix) and math.isfinite(iy)):
        _check_finite(ix, iy)
    if ix == 0.0 and iy == 0.0:
        raise ValueError("direction's (u, v) coefficients both underflow to 0")
    return ix, iy


def signed_area(x: Point, y: Point, z: Point) -> float:
    """Half the cross product of (y - x) and (z - x); antisymmetric in y, z."""
    return 0.5 * ((y.x - x.x) * (z.y - x.y) - (y.y - x.y) * (z.x - x.x))


def _line_meet(
    bx1: float, by1: float, dx1: float, dy1: float, bx2: float, by2: float, dx2: float, dy2: float
) -> float:
    """The t at which the point (bx1 + t*dx1, by1 + t*dy1) lies on the line through (bx2, by2)
    along (dx2, dy2): the one line-meet formula, on floats.

    Raises ParallelLines when the directions are parallel within PAR_EPS.
    """
    den = _cross_if_independent(dx1, dy1, dx2, dy2)
    if den == 0.0:
        raise ParallelLines("lines are parallel within tolerance")
    ox, oy = bx2 - bx1, by2 - by1
    return (ox * dy2 - oy * dx2) / den


def intersect_lines(l1: Line, l2: Line) -> Point:
    b1, d1, b2, d2 = l1.base, l1.dir, l2.base, l2.dir
    return l1.point_at(_line_meet(b1.x, b1.y, d1.dx, d1.dy, b2.x, b2.y, d2.dx, d2.dy))


def invert_map(t: AffineMap) -> AffineMap:
    """Inverse map; raises SingularMap when |det| <= ABS_EPS * |row 1| * |row 2|.

    |det| / (|row 1| * |row 2|) is the |sine| between the rows of the linear
    part, so rescaling either row leaves the verdict alone, and a
    well-conditioned map of any scale inverts, unless det itself overflows:
    that raises OverflowError.
    """
    axx, axy, ayx, ayy, atx, aty = t._m
    det = axx * ayy - axy * ayx
    if abs(det) <= ABS_EPS * math.hypot(axx, axy) * math.hypot(ayx, ayy):
        raise SingularMap(f"linear part is singular (det = {det!r})")
    if not math.isfinite(det):  # the inverse's entries would divide down to 0, or to nan
        raise OverflowError(f"linear part's determinant overflows: det = {det!r}")
    xx, xy, yx, yy = ayy / det, -axy / det, -ayx / det, axx / det
    tx = -(xx * atx + xy * aty)
    ty = -(yx * atx + yy * aty)
    return AffineMap(xx, xy, yx, yy, tx, ty)


def compose_maps(t1: AffineMap, t2: AffineMap) -> AffineMap:
    """Composition t1 after t2: (t1 . t2)(x) = t1(t2(x))."""
    axx, axy, ayx, ayy, atx, aty = t1._m
    bxx, bxy, byx, byy, btx, bty = t2._m
    return AffineMap(
        axx * bxx + axy * byx,
        axx * bxy + axy * byy,
        ayx * bxx + ayy * byx,
        ayx * bxy + ayy * byy,
        axx * btx + axy * bty + atx,
        ayx * btx + ayy * bty + aty,
    )


def basis_map(u: DirectionVector, v: DirectionVector) -> AffineMap:
    """Linear map sending u to (1, 0) and v to (0, 1): the (u, v) coordinate frame.

    Raises DegenerateConfiguration when u and v are parallel within PAR_EPS,
    and OverflowError when cross(u, v) overflows, which would divide every
    entry down to 0.
    """
    den = _cross_if_independent(u.dx, u.dy, v.dx, v.dy)
    if den == 0.0:
        raise DegenerateConfiguration("reference directions must be independent")
    if not math.isfinite(den):  # nan only as inf - inf
        raise OverflowError(f"reference directions' cross product overflows: cross(u, v) = {den!r}")
    return AffineMap(v.dy / den, -v.dx / den, -u.dy / den, u.dx / den)


class DirectionPair(_Frozen):
    __slots__ = ("u", "v", "_basis")

    def __init__(self, u: DirectionVector, v: DirectionVector) -> None:
        basis = basis_map(u, v)  # the one parallelism test of u and v
        _set_pair_u(self, u)
        _set_pair_v(self, v)
        _set_pair_basis(self, basis)


_set_pair_u, _set_pair_v, _set_pair_basis = _slot_setters(DirectionPair)


def decompose(d: DirectionVector, dirs: DirectionPair) -> tuple[float, float]:
    """Coefficients (a, b) with d = a*u + b*v.

    Raises ValueError when a coefficient overflows, or when both underflow
    to 0, which only underflow can do for a nonzero d.
    """
    return _map_direction(dirs._basis, d.dx, d.dy)


def _require_vertex(ray: Ray, o: Point) -> None:
    scale = max(abs(o.x), abs(o.y))
    if distance(ray.origin, o) > REL_EPS * scale:
        raise ValueError("ray must emanate from the vertex")


def _offset(o: Point, p: Point, name: str) -> tuple[float, float]:
    """Direction from the vertex o to p; ValueError when they coincide or it overflows."""
    if p.x == o.x and p.y == o.y:
        raise ValueError(f"point {name} coincides with the vertex")
    dx, dy = p.x - o.x, p.y - o.y
    if not (math.isfinite(dx) and math.isfinite(dy)):
        _check_finite(dx, dy)
    return dx, dy


def _slope(dx: float, dy: float, dirs: DirectionPair, name: str) -> float:
    """Slope beta/alpha of the direction (dx, dy) = alpha*u + beta*v.

    Raises SingularRay when the direction is parallel to u or v, ValueError
    when its (u, v) coordinates overflow or both underflow to 0, and
    SingularRay when alpha alone underflows to 0 or when the slope overflows
    or underflows to 0, in that order; a returned slope is finite and nonzero.
    """
    u, v = dirs.u, dirs.v
    if (
        _cross_if_independent(dx, dy, u.dx, u.dy) == 0.0
        or _cross_if_independent(dx, dy, v.dx, v.dy) == 0.0
    ):
        raise SingularRay(f"ray {name} is parallel to a reference direction")
    alpha, beta = _map_direction(dirs._basis, dx, dy)
    if alpha == 0.0:
        raise SingularRay(f"ray {name}'s (u, v) coordinate alpha underflows to 0")
    m = beta / alpha
    if m == 0.0 or math.isinf(m):
        what = "overflows" if m else "underflows to 0"
        raise SingularRay(f"ray {name}'s slope beta/alpha {what}")
    return m


def _slope_pair(o: Point, a: Point, b: Point, dirs: DirectionPair) -> tuple[float, float]:
    ax, ay = _offset(o, a, "A")
    bx, by = _offset(o, b, "B")
    return _slope(ax, ay, dirs, "OA"), _slope(bx, by, dirs, "OB")


def _same_sign(m_a: float, m_b: float) -> bool:
    """Both slopes positive or both negative: a sign test, since m_a * m_b can underflow to 0."""
    return (m_a > 0.0 and m_b > 0.0) or (m_a < 0.0 and m_b < 0.0)


def _check_finite_slopes(m1: float, m2: float) -> None:
    for m in (m1, m2):
        if not math.isfinite(m):
            raise ValueError(f"slopes must be finite, got {m!r}")


def slope_cross_ratio_angle(m1: float, m2: float) -> float:
    """Half the log of the slope ratio: the angle between rays of (u, v) slopes m1, m2.

    Raises ValueError naming the first slope that is not finite,
    ComponentMismatch when the slopes differ in sign, and OverflowError or
    ValueError when m1/m2 overflows or underflows to 0.  A slope that is not
    finite fails the sign test or gives a ratio that is infinite, 0 or nan,
    so only those branches test finiteness.
    """
    if not _same_sign(m1, m2):
        _check_finite_slopes(m1, m2)
        raise ComponentMismatch("slopes must have the same sign")
    ratio = m1 / m2
    if math.isinf(ratio):
        _check_finite_slopes(m1, m2)
        raise OverflowError("m1/m2 overflows")
    if not ratio > 0.0:  # 0.0, or nan from inf/inf
        _check_finite_slopes(m1, m2)
        raise ValueError("m1/m2 underflows to 0")
    return 0.5 * math.log(ratio)


def normalize_configuration(a: Point, b: Point, dirs: DirectionPair) -> AffineMap:
    """Affine map sending a to (-1, 0), b to (1, 0), u along (1, 1), v along (1, -1).

    The half-offset (b - a)/2 is decomposed as s*u + t*v; the linear part maps
    u to (1, 1)/(2s) and v to (1, -1)/(2t), and the midpoint of ab goes to the
    origin.  Raises DegenerateConfiguration when the points coincide, the
    segment is parallel to either reference direction, or s or t underflows
    to 0 or is too small for 1/(2s) or 1/(2t) to be finite.  The points
    coincide when |b - a|/2 <= ABS_EPS times their largest coordinate, which
    gives a and b scaled by 2^k the verdict of a and b.
    """
    hx, hy = (b.x - a.x) / 2.0, (b.y - a.y) / 2.0
    if math.hypot(hx, hy) <= ABS_EPS * max(abs(a.x), abs(a.y), abs(b.x), abs(b.y)):
        raise DegenerateConfiguration("segment endpoints coincide")
    h = DirectionVector(hx, hy)
    if is_parallel(h, dirs.v):
        raise DegenerateConfiguration("segment is parallel to the v direction")
    if is_parallel(h, dirs.u):
        raise DegenerateConfiguration("segment is parallel to the u direction")
    # With (s, t) the (u, v) coordinates of h, the linear part sends (u, v)
    # coordinates (x, y) to (x/(2s) + y/(2t), x/(2s) - y/(2t)); it is composed
    # with the (u, v) frame here, entry by entry.
    fxx, fxy, fyx, fyy, _, _ = dirs._basis._m
    s, t = fxx * hx + fxy * hy, fyx * hx + fyy * hy
    # h is parallel to neither direction, so s or t is 0 only by underflow.
    for name, value in (("s", s), ("t", t)):
        if value == 0.0:
            raise DegenerateConfiguration(f"segment's (u, v) coordinate {name} underflows to 0")
    p, q = 0.5 / s, 0.5 / t  # 1/(2s), 1/(2t)
    for name, value, inverse in (("s", s, p), ("t", t, q)):
        if math.isinf(inverse):  # s or t is subnormal
            raise DegenerateConfiguration(
                f"segment's (u, v) coordinate {name} = {value!r} is too small: "
                f"1/(2{name}) overflows"
            )
    xx, xy = p * fxx + q * fyx, p * fxy + q * fyy
    yx, yy = p * fxx - q * fyx, p * fxy - q * fyy
    mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
    return AffineMap(xx, xy, yx, yy, -(xx * mx + xy * my), -(yx * mx + yy * my))
