"""Planar primitives: points, directions, lines, rays, and affine maps.

Coordinates are IEEE-754 doubles.  Scalar comparisons use a relative
tolerance with a small absolute floor; direction predicates are scale
invariant.  All values are immutable and all operations are pure, so
everything here is safe to share freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateConfiguration, ParallelLines, SingularMap

# Relative tolerance of scalar comparisons and of point-on-line/vertex tests.
REL_EPS = 1e-9
# Absolute floor under REL_EPS, and the threshold for vanishing lengths and determinants.
ABS_EPS = 1e-12
# Largest |sine| between two directions that still counts as parallel.
PAR_EPS = 1e-10


def close(a: float, b: float, rel: float = REL_EPS, floor: float = ABS_EPS) -> bool:
    """True when a and b agree to relative tolerance ``rel`` (absolute floor for tiny values)."""
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"coordinates must be finite, got {v!r}")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        _check_finite(self.x, self.y)


@dataclass(frozen=True)
class DirectionVector:
    dx: float
    dy: float

    def __post_init__(self) -> None:
        _check_finite(self.dx, self.dy)
        if self.dx == 0.0 and self.dy == 0.0:
            raise ValueError("direction vector must be nonzero")

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def scaled(self, s: float) -> "DirectionVector":
        return DirectionVector(s * self.dx, s * self.dy)


def vec(p: Point, q: Point) -> DirectionVector:
    """Direction from p to q.  Raises ValueError for coincident points."""
    return DirectionVector(q.x - p.x, q.y - p.y)


def cross(d1: DirectionVector, d2: DirectionVector) -> float:
    return d1.dx * d2.dy - d1.dy * d2.dx


def dot(d1: DirectionVector, d2: DirectionVector) -> float:
    return d1.dx * d2.dx + d1.dy * d2.dy


def is_parallel(d1: DirectionVector, d2: DirectionVector, eps: float = PAR_EPS) -> bool:
    """Scale-invariant parallelism test: |d1 x d2| <= eps * |d1| * |d2|."""
    return abs(cross(d1, d2)) <= eps * d1.norm * d2.norm


def translate(p: Point, d: DirectionVector, t: float = 1.0) -> Point:
    return Point(p.x + t * d.dx, p.y + t * d.dy)


def distance(p: Point, q: Point) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


@dataclass(frozen=True)
class Line:
    base: Point
    dir: DirectionVector

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        return cls(p, vec(p, q))

    def point_at(self, t: float) -> Point:
        return translate(self.base, self.dir, t)

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

    def contains(self, p: Point, tol: float = REL_EPS) -> bool:
        scale = max(1.0, math.hypot(p.x, p.y), math.hypot(self.base.x, self.base.y))
        return self.distance_to(p) <= tol * scale


@dataclass(frozen=True)
class Ray:
    origin: Point
    dir: DirectionVector

    def line(self) -> Line:
        return Line(self.origin, self.dir)

    def point_at(self, t: float) -> Point:
        return translate(self.origin, self.dir, t)


@dataclass(frozen=True)
class AffineMap:
    """x |-> linear * x + translation with linear part [[xx, xy], [yx, yy]]."""

    xx: float
    xy: float
    yx: float
    yy: float
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self.xx, self.xy, self.yx, self.yy, self.tx, self.ty)

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @classmethod
    def translation(cls, dx: float, dy: float) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, dx, dy)

    @classmethod
    def scaling(cls, sx: float, sy: float) -> "AffineMap":
        return cls(sx, 0.0, 0.0, sy, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.xx * self.yy - self.xy * self.yx

    def apply_linear(self, d: DirectionVector) -> DirectionVector:
        return DirectionVector(self.xx * d.dx + self.xy * d.dy, self.yx * d.dx + self.yy * d.dy)

    def apply_point(self, p: Point) -> Point:
        return Point(self.xx * p.x + self.xy * p.y + self.tx, self.yx * p.x + self.yy * p.y + self.ty)


def signed_area(x: Point, y: Point, z: Point) -> float:
    """Half the cross product of (y - x) and (z - x); antisymmetric in y, z."""
    return 0.5 * ((y.x - x.x) * (z.y - x.y) - (y.y - x.y) * (z.x - x.x))


def intersect_lines(l1: Line, l2: Line) -> Point:
    den = cross(l1.dir, l2.dir)
    if abs(den) <= PAR_EPS * l1.dir.norm * l2.dir.norm:
        raise ParallelLines("lines are parallel within tolerance")
    ox, oy = l2.base.x - l1.base.x, l2.base.y - l1.base.y
    t = (ox * l2.dir.dy - oy * l2.dir.dx) / den
    return l1.point_at(t)


def apply_map(t: AffineMap, g):
    """Apply an affine map to a Point, DirectionVector, Line, or Ray."""
    if isinstance(g, Point):
        return t.apply_point(g)
    if isinstance(g, DirectionVector):
        return t.apply_linear(g)
    if isinstance(g, Line):
        return Line(t.apply_point(g.base), t.apply_linear(g.dir))
    if isinstance(g, Ray):
        return Ray(t.apply_point(g.origin), t.apply_linear(g.dir))
    raise TypeError(f"cannot apply an affine map to {type(g).__name__}")


def _det_threshold(t: AffineMap) -> float:
    scale = max(abs(t.xx), abs(t.xy), abs(t.yx), abs(t.yy))
    return ABS_EPS * max(1.0, scale * scale)


def invert_map(t: AffineMap) -> AffineMap:
    det = t.det
    if abs(det) <= _det_threshold(t):
        raise SingularMap(f"linear part is singular (det = {det!r})")
    xx, xy, yx, yy = t.yy / det, -t.xy / det, -t.yx / det, t.xx / det
    tx = -(xx * t.tx + xy * t.ty)
    ty = -(yx * t.tx + yy * t.ty)
    return AffineMap(xx, xy, yx, yy, tx, ty)


def compose_maps(t1: AffineMap, t2: AffineMap) -> AffineMap:
    """Composition t1 after t2: (t1 . t2)(x) = t1(t2(x))."""
    return AffineMap(
        t1.xx * t2.xx + t1.xy * t2.yx,
        t1.xx * t2.xy + t1.xy * t2.yy,
        t1.yx * t2.xx + t1.yy * t2.yx,
        t1.yx * t2.xy + t1.yy * t2.yy,
        t1.xx * t2.tx + t1.xy * t2.ty + t1.tx,
        t1.yx * t2.tx + t1.yy * t2.ty + t1.ty,
    )


def basis_map(u: DirectionVector, v: DirectionVector) -> AffineMap:
    """Linear map sending u to (1, 0) and v to (0, 1): the (u, v) coordinate frame.

    Raises DegenerateConfiguration when u and v are parallel within PAR_EPS.
    """
    den = cross(u, v)
    if abs(den) <= PAR_EPS * u.norm * v.norm:
        raise DegenerateConfiguration("reference directions are linearly dependent")
    return AffineMap(v.dy / den, -v.dx / den, -u.dy / den, u.dx / den)


def decompose(d: DirectionVector, u: DirectionVector, v: DirectionVector) -> tuple[float, float]:
    """Coefficients (a, b) with d = a*u + b*v.  Raises for dependent u, v."""
    c = basis_map(u, v).apply_linear(d)
    return c.dx, c.dy


def normalize_configuration(
    a: Point, b: Point, u: DirectionVector, v: DirectionVector
) -> AffineMap:
    """Affine map sending a to (-1, 0), b to (1, 0), u along (1, 1), v along (1, -1).

    The half-offset (b - a)/2 is decomposed as s*u + t*v; the linear part maps
    u to (1, 1)/(2s) and v to (1, -1)/(2t), and the midpoint of ab goes to the
    origin.  Raises DegenerateConfiguration when u, v are dependent, the points
    coincide, or the segment is parallel to either reference direction.
    """
    to_basis = basis_map(u, v)
    hx, hy = (b.x - a.x) / 2.0, (b.y - a.y) / 2.0
    scale = max(1.0, abs(a.x), abs(a.y), abs(b.x), abs(b.y))
    if math.hypot(hx, hy) <= ABS_EPS * scale:
        raise DegenerateConfiguration("segment endpoints coincide")
    h = DirectionVector(hx, hy)
    if is_parallel(h, v):
        raise DegenerateConfiguration("segment is parallel to the v direction")
    if is_parallel(h, u):
        raise DegenerateConfiguration("segment is parallel to the u direction")
    # With (s, t) the (u, v) coordinates of h, the linear part sends (u, v)
    # coordinates (x, y) to (x/(2s) + y/(2t), x/(2s) - y/(2t)); it is composed
    # with to_basis here, entry by entry.
    f = to_basis
    p = 0.5 / (f.xx * hx + f.xy * hy)  # 1/(2s)
    q = 0.5 / (f.yx * hx + f.yy * hy)  # 1/(2t)
    xx, xy = p * f.xx + q * f.yx, p * f.xy + q * f.yy
    yx, yy = p * f.xx - q * f.yx, p * f.xy - q * f.yy
    mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
    return AffineMap(xx, xy, yx, yy, -(xx * mx + xy * my), -(yx * mx + yy * my))
