"""The direction-pair angle, computed from (u, v) slopes.

Fix a vertex O and two independent reference directions (u, v).  In the
(u, v) coordinates d = alpha*u + beta*v of a ray direction, an auxiliary
line meeting the line of u at O + a*u and the line of v at O + b*v gives
the paper's area ratio sigma = -(a/b) * m with the slope m = beta/alpha.
The angle between rays OA and OB is therefore 0.5 * log(m_A / m_B), real
exactly when the two slopes have the same sign, and no auxiliary line is
built.  The area-ratio definitions live in ``area_ratio`` as test oracles;
their public names resolve here on first access.
"""

import math

from .errors import ComponentMismatch
from .kernel import (
    AffineMap,
    DirectionPair,
    DirectionVector,
    Point,
    Ray,
    _Frozen,
    _require_vertex,
    _same_sign,
    _slope,
    _slope_pair,
    _slot_setters,
    dot,
    is_parallel,
    slope_cross_ratio_angle,
)

# The public names of ``area_ratio``, kept importable from here.
_AREA_RATIO = ("ComponentLabel", "SigmaValue", "area_cross_ratio", "sigma_lambda", "sigma_sign")


def __getattr__(name: str):
    if name in _AREA_RATIO:
        from . import area_ratio

        value = globals()[name] = getattr(area_ratio, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class AngleResult(_Frozen):
    """A real angle value, or a non-real marker with a component diagnosis."""

    __slots__ = ("theta", "reason")

    def __init__(self, theta: float | None, reason: str | None = None) -> None:
        _set_result_theta(self, theta)
        _set_result_reason(self, reason)

    @classmethod
    def non_real(cls, reason: str) -> "AngleResult":
        return cls(None, reason)

    @property
    def is_real(self) -> bool:
        return self.theta is not None


_set_result_theta, _set_result_reason = _slot_setters(AngleResult)


def affine_angle(o: Point, a: Point, b: Point, dirs: DirectionPair) -> AngleResult:
    """Half the log of the area-ratio quotient for rays OA, OB; NonReal across components."""
    m_a, m_b = _slope_pair(o, a, b, dirs)
    if not _same_sign(m_a, m_b):
        # Signs of sigma on the auxiliary line through O + u + v, where sigma = -m.
        sign_a = "-" if m_a > 0 else "+"
        sign_b = "-" if m_b > 0 else "+"
        return AngleResult.non_real(
            f"rays OA, OB lie in different components (sigma signs {sign_a}, {sign_b})"
        )
    return AngleResult(slope_cross_ratio_angle(m_a, m_b))


def is_same_component(o: Point, a: Point, b: Point, dirs: DirectionPair) -> bool:
    """True iff the two area ratios (equivalently, the two slopes) have the same sign."""
    m_a, m_b = _slope_pair(o, a, b, dirs)
    return _same_sign(m_a, m_b)


def midpoint_ray(o: Point, r: Ray, s: Ray, dirs: DirectionPair) -> Ray:
    """The unique ray bisecting the angle between r and s inside their component.

    In basis coordinates the area ratio is proportional to the slope, so the
    bisector carries the geometric mean of the two slopes.  The mean is built
    from their mantissas and exponents, so it neither overflows nor
    underflows, and it has the bits of sqrt(m_r*m_s) wherever that product
    is a normal float.  Raises ComponentMismatch across components.
    """
    _require_vertex(r, o)
    _require_vertex(s, o)
    m_r = _slope(r.dir.dx, r.dir.dy, dirs, "r")
    m_s = _slope(s.dir.dx, s.dir.dy, dirs, "s")
    if not _same_sign(m_r, m_s):
        raise ComponentMismatch("rays lie in different components")
    (f_r, e_r), (f_s, e_s) = math.frexp(abs(m_r)), math.frexp(abs(m_s))
    e = e_r + e_s
    m_t = math.copysign(math.ldexp(math.sqrt(math.ldexp(f_r * f_s, e % 2)), e // 2), m_r)
    d_t = DirectionVector(dirs.u.dx + m_t * dirs.v.dx, dirs.u.dy + m_t * dirs.v.dy)
    if dot(d_t, r.dir) < 0.0:
        d_t = d_t.scaled(-1.0)
    return Ray(o, d_t)


def _positive_eigenvalue(image: DirectionVector, d: DirectionVector) -> bool:
    """Whether the eigenvalue of d is positive, given d's image parallel to d.

    The sign is read off d's dominant coordinate and the same coordinate of
    the image, so no |d|^2 is formed; that square overflows past |d| ~ 1e154
    and underflows to 0 below |d| ~ 1e-162.
    """
    i, c = (image.dx, d.dx) if abs(d.dx) >= abs(d.dy) else (image.dy, d.dy)
    return (i > 0.0) == (c > 0.0)


def preserves_affine_angle(t: AffineMap, dirs: DirectionPair) -> bool:
    """True iff u and v are eigendirections of the linear part with same-sign eigenvalues."""
    try:
        image_u = t.apply_linear(dirs.u)
        image_v = t.apply_linear(dirs.v)
    except ValueError:
        return False
    if not is_parallel(image_u, dirs.u) or not is_parallel(image_v, dirs.v):
        return False
    return _positive_eigenvalue(image_u, dirs.u) == _positive_eigenvalue(image_v, dirs.v)
