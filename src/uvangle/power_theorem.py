"""The asymptotic symmetric areas of the power theorem, as checkers.

For a point P and a secant through it meeting an axis hyperbola at A and B,
the paper's power theorem says S_PA * S_PB = kappa * |core(P)|, where S_PA
is the geometric mean of the two parallelograms spanned by A - P and the
projections of A - P towards the asymptotes.  ``power.power`` evaluates the
right-hand side directly; the functions here build the left-hand side from
the curve points, so tests can check the theorem.
"""

from __future__ import annotations

import math

from .errors import NotOnCurve
from .kernel import ON_CURVE_TOL, DirectionVector, Point
from .power import AxisHyperbola, secant_intersections


def _require_on_curve(p: Point, h: AxisHyperbola) -> tuple[float, float]:
    """Center-relative frame coordinates of the curve point p, snapped onto x*y = kappa.

    A curve point far out along one asymptote has one tiny frame coordinate.
    Its plane coordinates carry that one only to about eps * |p| absolute, so
    it is recomputed as kappa over the other, which they carry to eps relative.
    """
    x, y = h.relative_coords(p)
    residual = x * y - h.kappa
    if abs(residual) > ON_CURVE_TOL * max(1.0, abs(x * y), h.kappa):
        raise NotOnCurve(f"point is not on the hyperbola (residual {residual!r})")
    if abs(y) < abs(x):
        y = h.kappa / x
    elif y != 0.0:
        x = h.kappa / y
    return x, y


def asymptotic_projections(a: Point, h: AxisHyperbola) -> tuple[Point, Point]:
    """Projections of a curve point onto the two asymptotes, each along the other."""
    x, y = _require_on_curve(a, h)
    c, d = h._frame_center
    a1 = h._inverse.apply_point(Point(c + x, d))
    a2 = h._inverse.apply_point(Point(c, d + y))
    return a1, a2


def projected_area(p: Point, a: Point, which: int, h: AxisHyperbola) -> float:
    """Parallelogram area of (a - p) with (a_i - p), measured in frame coordinates."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    x, y = _require_on_curve(a, h)
    px, py = h.relative_coords(p)
    ax, ay = x - px, y - py
    if which == 1:
        bx, by = x - px, -py
    else:
        bx, by = -px, y - py
    return abs(ax * by - ay * bx)


def symmetric_area(p: Point, a: Point, h: AxisHyperbola) -> float:
    """Geometric mean of the two projected areas."""
    return math.sqrt(projected_area(p, a, 1, h) * projected_area(p, a, 2, h))


def one_sided_identity(
    p: Point, secant: DirectionVector, h: AxisHyperbola
) -> tuple[float, float, float]:
    """(S_PA*S_PB, S(P,A1)*S(P,B1), S(P,A2)*S(P,B2)) for one secant; all three agree."""
    result = secant_intersections(p, secant, h)
    lhs = symmetric_area(p, result.a, h) * symmetric_area(p, result.b, h)
    mid1 = projected_area(p, result.a, 1, h) * projected_area(p, result.b, 1, h)
    mid2 = projected_area(p, result.a, 2, h) * projected_area(p, result.b, 2, h)
    return lhs, mid1, mid2
