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
    if abs(residual) > ON_CURVE_TOL * max(abs(x * y), h.kappa):
        raise NotOnCurve(f"point is not on the hyperbola (residual {residual!r})")
    if abs(y) < abs(x):
        y = h.kappa / x
    elif y != 0.0:
        x = h.kappa / y
    return x, y


def asymptotic_projections(a: Point, h: AxisHyperbola) -> tuple[Point, Point]:
    """Projections of a curve point onto the two asymptotes, each along the other."""
    x, y = _require_on_curve(a, h)
    # plane_point adds the center: adding -0.0 leaves every float unchanged,
    # while adding +0.0 would turn a -0.0 center coordinate into +0.0.
    return h.plane_point(x, -0.0), h.plane_point(-0.0, y)


def projected_areas(p: Point, a: Point, h: AxisHyperbola) -> tuple[float, float]:
    """Parallelogram areas of (a - p) with (a_1 - p) and with (a_2 - p), in frame coordinates."""
    x, y = _require_on_curve(a, h)
    px, py = h.relative_coords(p)
    ax, ay = x - px, y - py
    # a_1 - p = (ax, -py) and a_2 - p = (-px, ay) in frame coordinates.
    return abs(ax * -py - ay * ax), abs(ax * ay - ay * -px)


def symmetric_area(p: Point, a: Point, h: AxisHyperbola) -> float:
    """Geometric mean of the two projected areas."""
    s1, s2 = projected_areas(p, a, h)
    return math.sqrt(s1 * s2)


def one_sided_identity(
    p: Point, secant: DirectionVector, h: AxisHyperbola
) -> tuple[float, float, float]:
    """(S_PA*S_PB, S(P,A1)*S(P,B1), S(P,A2)*S(P,B2)) for one secant; all three agree."""
    result = secant_intersections(p, secant, h)
    a1, a2 = projected_areas(p, result.a, h)
    b1, b2 = projected_areas(p, result.b, h)
    return math.sqrt(a1 * a2) * math.sqrt(b1 * b2), a1 * b1, a2 * b2
