"""Tolerance tests decide at the inputs' own scale.

Every tolerance test of the area-ratio oracles, the vertex and line tests and
the on-curve test compares a quantity with the inputs it is formed from, with
no absolute floor.  Scaling the plane by 2^k is exact in binary floating point
while the values stay normal floats, so a configuration and its 2^k-scaled
copy get the same verdict: the same error class and message, the same bits for
the scale-free values, and results that scale by exactly 2^k or 2^(2k).
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import direction_pair, log_uniform, random_vertex, unit_direction
from uvangle import (
    AxisHyperbola,
    DirectionVector,
    Line,
    Point,
    Ray,
    area_cross_ratio,
    midpoint_ray,
    sigma_lambda,
    sigma_sign,
)
from uvangle.errors import GeometryError, NotOnCurve
from uvangle.power_theorem import projected_areas

# Relative sizes of a perturbation: they straddle REL_EPS = 1e-9 and ON_CURVE_TOL = 1e-7.
SIZES = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


def _scaled(p: Point, k: int) -> Point:
    return Point(math.ldexp(p.x, k), math.ldexp(p.y, k))


def _moved(rng: random.Random, p: Point) -> Point:
    """p, or one time in four p moved by one of SIZES times its largest coordinate."""
    d = unit_direction(rng)
    r = rng.choice(SIZES) * max(abs(p.x), abs(p.y)) if rng.random() < 0.25 else 0.0
    return Point(p.x + r * d.dx, p.y + r * d.dy)


def _turned(d: DirectionVector, angle: float) -> DirectionVector:
    return DirectionVector(d.dx - angle * d.dy, d.dy + angle * d.dx)


def _outcome(function, *args):
    """The result, or the error class and message."""
    try:
        return function(*args)
    except (ValueError, GeometryError) as exc:
        return type(exc), str(exc)


def _configuration(rng: random.Random):
    """A vertex, a reference pair, its lines, four rays and an auxiliary line at k = 0.

    Ray origins and the line of U are sometimes moved off the vertex.  Ray
    directions are random, turned off u or v by less or more than PAR_EPS and
    REL_EPS, parallel to the auxiliary line, or repeated.
    """
    o = random_vertex(rng)
    dirs = direction_pair(rng)
    u_line = Line(_moved(rng, o), dirs.u)
    v_line = Line(o, dirs.v)
    w = unit_direction(rng)
    size = rng.choice((0.0, 1e-7, 1e-3, 1.0)) * max(abs(o.x), abs(o.y))
    aux = Line(Point(o.x + size * w.dx, o.y + size * w.dy), unit_direction(rng))
    directions: list[DirectionVector] = []
    for _ in range(4):
        kind = rng.randrange(5)
        if kind == 0:
            d = _turned(rng.choice((dirs.u, dirs.v)), rng.choice((5e-11, 5e-10, 2e-9, 1e-6)))
        elif kind == 1:
            d = aux.dir
        elif kind == 2 and directions:
            d = rng.choice(directions)
        else:
            d = unit_direction(rng)
        directions.append(d)
    rays = [Ray(_moved(rng, o), d) for d in directions]
    return o, dirs, u_line, v_line, rays, aux


def _scaled_line(line: Line, k: int) -> Line:
    return Line(_scaled(line.base, k), line.dir)


def _scaled_ray(ray: Ray, k: int) -> Ray:
    return Ray(_scaled(ray.origin, k), ray.dir)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300))
@example(seed=0, k=-300)
@example(seed=0, k=300)
def test_area_ratio_verdicts_are_scale_free(seed, k):
    o, dirs, u_line, v_line, rays, aux = _configuration(random.Random(seed))
    o_k, u_k, v_k, aux_k = (_scaled(o, k), _scaled_line(u_line, k), _scaled_line(v_line, k),
                            _scaled_line(aux, k))
    rays_k = [_scaled_ray(ray, k) for ray in rays]

    # Line.contains: the vertex on the moved line of U, a ray origin on the line of V.
    assert u_k.contains(o_k) == u_line.contains(o)
    assert v_k.contains(rays_k[0].origin) == v_line.contains(rays[0].origin)

    midpoint = _outcome(midpoint_ray, o, rays[0], rays[1], dirs)
    if isinstance(midpoint, Ray):
        midpoint = _scaled_ray(midpoint, k)
    assert repr(_outcome(midpoint_ray, o_k, rays_k[0], rays_k[1], dirs)) == repr(midpoint)

    for ray, ray_k in zip(rays, rays_k):
        for function in (sigma_lambda, sigma_sign):
            assert repr(_outcome(function, o_k, ray_k, u_k, v_k, aux_k)) == \
                repr(_outcome(function, o, ray, u_line, v_line, aux))
    assert repr(_outcome(area_cross_ratio, *rays_k, o_k, aux_k)) == \
        repr(_outcome(area_cross_ratio, *rays, o, aux))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300))
@example(seed=0, k=-300)
@example(seed=0, k=300)
def test_projected_areas_scale_with_the_curve(seed, k):
    # The curve's center and points scale by 2^k and kappa by 2^(2k); the frame
    # directions stay, so frame coordinates scale by 2^k and the areas by 2^(2k).
    rng = random.Random(seed)
    dirs = direction_pair(rng)
    center = random_vertex(rng, -3.0, 3.0)
    kappa = log_uniform(rng, 0.2, 5.0)
    h = AxisHyperbola.from_directions(center, kappa, dirs.u, dirs.v)
    h_k = AxisHyperbola.from_directions(
        _scaled(center, k), math.ldexp(kappa, 2 * k), dirs.u, dirs.v
    )
    alpha = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.1, 10.0)
    a = h.plane_point(alpha * (1.0 + rng.choice(SIZES)), kappa / alpha)
    p = random_vertex(rng, -4.0, 4.0)
    try:
        areas = projected_areas(p, a, h)
    except NotOnCurve as exc:
        residual = float(str(exc).rsplit(" ", 1)[1].rstrip(")"))
        message = f"point is not on the hyperbola (residual {math.ldexp(residual, 2 * k)!r})"
        with pytest.raises(NotOnCurve) as info:
            projected_areas(_scaled(p, k), _scaled(a, k), h_k)
        assert str(info.value) == message
        return
    # |k| <= 300 keeps every area of these curves a normal float or 0.
    expected = tuple(math.ldexp(area, 2 * k) for area in areas)
    assert repr(projected_areas(_scaled(p, k), _scaled(a, k), h_k)) == repr(expected)
