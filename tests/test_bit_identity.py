"""In-process bit identity of the library entry points on seeded sheared frames.

``sweep(seed, groups)`` draws ``groups`` random configurations per family
(angle, isoptic, power) on sheared, non-unit frames and returns one line per
call: the call's name, then every float of its result as ``float.hex``, or
the error class and message.  The test compares the lines with
``tests/golden/inprocess_sweep.txt`` and names the first call that differs,
so a refactor that moves any result by one ulp, or changes an error, fails
there.

After those groups, an area-ratio family draws its own configurations from a
second generator: reference lines U and V (one of them based off the
vertex), an auxiliary line, and four rays, some exactly parallel to u or v
and some within 0, 1e-13, 1e-11 or 1e-9 of the auxiliary direction, each
recorded through ``sigma_lambda``, ``sigma_sign`` and ``area_cross_ratio``.

``edges()`` is a fixed list of boundary calls the random sweep never reaches,
compared with ``tests/golden/inprocess_edges.txt`` the same way: rays
exactly parallel to u or v and within ``PAR_EPS`` of them, a vertex equal to
A or B, overflowing offsets, (u, v) coordinates that underflow or overflow,
components and midpoints, secants parallel to an asymptote or tangent,
kappa < 0 on general and singular frames, every radical-axis error, and the
first-order limit with default and given t sequences, and ``sample_locus``
at odd and even n, next to A and B, at |theta| = THETA_MAX and on frames
scaled by 2^k.  Then the area ratios: an auxiliary line through the vertex,
parallel to U, V or the ray (exactly and within ``PAR_EPS``), intersections
that coincide, rays parallel to U or V, areas that underflow near the
vertex, an intersection that overflows, and frames scaled by 2^k; and the
radical center: identical and concentric pairs in either place, each
finiteness guard of an axis, axes that meet out of range, and centers scaled
by 2^k.  Each error's class and message are pinned, and so is which
of two errors a call raises first.  A locus of more than ten samples is
recorded as its count, its number of admissible samples and the SHA-256 of
its formatted samples, so the golden stays small.

To recapture both after an intended change of results:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "inprocess_sweep.txt"
EDGE_GOLDEN = Path(__file__).parent / "golden" / "inprocess_edges.txt"
SEED = 8
GROUPS = 100


def _fmt(value) -> str:
    from uvangle import (
        AffineMap,
        AngleResult,
        AxisHyperbola,
        ComponentLabel,
        IsopticCurve,
        LimitReport,
        Line,
        Point,
        Ray,
        SecantResult,
        SigmaValue,
    )

    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Point):
        return f"({value.x.hex()},{value.y.hex()})"
    if isinstance(value, (Line, Ray)):
        base = value.base if isinstance(value, Line) else value.origin
        return f"{_fmt(base)}+{_fmt((value.dir.dx, value.dir.dy))}"
    if isinstance(value, AngleResult):
        return _fmt(value.theta) if value.is_real else f"nonreal {value.reason}"
    if isinstance(value, SecantResult):
        return _fmt((value.a, value.b, value.alpha, value.beta, value.tangent))
    if isinstance(value, IsopticCurve):
        f = value.frame
        return _fmt((
            value.normalized_conic.as_tuple(),
            value.beta,
            (f.xx, f.xy, f.yx, f.yy, f.tx, f.ty),
            value.original_conic.as_tuple(),
        ))
    if isinstance(value, AffineMap):
        return _fmt((value.xx, value.xy, value.yx, value.yy, value.tx, value.ty))
    if isinstance(value, AxisHyperbola):
        # The derived inverse and frame center carry the zero signs of kappa < 0.
        return _fmt((value.center, value.kappa, value.frame, value._inverse, value._frame_center))
    if isinstance(value, SigmaValue):
        return _fmt((value.value, value.infinite))
    if isinstance(value, ComponentLabel):
        return value.value
    if isinstance(value, LimitReport):
        return _fmt((value.samples, value.extrapolated_limit, value.residual_order))
    if isinstance(value, (tuple, list)):
        return "[" + " ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"no format for {type(value).__name__}")


def _record(lines: list[str], name: str, call, fmt=_fmt) -> None:
    try:
        text = fmt(call())
    except Exception as exc:  # the class and message are part of the result
        text = f"{type(exc).__name__}: {exc}"
    lines.append(f"{len(lines):05d} {name} {text}")


def _scale(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))


def _direction(rng: random.Random):
    from uvangle import DirectionVector

    phi = rng.uniform(0.0, math.tau)
    s = _scale(rng)
    return DirectionVector(s * math.cos(phi), s * math.sin(phi))


def _point(rng: random.Random, spread: float = 3.0):
    from uvangle import Point

    return Point(rng.uniform(-spread, spread), rng.uniform(-spread, spread))


def _dirs(rng: random.Random):
    from uvangle import DirectionPair, cross

    while True:
        u, v = _direction(rng), _direction(rng)
        if abs(cross(u, v)) > 0.05 * u.norm * v.norm:
            return DirectionPair(u, v)


def _angle_group(rng: random.Random, lines: list[str]) -> None:
    from uvangle import Point, Ray, affine_angle, midpoint_ray, sector_area_equivalence

    dirs = _dirs(rng)
    o = _point(rng)
    s = _scale(rng)
    a = Point(o.x + s * rng.uniform(-1, 1), o.y + s * rng.uniform(-1, 1))
    b = Point(o.x + s * rng.uniform(-1, 1), o.y + s * rng.uniform(-1, 1))
    _record(lines, "affine_angle", lambda: affine_angle(o, a, b, dirs))
    _record(lines, "sector_area_equivalence", lambda: sector_area_equivalence(o, a, b, dirs))
    r = Ray(o, _direction(rng))
    t = Ray(o, _direction(rng))
    _record(lines, "midpoint_ray", lambda: midpoint_ray(o, r, t, dirs))


def _isoptic_group(rng: random.Random, lines: list[str]) -> None:
    from uvangle import IsopticSpec, Point, is_admissible, isoptic_curve, sample_locus

    dirs = _dirs(rng)
    a = _point(rng)
    s = _scale(rng)
    b = Point(a.x + s * rng.uniform(-1, 1), a.y + s * rng.uniform(-1, 1))
    # Log-uniform |theta| in [1e-7, 800] reaches both THETA_MIN and THETA_MAX.
    theta = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-7), math.log(800.0)))
    try:
        spec = IsopticSpec(a, b, dirs, theta)
    except Exception as exc:
        lines.append(f"{len(lines):05d} IsopticSpec {type(exc).__name__}: {exc}")
        return
    _record(lines, "isoptic_curve", lambda: isoptic_curve(spec))
    n = rng.choice((2, 3, 5))
    _record(lines, "sample_locus", lambda: sample_locus(spec, n))
    p = Point(a.x + s * rng.uniform(-3, 3), a.y + s * rng.uniform(-3, 3))
    _record(lines, "is_admissible", lambda: is_admissible(p, spec))


def _power_group(rng: random.Random, lines: list[str]) -> None:
    from uvangle import (
        AffineMap,
        AxisHyperbola,
        power,
        radical_axis,
        radical_center,
        secant_intersections,
    )
    from uvangle.power_theorem import asymptotic_projections

    dirs = _dirs(rng)

    def kappa() -> float:
        return rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(0.1), math.log(10.0)))

    curves = [
        AxisHyperbola.from_directions(_point(rng), kappa(), dirs.u, dirs.v) for _ in range(3)
    ]
    # The same asymptotes with the frame axes swapped.
    swapped = AxisHyperbola.from_directions(_point(rng), kappa(), dirs.v, dirs.u)
    # One curve on a general frame with a translation part.
    entries = [rng.uniform(-2.0, 2.0) for _ in range(6)]
    while abs(entries[0] * entries[3] - entries[1] * entries[2]) < 0.05:
        entries = [rng.uniform(-2.0, 2.0) for _ in range(6)]
    general = AxisHyperbola(_point(rng), kappa(), AffineMap(*entries))
    p = _point(rng, 4.0)
    for h in (curves[0], general):
        _record(lines, "power", lambda: power(p, h))
        d = _direction(rng)
        _record(lines, "secant_intersections", lambda: secant_intersections(p, d, h))
        alpha = rng.choice((-1.0, 1.0)) * _scale(rng)
        _record(lines, "point_at", lambda: h.point_at(alpha))
        _record(
            lines, "asymptotic_projections", lambda: asymptotic_projections(h.point_at(alpha), h)
        )
    _record(lines, "radical_axis", lambda: radical_axis(curves[0], curves[1]))
    _record(lines, "radical_axis", lambda: radical_axis(swapped, curves[2]))
    _record(lines, "radical_center", lambda: radical_center(*curves))


def _area_group(rng: random.Random, lines: list[str]) -> None:
    from uvangle import (
        DirectionVector,
        Line,
        Point,
        Ray,
        area_cross_ratio,
        sigma_lambda,
        sigma_sign,
    )

    dirs = _dirs(rng)
    u, v = dirs.u, dirs.v
    o = _point(rng)
    k = rng.uniform(-2.0, 2.0)
    u_line, v_line = Line(Point(o.x + k * u.dx, o.y + k * u.dy), u), Line(o, v)
    s = _scale(rng)
    w = _direction(rng)
    aux = Line(Point(o.x + s * rng.uniform(-1, 1), o.y + s * rng.uniform(-1, 1)), w)
    rays = []
    for _ in range(4):
        kind = rng.random()
        if kind < 0.1:  # exactly parallel to u or v
            d = rng.choice((u, v)).scaled(rng.choice((-1.0, 1.0)) * _scale(rng))
        elif kind < 0.3:  # parallel to the auxiliary line, or within e of it
            e = rng.choice((0.0, 1e-13, 1e-11, 1e-9))
            d = w.scaled(rng.choice((-1.0, 1.0)) * _scale(rng))
            d = DirectionVector(d.dx - e * d.dy, d.dy + e * d.dx)
        else:
            d = _direction(rng)
        rays.append(Ray(o, d))
    for ray in rays[:2]:
        _record(lines, "sigma_lambda", lambda: sigma_lambda(o, ray, u_line, v_line, aux))
        _record(lines, "sigma_sign", lambda: sigma_sign(o, ray, u_line, v_line, aux))
    _record(lines, "area_cross_ratio", lambda: area_cross_ratio(*rays, o, aux))


def sweep(seed: int = SEED, groups: int = GROUPS) -> list[str]:
    rng = random.Random(seed)
    lines: list[str] = []
    for _ in range(groups):
        _angle_group(rng, lines)
        _isoptic_group(rng, lines)
        _power_group(rng, lines)
    area_rng = random.Random(f"area ratios {seed}")
    for _ in range(groups):
        _area_group(area_rng, lines)
    return lines


def _edge_angles(lines: list[str]) -> None:
    from uvangle import (
        AffineMap,
        DirectionPair,
        DirectionVector,
        Point,
        Ray,
        affine_angle,
        is_same_component,
        midpoint_ray,
        preserves_affine_angle,
        sector_area_equivalence,
    )
    from uvangle.kernel import _slope

    u, v = DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5)
    dirs = DirectionPair(u, v)
    o = Point(0.5, -0.25)
    b = Point(3.0, 1.5)

    def off(dx: float, dy: float):
        return Point(o.x + dx, o.y + dy)

    # Offsets along u and v, then tilted by e: the sine to that direction is about |e|.
    near = [("u", u, (-0.5, 2.0)), ("v", v, (1.5, 0.6))]
    for name, d, (nx, ny) in near:
        for e in (0.0, 5e-11, -9e-11, 9.9e-11, 1.01e-10, -1.1e-10, 2e-10, 1e-9):
            a = off(d.dx + e * nx, d.dy + e * ny)
            _record(lines, f"affine_angle near-{name} {e!r}", lambda: affine_angle(o, a, b, dirs))
            _record(lines, f"affine_angle near-{name} {e!r} as B",
                    lambda: affine_angle(o, b, a, dirs))
            _record(lines, f"ray_slope near-{name} {e!r}",
                    lambda: _slope(a.x - o.x, a.y - o.y, dirs, "d"))
    on_u, on_v = off(2.0, 0.5), off(-0.6, 1.5)
    overflow = [Point(-1e308, 1.0), Point(1e308, 1.0)]  # vertex, point: the offset is inf
    cases = [
        ("A=O", o, o, b),
        ("B=O", o, b, o),
        ("A=B=O", o, o, o),
        ("A=O, B on u", o, o, on_u),
        ("A on u, B=O", o, on_u, o),
        ("A on v, B on u", o, on_v, on_u),
        ("A overflows", overflow[0], overflow[1], Point(0.0, 1.0)),
        ("A overflows, B=O", overflow[0], overflow[1], overflow[0]),
        ("A on u, B overflows", overflow[0], Point(-1e308 + 2e292, 1.0 + 5e291), overflow[1]),
        ("other component", o, b, off(-1.0, 2.0)),
        ("same ray", o, b, b),
        ("opposite rays", o, b, off(o.x - b.x, o.y - b.y)),
    ]
    for name, vertex, a, bb in cases:
        _record(lines, f"affine_angle {name}", lambda: affine_angle(vertex, a, bb, dirs))
        _record(lines, f"is_same_component {name}", lambda: is_same_component(vertex, a, bb, dirs))
        _record(lines, f"sector_area_equivalence {name}",
                lambda: sector_area_equivalence(vertex, a, bb, dirs))

    # (u, v) coordinates that underflow or overflow in frames of extreme scale.
    alpha_underflows = (  # ray OA's alpha is 0 although OA is parallel to neither direction
        Point(-1e-200, 2.0), Point(2.2250738585072014e-308, 2.0), Point(2.0, -3.0),
        DirectionPair(DirectionVector(-3.0, 1e308), DirectionVector(-0.25, 0.5)),
    )
    tiny = DirectionPair(DirectionVector(1e200, 0.0), DirectionVector(0.0, 1e100))
    small = DirectionPair(DirectionVector(0.1, 0.0), DirectionVector(0.0, 0.1))
    zero = Point(0.0, 0.0)
    scaled = [
        ("alpha underflows", *alpha_underflows),
        ("alpha underflows as B", alpha_underflows[0], alpha_underflows[2],
         alpha_underflows[1], alpha_underflows[3]),
        ("both coordinates underflow", zero, Point(1e-250, 1e-250), Point(1.0, 2.0), tiny),
        ("both coordinates underflow as B", zero, Point(1.0, 2.0), Point(1e-250, 1e-250), tiny),
        ("coordinates overflow", zero, Point(1e308, 1e307), Point(1.0, 2.0), small),
        ("coordinates overflow, B on u", zero, Point(1e308, 1e307), Point(1.0, 0.0), small),
        ("A on u, coordinates of B overflow", zero, Point(1.0, 0.0), Point(1e308, 1e307), small),
        ("beta overflows", zero, Point(1e307, 1e308), Point(1.0, 2.0), small),
    ]
    for name, vertex, a, bb, pair in scaled:
        _record(lines, f"affine_angle {name}", lambda: affine_angle(vertex, a, bb, pair))
        _record(lines, f"is_same_component {name}", lambda: is_same_component(vertex, a, bb, pair))

    def ray(dx: float, dy: float):
        return Ray(o, DirectionVector(dx, dy))

    r = ray(3.0, 2.0)
    rays = [
        ("same component", r, ray(1.0, 1.5)),
        ("reversed pair", ray(-3.0, -2.0), ray(-1.0, -1.5)),
        ("mixed orientation", r, ray(-1.0, -1.5)),
        ("equal rays", r, r),
        ("other component", r, ray(-1.0, 2.0)),
        ("r on u", ray(2.0, 0.5), r),
        ("s on v", r, ray(-0.6, 1.5)),
        ("r near u", ray(2.0 - 9e-11 * 0.5, 0.5 + 9e-11 * 2.0), r),
        ("r off the vertex", Ray(Point(0.5, -0.2), DirectionVector(3.0, 2.0)), r),
        ("s off the vertex", r, Ray(Point(0.6, -0.25), DirectionVector(1.0, 1.5))),
        ("tiny directions", ray(3e-300, 2e-300), ray(1e-300, 1.5e-300)),
    ]
    for name, rr, ss in rays:
        _record(lines, f"midpoint_ray {name}", lambda: midpoint_ray(o, rr, ss, dirs))
    for name, pair, d in (
        ("alpha underflows", alpha_underflows[3], DirectionVector(1e-200, 0.0)),
        ("both coordinates underflow", tiny, DirectionVector(1e-250, 1e-250)),
    ):
        rr, ss = Ray(zero, d), Ray(zero, DirectionVector(1.0, 2.0))
        _record(lines, f"midpoint_ray {name}", lambda: midpoint_ray(zero, rr, ss, pair))
        _record(lines, f"midpoint_ray {name} as s", lambda: midpoint_ray(zero, ss, rr, pair))

    maps = [
        AffineMap(3.0, 0.0, 0.0, 3.0, 1.0, -2.0),
        AffineMap(2.0, 0.0, 0.0, -1.0),
        AffineMap(1.0, 0.7, 0.0, 1.0),
        AffineMap(1e308, 0.0, 0.0, 1e308),
    ]
    for t in maps:
        _record(lines, "preserves_affine_angle", lambda: preserves_affine_angle(t, dirs))


def _edge_kernel(lines: list[str]) -> None:
    from uvangle import (
        DirectionPair,
        DirectionVector,
        Line,
        Point,
        basis_map,
        intersect_lines,
        is_parallel,
        normalize_configuration,
    )

    u = DirectionVector(2.0, 0.5)
    for e in (0.0, 5e-11, -9.9e-11, 1.01e-10, -2e-10, 1e-9):
        w = DirectionVector(2.0 - e * 0.5, 0.5 + e * 2.0)
        _record(lines, f"is_parallel {e!r}", lambda: is_parallel(u, w))
        _record(lines, f"is_parallel reversed {e!r}", lambda: is_parallel(w.scaled(-3.0), u))
        _record(lines, f"basis_map {e!r}", lambda: basis_map(u, w))
        _record(lines, f"DirectionPair {e!r}", lambda: DirectionPair(u, w)._basis)
        _record(lines, f"intersect_lines {e!r}",
                lambda: intersect_lines(Line(Point(0.0, 1.0), u), Line(Point(1.0, 0.0), w)))
    pairs = [
        (DirectionVector(1.0, 0.0), DirectionVector(0.0, 1.0)),
        (DirectionVector(0.0, 1.0), DirectionVector(1.0, 0.0)),
        (DirectionVector(-0.0, 2.0), DirectionVector(3.0, -0.0)),
        (DirectionVector(1e200, 1.0), DirectionVector(1.0, 1e100)),
        (DirectionVector(1e-200, 1.0), DirectionVector(1.0, 1e-200)),
    ]
    for d1, d2 in pairs:
        _record(lines, "basis_map", lambda: basis_map(d1, d2))

    dirs = DirectionPair(u, DirectionVector(-0.6, 1.5))
    segments = [
        ("general", Point(0.3, -0.7), Point(2.1, 0.4), dirs),
        ("coincident", Point(0.3, -0.7), Point(0.3, -0.7), dirs),
        ("parallel to u", Point(0.0, 0.0), Point(2.0, 0.5), dirs),
        ("parallel to v", Point(0.0, 0.0), Point(-0.6, 1.5), dirs),
        ("s underflows", Point(-2.1e-22, -2e-12), Point(2.1e-22, 2e-12),
         DirectionPair(DirectionVector(1.7e308, 0.0), DirectionVector(0.0, 1.0))),
        ("t underflows", Point(-2e-12, -2.1e-22), Point(2e-12, 2.1e-22),
         DirectionPair(DirectionVector(1.0, 0.0), DirectionVector(0.0, 1.7e308))),
    ]
    for name, a, b, pair in segments:
        _record(lines, f"normalize_configuration {name}",
                lambda: normalize_configuration(a, b, pair))


def _edge_power(lines: list[str]) -> None:
    from helpers import axis_aligned
    from uvangle import (
        AffineMap,
        AxisHyperbola,
        DirectionVector,
        Point,
        core_quantity,
        power,
        radical_axis,
        radical_center,
        secant_intersections,
    )

    u, v = DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5)
    hyperbolas = {}

    def build(name: str, make) -> None:
        try:
            hyperbolas[name] = make()
        except Exception as exc:
            lines.append(f"{len(lines):05d} AxisHyperbola {name} {type(exc).__name__}: {exc}")
            return
        _record(lines, f"AxisHyperbola {name}", lambda: hyperbolas[name])

    center = Point(0.5, -1.0)
    general = AffineMap(0.8, -0.3, 0.4, 1.1, 0.2, -0.7)
    zeros = AffineMap(0.0, 2.0, -0.5, 0.0, 0.3, 0.0)
    for kappa in (1.5, -1.5):
        build(f"sheared {kappa!r}", lambda: AxisHyperbola.from_directions(center, kappa, u, v))
        build(f"swapped {kappa!r}", lambda: AxisHyperbola.from_directions(center, kappa, v, u))
        build(f"axis-aligned {kappa!r}", lambda: axis_aligned(center, kappa))
        build(f"general {kappa!r}", lambda: AxisHyperbola(center, kappa, general))
        build(f"zero entries {kappa!r}", lambda: AxisHyperbola(Point(0.0, -0.0), kappa, zeros))
        for name, frame in [
            ("singular", AffineMap(1.0, 2.0, 2.0, 4.0)),
            ("nearly singular", AffineMap(1.0, 2.0, 0.5, 1.0000000000001)),
            ("just invertible", AffineMap(1.0, 2.0, 0.5, 1.00000000001)),
            ("overflowing inverse", AffineMap(0.5, 0.0, 0.0, 0.5, 1e308, 0.0)),
            ("overflowing center", AffineMap(1e300, 0.0, 0.0, 1e300)),
        ]:
            build(f"{name} {kappa!r}", lambda: AxisHyperbola(Point(1e10, 1.0), kappa, frame))
    for kappa in (0.0, math.nan, math.inf):
        build(f"kappa {kappa!r}", lambda: axis_aligned(center, kappa))

    p = Point(2.0, 3.0)
    for name in ("sheared 1.5", "sheared -1.5", "general -1.5", "zero entries -1.5"):
        h = hyperbolas[name]
        _record(lines, f"power {name}", lambda: power(p, h))
        _record(lines, f"core_quantity {name}", lambda: core_quantity(p, h))
        _record(lines, f"core_quantity far {name}", lambda: core_quantity(Point(1e308, 1e308), h))
        for alpha in (0.5, -2.0, 1e-300):
            _record(lines, f"point_at {name} {alpha!r}", lambda: h.point_at(alpha))
        for d in (DirectionVector(1.0, 0.3), DirectionVector(-0.3, 1.0)):
            _record(lines, f"secant_intersections {name}", lambda: secant_intersections(p, d, h))

    h = hyperbolas["sheared 1.5"]
    n = (-0.5, 2.0)  # perpendicular to u
    for e in (0.0, 9e-11, 1.1e-10, 1e-8):
        d = DirectionVector(u.dx + e * n[0], u.dy + e * n[1])
        _record(lines, f"secant along u {e!r}", lambda: secant_intersections(p, d, h))
        _record(lines, f"secant along v {e!r}",
                lambda: secant_intersections(p, DirectionVector(v.dx + e, v.dy), h))
    # Tangent lines: through the curve point at abscissa a, along u - (kappa/a^2) v.
    for a in (1.0, -0.7, 3.0):
        m = h.kappa / (a * a)
        d = DirectionVector(u.dx - m * v.dx, u.dy - m * v.dy)
        q = h.point_at(a)
        for s in (0.0, 1.0, -2.5):
            _record(lines, f"tangent secant {a!r} {s!r}",
                    lambda: secant_intersections(Point(q.x + s * d.dx, q.y + s * d.dy), d, h))
    misc = [
        ("misses", Point(0.5, -1.0), DirectionVector(1.0, -0.1)),
        ("underflowing direction", p, DirectionVector(5e-324, 0.0)),
        ("overflowing point", Point(1e308, 1e308), DirectionVector(1.0, 0.3)),
        ("overflowing direction", p, DirectionVector(1e308, -1e308)),
    ]
    for name, q, d in misc:
        _record(lines, f"secant_intersections {name}", lambda: secant_intersections(q, d, h))

    sheared = [AxisHyperbola.from_directions(c, k, u, v) for c, k in [
        (Point(0.0, 0.0), 1.0), (Point(-1.0, -0.5), 3.0), (Point(1.0, 2.0), -2.0),
        (Point(0.0, 0.0), -1.0), (Point(2.0, 4.0), 1.0), (Point(4.0, 8.0), 2.0),
    ]]
    axes = [
        ("identical", hyperbolas["sheared 1.5"], hyperbolas["sheared 1.5"]),
        ("identical reflected", hyperbolas["sheared -1.5"], hyperbolas["sheared -1.5"]),
        ("same curve, swapped frame", hyperbolas["sheared 1.5"], hyperbolas["swapped 1.5"]),
        ("empty", hyperbolas["sheared 1.5"], hyperbolas["sheared -1.5"]),
        ("empty, other kappa", sheared[0], sheared[3]),
        ("nonlinear", hyperbolas["sheared 1.5"], hyperbolas["general 1.5"]),
        ("nonlinear reflected", hyperbolas["general -1.5"], hyperbolas["sheared -1.5"]),
        ("axis-aligned", hyperbolas["axis-aligned 1.5"], hyperbolas["axis-aligned -1.5"]),
        ("general", sheared[1], sheared[2]),
        ("swapped", hyperbolas["swapped -1.5"], sheared[2]),
        ("zero entries", hyperbolas["zero entries 1.5"], hyperbolas["zero entries -1.5"]),
        ("zero entries, shifted", hyperbolas["zero entries -1.5"],
         AxisHyperbola(Point(1.0, 0.0), -2.0, zeros)),
    ]
    for name, h1, h2 in axes:
        _record(lines, f"radical_axis {name}", lambda: radical_axis(h1, h2))
    centers = [
        ("general", sheared[0], sheared[1], sheared[2]),
        ("reflected", sheared[2], sheared[3], sheared[1]),
        ("shared center", sheared[0], sheared[3], sheared[1]),
        ("collinear centers", sheared[0], sheared[4], sheared[5]),
        ("nonlinear", sheared[0], sheared[1], hyperbolas["general 1.5"]),
    ]
    for name, h1, h2, h3 in centers:
        _record(lines, f"radical_center {name}", lambda: radical_center(h1, h2, h3))


def _edge_limit(lines: list[str]) -> None:
    from uvangle import SlopePair, degenerate_cross_ratio, first_order_limit

    sequences = [None, [0.1, 0.01], [1e-2], [0.2, 0.05, 1e-3, 1e-7], [0.25, 0.1]]
    for m1, m2 in [(2.0, 0.5), (2.0, 1.0), (-1.0, 3.0), (0.1, -0.1), (1e3, 2e3), (5.0, 5.0)]:
        m = SlopePair(m1, m2)
        for ts in sequences:
            _record(lines, f"first_order_limit {m1!r} {m2!r} {ts!r}",
                    lambda: first_order_limit(m, ts))
    m = SlopePair(2.0, 0.5)
    for ts in ([], [0.1, -0.01], [0.01, 0.01], [0.01, 0.1], [0.3]):
        _record(lines, f"first_order_limit {ts!r}", lambda: first_order_limit(m, ts))
    # The Richardson weight underflows before any sample is used.
    tiny = SlopePair(2.2250738585072014e-308, 0.5)
    _record(lines, "first_order_limit weight underflows",
            lambda: first_order_limit(tiny, [1e-200, 1e-300]))
    for t in (0.1, 0.49999999999999, 0.5, 1.0, 2.0, -0.5, 1e-3):
        _record(lines, f"degenerate_cross_ratio {t!r}", lambda: degenerate_cross_ratio(m, t))
    _record(lines, "SlopePair zero", lambda: SlopePair(0.0, 1.0))


def _digest(samples) -> str:
    admissible = sum(ok for _, ok in samples)
    digest = hashlib.sha256(_fmt(samples).encode()).hexdigest()
    return f"{len(samples)} samples, {admissible} admissible, sha256 {digest}"


def _edge_locus(lines: list[str]) -> None:
    from uvangle import (
        DirectionPair,
        DirectionVector,
        IsopticSpec,
        Point,
        is_admissible,
        sample_locus,
    )
    from uvangle.isoptic import THETA_MAX, THETA_MIN

    dirs = DirectionPair(DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5))
    a, b = Point(0.3, -0.7), Point(2.1, 0.4)

    def locus(name: str, spec, counts) -> None:
        for n in counts:
            fmt = _fmt if n <= 10 else _digest
            _record(lines, f"sample_locus {name} n={n}", lambda: sample_locus(spec, n), fmt)

    def spec_or_error(name: str, make):
        try:
            return make()
        except Exception as exc:
            lines.append(f"{len(lines):05d} IsopticSpec {name} {type(exc).__name__}: {exc}")
            return None

    for theta in (-1.3, 1.3):
        spec = IsopticSpec(a, b, dirs, theta)
        locus(f"sheared {theta!r}", spec, (2, 3, 4, 5, 8, 256, 257, 4096))
    # With span = |theta| + 2, the grid holds t = -theta and t = theta, whose samples are A
    # and B on the singular line pair: (theta, n) = (1, 7), (1, 8), (2, 9), (2, 10).
    for theta, counts in ((1.0, (7, 8)), (-1.0, (7, 8)), (2.0, (9, 10))):
        spec = IsopticSpec(a, b, dirs, theta)
        locus(f"through A and B {theta!r}", spec, counts)
    for name, p in (("A", a), ("B", b), ("near A", Point(a.x + 1e-12, a.y))):
        _record(lines, f"is_admissible at {name}",
                lambda: is_admissible(p, IsopticSpec(a, b, dirs, 1.0)))
    above, below = math.nextafter(THETA_MAX, math.inf), math.nextafter(THETA_MIN, 0.0)
    for theta in (THETA_MAX, -THETA_MAX, 707.9, THETA_MIN, -THETA_MIN, above, -above, below):
        spec = IsopticSpec(a, b, dirs, theta)
        locus(f"theta {theta!r}", spec, (2, 3, 4, 256, 257))
    # The sample-count test comes first, then the theta tests.
    for theta in (1.3, below, above):
        spec = IsopticSpec(a, b, dirs, theta)
        locus(f"theta {theta!r}", spec, (1, 0, -1))

    # Frames scaled by 2^k: the points, or the directions alone.
    for k in (-35, 200, 500):
        pa, pb = Point(math.ldexp(a.x, k), math.ldexp(a.y, k)), Point(
            math.ldexp(b.x, k), math.ldexp(b.y, k))
        spec = spec_or_error(f"points 2^{k}", lambda: IsopticSpec(pa, pb, dirs, -1.3))
        if spec is not None:
            locus(f"points 2^{k}", spec, (3, 4, 257))
    for k in (-500, 500):
        scaled = DirectionPair(
            DirectionVector(math.ldexp(2.0, k), math.ldexp(0.5, k)),
            DirectionVector(math.ldexp(-0.6, k), math.ldexp(1.5, k)),
        )
        spec = spec_or_error(f"directions 2^{k}", lambda: IsopticSpec(a, b, scaled, 2.5))
        if spec is not None:
            locus(f"directions 2^{k}", spec, (3, 4, 257))


def _edge_area(lines: list[str]) -> None:
    from uvangle import (
        DirectionVector,
        Line,
        Point,
        Ray,
        area_cross_ratio,
        sigma_lambda,
        sigma_sign,
    )

    def area(name: str, o, rays, u_line, v_line, aux) -> None:
        for i, ray in enumerate(rays[:2]):
            _record(lines, f"sigma_lambda {name} {i}",
                    lambda: sigma_lambda(o, ray, u_line, v_line, aux))
            _record(lines, f"sigma_sign {name} {i}",
                    lambda: sigma_sign(o, ray, u_line, v_line, aux))
        _record(lines, f"area_cross_ratio {name}", lambda: area_cross_ratio(*rays, o, aux))

    def tilt(d, e: float):
        """d turned by about e radians."""
        return DirectionVector(d.dx - e * d.dy, d.dy + e * d.dx)

    u, v = DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5)
    o = Point(0.5, -0.25)
    u_line, v_line = Line(Point(o.x - 3.0 * u.dx, o.y - 3.0 * u.dy), u), Line(o, v)
    w = DirectionVector(1.0, -2.0)
    aux = Line(Point(3.5, 0.75), w)
    ds = [DirectionVector(3.0, 2.0), DirectionVector(1.0, 1.5), DirectionVector(-1.0, 2.0),
          DirectionVector(0.5, -3.0)]

    def rays(*first):
        return [Ray(o, d) for d in (*first, *ds[len(first):])]

    area("general", o, rays(), u_line, v_line, aux)
    area("reversed rays", o, rays(*(d.scaled(-1.0) for d in ds)), u_line, v_line, aux)
    for c in (0.0, 1e-300):  # the auxiliary line through the vertex, or next to it
        area(f"aux through the vertex {c!r}", o, rays(),
             u_line, v_line, Line(Point(o.x + c, o.y), w))
    for e in (0.0, 5e-11, -9e-11, 2e-10, 1e-9):
        for name, d in (("U", u), ("V", v), ("ray", ds[0])):
            area(f"aux parallel to {name} {e!r}", o, rays(), u_line, v_line,
                 Line(aux.base, tilt(d, e)))
        for name, d in (("U", u), ("V", v)):
            area(f"ray parallel to {name} {e!r}", o, rays(tilt(d, e), tilt(d.scaled(-2.0), e)),
                 u_line, v_line, aux)
    # Equal rays and rays with equal intersections make entries of the cross ratio coincide.
    for name, picked in (
        ("equal rays 1 3", (ds[0], ds[1], ds[0], ds[3])),
        ("equal rays 1 4", (ds[0], ds[1], ds[2], ds[0])),
        ("equal rays 1 3, 2 4", (ds[0], ds[1], ds[0], ds[1])),
        ("opposite rays 1 3", (ds[0], ds[1], ds[0].scaled(-0.5), ds[3])),
        ("two rays along aux", (w, ds[1], w.scaled(-1.0), ds[3])),
        ("rays along aux 1 4", (w, ds[1], ds[2], w.scaled(3.0))),
    ):
        area(name, o, rays(*picked), u_line, v_line, aux)

    # The axes as U and V, the ray (1, 3) and an auxiliary line through (c, 0) along
    # (1, -1): the areas are normal at 1e-153, subnormal at 1e-155 and 0 at 1e-170.
    zero = Point(0.0, 0.0)
    x_axis, y_axis = Line(zero, DirectionVector(1.0, 0.0)), Line(zero, DirectionVector(0.0, 1.0))
    axes_rays = [Ray(zero, DirectionVector(*d)) for d in ((1.0, 3.0), (2.0, -1.0), (-1.0, 0.5),
                                                            (3.0, 1.0))]
    for c in (1e-153, 1e-155, 1e-162, 1e-170):
        area(f"underflowing areas {c!r}", zero, axes_rays, x_axis, y_axis,
             Line(Point(c, 0.0), DirectionVector(1.0, -1.0)))
    # The auxiliary line meets U at x = 2e308, which overflows.
    area("overflowing intersection", zero, axes_rays, x_axis, y_axis,
         Line(Point(1e308, 1e308), DirectionVector(1.0, -1.0)))
    area("overflowing intersection with the ray", zero, axes_rays[::-1], x_axis, y_axis,
         Line(Point(1e308, -1e308), DirectionVector(1.0, 1.0)))

    # Invalid input, in the order the tests run.
    area("U off the vertex", o, rays(), Line(Point(o.x, o.y + 1.0), u), v_line, aux)
    area("V off the vertex", o, rays(), u_line, Line(Point(o.x + 1.0, o.y), v), aux)
    area("U parallel to V", o, rays(), u_line, Line(o, u.scaled(-3.0)), aux)
    area("ray off the vertex", o, [Ray(Point(o.x, o.y + 1e-3), ds[0]), *rays()[1:]],
         u_line, v_line, aux)

    # The general configuration scaled by 2^k: its points, or its directions alone.
    def scale_point(p, k: int):
        return Point(math.ldexp(p.x, k), math.ldexp(p.y, k))

    def scale_dir(d, k: int):
        return DirectionVector(math.ldexp(d.dx, k), math.ldexp(d.dy, k))

    for k in (-1000, -500, -35, 200, 500, 1000):
        so = scale_point(o, k)
        area(f"points 2^{k}", so, [Ray(so, d) for d in ds],
             Line(scale_point(u_line.base, k), u), Line(so, v), Line(scale_point(aux.base, k), w))
        area(f"directions 2^{k}", o, [Ray(o, scale_dir(d, k)) for d in ds],
             Line(u_line.base, scale_dir(u, k)), Line(o, scale_dir(v, k)),
             Line(aux.base, scale_dir(w, k)))


def _edge_radical_center(lines: list[str]) -> None:
    from helpers import axis_aligned
    from uvangle import AffineMap, AxisHyperbola, DirectionVector, Point, radical_center

    u, v = DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5)

    def sheared(x: float, y: float, kappa: float):
        return AxisHyperbola.from_directions(Point(x, y), kappa, u, v)

    h1, h2, h3 = sheared(0.0, 0.0, 1.0), sheared(-1.0, -0.5, 3.0), sheared(1.0, 2.0, -2.0)
    concentric = sheared(0.0, 0.0, -1.0)
    tiny = AffineMap(1e-150, 0.0, 0.0, 1e-150)
    # Frames found by a seeded search: the axis direction's image underflows to (0, 0)
    # and, below, three curves whose axes meet at a point that overflows.
    flat = AffineMap(3.7551457753444785e+68, -4.728568580119044e+69, 4.406942894891941e-71,
                     1.7049949610693787e-71)
    far = [((-1.3005617495147575e+154, 4.836429586408572e+153), -1.2645158846216303e+201),
           ((-1.999152603791369e+154, 3.383222017045992e+154), 4.500191693743872e-22),
           ((-2.1450719443488954e+154, -8.596043113425745e+153), -8.283524348345605e+111)]
    cases = [
        ("identical first pair", h1, h1, h3),
        ("identical second pair", h1, h2, h2),
        ("concentric first pair", h1, concentric, h3),
        ("concentric second pair", h2, h1, concentric),
        ("axis base overflows", axis_aligned(Point(0.0, 1e308), 1.0),
         axis_aligned(Point(0.0, -1e308), 1.0), h3),
        ("axis direction overflows", AxisHyperbola(Point(0.0, 1e308), 1.0, tiny),
         AxisHyperbola(Point(0.0, -1e308), 1.0, tiny), AxisHyperbola(Point(1.0, 0.0), 1.0, tiny)),
        ("axis direction underflows", AxisHyperbola(Point(5e-324, 0.0), 1.0, flat),
         AxisHyperbola(Point(0.0, 0.0), 1.0, flat), AxisHyperbola(Point(1.0, 0.0), 2.0, flat)),
        ("second axis overflows", axis_aligned(Point(1.0, 2.0), -2.0),
         axis_aligned(Point(0.0, 1e308), 1.0),
         axis_aligned(Point(0.0, -1e308), 1.0)),
        ("center overflows", *(sheared(x, y, kappa) for (x, y), kappa in far)),
    ]
    for k in (-1000, -500, 200, 500):
        cases.append((f"centers 2^{k}", *(
            sheared(math.ldexp(h.center.x, k), math.ldexp(h.center.y, k), h.kappa)
            for h in (h1, h2, h3))))
    for name, a, b, c in cases:
        _record(lines, f"radical_center {name}", lambda: radical_center(a, b, c))


def edges() -> list[str]:
    lines: list[str] = []
    _edge_angles(lines)
    _edge_kernel(lines)
    _edge_power(lines)
    _edge_limit(lines)
    _edge_locus(lines)
    _edge_area(lines)
    _edge_radical_center(lines)
    return lines


def test_entry_points_are_bit_identical_to_the_golden_sweep():
    expected = GOLDEN.read_text().splitlines()
    actual = sweep()
    for want, got in zip(expected, actual):
        assert got == want, f"first differing call:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected)


def test_edge_cases_are_bit_identical_to_the_golden():
    expected = EDGE_GOLDEN.read_text().splitlines()
    actual = edges()
    for want, got in zip(expected, actual):
        assert got == want, f"first differing call:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(sweep()) + "\n")
    EDGE_GOLDEN.write_text("\n".join(edges()) + "\n")
