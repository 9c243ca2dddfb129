"""In-process bit identity of the library entry points on seeded sheared frames.

``sweep(seed, groups)`` draws ``groups`` random configurations per family
(angle, isoptic, power) on sheared, non-unit frames and returns one line per
call: the call's name, then every float of its result as ``float.hex``, or
the error class and message.  The test compares the lines with
``tests/golden/inprocess_sweep.txt`` and names the first call that differs,
so a refactor that moves any result by one ulp, or changes an error, fails
there.

To recapture after an intended change of results:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

from __future__ import annotations

import math
import random
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "inprocess_sweep.txt"
SEED = 8
GROUPS = 100


def _fmt(value) -> str:
    from uvangle import AngleResult, IsopticCurve, Line, Point, Ray, SecantResult

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
    if isinstance(value, (tuple, list)):
        return "[" + " ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"no format for {type(value).__name__}")


def _record(lines: list[str], name: str, call) -> None:
    try:
        text = _fmt(call())
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


def sweep(seed: int = SEED, groups: int = GROUPS) -> list[str]:
    rng = random.Random(seed)
    lines: list[str] = []
    for _ in range(groups):
        _angle_group(rng, lines)
        _isoptic_group(rng, lines)
        _power_group(rng, lines)
    return lines


def test_entry_points_are_bit_identical_to_the_golden_sweep():
    expected = GOLDEN.read_text().splitlines()
    actual = sweep()
    for want, got in zip(expected, actual):
        assert got == want, f"first differing call:\n  golden: {want}\n  now:    {got}"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(sweep()) + "\n")
