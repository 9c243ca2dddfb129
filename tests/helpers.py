"""Shared generators, assertion helpers and CLI runners for the test suite."""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema

from uvangle import (
    AffineMap,
    AxisHyperbola,
    ConicCoefficients,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    cross,
)
from uvangle.cli import main


IDENTITY = AffineMap(1.0, 0.0, 0.0, 1.0)


def axis_aligned(center: Point, kappa: float) -> AxisHyperbola:
    """Curve (x - cx)(y - cy) = kappa with asymptotes parallel to the axes."""
    return AxisHyperbola(center, kappa, IDENTITY)


def conic_value(conic: ConicCoefficients, x: float, y: float) -> float:
    """The conic's left-hand side at (x, y), summed in coefficient order."""
    c_xx, c_xy, c_yy, c_x, c_y, c_0 = conic.as_tuple()
    return c_xx * x * x + c_xy * x * y + c_yy * y * y + c_x * x + c_y * y + c_0


def conic_scale(conic: ConicCoefficients, x: float, y: float) -> float:
    """Sum of term magnitudes; a robust denominator for residual checks."""
    c_xx, c_xy, c_yy, c_x, c_y, c_0 = conic.as_tuple()
    return (abs(c_xx * x * x) + abs(c_xy * x * y) + abs(c_yy * y * y)
            + abs(c_x * x) + abs(c_y * y) + abs(c_0))


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def assert_point_close(p: Point, q: Point, tol: float = 1e-9) -> None:
    scale = max(1.0, abs(p.x), abs(p.y), abs(q.x), abs(q.y))
    assert math.hypot(p.x - q.x, p.y - q.y) <= tol * scale, (p, q)


def on_line(line: Line, p: Point, tol: float) -> bool:
    """``line.contains(p)`` at the tolerance tol in place of REL_EPS."""
    scale = max(1.0, math.hypot(p.x, p.y), math.hypot(line.base.x, line.base.y))
    return line.distance_to(p) <= tol * scale


def same_ray(r: Ray, s: Ray, tol: float = 1e-9) -> bool:
    assert_point_close(r.origin, s.origin, tol)
    c = cross(r.dir, s.dir)
    if abs(c) > tol * r.dir.norm * s.dir.norm:
        return False
    return (r.dir.dx * s.dir.dx + r.dir.dy * s.dir.dy) > 0.0


def unit_direction(rng: random.Random) -> DirectionVector:
    phi = rng.uniform(0.0, math.tau)
    return DirectionVector(math.cos(phi), math.sin(phi))


def direction_pair(rng: random.Random, min_sin: float = 0.25) -> DirectionPair:
    while True:
        u = unit_direction(rng)
        v = unit_direction(rng)
        if abs(cross(u, v)) > min_sin:
            return DirectionPair(u, v)


def random_vertex(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> Point:
    return Point(rng.uniform(lo, hi), rng.uniform(lo, hi))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def basis_point(o: Point, dirs: DirectionPair, slope: float, scale: float = 1.0) -> Point:
    """o + scale * (u + slope * v): a point on the ray with the given basis slope."""
    return Point(
        o.x + scale * (dirs.u.dx + slope * dirs.v.dx),
        o.y + scale * (dirs.u.dy + slope * dirs.v.dy),
    )


def same_component_slopes(rng: random.Random, count: int, lo: float = 0.05, hi: float = 20.0):
    sign = rng.choice((-1.0, 1.0))
    return [sign * log_uniform(rng, lo, hi) for _ in range(count)]


def map_det(m: AffineMap) -> float:
    """The determinant of the map's linear part."""
    return m.xx * m.yy - m.xy * m.yx


def random_invertible_map(rng: random.Random, min_det: float = 0.05) -> AffineMap:
    while True:
        entries = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        m = AffineMap(*entries, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(map_det(m)) > min_det:
            return m


def random_hyperbola(
    rng: random.Random,
    dirs: DirectionPair | None = None,
    positive_kappa: bool = False,
) -> AxisHyperbola:
    center = Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    sign = 1.0 if positive_kappa else rng.choice((-1.0, 1.0))
    kappa = sign * log_uniform(rng, 0.2, 5.0)
    if dirs is None:
        dirs = direction_pair(rng)
    return AxisHyperbola.from_directions(center, kappa, dirs.u, dirs.v)


def random_off_curve_point(rng: random.Random, h: AxisHyperbola, min_core: float = 1e-3) -> Point:
    from uvangle import core_quantity

    while True:
        p = Point(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if abs(core_quantity(p, h)) > min_core:
            return p


def random_secant_direction(
    rng: random.Random, p: Point, h: AxisHyperbola, margin: float = 1e-3
) -> DirectionVector:
    """A direction through p that cuts h in two well-separated real points."""
    px, py = h.relative_coords(p)
    a0 = px * py - h.kappa
    while True:
        d = h.frame.apply_linear(unit_direction(rng))
        a2 = d.dx * d.dy
        if abs(a2) < 1e-2 * d.norm * d.norm:
            continue
        a1 = d.dx * py + d.dy * px
        disc = a1 * a1 - 4.0 * a2 * a0
        scale = a1 * a1 + abs(4.0 * a2 * a0) + 1e-6
        if disc > margin * scale:
            # invert the frame action so the caller passes original-plane input
            from uvangle import invert_map

            return invert_map(h.frame).apply_linear(d)


SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA = json.loads((resources.files("uvangle") / "schemas" / "result_v1.json").read_text())


class CliRun(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: str


def run_cli(*argv: str) -> CliRun:
    """``uvangle.cli.main(argv)`` in this process, with stdout and stderr captured.

    A ``SystemExit`` becomes its exit code, as the interpreter makes it;
    any other exception propagates, so a traceback fails the test with its
    real stack.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved
    return CliRun(code, out.buffer.getvalue(), err.getvalue())


def valid_document(stdout: bytes) -> dict:
    """The JSON document stdout holds, checked against ``schemas/result_v1.json``."""
    doc = json.loads(stdout)
    jsonschema.validate(doc, SCHEMA)
    return doc


def run_json(*argv: str) -> dict:
    """The document of a ``run_cli`` that exits 0, checked against the schema."""
    run = run_cli(*argv)
    assert run.returncode == 0, run.stderr
    return valid_document(run.stdout)


# The argv of each child run_process starts; the Tier-1 summary prints how many.
CHILDREN: list[tuple[str, ...]] = []


def run_process(*argv: str, env=None) -> subprocess.CompletedProcess:
    """``python *argv`` in a child process, with this tree's ``src`` as its PYTHONPATH.

    Only for tests of the process itself: the entry points, the modules a
    fresh interpreter loads, determinism across hash seeds.  env is the
    child's environment (default: this one's); stdout and stderr are
    captured as bytes.
    """
    CHILDREN.append(argv)
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, timeout=600
    )
