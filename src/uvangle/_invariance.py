"""The seeded invariance demonstrations behind ``uvangle invariance``.

All randomness flows from one seed through Python's Mersenne Twister
(``random.Random``), so equal arguments give equal deviations.
"""

import math
import random

from .angle import affine_angle
from .area_ratio import sigma_lambda
from .kernel import (
    AffineMap,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    compose_maps,
    cross,
    invert_map,
)


def _random_invariance_config(rng: random.Random):
    o = Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    while True:
        phi_u = rng.uniform(0.0, math.pi)
        phi_v = rng.uniform(0.0, math.pi)
        u = DirectionVector(math.cos(phi_u), math.sin(phi_u))
        v = DirectionVector(math.cos(phi_v), math.sin(phi_v))
        if abs(math.sin(phi_u - phi_v)) > 0.25:
            break
    m_sign = rng.choice((-1.0, 1.0))
    m_a = m_sign * math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    m_b = m_sign * math.exp(rng.uniform(math.log(0.1), math.log(10.0)))

    def point_on(m: float) -> Point:
        s = rng.uniform(0.4, 2.0)
        return Point(o.x + s * (u.dx + m * v.dx), o.y + s * (u.dy + m * v.dy))

    return o, DirectionPair(u, v), point_on(m_a), point_on(m_b)


def _random_auxiliary(rng: random.Random, o: Point, dirs: DirectionPair, rays) -> Line:
    while True:
        base = Point(o.x + rng.uniform(-2.0, 2.0), o.y + rng.uniform(-2.0, 2.0))
        phi = rng.uniform(0.0, math.pi)
        d = DirectionVector(math.cos(phi), math.sin(phi))
        line = Line(base, d)
        if line.distance_to(o) < 0.05:
            continue
        if not any(abs(cross(d, other)) < 0.05 * other.norm for other in (dirs.u, dirs.v, *rays)):
            return line


def invariance_deviations(trials: int, seed: int) -> dict:
    """Worst deviations over ``trials`` random configurations per demonstration.

    ``lambda_independence_max_rel_dev``: the ratio sigma_A / sigma_B across
    two auxiliary lines.  ``group_invariance_max_abs_dev``: the angle under a
    map keeping u and v with same-sign eigenvalues, plus a translation.
    ``shear_control_max_abs_dev``: the angle under a shear that moves v, which
    need not keep it.
    """
    rng = random.Random(seed)
    lambda_dev = 0.0
    for _ in range(trials):
        o, dirs, a, b = _random_invariance_config(rng)
        da = DirectionVector(a.x - o.x, a.y - o.y)
        db = DirectionVector(b.x - o.x, b.y - o.y)
        ratios = []
        for _ in range(2):
            aux = _random_auxiliary(rng, o, dirs, (da, db))
            u_line, v_line = Line(o, dirs.u), Line(o, dirs.v)
            sa = sigma_lambda(o, Ray(o, da), u_line, v_line, aux)
            sb = sigma_lambda(o, Ray(o, db), u_line, v_line, aux)
            ratios.append(sa.value / sb.value)
        lambda_dev = max(lambda_dev, abs(ratios[0] - ratios[1]) / max(map(abs, ratios)))

    group_dev = 0.0
    shear_dev = 0.0
    for _ in range(trials):
        o, dirs, a, b = _random_invariance_config(rng)
        before = affine_angle(o, a, b, dirs)
        to_basis = dirs._basis
        from_basis = invert_map(to_basis)
        sx = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0)
        sy = math.copysign(rng.uniform(0.2, 5.0), sx)
        diag = compose_maps(compose_maps(from_basis, AffineMap.scaling(sx, sy)), to_basis)
        shift = AffineMap.translation(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        good = compose_maps(shift, diag)
        after = affine_angle(good.apply_point(o), good.apply_point(a), good.apply_point(b), dirs)
        group_dev = max(group_dev, abs(after.theta - before.theta))

        shear = compose_maps(
            compose_maps(from_basis, AffineMap(1.0, 0.7, 0.0, 1.0)), to_basis
        )
        sheared = affine_angle(
            shear.apply_point(o), shear.apply_point(a), shear.apply_point(b), dirs
        )
        if sheared.is_real:
            shear_dev = max(shear_dev, abs(sheared.theta - before.theta))

    return {
        "lambda_independence_max_rel_dev": lambda_dev,
        "group_invariance_max_abs_dev": group_dev,
        "shear_control_max_abs_dev": shear_dev,
    }
