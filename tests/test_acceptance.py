"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json
import math
import os
import random
import time
from pathlib import Path

import mpmath

from helpers import (
    axis_aligned,
    basis_point,
    conic_scale,
    conic_value,
    direction_pair,
    log_uniform,
    random_hyperbola,
    random_off_curve_point,
    random_secant_direction,
    random_vertex,
    run_cli,
    run_process,
    same_component_slopes,
    unit_direction,
)
from uvangle import (
    AffineMap,
    AxisHyperbola,
    DirectionPair,
    DirectionVector,
    Line,
    Point,
    Ray,
    affine_angle,
    asymptote_directions,
    compose_maps,
    core_quantity,
    cross,
    invert_map,
    IsopticSpec,
    isoptic_curve,
    isoptic_point,
    midpoint_ray,
    power,
    progression_quadrilateral_area,
    radical_axis,
    radical_center,
    reflect_branch,
    sample_locus,
    secant_intersections,
    sector_area_equivalence,
    sigma_lambda,
    vec,
)
from uvangle.degeneration import SlopePair, degenerate_cross_ratio, first_order_limit
from uvangle.errors import GeometryError, IdenticalCurves, ParallelAxes
from uvangle.power_theorem import one_sided_identity, symmetric_area


def _random_frame_config(rng):
    o = random_vertex(rng)
    dirs = direction_pair(rng)
    return o, dirs


def _random_auxiliary(rng, o, dirs, ray_dirs):
    while True:
        base = Point(o.x + rng.uniform(-2.0, 2.0), o.y + rng.uniform(-2.0, 2.0))
        d = unit_direction(rng)
        line = Line(base, d)
        if line.distance_to(o) < 0.05:
            continue
        if any(
            abs(cross(d, other)) < 0.05 * other.norm
            for other in (dirs.u, dirs.v, *ray_dirs)
        ):
            continue
        return line


def test_criterion_01_lambda_independence(acceptance):
    rng = random.Random(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        o, dirs = _random_frame_config(rng)
        m_a, m_b = same_component_slopes(rng, 2)
        d_a = vec(o, basis_point(o, dirs, m_a))
        d_b = vec(o, basis_point(o, dirs, m_b))
        u_line, v_line = Line(o, dirs.u), Line(o, dirs.v)
        ratios = []
        for _ in range(2):
            aux = _random_auxiliary(rng, o, dirs, (d_a, d_b))
            s_a = sigma_lambda(o, Ray(o, d_a), u_line, v_line, aux)
            s_b = sigma_lambda(o, Ray(o, d_b), u_line, v_line, aux)
            ratios.append(s_a.value / s_b.value)
        worst = max(worst, abs(ratios[0] - ratios[1]) / max(map(abs, ratios)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    acceptance(
        "01 auxiliary-line independence", ok, f"max rel dev {worst:.3e} in {elapsed:.2f}s"
    )
    assert ok


def test_criterion_02_angle_axioms_and_midpoint(acceptance):
    rng = random.Random(102)
    started = time.perf_counter()
    worst = {"antisym": 0.0, "additive": 0.0, "vanish": 0.0, "scaling": 0.0, "midpoint": 0.0}
    perturb_min = math.inf
    for _ in range(1000):
        o, dirs = _random_frame_config(rng)
        m_a, m_b, m_c = same_component_slopes(rng, 3)
        a = basis_point(o, dirs, m_a, scale=rng.uniform(0.3, 2.0))
        b = basis_point(o, dirs, m_b, scale=rng.uniform(0.3, 2.0))
        c = basis_point(o, dirs, m_c, scale=rng.uniform(0.3, 2.0))
        ab = affine_angle(o, a, b, dirs).theta
        ba = affine_angle(o, b, a, dirs).theta
        bc = affine_angle(o, b, c, dirs).theta
        ac = affine_angle(o, a, c, dirs).theta
        worst["antisym"] = max(worst["antisym"], abs(ab + ba))
        worst["additive"] = max(worst["additive"], abs(ac - (ab + bc)))
        same = affine_angle(o, a, basis_point(o, dirs, m_a, scale=1.7), dirs).theta
        worst["vanish"] = max(worst["vanish"], abs(same))
        perturbed = affine_angle(
            o, a, basis_point(o, dirs, m_a * (1.0 + 1e-6)), dirs
        ).theta
        perturb_min = min(perturb_min, abs(perturbed))
        scaled = affine_angle(
            o,
            Point(o.x + 3.7 * (a.x - o.x), o.y + 3.7 * (a.y - o.y)),
            b,
            dirs,
        ).theta
        worst["scaling"] = max(worst["scaling"], abs(scaled - ab))
        r = Ray(o, vec(o, a))
        s = Ray(o, vec(o, b))
        t = midpoint_ray(o, r, s, dirs)
        t_point = Line(t.origin, t.dir).point_at(1.0)
        first = affine_angle(o, a, t_point, dirs).theta
        second = affine_angle(o, t_point, b, dirs).theta
        worst["midpoint"] = max(
            worst["midpoint"], abs(first - second), abs(first - 0.5 * ab)
        )
    elapsed = time.perf_counter() - started
    ok = (
        worst["antisym"] <= 1e-12
        and worst["additive"] <= 1e-9
        and worst["vanish"] <= 1e-12
        and perturb_min >= 4e-7
        and worst["scaling"] <= 1e-12
        and worst["midpoint"] <= 1e-9
        and elapsed < 2.0
    )
    acceptance(
        "02 angle axioms + midpoint",
        ok,
        f"antisym {worst['antisym']:.1e} additive {worst['additive']:.1e} "
        f"vanish {worst['vanish']:.1e} perturb>= {perturb_min:.1e} "
        f"scaling {worst['scaling']:.1e} midpoint {worst['midpoint']:.1e} "
        f"in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_group_invariance(acceptance):
    rng = random.Random(103)
    worst = 0.0
    shear_max = 0.0
    for _ in range(200):
        o, dirs = _random_frame_config(rng)
        m_a, m_b = same_component_slopes(rng, 2)
        a = basis_point(o, dirs, m_a)
        b = basis_point(o, dirs, m_b)
        before = affine_angle(o, a, b, dirs).theta
        basis = AffineMap(dirs.u.dx, dirs.v.dx, dirs.u.dy, dirs.v.dy)
        sx = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0)
        sy = math.copysign(rng.uniform(0.2, 5.0), sx)
        diag = compose_maps(compose_maps(basis, AffineMap.scaling(sx, sy)), invert_map(basis))
        t = compose_maps(AffineMap.translation(rng.uniform(-3, 3), rng.uniform(-3, 3)), diag)
        after = affine_angle(t.apply_point(o), t.apply_point(a), t.apply_point(b), dirs).theta
        worst = max(worst, abs(after - before))
        shear = compose_maps(
            compose_maps(basis, AffineMap(1.0, rng.uniform(0.3, 1.0), 0.0, 1.0)),
            invert_map(basis),
        )
        sheared = affine_angle(
            shear.apply_point(o), shear.apply_point(a), shear.apply_point(b), dirs
        )
        if sheared.is_real:
            shear_max = max(shear_max, abs(sheared.theta - before))
    ok = worst <= 1e-9 and shear_max > 1e-3
    acceptance(
        "03 invariance group",
        ok,
        f"max dev {worst:.3e}; shear control max {shear_max:.3e}",
    )
    assert ok


def _random_isoptic_spec(rng):
    while True:
        a = random_vertex(rng, -3, 3)
        b = random_vertex(rng, -3, 3)
        dirs = direction_pair(rng)
        try:
            d = vec(a, b)
        except ValueError:
            continue
        if d.norm < 0.8:
            continue
        if min(
            abs(cross(d, dirs.u)) / (d.norm * dirs.u.norm),
            abs(cross(d, dirs.v)) / (d.norm * dirs.v.norm),
        ) < 0.15:
            continue
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        return IsopticSpec(a, b, dirs, theta)


def test_criterion_04_isoptic_round_trip(acceptance):
    rng = random.Random(104)
    worst_angle = 0.0
    worst_incidence = 0.0
    worst_asymptote = 0.0
    checked = 0
    for _ in range(100):
        spec = _random_isoptic_spec(rng)
        curve = isoptic_curve(spec)
        for endpoint in (spec.a, spec.b):
            residual = abs(conic_value(curve.original_conic, endpoint.x, endpoint.y))
            scale = max(1.0, conic_scale(curve.original_conic, endpoint.x, endpoint.y))
            worst_incidence = max(worst_incidence, residual / scale)
        d1, d2 = asymptote_directions(curve.original_conic)
        for d in (d1, d2):
            angle = min(
                abs(cross(d, ref)) / (d.norm * ref.norm)
                for ref in (spec.dirs.u, spec.dirs.v)
            )
            worst_asymptote = max(worst_asymptote, math.asin(min(1.0, angle)))
        for p, admissible in sample_locus(spec, 24):
            if not admissible:
                continue
            result = affine_angle(p, spec.a, spec.b, spec.dirs)
            assert result.is_real
            worst_angle = max(worst_angle, abs(result.theta - spec.theta))
            checked += 1
    ok = worst_angle <= 1e-7 and worst_incidence <= 1e-8 and worst_asymptote <= 1e-8
    acceptance(
        "04 isoptic round-trip",
        ok,
        f"angle dev {worst_angle:.3e} over {checked} samples; "
        f"incidence {worst_incidence:.3e}; asymptote {worst_asymptote:.3e} rad",
    )
    assert ok


def test_criterion_05_isoptic_limits(acceptance):
    theta = 20.0
    worst_line = 0.0
    for i in range(401):
        t = -25.0 + i * (50.0 / 400.0)
        for point in (isoptic_point(theta, t), reflect_branch(isoptic_point(theta, t), theta)):
            d1 = abs(point.x - (point.y + 1.0)) / math.sqrt(2.0)
            d2 = abs(point.x + (point.y + 1.0)) / math.sqrt(2.0)
            worst_line = max(worst_line, min(d1, d2))
    small = 1e-3
    near_a = math.inf
    near_b = math.inf
    for i in range(4001):
        t = -4.0 * small + i * (8.0 * small / 4000.0)
        for point in (isoptic_point(small, t), reflect_branch(isoptic_point(small, t), small)):
            near_a = min(near_a, math.hypot(point.x + 1.0, point.y))
            near_b = min(near_b, math.hypot(point.x - 1.0, point.y))
    ok = worst_line <= 1e-6 and near_a <= 5e-3 and near_b <= 5e-3
    acceptance(
        "05 isoptic limits",
        ok,
        f"line-pair dist {worst_line:.3e}; endpoint proximity {near_a:.3e}, {near_b:.3e}",
    )
    assert ok


def test_criterion_06_power_theorem(acceptance):
    rng = random.Random(106)
    worst_spread = 0.0
    worst_formula = 0.0
    for _ in range(100):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        expected = h.kappa * abs(core_quantity(p, h))
        products = []
        for _ in range(20):
            d = random_secant_direction(rng, p, h)
            result = secant_intersections(p, d, h)
            products.append(
                symmetric_area(p, result.a, h) * symmetric_area(p, result.b, h)
            )
        spread = (max(products) - min(products)) / max(products)
        worst_spread = max(worst_spread, spread)
        worst_formula = max(
            worst_formula, max(abs(v - expected) for v in products) / expected
        )
    unit = axis_aligned(Point(0, 0), 1.0)
    worked = power(Point(2, 2), unit)
    ok = worst_spread <= 1e-9 and worst_formula <= 1e-9 and abs(worked - 3.0) <= 1e-12
    acceptance(
        "06 power theorem",
        ok,
        f"secant spread {worst_spread:.3e}; formula dev {worst_formula:.3e}; "
        f"worked value {worked!r}",
    )
    assert ok


def test_criterion_07_one_sided_determinacy(acceptance):
    rng = random.Random(107)
    worst = 0.0
    for _ in range(500):
        h = random_hyperbola(rng)
        p = random_off_curve_point(rng, h)
        d = random_secant_direction(rng, p, h)
        lhs, mid1, mid2 = one_sided_identity(p, d, h)
        scale = max(lhs, mid1, mid2)
        worst = max(worst, abs(lhs - mid1) / scale, abs(lhs - mid2) / scale)
    ok = worst <= 1e-9
    acceptance("07 one-sided determinacy", ok, f"max rel dev {worst:.3e}")
    assert ok


def test_criterion_08_radical_structure(acceptance):
    rng = random.Random(108)
    worst_core = 0.0
    worst_power_equal_kappa = 0.0
    worst_concurrency = 0.0
    triples = 0
    while triples < 100:
        dirs = direction_pair(rng)
        curves = [random_hyperbola(rng, dirs, positive_kappa=True) for _ in range(3)]
        try:
            center = radical_center(*curves)
            axes = [
                radical_axis(curves[0], curves[1]),
                radical_axis(curves[1], curves[2]),
                radical_axis(curves[2], curves[0]),
            ]
        except (IdenticalCurves, ParallelAxes):
            continue
        scale = max(1.0, abs(center.x), abs(center.y))
        for axis in axes:
            worst_concurrency = max(worst_concurrency, axis.distance_to(center) / scale)
        axis = axes[0]
        for t in (-2.0, -0.5, 0.5, 2.0):
            p = axis.point_at(t)
            c1, c2 = core_quantity(p, curves[0]), core_quantity(p, curves[1])
            worst_core = max(worst_core, abs(c1 - c2) / max(1.0, abs(c1), abs(c2)))
        triples += 1

    pairs = 0
    while pairs < 100:
        dirs = direction_pair(rng)
        kappa = log_uniform(rng, 0.2, 5.0)
        h1 = AxisHyperbola.from_directions(
            Point(rng.uniform(-3, 3), rng.uniform(-3, 3)), kappa, dirs.u, dirs.v
        )
        h2 = AxisHyperbola.from_directions(
            Point(rng.uniform(-3, 3), rng.uniform(-3, 3)), kappa, dirs.u, dirs.v
        )
        try:
            axis = radical_axis(h1, h2)
        except (IdenticalCurves, GeometryError):
            continue
        for t in (-2.0, -0.5, 0.5, 2.0):
            p = axis.point_at(t)
            p1, p2 = power(p, h1), power(p, h2)
            worst_power_equal_kappa = max(
                worst_power_equal_kappa, abs(p1 - p2) / max(1.0, p1, p2)
            )
        pairs += 1

    # probe of the unrestricted power-equality claim: reported, not asserted
    probe_worst = 0.0
    probe_example = ""
    probes = 0
    while probes < 100:
        dirs = direction_pair(rng)
        h1 = random_hyperbola(rng, dirs)
        h2 = random_hyperbola(rng, dirs)
        try:
            axis = radical_axis(h1, h2)
        except (IdenticalCurves, GeometryError):
            continue
        for t in (-1.0, 1.0):
            p = axis.point_at(t)
            p1, p2 = power(p, h1), power(p, h2)
            dev = abs(p1 - p2) / max(1.0, p1, p2)
            if dev > probe_worst:
                probe_worst = dev
                probe_example = (
                    f"kappa1={h1.kappa:.3f} kappa2={h2.kappa:.3f} "
                    f"P=({p.x:.3f},{p.y:.3f}) powers ({p1:.3e}, {p2:.3e})"
                )
        probes += 1

    ok = (
        worst_core <= 1e-9
        and worst_power_equal_kappa <= 1e-9
        and worst_concurrency <= 1e-8
    )
    acceptance(
        "08 radical structure",
        ok,
        f"core dev {worst_core:.3e}; equal-kappa power dev {worst_power_equal_kappa:.3e}; "
        f"concurrency {worst_concurrency:.3e}; unrestricted-power probe: "
        f"max rel dev {probe_worst:.3e} ({probe_example}) [reported, not asserted]",
    )
    assert ok


def test_criterion_09_progression_area(acceptance):
    rng = random.Random(109)
    values = []
    for _ in range(50):
        p = rng.choice((rng.uniform(0.05, 0.95), rng.uniform(8.1, 500.0)))
        values.append(progression_quadrilateral_area(1.0, 2.0, p, 1.0))
    spread = (max(values) - min(values)) / max(values)
    worked = max(abs(v - 0.375) / 0.375 for v in values)
    worst_general = 0.0
    for _ in range(50):
        a = log_uniform(rng, 0.3, 3.0)
        r = rng.choice((rng.uniform(1.2, 3.0), rng.uniform(0.3, 0.8)))
        hi, lo = max(a, a * r**3), min(a, a * r**3)
        p = rng.choice((lo * rng.uniform(0.05, 0.9), hi * rng.uniform(1.1, 40.0)))
        value = progression_quadrilateral_area(a, r, p, 1.0)
        expected = (r + 1.0) * abs(r - 1.0) ** 3 / (2.0 * r * r)
        worst_general = max(worst_general, abs(value - expected) / expected)
    ok = spread <= 1e-9 and worked <= 1e-9 and worst_general <= 1e-9
    acceptance(
        "09 progression area invariance",
        ok,
        f"spread {spread:.3e}; worked dev {worked:.3e}; general dev {worst_general:.3e}",
    )
    assert ok


def test_criterion_10_first_order_limit(acceptance):
    rng = random.Random(110)
    worst_limit = 0.0
    worst_order = math.inf
    for _ in range(100):
        m1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        m2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        if abs(m1 - m2) < 0.05 or abs(m1**3 - m2**3) < 0.1:
            continue
        pair = SlopePair(m1, m2)
        report = first_order_limit(pair)
        worst_limit = max(worst_limit, abs(report.extrapolated_limit - (m1 - m2)))
        # log-expansion order over t in [1e-4, 1e-2]
        ts = [1e-2 * (0.1 ** (i / 4.0)) for i in range(9)]
        pts = []
        for t in ts:
            if t > min(1.0 / abs(m1), 1.0 / abs(m2)) / 2.0:
                continue
            residual = abs(math.log(degenerate_cross_ratio(pair, t)) + 2.0 * (m1 - m2) * t)
            if residual > 1e-15:
                pts.append((math.log(t), math.log(residual)))
        if len(pts) >= 5:
            n = len(pts)
            mean_x = sum(x for x, _ in pts) / n
            mean_y = sum(y for _, y in pts) / n
            slope = sum((x - mean_x) * (y - mean_y) for x, y in pts) / sum(
                (x - mean_x) ** 2 for x, _ in pts
            )
            worst_order = min(worst_order, slope)
    ok = worst_limit <= 1e-8 and worst_order >= 2.8
    acceptance(
        "10 first-order degenerate limit",
        ok,
        f"max limit dev {worst_limit:.3e}; min log-residual order {worst_order:.3f}",
    )
    assert ok


def test_criterion_11_sector_area(acceptance):
    rng = random.Random(111)
    worst = 0.0
    for _ in range(200):
        o, dirs = _random_frame_config(rng)
        m_a, m_b = same_component_slopes(rng, 2)
        a = basis_point(o, dirs, m_a)
        b = basis_point(o, dirs, m_b)
        angle, sector = sector_area_equivalence(o, a, b, dirs)
        worst = max(worst, abs(angle - sector) / max(1.0, abs(angle)))
    # single quadrature cross-check on x*y = 1 between abscissae 1 and e
    o = Point(0, 0)
    angle, sector = sector_area_equivalence(
        o, Point(1, 1), Point(math.e, math.exp(-1.0)), DirectionPair(
            DirectionVector(1, 0), DirectionVector(0, 1)
        )
    )
    n = 20000
    xs = [math.e ** (i / n) for i in range(n + 1)]
    pts = [(0.0, 0.0)] + [(x, 1.0 / x) for x in xs]
    shoelace = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        shoelace += x1 * y2 - x2 * y1
    quadrature = 0.5 * abs(shoelace)
    quad_dev = abs(sector - quadrature)
    ok = worst <= 1e-9 and quad_dev <= 1e-6
    acceptance(
        "11 sector-area equivalence",
        ok,
        f"max dev {worst:.3e}; quadrature dev {quad_dev:.3e}",
    )
    assert ok


def test_criterion_12_cli_determinism_and_worked_examples(acceptance):
    power_args = ("power", "--kappa", "1", "--center", "0,0", "--P", "2,2")
    chords_args = ("chords", "--progression", "1,2,5", "--kappa", "1")
    power, chords = run_cli(*power_args), run_cli(*chords_args)
    # Each worked example prints the same bytes in two processes with different hash
    # seeds as in this one.
    deterministic = power.returncode == chords.returncode == 0 and all(
        run_process("-m", "uvangle", *argv, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        == inproc.stdout
        for argv, inproc in ((power_args, power), (chords_args, chords))
        for seed in ("0", "1")
    )
    doc = json.loads(power.stdout)
    power_ok = doc["outputs"]["power"] == 3.0
    area = json.loads(chords.stdout)["outputs"]["area"]
    area_ok = abs(area - 0.375) <= 1e-9
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = readme.exists() and all(
        fragment in readme.read_text()
        for fragment in (
            "power --kappa 1 --center 0,0 --P 2,2",
            "chords --progression 1,2,5 --kappa 1",
        )
    )
    ok = deterministic and power_ok and area_ok and documented
    acceptance(
        "12 CLI determinism + worked examples",
        ok,
        f"deterministic {deterministic}; power {doc['outputs']['power']!r}; "
        f"area {area!r}; documented {documented}",
    )
    assert ok


def _cayley_klein_angle(o, a, b, dirs, center, radius):
    """Half the log of the cross ratio of OA, OB and the tangents from O to l_u * l_v = R^2.

    l_u, l_v are the (u, v) coordinates of X - center, so the absolute conic's
    asymptotes run along u and v.  The tangent nearer u comes first.  The
    caller sets the working precision.
    """
    mpf = mpmath.mpf
    ux, uy, vx, vy = (mpf(c) for c in (dirs.u.dx, dirs.u.dy, dirs.v.dx, dirs.v.dy))
    det = ux * vy - uy * vx
    p = (vy / det, -vx / det)  # l_u(X) = p . (X - center)
    q = (-uy / det, ux / det)  # l_v(X) = q . (X - center)
    ox, oy = mpf(o.x) - mpf(center.x), mpf(o.y) - mpf(center.y)
    a0, b0 = p[0] * ox + p[1] * oy, q[0] * ox + q[1] * oy
    # On X = O + t*(1, k), (a0 + t*p.d)(b0 + t*q.d) = R^2 has a double root iff
    # (a0*q.d - b0*p.d)^2 + 4 R^2 (p.d)(q.d) = 0, a quadratic in k.
    w = (a0 * q[0] - b0 * p[0], a0 * q[1] - b0 * p[1])
    r2 = mpf(radius) ** 2
    qa = w[1] ** 2 + 4 * r2 * p[1] * q[1]
    qb = 2 * w[0] * w[1] + 4 * r2 * (p[0] * q[1] + p[1] * q[0])
    qc = w[0] ** 2 + 4 * r2 * p[0] * q[0]
    root = mpmath.sqrt(qb * qb - 4 * qa * qc)
    tangents = [(mpf(1), (-qb + s * root) / (2 * qa)) for s in (1, -1)]
    tangents.sort(key=lambda d: abs(d[0] * uy - d[1] * ux) / mpmath.hypot(*d))
    (t1x, t1y), (t2x, t2y) = tangents

    def cross_with(px, py, tx, ty):
        return (mpf(px) - mpf(o.x)) * ty - (mpf(py) - mpf(o.y)) * tx

    ratio = (cross_with(a.x, a.y, t1x, t1y) * cross_with(b.x, b.y, t2x, t2y)) / (
        cross_with(a.x, a.y, t2x, t2y) * cross_with(b.x, b.y, t1x, t1y)
    )
    return mpmath.log(ratio) / 2


def test_criterion_13_cayley_klein_degeneration(acceptance):
    # The affine angle is the R -> infinity limit of the Cayley-Klein angle
    # whose absolute conic is the hyperbola l_u * l_v = R^2, with error O(R^-2).
    rng = random.Random(113)
    radii = [10.0 ** (1.0 + 0.5 * i) for i in range(7)]  # 10 ... 1e4
    worst_error = 0.0
    orders = []
    with mpmath.workdps(50):
        for _ in range(50):
            o, dirs = _random_frame_config(rng)
            u, v = (d.scaled(log_uniform(rng, 0.3, 3.0)) for d in (dirs.u, dirs.v))
            dirs = DirectionPair(u, v)
            while True:
                m_a, m_b = same_component_slopes(rng, 2, 0.2, 5.0)
                if abs(math.log(m_a / m_b)) > 0.1:
                    break
            a = basis_point(o, dirs, m_a, scale=rng.uniform(0.3, 2.0))
            b = basis_point(o, dirs, m_b, scale=rng.uniform(0.3, 2.0))
            s, t = (rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(2))
            center = basis_point(o, dirs, t / s, scale=s)  # o + s*u + t*v
            theta = mpmath.mpf(affine_angle(o, a, b, dirs).theta)
            errors = [abs(_cayley_klein_angle(o, a, b, dirs, center, r) - theta) for r in radii]
            worst_error = max(worst_error, float(errors[-1]))
            xs = [math.log(r) for r in radii]
            ys = [math.log(float(e)) for e in errors]
            mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
                (x - mean_x) ** 2 for x in xs
            )
            orders.append(-slope)
    ok = all(1.9 <= order <= 2.1 for order in orders)
    acceptance(
        "13 Cayley-Klein degeneration",
        ok,
        f"worst |CK - affine| at R=1e4 {worst_error:.3e}; "
        f"log-log order {min(orders):.3f}..{max(orders):.3f}",
    )
    assert ok
