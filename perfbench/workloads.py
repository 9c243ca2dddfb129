"""The operations of each workload and their checks against the oracle.

Every call into uvangle goes through a module attribute (``ANG.affine_angle``,
not a name bound at import), so the tracer's rebinding sees it.  A runner
builds the library objects from plain floats inside the timed region; a
checker compares the outcome with ``oracle`` outside it.  A checker returns
None when the outcome is right and a short reason otherwise.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import oracle

# Bound by load_uvangle(); the benchmark imports uvangle from the checkout only.
ANG = ISO = KER = POW = DEG = CLI = ERR = None


def load_uvangle(src_dir: str) -> None:
    global ANG, ISO, KER, POW, DEG, CLI, ERR
    sys.path.insert(0, src_dir)
    # importlib, because the package namespace rebinds some submodule names
    # (uvangle.power is the function power, not the module).
    mods = [importlib.import_module(f"uvangle.{name}") for name in
            ("angle", "isoptic", "kernel", "power", "degeneration", "cli", "errors")]
    where = os.path.realpath(sys.modules["uvangle"].__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"uvangle was imported from {where}, not from {src_dir}")
    ANG, ISO, KER, POW, DEG, CLI, ERR = mods


# ---------------------------------------------------------------- query-mix


def _dirs(u, v):
    return ANG.DirectionPair(KER.DirectionVector(*u), KER.DirectionVector(*v))


def _run_angle(q):
    o, a, b, u, v, _ = q
    return ANG.affine_angle(KER.Point(*o), KER.Point(*a), KER.Point(*b), _dirs(u, v))


def _run_component(q):
    o, a, b, u, v, _ = q
    return ANG.is_same_component(KER.Point(*o), KER.Point(*a), KER.Point(*b), _dirs(u, v))


def _run_midpoint(q):
    o, d_r, d_s, u, v, _ = q
    vertex = KER.Point(*o)
    r = KER.Ray(vertex, KER.DirectionVector(*d_r))
    s = KER.Ray(vertex, KER.DirectionVector(*d_s))
    return ANG.midpoint_ray(vertex, r, s, _dirs(u, v))


def _run_sector(q):
    o, a, b, u, v, _ = q
    return ISO.sector_area_equivalence(KER.Point(*o), KER.Point(*a), KER.Point(*b), _dirs(u, v))


def _run_cross_ratio(q):
    o, u, v, dirs, base, w = q
    vertex = KER.Point(*o)
    rays = [KER.Ray(vertex, KER.DirectionVector(*d)) for d in dirs]
    u_line = KER.Line(vertex, KER.DirectionVector(*u))
    v_line = KER.Line(vertex, KER.DirectionVector(*v))
    aux = KER.Line(KER.Point(*base), KER.DirectionVector(*w))
    s0 = ANG.sigma_lambda(vertex, rays[0], u_line, v_line, aux)
    s1 = ANG.sigma_lambda(vertex, rays[1], u_line, v_line, aux)
    return s0, s1, ANG.area_cross_ratio(rays[0], rays[1], rays[2], rays[3], vertex, aux)


def _hyperbola(center, kappa, u, v):
    return POW.AxisHyperbola.from_directions(
        KER.Point(*center), kappa, KER.DirectionVector(*u), KER.DirectionVector(*v)
    )


def _run_power(q):
    center, kappa, p, u, v = q
    return POW.power(KER.Point(*p), _hyperbola(center, kappa, u, v))


def _run_secant(q):
    center, kappa, p, d, u, v, _, _ = q
    h = _hyperbola(center, kappa, u, v)
    return POW.secant_intersections(KER.Point(*p), KER.DirectionVector(*d), h)


def _run_radical_center(q):
    curves, u, v = q
    h = [_hyperbola((cx, cy), kappa, u, v) for cx, cy, kappa in curves]
    return POW.radical_center(h[0], h[1], h[2])


def _run_degenerate(q):
    m1, m2 = q
    return DEG.first_order_limit(DEG.SlopePair(m1, m2))


def _singular(q, outcome):
    """Check for queries that must raise SingularRay; None when this query is regular."""
    if not q[-1]:
        return None
    if isinstance(outcome, ERR.SingularRay):
        return "ok"
    return f"expected SingularRay, got {outcome!r}"


def _check_angle(q, r):
    verdict = _singular(q, r)
    if verdict:
        return None if verdict == "ok" else verdict
    o, a, b, u, v, _ = q
    want = oracle.angle(o, a, b, u, v)
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    if want is None:
        return None if not r.is_real else f"expected non-real, got {r.theta!r}"
    if not r.is_real or not oracle.close(r.theta, want):
        return f"angle {r.theta!r} != {want!r}"
    return None


def _check_component(q, r):
    verdict = _singular(q, r)
    if verdict:
        return None if verdict == "ok" else verdict
    o, a, b, u, v, _ = q
    want = oracle.slope(o, a, u, v) * oracle.slope(o, b, u, v) > 0.0
    return None if r is want else f"same component {r!r} != {want!r}"


def _check_midpoint(q, r):
    verdict = _singular(q, r)
    if verdict:
        return None if verdict == "ok" else verdict
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    o, d_r, d_s, u, v, _ = q
    m_r, m_s = oracle.dir_slope(d_r, u, v), oracle.dir_slope(d_s, u, v)
    want = math.copysign(math.sqrt(m_r * m_s), m_r)
    d = (r.dir.dx, r.dir.dy)
    if not (oracle.close(r.origin.x, o[0]) and oracle.close(r.origin.y, o[1])):
        return "midpoint ray leaves the vertex"
    if not oracle.close(oracle.dir_slope(d, u, v), want):
        return f"midpoint slope {oracle.dir_slope(d, u, v)!r} != {want!r}"
    if d[0] * d_r[0] + d[1] * d_r[1] < 0.0:
        return "midpoint ray points away from r"
    return None


def _check_sector(q, r):
    verdict = _singular(q, r)
    if verdict:
        return None if verdict == "ok" else verdict
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    o, a, b, u, v, _ = q
    want = oracle.angle(o, a, b, u, v)
    theta, area = r
    if not (oracle.close(theta, want) and oracle.close(area, want)):
        return f"sector ({theta!r}, {area!r}) != {want!r}"
    return None


def _check_cross_ratio(q, r):
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    o, u, v, dirs, _, _ = q
    m = [oracle.dir_slope(d, u, v) for d in dirs]
    s0, s1, cr = r
    if not oracle.close(s0.value / s1.value, m[0] / m[1], tol=1e-7):
        return f"sigma ratio {s0.value / s1.value!r} != {m[0] / m[1]!r}"
    want = oracle.cross_ratio(*m)
    if not oracle.close(cr, want, tol=1e-7):
        return f"cross ratio {cr!r} != {want!r}"
    return None


def _check_power(q, r):
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    center, kappa, p, u, v = q
    want = oracle.power(center, kappa, p, u, v)
    if not oracle.close(r, want, scale=oracle.power_scale(center, kappa, p, u, v)):
        return f"power {r!r} != {want!r}"
    return None


def _check_secant(q, r):
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    _, _, _, _, _, _, x1, x2 = q
    got = [(r.a.x, r.a.y), (r.b.x, r.b.y)]
    scale = max(1.0, *(abs(c) for c in (*x1, *x2)))

    def near(p, x):
        return abs(p[0] - x[0]) <= 1e-8 * scale and abs(p[1] - x[1]) <= 1e-8 * scale

    if (near(got[0], x1) and near(got[1], x2)) or (near(got[0], x2) and near(got[1], x1)):
        return None
    return f"secant points {got!r} != {x1!r}, {x2!r}"


def _check_radical_center(q, r):
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    curves, u, v = q
    x, y = oracle.radical_center(curves, u, v)
    scale = max(1.0, abs(x), abs(y))
    if abs(r.x - x) > 1e-8 * scale or abs(r.y - y) > 1e-8 * scale:
        return f"radical center ({r.x!r}, {r.y!r}) != ({x!r}, {y!r})"
    return None


def _check_degenerate(q, r):
    if isinstance(r, BaseException):
        return f"raised {r!r}"
    m1, m2 = q
    want = oracle.degenerate_limit(m1, m2)
    if not oracle.close(r.extrapolated_limit, want, tol=1e-6, scale=max(1.0, abs(m1), abs(m2))):
        return f"limit {r.extrapolated_limit!r} != {want!r}"
    return None


QUERIES = {
    "angle": (_run_angle, _check_angle),
    "component": (_run_component, _check_component),
    "midpoint": (_run_midpoint, _check_midpoint),
    "sector": (_run_sector, _check_sector),
    "cross_ratio": (_run_cross_ratio, _check_cross_ratio),
    "power": (_run_power, _check_power),
    "secant": (_run_secant, _check_secant),
    "radical_center": (_run_radical_center, _check_radical_center),
    "degenerate": (_run_degenerate, _check_degenerate),
}


def run_queries(queries, times_us, kinds_out, kind_index, tracer=None):
    """Run each query, appending its wall time (us) and kind; returns the outcomes."""
    clock = time.perf_counter_ns
    outcomes = []
    for kind, payload in queries:
        run = QUERIES[kind][0]
        if tracer is not None:
            tracer.current_op += 1
        t0 = clock()
        try:
            result = run(payload)
        except Exception as exc:  # the checker decides whether it was expected
            # Drop the traceback: it holds this frame, and so every outcome, in a cycle.
            result = exc.with_traceback(None)
        t1 = clock()
        times_us.append((t1 - t0) / 1000.0)
        kinds_out.append(kind_index[kind])
        outcomes.append(result)
    return outcomes


def check_query(query, outcome):
    kind, payload = query
    return QUERIES[kind][1](payload, outcome)


# ------------------------------------------------------------- locus-sweep


def run_locus(spec):
    a, b, u, v, theta, n = spec
    s = ISO.IsopticSpec(KER.Point(*a), KER.Point(*b), _dirs(u, v), theta)
    curve = ISO.isoptic_curve(s)
    return curve, ISO.sample_locus(s, n)


def check_samples(frame: oracle.IsopticFrame, samples, n: int):
    """Reason a list of (x, y, admissible) locus samples is wrong, or None."""
    if len(samples) != n:
        return f"{len(samples)} samples, expected {n}"
    for x, y, ok in samples:
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"non-finite sample ({x!r}, {y!r})"
        res = frame.residual(x, y)
        if res > oracle.RESIDUAL_TOL:
            return f"sample ({x!r}, {y!r}) off the isoptic (relative residual {res:.3g})"
        want = frame.admissible(x, y)
        if want is not None and want != ok:
            return f"sample ({x!r}, {y!r}) admissible={ok!r}, oracle says {want!r}"
    return None


def check_locus(spec, outcome):
    if isinstance(outcome, BaseException):
        return f"raised {outcome!r}"
    a, b, u, v, theta, n = spec
    curve, samples = outcome
    frame = oracle.IsopticFrame(a, b, u, v, theta)
    if not oracle.close(curve.beta, frame.beta):
        return f"beta {curve.beta!r} != {frame.beta!r}"
    if not oracle.same_conic(frame.original_conic(), curve.original_conic.as_tuple()):
        return "original conic differs from the oracle's"
    return check_samples(frame, [(p.x, p.y, ok) for p, ok in samples], n)


# ------------------------------------------------------------- cli-oneshot


def _no_special_floats(token):
    raise ValueError(f"JSON carries the non-RFC-8259 token {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_no_special_floats)


def check_error_exit(code: int, stdout: str, stderr: str, expected: int):
    """Reason an invalid input did not end in a clean error with the expected exit code."""
    if code != expected:
        return f"exit {code}, expected {expected}"
    if stdout:
        return "wrote to stdout"
    lines = stderr.splitlines()
    if any(line.startswith("Traceback") for line in lines):
        return "traceback on stderr"
    marker = ": error: " if expected == 1 else ": domain error: "
    errors = [line for line in lines if marker in line]
    if len(errors) != 1:
        return f"{len(errors)} error lines on stderr"
    # argparse prints a usage banner before a parse error; any other extra line fails.
    others = [line for line in lines if line not in errors]
    if any(not (line.startswith("usage:") or line.startswith(" ")) for line in others):
        return f"unexpected stderr {stderr!r}"
    return None


def contract_violation(code: int, stdout: str, stderr: str):
    """ROADMAP contract: strict JSON with exit 0, or exactly one stderr line with exit 1 or 2."""
    if code == 0:
        try:
            strict_json(stdout)
        except ValueError as exc:
            return str(exc)
        return None
    if code in (1, 2) and len(stderr.splitlines()) == 1 and "Traceback" not in stderr:
        return None
    return f"exit {code} with {len(stderr.splitlines())} stderr lines"


def check_command(kind: str, data, code: int, stdout: str, stderr: str, svg_path: str):
    """Reason a valid CLI invocation's output is wrong, or None."""
    if kind == "bad":
        return check_error_exit(code, stdout, stderr, data)
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}"
    if kind == "isoptic-svg":
        return _check_svg(stdout, svg_path, data[-1])
    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    out = doc["outputs"]
    if kind == "angle":
        o, a, b, u, v = data
        want = oracle.angle(o, a, b, u, v)
        if want is None:
            return None if out["real"] is False else "expected a non-real angle"
        if not (out["real"] and oracle.close(out["angle"], want)):
            return f"angle {out['angle']!r} != {want!r}"
    elif kind == "power":
        center, kappa, p = data
        u, v = (1.0, 0.0), (0.0, 1.0)
        want = oracle.power(center, kappa, p, u, v)
        if not oracle.close(out["power"], want, scale=oracle.power_scale(center, kappa, p, u, v)):
            return f"power {out['power']!r} != {want!r}"
    elif kind == "chords-t":
        x, y = oracle.chord_intersection(*data, 1.0)
        if not (oracle.close(out["intersection_x"], x) and oracle.close(out["intersection"][0], x)
                and oracle.close(out["intersection"][1], y)):
            return f"chord intersection {out['intersection']!r} != ({x!r}, {y!r})"
    elif kind == "chords-progression":
        _, r, _, kappa = data
        want = oracle.progression_area(r, kappa)
        if not oracle.close(out["area"], want):
            return f"area {out['area']!r} != {want!r}"
    elif kind == "radical-center":
        x, y = oracle.radical_center(data, (1.0, 0.0), (0.0, 1.0))
        got = out["center"]
        if not (oracle.close(got[0], x, scale=10.0) and oracle.close(got[1], y, scale=10.0)):
            return f"radical center {got!r} != ({x!r}, {y!r})"
    elif kind == "degenerate":
        m1, m2 = data
        want = oracle.degenerate_limit(m1, m2)
        if not oracle.close(out["extrapolated_limit"], want, tol=1e-6, scale=max(1.0, abs(m1), abs(m2))):
            return f"limit {out['extrapolated_limit']!r} != {want!r}"
    elif kind == "isoptic-json":
        a, b, u, v, theta, n = data
        frame = oracle.IsopticFrame(a, b, u, v, theta)
        cx, cy = frame.center()
        got = out["center"]
        if not (oracle.close(got[0], cx, scale=10.0) and oracle.close(got[1], cy, scale=10.0)):
            return f"center {got!r} != ({cx!r}, {cy!r})"
        if not oracle.same_conic(frame.original_conic(), out["original_conic"]):
            return "original conic differs from the oracle's"
        samples = [(s["point"][0], s["point"][1], s["admissible"]) for s in out["samples"]]
        return check_samples(frame, samples, n)
    return None


def _check_svg(stdout: str, path: str, n: int):
    if stdout:
        return "svg run wrote to stdout"
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"unreadable SVG: {exc}"
    ns = "{http://www.w3.org/2000/svg}"
    points = sum(len(p.get("points").split()) for p in root.iter(ns + "polyline"))
    markers = len(list(root.iter(ns + "circle")))
    if points != n or markers != 2:
        return f"SVG has {points} polyline points and {markers} markers, expected {n} and 2"
    return None


def run_subprocess(argv, env, cwd):
    """One `python -m uvangle` process: (wall seconds, exit code, stdout, stderr)."""
    cmd = [sys.executable, "-m", "uvangle", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    return wall, proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace")


def run_in_process(argv):
    """cli.main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        try:
            code = CLI.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a traceback in the one-shot CLI
            err.write(f"Traceback (most recent call last):\n{exc!r}\n")
            code = 1
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()
