"""Seeded input generation for the three workloads.

Inputs are plain floats and tuples; the workloads turn them into uvangle
objects inside the timed region.  One seed gives one input stream, and a
stream is consumed in order, so a run's inputs are a prefix of that stream.
Generation rejects draws that sit near a singular configuration, so that no
valid query is expected to fail.
"""

from __future__ import annotations

import math
import random

# query-mix kinds and their fixed weights (they sum to 100).
QUERY_WEIGHTS = {
    "angle": 35,
    "component": 10,
    "midpoint": 10,
    "sector": 5,
    "cross_ratio": 5,
    "power": 15,
    "secant": 10,
    "radical_center": 5,
    "degenerate": 5,
}
QUERY_KINDS = tuple(QUERY_WEIGHTS)

CROSS_SHARE = 0.3  # angle and component queries whose rays lie in different components
SINGULAR_SHARE = 0.05  # ray queries with a ray parallel to u or v (SingularRay expected)
LOCUS_SIZES = (256, 4096)  # sample_locus sizes, alternating


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def signed(rng: random.Random, x: float) -> float:
    return x if rng.random() < 0.5 else -x


def frame(rng: random.Random):
    """Sheared, non-unit (u, v): |sin angle(u, v)| in [0.2, 1], norms in [0.1, 10]."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    lo = math.asin(0.2)
    delta = signed(rng, rng.uniform(lo, math.pi - lo))
    nu, nv = log_uniform(rng, 0.1, 10.0), log_uniform(rng, 0.1, 10.0)
    u = (nu * math.cos(phi), nu * math.sin(phi))
    v = (nv * math.cos(phi + delta), nv * math.sin(phi + delta))
    return u, v


def point(rng: random.Random, r: float = 5.0):
    return (rng.uniform(-r, r), rng.uniform(-r, r))


def slope(rng: random.Random) -> float:
    return signed(rng, log_uniform(rng, 0.1, 10.0))


def direction(rng: random.Random, m: float, u, v):
    """A direction s*(u + m*v) with slope m in (u, v) coordinates and a random signed length."""
    s = signed(rng, log_uniform(rng, 0.3, 3.0))
    return (s * (u[0] + m * v[0]), s * (u[1] + m * v[1]))


def sine(a, b) -> float:
    return abs(a[0] * b[1] - a[1] * b[0]) / (math.hypot(*a) * math.hypot(*b))


def _singular_direction(rng: random.Random, u, v):
    ref = u if rng.random() < 0.5 else v
    s = signed(rng, log_uniform(rng, 0.3, 3.0))
    return (s * ref[0], s * ref[1])


def _ray_pair(rng: random.Random, cross: bool):
    """Vertex, frame, two ray directions and whether one of them is singular."""
    o = point(rng)
    u, v = frame(rng)
    m_a = slope(rng)
    m_b = abs(slope(rng)) * math.copysign(1.0, m_a) * (-1.0 if cross else 1.0)
    d_a, d_b = direction(rng, m_a, u, v), direction(rng, m_b, u, v)
    singular = rng.random() < SINGULAR_SHARE
    if singular:
        d_a = _singular_direction(rng, u, v)
    return o, u, v, d_a, d_b, singular


def _offset(o, d):
    return (o[0] + d[0], o[1] + d[1])


def _aux_line(rng: random.Random, o, avoid):
    """An auxiliary line well away from o and from every direction in ``avoid``."""
    while True:
        r = rng.uniform(0.5, 3.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        base = (o[0] + r * math.cos(psi), o[1] + r * math.sin(psi))
        chi = rng.uniform(0.0, math.pi)
        w = (math.cos(chi), math.sin(chi))
        reach = abs((base[0] - o[0]) * w[1] - (base[1] - o[1]) * w[0])
        if reach >= 0.2 * r and all(sine(w, d) >= 0.1 for d in avoid):
            return base, w


def _hyperbola_point(center, kappa, alpha, u, v):
    """center + alpha*u + (kappa/alpha)*v, on (x - c)(y - d) = kappa in (u, v) coordinates."""
    beta = kappa / alpha
    return (center[0] + alpha * u[0] + beta * v[0], center[1] + alpha * u[1] + beta * v[1])


def query(rng: random.Random, kind: str):
    """One query of ``kind`` as (kind, payload); payload is a tuple of floats and flags."""
    if kind in ("angle", "component"):
        cross = rng.random() < CROSS_SHARE
        o, u, v, d_a, d_b, singular = _ray_pair(rng, cross)
        return kind, (o, _offset(o, d_a), _offset(o, d_b), u, v, singular)
    if kind in ("midpoint", "sector"):
        o, u, v, d_a, d_b, singular = _ray_pair(rng, False)
        if kind == "midpoint":
            return kind, (o, d_a, d_b, u, v, singular)
        return kind, (o, _offset(o, d_a), _offset(o, d_b), u, v, singular)
    if kind == "cross_ratio":
        o = point(rng)
        u, v = frame(rng)
        while True:
            slopes = [slope(rng) for _ in range(4)]
            logs = sorted(math.log(abs(m)) + (0.0 if m > 0 else 100.0) for m in slopes)
            if min(b - a for a, b in zip(logs, logs[1:])) >= 0.05:
                break
        dirs = [direction(rng, m, u, v) for m in slopes]
        base, w = _aux_line(rng, o, [u, v, *dirs])
        return kind, (o, u, v, dirs, base, w)
    if kind == "power":
        u, v = frame(rng)
        center, kappa = point(rng, 3.0), signed(rng, log_uniform(rng, 0.1, 10.0))
        a, b = signed(rng, log_uniform(rng, 0.1, 10.0)), signed(rng, log_uniform(rng, 0.1, 10.0))
        p = (center[0] + a * u[0] + b * v[0], center[1] + a * u[1] + b * v[1])
        return kind, (center, kappa, p, u, v)
    if kind == "secant":
        u, v = frame(rng)
        center, kappa = point(rng, 3.0), signed(rng, log_uniform(rng, 0.2, 5.0))
        while True:
            a1 = signed(rng, log_uniform(rng, 0.2, 5.0))
            a2 = signed(rng, log_uniform(rng, 0.2, 5.0))
            if abs(math.log(abs(a1 / a2))) >= 0.2 or a1 * a2 < 0.0:
                break
        x1 = _hyperbola_point(center, kappa, a1, u, v)
        x2 = _hyperbola_point(center, kappa, a2, u, v)
        tau = rng.choice((rng.uniform(-1.5, -0.2), rng.uniform(0.2, 0.8), rng.uniform(1.2, 2.5)))
        p = (x1[0] + tau * (x2[0] - x1[0]), x1[1] + tau * (x2[1] - x1[1]))
        s = signed(rng, log_uniform(rng, 0.1, 10.0))
        d = (s * (x2[0] - x1[0]), s * (x2[1] - x1[1]))
        return kind, (center, kappa, p, d, u, v, x1, x2)
    if kind == "radical_center":
        u, v = frame(rng)
        while True:
            centers = [point(rng, 3.0) for _ in range(3)]
            coords = []
            for c in centers:
                det = u[0] * v[1] - u[1] * v[0]
                coords.append(((c[0] * v[1] - c[1] * v[0]) / det, (u[0] * c[1] - u[1] * c[0]) / det))
            e1 = (coords[1][0] - coords[0][0], coords[1][1] - coords[0][1])
            e2 = (coords[2][0] - coords[1][0], coords[2][1] - coords[1][1])
            if min(math.hypot(*e1), math.hypot(*e2)) >= 0.5 and sine(e1, e2) >= 0.2:
                break
        curves = [(c[0], c[1], signed(rng, log_uniform(rng, 0.2, 5.0))) for c in centers]
        return kind, (curves, u, v)
    if kind == "degenerate":
        return kind, (slope(rng), slope(rng))
    raise ValueError(f"unknown query kind {kind!r}")


class QueryStream:
    """Seeded stream of query-mix queries; each query draws a fresh frame."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"query-mix:{seed}")
        self.weights = [QUERY_WEIGHTS[k] for k in QUERY_KINDS]

    def take(self, count: int):
        kinds = self.rng.choices(QUERY_KINDS, weights=self.weights, k=count)
        return [query(self.rng, k) for k in kinds]


class LocusStream:
    """Seeded stream of isoptic specs (a, b, u, v, theta, n), n alternating over LOCUS_SIZES."""

    def __init__(self, seed: int, sizes=LOCUS_SIZES):
        self.rng = random.Random(f"locus-sweep:{seed}")
        self.sizes = sizes
        self.count = 0

    def next(self):
        rng = self.rng
        u, v = frame(rng)
        a = point(rng)
        while True:
            chi = rng.uniform(0.0, 2.0 * math.pi)
            h = (math.cos(chi), math.sin(chi))
            if sine(h, u) >= 0.1 and sine(h, v) >= 0.1:
                break
        length = log_uniform(rng, 0.2, 5.0)
        b = (a[0] + length * h[0], a[1] + length * h[1])
        theta = signed(rng, rng.uniform(0.05, 4.0))
        n = self.sizes[self.count % len(self.sizes)]
        self.count += 1
        return a, b, u, v, theta, n


def _pair(p) -> str:
    return f"{p[0]!r},{p[1]!r}"


def _jitter(rng: random.Random, x: float, r: float) -> float:
    return x + rng.uniform(-r, r)


def _readme_isoptic(rng: random.Random):
    a = (_jitter(rng, -1.0, 0.2), _jitter(rng, 0.0, 0.2))
    b = (_jitter(rng, 1.0, 0.2), _jitter(rng, 0.0, 0.2))
    u = (_jitter(rng, 1.0, 0.2), _jitter(rng, 1.0, 0.2))
    v = (_jitter(rng, 1.0, 0.2), _jitter(rng, -1.0, 0.2))
    theta = signed(rng, _jitter(rng, 1.0, 0.3))
    argv = ["isoptic", "--A", _pair(a), "--B", _pair(b), "--u", _pair(u), "--v", _pair(v),
            "--theta", repr(theta)]
    return argv, (a, b, u, v, theta)


def good_command(rng: random.Random, kind: str, out_path: str):
    """argv for one valid README-like invocation of ``kind`` and the data to check it."""
    if kind == "angle":
        o = (_jitter(rng, 0.0, 0.5), _jitter(rng, 0.0, 0.5))
        u, v = (1.0, _jitter(rng, 0.0, 0.3)), (_jitter(rng, 0.0, 0.3), 1.0)
        m_a = signed(rng, log_uniform(rng, 0.3, 3.0))
        m_b = math.copysign(log_uniform(rng, 0.3, 3.0), m_a) * (-1.0 if rng.random() < CROSS_SHARE else 1.0)
        a = _offset(o, direction(rng, m_a, u, v))
        b = _offset(o, direction(rng, m_b, u, v))
        argv = ["angle", "--O", _pair(o), "--A", _pair(a), "--B", _pair(b), "--u", _pair(u), "--v", _pair(v)]
        return argv, (o, a, b, u, v)
    if kind == "power":
        kappa = signed(rng, log_uniform(rng, 0.5, 2.0))
        center = (_jitter(rng, 0.0, 0.5), _jitter(rng, 0.0, 0.5))
        p = (_jitter(rng, 2.0, 0.5), _jitter(rng, 2.0, 0.5))
        argv = ["power", "--kappa", repr(kappa), "--center", _pair(center), "--P", _pair(p)]
        return argv, (center, kappa, p)
    if kind == "chords-t":
        t = tuple(_jitter(rng, x, 0.3) for x in (1.0, 4.0, 2.0, 3.0))
        return ["chords", "--t", ",".join(repr(x) for x in t)], t
    if kind == "chords-progression":
        a, r, kappa = rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.0), rng.uniform(0.5, 2.0)
        p = log_uniform(rng, 1.5 * a * r**3, 100.0)
        argv = ["chords", "--progression", f"{a!r},{r!r},{p!r}", "--kappa", repr(kappa)]
        return argv, (a, r, p, kappa)
    if kind == "radical-center":
        readme = ((0.0, 0.0, 1.0), (-1.0, -0.5, 3.0), (1.0, 2.0, 2.0))
        curves = [(_jitter(rng, cx, 0.3), _jitter(rng, cy, 0.3), k * rng.uniform(0.8, 1.25)) for cx, cy, k in readme]
        argv = ["radical-center"]
        for i, c in enumerate(curves, 1):
            argv += [f"--h{i}", ",".join(repr(x) for x in c)]
        return argv, curves
    if kind == "degenerate":
        m1, m2 = _jitter(rng, 2.0, 0.5), _jitter(rng, 1.0, 0.5)
        return ["degenerate", "--m1", repr(m1), "--m2", repr(m2)], (m1, m2)
    if kind == "isoptic-json":
        argv, spec = _readme_isoptic(rng)
        return argv + ["--samples", "64"], spec + (64,)
    if kind == "isoptic-svg":
        argv, spec = _readme_isoptic(rng)
        return argv + ["--samples", "256", "--output", "svg", "--out", out_path], spec + (256,)
    raise ValueError(f"unknown command kind {kind!r}")


GOOD_COMMANDS = (
    "angle", "power", "chords-t", "chords-progression",
    "radical-center", "degenerate", "isoptic-json", "isoptic-svg",
)


def bad_command(rng: random.Random, parse: bool):
    """argv for an invalid invocation the CLI rejects cleanly, and the expected exit code."""
    if parse:
        o, a, b = _pair(point(rng, 2.0)), _pair(point(rng, 2.0)), _pair(point(rng, 2.0))
        choices = [
            ["angle", "--O", o, "--A", f"{a},{rng.uniform(0, 1)!r}", "--B", b, "--u", "1,0", "--v", "0,1"],
            ["angle", "--O", o, "--A", "x" + a, "--B", b, "--u", "1,0", "--v", "0,1"],
            ["power", "--kappa", repr(rng.uniform(0.5, 2.0)), "--center", o],
            ["transform", "--P", o],
            ["isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1", "--theta", "1",
             "--output", "pdf"],
        ]
        return rng.choice(choices), 1
    m = rng.uniform(0.5, 2.0)
    t1, t2, t3 = rng.uniform(0.5, 2.0), rng.uniform(2.5, 4.0), rng.uniform(1.0, 3.0)
    o = point(rng, 2.0)
    s = rng.uniform(0.5, 2.0)
    c1 = point(rng, 2.0)
    step = (rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))
    choices = [
        ["angle", "--O", _pair(o), "--A", _pair((o[0] + s, o[1])), "--B", _pair((o[0] + 1.0, o[1] + 2.0)),
         "--u", "1,0", "--v", "0,1"],
        ["power", "--kappa", "0", "--center", _pair(o), "--P", "2,2"],
        ["chords", "--t", ",".join(repr(x) for x in (t1, t2, t3, t1 * t2 / t3))],
        ["degenerate", "--m1", "0", "--m2", repr(m)],
        ["isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1", "--theta", repr(m * 1e-8)],
        ["isoptic", "--A", _pair(o), "--B", _pair(o), "--u", "1,1", "--v", "1,-1", "--theta", repr(m)],
        ["radical-center", "--h1", f"{c1[0]!r},{c1[1]!r},1", "--h2",
         f"{c1[0] + step[0]!r},{c1[1] + step[1]!r},{m!r}", "--h3",
         f"{c1[0] + 2 * step[0]!r},{c1[1] + 2 * step[1]!r},2"],
    ]
    return rng.choice(choices), 2


class CommandStream:
    """Seeded stream of CLI invocations in blocks of ten: the eight README commands
    in a seeded order, one of them again, and one invalid input.

    Items are (kind, argv, data): data is the check data of a valid command,
    or the expected exit code of an invalid one (kind "bad").
    """

    def __init__(self, seed: int, out_path: str):
        self.rng = random.Random(f"cli-oneshot:{seed}")
        self.out_path = out_path
        self.blocks = 0

    def block(self):
        rng = self.rng
        kinds = list(GOOD_COMMANDS) + [rng.choice(GOOD_COMMANDS)]
        rng.shuffle(kinds)
        items = []
        for kind in kinds:
            argv, data = good_command(rng, kind, self.out_path)
            items.append((kind, argv, data))
        argv, code = bad_command(rng, parse=self.blocks % 2 == 0)
        items.insert(rng.randrange(len(items) + 1), ("bad", argv, code))
        self.blocks += 1
        return items


def contract_probes(seed: int, missing_dir: str):
    """Inputs of the CLI defects known at the seed (ROADMAP item 4), and one parse error.

    Each must end in strict JSON with exit 0 or in exactly one stderr line
    with exit 1 or 2; these are counted, not timed.
    """
    rng = random.Random(f"contract:{seed}")
    m = rng.uniform(0.5, 2.0)
    big = (rng.uniform(0.5, 1.0) * 1e308, rng.uniform(0.5, 1.0) * 1e308)
    iso = ["isoptic", "--A", "-1,0", "--B", "1,0", "--u", "1,1", "--v", "1,-1"]
    return [
        ("nan-slope", ["degenerate", "--m1", "nan", "--m2", repr(m)]),
        ("inf-slope", ["degenerate", "--m1", "inf", "--m2", repr(m)]),
        ("overflow-power", ["power", "--kappa", "1", "--center", "0,0", "--P", _pair(big)]),
        ("large-theta", iso + ["--theta", repr(rng.uniform(750.0, 1000.0))]),
        ("missing-out-dir", iso + ["--theta", repr(m), "--samples", "16", "--output", "svg",
                                   "--out", f"{missing_dir}/locus.svg"]),
        ("parse-error", ["angle", "--O", "0,0", "--A", "1,2,3", "--B", "1,2", "--u", "1,0", "--v", "0,1"]),
    ]
