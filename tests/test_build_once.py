"""Each value type builds its derived maps once, and copies rebuild them.

``DirectionPair`` keeps its (u, v) basis, ``IsopticSpec`` its canonical map
and that map's inverse, ``AxisHyperbola`` its inverse frame and frame
center.  The call counts go through every ``uvangle`` module namespace, the
way perfbench's tracer rebinds functions, so a consumer that builds one of
those maps again shows up as an extra call.  The kernel entry points that
take a ``DirectionPair`` read its basis and build none, and the query paths
build no ``DirectionVector`` or ``AffineMap`` on the way to their result.
``sample_locus`` builds each sample's ``Point`` past its constructor, as
an equal, hashable, picklable and frozen value, evaluates each t grid
point's sinh once, and runs the band test only where the closed form
proves no flag.
"""

import copy
import math
import pickle
import sys
from collections import Counter

import pytest

import uvangle.angle
import uvangle.isoptic
import uvangle.kernel
import uvangle.power
from helpers import run_cli
from uvangle import (
    AffineMap,
    AxisHyperbola,
    DirectionPair,
    DirectionVector,
    IsopticSpec,
    Point,
    affine_angle,
    decompose,
    is_same_component,
    normalize_configuration,
    sample_locus,
    secant_intersections,
    sector_area_equivalence,
)

# Each counted function and the module that defines it (``uvangle.power`` is also
# the name of a function the package exports, so modules are named, not imported).
COUNTED = {
    "normalize_configuration": "uvangle.kernel",
    "invert_map": "uvangle.kernel",
    "basis_map": "uvangle.kernel",
    "decompose": "uvangle.kernel",
}

ISOPTIC = (
    "isoptic", "--A", "0.3,-0.7", "--B", "2.1,0.4", "--u", "2,0.5", "--v", "-0.6,1.5",
    "--theta", "-1.3", "--samples", "8",
)


@pytest.fixture
def calls(monkeypatch):
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # The handlers import these modules when they run; all are loaded above.
    for name, home in COUNTED.items():
        original = getattr(sys.modules[home], name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "uvangle" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("output", ["json", "svg"])
def test_isoptic_builds_the_canonical_map_once(calls, output):
    assert run_cli(*ISOPTIC, "--output", output).returncode == 0
    assert (calls["normalize_configuration"], calls["invert_map"]) == (1, 1)


@pytest.mark.parametrize("output", ["json", "svg"])
def test_isoptic_builds_the_basis_once(calls, output):
    assert run_cli(*ISOPTIC, "--output", output).returncode == 0
    assert calls["basis_map"] == 1


def test_radical_center_inverts_each_frame_once(calls):
    assert run_cli("radical-center", "--h1", "0,0,1", "--h2", "-1,-0.5,3", "--h3", "1,2,2",
                   "--u", "2,0.5", "--v", "-0.6,1.5").returncode == 0
    assert calls["invert_map"] == 3


def test_reflected_radical_center_inverts_each_frame_once(calls):
    # kappa < 0 reflects the frame; only the reflected frame is inverted.
    assert run_cli("radical-center", "--h1", "0,0,-1", "--h2", "-1,-0.5,-3", "--h3", "1,2,2",
                   "--u", "2,0.5", "--v", "-0.6,1.5").returncode == 0
    assert calls["invert_map"] == 3


def test_angle_builds_the_basis_once(calls):
    assert run_cli("angle", "--O", "0.5,-0.25", "--A", "3,1.5", "--B", "1.5,2",
                   "--u", "2,0.5", "--v", "-0.6,1.5").returncode == 0
    assert (calls["basis_map"], calls["decompose"]) == (1, 0)


DIRS = DirectionPair(DirectionVector(2.0, 0.5), DirectionVector(-0.6, 1.5))


def test_pair_entry_points_build_no_basis(calls):
    normalize_configuration(Point(0.3, -0.7), Point(2.1, 0.4), DIRS)
    d = DirectionVector(1.0, 2.0)
    c = DIRS._basis.apply_linear(d)
    assert decompose(d, DIRS) == (c.dx, c.dy)
    assert calls["basis_map"] == 0


def count_constructions(monkeypatch, classes) -> Counter:
    counts: Counter = Counter()
    for cls in classes:
        def init(self, *args, _name=cls.__name__, _init=cls.__init__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


@pytest.fixture
def constructed(monkeypatch):
    return count_constructions(monkeypatch, (DirectionVector, AffineMap))


O, A, B = Point(0.5, -0.25), Point(3.0, 1.5), Point(1.5, 2.0)
SECANT = DirectionVector(1.0, 0.3)
QUERIES = {
    "affine_angle": lambda h: affine_angle(O, A, B, DIRS),
    "is_same_component": lambda h: is_same_component(O, A, B, DIRS),
    "sector_area_equivalence": lambda h: sector_area_equivalence(O, A, B, DIRS),
    "secant_intersections": lambda h: secant_intersections(B, SECANT, h),
}


@pytest.mark.parametrize("query", QUERIES)
def test_queries_build_no_directions_or_maps(constructed, query):
    h = AxisHyperbola.from_directions(Point(0.5, -1.0), -1.5, DIRS.u, DIRS.v)
    constructed.clear()  # the arguments and the curve are the caller's
    QUERIES[query](h)
    assert constructed == {}


def test_axis_hyperbola_builds_no_point(monkeypatch):
    center = Point(0.5, -1.0)
    constructed = count_constructions(monkeypatch, (Point,))
    AxisHyperbola.from_directions(center, -1.5, DIRS.u, DIRS.v)
    assert constructed == {}


@pytest.mark.parametrize("n", [2, 3, 8, 33, 256])
def test_sample_locus_builds_points_past_init(monkeypatch, n):
    spec = IsopticSpec(Point(0.3, -0.7), Point(2.1, 0.4), DIRS, -1.3)
    constructed = count_constructions(monkeypatch, (DirectionVector, AffineMap, Point))
    samples = sample_locus(spec, n)
    assert constructed == {}
    assert len(samples) == n
    for p, _ in samples:
        assert type(p) is Point
        twin = Point(p.x, p.y)
        assert p == twin and hash(p) == hash(twin)
        assert pickle.loads(pickle.dumps(p)) == p
        with pytest.raises(AttributeError):
            p.x = 0.0


@pytest.mark.parametrize("n, sinh_calls", [(2, 2), (8, 5), (256, 129), (3, 4), (33, 34)])
def test_sample_locus_evaluates_sinh_once_per_grid_point(monkeypatch, n, sinh_calls):
    # Even n: both branches share one grid of n/2 points; odd n: two grids.  The
    # extra call is sinh(theta).
    spec = IsopticSpec(Point(0.3, -0.7), Point(2.1, 0.4), DIRS, -1.3)
    counts: Counter = Counter()
    sinh = math.sinh

    def counting(x):
        counts["sinh"] += 1
        return sinh(x)

    monkeypatch.setattr(math, "sinh", counting)
    sample_locus(spec, n)
    assert counts["sinh"] == sinh_calls


@pytest.mark.parametrize(
    "a, b, u, v, theta, tested",
    [
        # The README spec: only the four samples next to each of A and B; the
        # closed form proves every other flag True.
        ((-1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, -1.0), 1.0, 8),
        # The windows cover the parametrized branch, and the reflected branch's
        # bound 4 / sh^2 is below 2 BOUNDARY_EPS Q: every sample is tested.
        ((0.3, -0.7), (2.1, 0.4), (2.0, 0.5), (-0.6, 1.5), 50.0, 256),
    ],
)
def test_sample_locus_tests_only_the_unproved_flags(monkeypatch, a, b, u, v, theta, tested):
    dirs = DirectionPair(DirectionVector(*u), DirectionVector(*v))
    spec = IsopticSpec(Point(*a), Point(*b), dirs, theta)
    counts: Counter = Counter()
    band_product = uvangle.isoptic._band_product

    def counting(qx, qy):
        counts["band"] += 1
        return band_product(qx, qy)

    monkeypatch.setattr(uvangle.isoptic, "_band_product", counting)
    sample_locus(spec, 256)
    assert counts["band"] == tested


def pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, pickled])
def test_copies_rebuild_the_derived_maps(clone):
    dirs = clone(DIRS)
    assert dirs._basis == DIRS._basis
    o, a, b = Point(0.5, -0.25), Point(3.0, 1.5), Point(1.5, 2.0)
    assert affine_angle(o, a, b, dirs).theta.hex() == affine_angle(o, a, b, DIRS).theta.hex()

    spec = IsopticSpec(Point(0.3, -0.7), Point(2.1, 0.4), DIRS, -1.3)
    twin = clone(spec)
    assert (twin._to_canonical, twin._frame) == (spec._to_canonical, spec._frame)

    def hexed(samples):
        return [(p.x.hex(), p.y.hex(), ok) for p, ok in samples]

    assert hexed(sample_locus(twin, 33)) == hexed(sample_locus(spec, 33))

    # A negative kappa reflects the frame; the copy inverts the reflected one.
    h = AxisHyperbola(Point(0.5, -1.0), -1.5, AffineMap(0.8, -0.3, 0.4, 1.1, 0.2, -0.7))
    h2 = clone(h)
    assert (h2._inverse, h2._frame_center) == (h._inverse, h._frame_center)
    p, d = Point(2.0, 3.0), DirectionVector(1.0, 0.3)
    r1, r2 = secant_intersections(p, d, h), secant_intersections(p, d, h2)
    assert [v.hex() for v in (r1.a.x, r1.a.y, r1.b.x, r1.b.y, r1.alpha, r1.beta)] == [
        v.hex() for v in (r2.a.x, r2.a.y, r2.b.x, r2.b.y, r2.alpha, r2.beta)
    ]

