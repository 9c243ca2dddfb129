"""Contract of the public value types: repr, equality, hash, immutability,
keyword construction and defaults, pickling and copying, and field validation."""

import copy
import math
import pickle

import pytest

from uvangle import (
    AffineMap,
    AngleResult,
    AxisHyperbola,
    ConicCoefficients,
    DirectionPair,
    DirectionVector,
    IsopticCurve,
    IsopticSpec,
    LimitReport,
    Line,
    Point,
    Ray,
    SecantResult,
    SigmaValue,
    SlopePair,
)
from uvangle.errors import DegenerateConfiguration, SingularMap

U = DirectionVector(1.0, 1.0)
V = DirectionVector(1.0, -1.0)
DIRS = DirectionPair(U, V)
FRAME = AffineMap(2.0, 0.5, -0.25, 1.5, 3.0, -1.0)
CONIC = ConicCoefficients(1.0, 0.0, -1.0, 0.0, -2.0, -1.0)

# (type, field names in declaration order, field values of one valid instance)
CASES = [
    (Point, ("x", "y"), (1.0, -2.5)),
    (DirectionVector, ("dx", "dy"), (3.0, 4.0)),
    (Line, ("base", "dir"), (Point(0.0, 1.0), DirectionVector(1.0, 2.0))),
    (Ray, ("origin", "dir"), (Point(-1.0, 0.0), DirectionVector(0.5, 0.5))),
    (AffineMap, ("xx", "xy", "yx", "yy", "tx", "ty"), (2.0, 0.5, -0.25, 1.5, 3.0, -1.0)),
    (DirectionPair, ("u", "v"), (U, V)),
    (SigmaValue, ("value", "infinite"), (-0.75, False)),
    (AngleResult, ("theta", "reason"), (None, "rays lie in different components")),
    (IsopticSpec, ("a", "b", "dirs", "theta"), (Point(-1.0, 0.0), Point(1.0, 0.0), DIRS, 1.0)),
    (ConicCoefficients, ("c_xx", "c_xy", "c_yy", "c_x", "c_y", "c_0"), CONIC.as_tuple()),
    (
        IsopticCurve,
        ("normalized_conic", "beta", "frame", "original_conic"),
        (CONIC, 1.3130352854993312, FRAME, CONIC),
    ),
    (AxisHyperbola, ("center", "kappa", "frame"), (Point(0.5, -1.0), 2.0, FRAME)),
    (
        SecantResult,
        ("a", "b", "alpha", "beta", "tangent"),
        (Point(1.0, 1.0), Point(2.0, 0.5), 1.0, 2.0, False),
    ),
    (SlopePair, ("m1", "m2"), (2.0, -1.0)),
    (LimitReport, ("samples", "extrapolated_limit", "residual_order"), ([(0.01, 1.0)], 1.0, 2.0)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_fields_repr_and_keyword_construction(cls, names, values):
    obj = cls(*values)
    assert tuple(getattr(obj, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == obj
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(obj) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"
    assert repr(Line(Point(0.0, 0.0), DirectionVector(1.0, 0.0))) == (
        "Line(base=Point(x=0.0, y=0.0), dir=DirectionVector(dx=1.0, dy=0.0))"
    )
    assert repr(SigmaValue.infinity()) == "SigmaValue(value=inf, infinite=True)"
    assert repr(AngleResult.real(0.5)) == "AngleResult(theta=0.5, reason=None)"


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_equality_and_hash(cls, names, values):
    obj, twin = cls(*values), cls(*values)
    assert obj == twin and not (obj != twin)
    assert obj.__eq__(object()) is NotImplemented
    assert obj != values
    if cls is LimitReport:
        with pytest.raises(TypeError):  # its samples field is a list
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(values)


def test_inequality_across_types_and_values():
    assert Point(1, 2) != DirectionVector(1, 2)
    assert not (Point(1, 2) == DirectionVector(1, 2))
    assert Line(Point(0, 0), DirectionVector(1, 0)) != Ray(Point(0, 0), DirectionVector(1, 0))
    assert Point(1.0, 2.0) != Point(1.0, 2.5)
    assert AffineMap(1, 0, 0, 1) != AffineMap(1, 0, 0, 1, 0.0, 1.0)
    assert SigmaValue(1.0) != SigmaValue(1.0, True)
    assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_immutable(cls, names, values):
    obj = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == values[names.index(name)]
    with pytest.raises(AttributeError):
        obj.extra = 1.0


def test_defaults():
    assert AffineMap(1.0, 2.0, 3.0, 4.0) == AffineMap(1.0, 2.0, 3.0, 4.0, 0.0, 0.0)
    m = AffineMap(xx=1.0, xy=2.0, yx=3.0, yy=4.0, ty=5.0)
    assert (m.tx, m.ty) == (0.0, 5.0)
    assert SigmaValue(2.0).infinite is False
    assert SigmaValue(value=2.0).is_finite
    assert AngleResult(0.25).reason is None
    assert AngleResult(theta=None, reason="x").is_real is False
    s = SecantResult(Point(1, 1), Point(1, 1), 1.0, 1.0)
    assert s.tangent is False


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, names, values):
    obj = cls(*values)
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
        copy.deepcopy(obj),
        copy.copy(obj),
    ):
        assert type(clone) is cls
        assert clone == obj
        assert repr(clone) == repr(obj)


def test_round_trip_keeps_normalized_fields():
    conic = ConicCoefficients(0.0, -4.0, 0.0, 2.0, 0.0, 1.0)
    assert conic.as_tuple() == (0.0, 1.0, 0.0, -0.5, 0.0, -0.25)
    assert pickle.loads(pickle.dumps(conic)).as_tuple() == conic.as_tuple()
    h = AxisHyperbola(Point(1.0, 2.0), -3.0, FRAME)
    assert h.kappa == 3.0
    assert h.frame == AffineMap(-2.0, -0.5, -0.25, 1.5, -3.0, -1.0)
    for clone in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
        assert clone == h
        assert clone.kappa == 3.0 and clone.frame == h.frame


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Point(math.nan, 0.0), ValueError),
        (lambda: Point(0.0, math.inf), ValueError),
        (lambda: DirectionVector(0.0, 0.0), ValueError),
        (lambda: DirectionVector(-math.inf, 1.0), ValueError),
        (lambda: AffineMap(1.0, 0.0, 0.0, 1.0, math.nan), ValueError),
        (lambda: AffineMap(1.0, 0.0, 0.0, 1.0, ty=math.inf), ValueError),
        (lambda: DirectionPair(U, DirectionVector(-2.0, -2.0)), DegenerateConfiguration),
        (lambda: IsopticSpec(Point(-1, 0), Point(1, 0), DIRS, 0.0), ValueError),
        (lambda: IsopticSpec(Point(-1, 0), Point(1, 0), DIRS, math.nan), ValueError),
        (lambda: IsopticSpec(Point(1, 0), Point(1, 0), DIRS, 1.0), DegenerateConfiguration),
        (lambda: IsopticSpec(Point(0, 0), Point(1, 1), DIRS, 1.0), DegenerateConfiguration),
        (lambda: ConicCoefficients(0.0, 0.0, 0.0, 1.0, 1.0, 1.0), ValueError),
        (lambda: AxisHyperbola(Point(0, 0), 0.0, FRAME), ValueError),
        (lambda: AxisHyperbola(Point(0, 0), math.inf, FRAME), ValueError),
        (lambda: AxisHyperbola(Point(0, 0), 1.0, AffineMap(1.0, 2.0, 0.5, 1.0)), SingularMap),
        (lambda: SlopePair(0.0, 1.0), ValueError),
        (lambda: SlopePair(1.0, 0.0), ValueError),
    ],
)
def test_invalid_fields_raise(build, error):
    with pytest.raises(error):
        build()
