"""Value semantics of the frozen classes: equality, hashing, immutability
and construction, the contract of ``geometry.Frozen``."""

from fractions import Fraction as F

import pytest

from stairtile import (AffineMap, AreaOptimum, Box, CanonicalRegions,
                       DensityResult, HalfOpenBox, Lattice, Mode,
                       MultiplicityReport, Point, Region, RenderSpec,
                       ScaleCertificate, ScaledTriangle, SearchReport,
                       SelectionStair, StairPolygon)
from stairtile.geometry import Frozen

_LAT = Lattice(Point(1, 1), Point(0, 3))
_STAIR = StairPolygon((F(0), F(1), F(2)), (F(2), F(1)))
_REGION = Region(_STAIR, Mode.HALF_OPEN)
_CELL = HalfOpenBox(F(0), F(1), F(0), F(1))

# Field values already in normal form, so each object's fields are these.
CASES = {
    Point: (F(1), F(1, 2)),
    Box: (F(0), F(1), F(0), F(2)),
    StairPolygon: ((F(0), F(1), F(2)), (F(2), F(1))),
    ScaledTriangle: (F(3, 2),),
    Lattice: (Point(1, 1), Point(0, 3)),
    AffineMap: (F(1), F(0), F(0), F(2), Point(0, 0)),
    DensityResult: (F(2, 3), "packing", 1, (_LAT,)),
    ScaleCertificate: (F(2), True, F(3, 2), False, F(5, 2), True),
    SearchReport: (F(2, 3), (_LAT,), 10, {"j": 1}),
    AreaOptimum: (0.3, (0.5,), F(1, 3), 0.03, 0.0, F(1, 4)),
    Region: (_STAIR, Mode.HALF_OPEN),
    MultiplicityReport: (1, 2, Point(0, 0), Point(1, 0)),
    HalfOpenBox: (F(0), F(1), F(0), F(1)),
    CanonicalRegions: (1, _STAIR, (_CELL,), (_CELL,), (_CELL,), (_CELL,),
                       (_CELL,)),
    SelectionStair: (_STAIR, (Point(1, 1),), (Point(0, 2), Point(2, 0)),
                     F(2)),
    RenderSpec: (_REGION, _LAT, 1, Box(0, 1, 0, 1), 2),
}


def test_every_value_class_is_covered():
    assert len(CASES) == 16
    assert all(issubclass(cls, Frozen) for cls in CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    args = CASES[cls]
    names = cls._fields
    assert names == tuple(cls.__annotations__)
    obj = cls(*args)
    assert tuple(getattr(obj, name) for name in names) == args
    assert obj == cls(*args)
    assert not obj != cls(*args)
    if cls is not Lattice:  # a lattice hashes by its canonical key
        try:
            expected = hash(args)
        except TypeError:  # a dict field: unhashable, as the tuple is
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected

    other = type("Other", (Frozen,), {"__annotations__": dict.fromkeys(
        names, "object")})(*args)
    assert obj != other and other != obj

    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, args[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert getattr(obj, names[0]) == args[0]

    assert cls(**dict(zip(names, args))) == obj
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})


def test_box_and_half_open_box_with_equal_fields_differ():
    assert Box(0, 1, 0, 1) != HalfOpenBox(0, 1, 0, 1)
    assert len({Box(0, 1, 0, 1), HalfOpenBox(0, 1, 0, 1)}) == 2


def test_lattice_equality_is_by_canonical_key():
    a = Lattice(Point(1, 0), Point(0, 1))
    b = Lattice(Point(1, 1), Point(0, -1))
    assert a == b and hash(a) == hash(b)
    assert a.canonical_key() == b.canonical_key()
    assert (a.u1, a.u2) != (b.u1, b.u2)
    assert a != Lattice(Point(2, 0), Point(0, 1))
    assert "__init__" in vars(Lattice)


def test_repr_keeps_the_field_format():
    assert repr(Point(F(1, 2), 3)) == "Point(x=Fraction(1, 2), y=Fraction(3, 1))"
    assert repr(ScaledTriangle(2)) == "ScaledTriangle(side=Fraction(2, 1))"


def test_degenerate_boxes_print_rationals():
    with pytest.raises(ValueError, match=r"degenerate box .* = "
                       r"\(1, 0, 0, 1/2\)$"):
        Box(1, 0, 0, F(1, 2))
    with pytest.raises(ValueError, match=r"empty half open box .* = "
                       r"\(0, 1, 1/3, 1/3\)$"):
        HalfOpenBox(0, 1, F(1, 3), F(1, 3))
