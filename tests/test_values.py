"""Value semantics of the frozen classes: equality, hashing, immutability
and construction, the contract of ``geometry.Frozen``; and the public
surface: every export has a caller, and README's quick start runs."""

import ast
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import stairtile
from stairtile import (AreaOptimum, Box, DensityResult, Lattice,
                       Mode, MultiplicityReport, Point, Region, RenderSpec,
                       ScaleCertificate, ScaledTriangle, SearchReport,
                       SelectionStair, StairPolygon, canonical_stair,
                       density_result, integer_lattice, lambda_lower,
                       multiplicity_extrema, search_covering, search_packing,
                       selection_stair, shift_lattice, triangle_region)
from stairtile.geometry import Frozen, fields_json

_LAT = Lattice(Point(1, 1), Point(0, 3))
_STAIR = StairPolygon((F(0), F(1), F(2)), (F(2), F(1)))
_REGION = Region(_STAIR, Mode.HALF_OPEN)

# Field values already in normal form, so each object's fields are these.
CASES = {
    Point: (F(1), F(1, 2)),
    Box: (F(0), F(1), F(0), F(2)),
    StairPolygon: ((F(0), F(1), F(2)), (F(2), F(1))),
    ScaledTriangle: (F(3, 2),),
    Lattice: (Point(1, 1), Point(0, 3)),
    DensityResult: (F(2, 3), "packing", 1, (_LAT,)),
    ScaleCertificate: (F(2), True, F(3, 2), False, F(5, 2), True),
    SearchReport: (F(2, 3), (_LAT,), 10, (("j", 1),)),
    AreaOptimum: (0.3, (0.5,), F(1, 3), 0.03, 0.0, F(1, 4)),
    Region: (_STAIR, Mode.HALF_OPEN),
    MultiplicityReport: (1, 2, Point(0, 0), Point(1, 0)),
    SelectionStair: (_STAIR, (Point(1, 1),), (Point(0, 2), Point(2, 0)),
                     F(2)),
    RenderSpec: (_REGION, _LAT, Box(0, 1, 0, 1), 2),
}


def test_every_value_class_is_covered():
    exported = {name for name, obj in vars(stairtile).items()
                if name in stairtile.__all__ and isinstance(obj, type)
                and issubclass(obj, Frozen)}
    assert {cls.__name__ for cls in CASES} == exported


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
        assert hash(obj) == hash(args)

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


# One object of each serialized class and its exact ``json.dumps`` text,
# key order included (the CLI and the benchmark sort keys; this does not).
JSON_CASES = [
    (lambda: Point(F(1), F(-1, 2)), '["1", "-1/2"]'),
    (lambda: canonical_stair(2).scaled(F(1, 3)),
     '{"x_breaks": ["0", "1/3", "2/3", "1", "4/3"], '
     '"heights": ["4/3", "1", "2/3", "1/3"]}'),
    (lambda: Lattice(Point(F(1, 2), 1), Point(0, F(5, 2))),
     '{"u1": ["1/2", "1"], "u2": ["0", "5/2"]}'),
    (lambda: multiplicity_extrema(integer_lattice(),
                                  triangle_region(F(3, 2), Mode.CLOSED)),
     '{"min_mult": 0, "max_mult": 3, "min_witness": ["7/8", "7/8"], '
     '"max_witness": ["1/8", "1/8"]}'),
    (lambda: lambda_lower(shift_lattice(1, 1), 1),
     '{"value": "3", "predicate_at_value": true, "below_scale": "5/2", '
     '"predicate_below": false, "above_scale": "7/2", '
     '"predicate_above": true}'),
    (lambda: density_result(1, "covering"),
     '{"value": "3/2", "kind": "covering", "j": 1, "witness_lattices": '
     '[{"u1": ["1/3", "1/3"], "u2": ["0", "1"]}]}'),
    (lambda: search_packing(1, 2, 3),
     '{"best_value": "2/3", "best_lattices": [{"u1": ["1/2", "1/2"], '
     '"u2": ["0", "3/2"]}], "space_size": 35, "parameters": {"j": 1, '
     '"denominator_bound": 2, "coefficient_bound": 3, "kind": "packing"}}'),
    (lambda: search_covering(2, 1, 1),
     '{"best_value": null, "best_lattices": [], "space_size": 1, '
     '"parameters": {"j": 2, "denominator_bound": 1, '
     '"coefficient_bound": 1, "kind": "covering"}}'),
    (lambda: AreaOptimum(0.25, (0.5, 0.75), F(1, 3), 0.03, 0.0, F(1, 4)),
     '{"value": 0.25, "corner_layout": [0.5, 0.75], "target": "1/3", '
     '"gap": 0.03, "max_bound_violation": 0.0, "snapped_area": "1/4"}'),
    (lambda: selection_stair(shift_lattice(1, 1).scaled(F(1, 3)), 1),
     '{"stair": {"x_breaks": ["0", "1/3", "2/3"], "heights": '
     '["2/3", "1/3"]}, "corners": [["1/3", "1/3"]], "extreme_corners": '
     '[["0", "2/3"], ["2/3", "0"]], "scale": "1"}'),
]


@pytest.mark.parametrize("make, text", JSON_CASES, ids=[
    type(make()).__name__ for make, _ in JSON_CASES])
def test_json_text_and_key_order(make, text):
    assert json.dumps(make().to_json()) == text


def test_serialized_classes_share_one_rule():
    made = {type(make()) for make, _ in JSON_CASES}
    assert len(made) == 9
    plain = made - {Point, SearchReport}
    assert all(cls.to_json is fields_json for cls in plain)
    assert {cls for cls in CASES if "to_json" in vars(cls)
            and cls.to_json is not fields_json} == {Point, SearchReport}


def test_search_reports_hash_by_value():
    report = search_packing(1, 2, 3)
    assert hash(report) == hash(search_packing(1, 2, 3))
    assert report == search_packing(1, 2, 3)
    assert report.parameters == (("j", 1), ("denominator_bound", 2),
                                 ("coefficient_bound", 3),
                                 ("kind", "packing"))


_ROOT = Path(__file__).resolve().parent.parent


def _used_names(path: Path, strings: bool) -> set[str]:
    """Names, attributes and imports in one file, and with strings set its
    string constants too."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            used.add(node.value)
    return used


def test_every_export_has_a_caller():
    # an export must be used by the library itself, the acceptance suite
    # or the benchmark; the benchmark names its traced functions as strings
    src = _ROOT / "src" / "stairtile"
    used = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path, strings=False)
    used |= _used_names(_ROOT / "tests" / "test_acceptance.py", strings=False)
    for path in sorted((_ROOT / "bench").rglob("*.py")):
        used |= _used_names(path, strings=True)
    assert sorted(set(stairtile.__all__) - used) == []


def test_readme_quick_start_runs():
    text = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
