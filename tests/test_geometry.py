import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from stairtile import (Point, StairPolygon, format_rational, parse_rational,
                       prec)
from stairtile.geometry import ScaledTriangle

from oracles import stair_area_by_columns

rationals = hyp.fractions(min_value=-10, max_value=10, max_denominator=64)
points = hyp.builds(Point, rationals, rationals)


def test_parse_and_format_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational(" -7 ") == F(-7)
    assert format_rational(F(5, 1)) == "5"
    assert format_rational(F(-2, 3)) == "-2/3"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e3")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    # a malformed token is named, not reported as an int() literal
    for text in ("", "x", "1/x", "1/", "/2", "1/2/3"):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert str(err.value) == f"not an integer or a/b: {text!r}"


def test_prec_examples():
    assert prec(Point(0, 0), Point(1, 0))
    assert prec(Point(0, 1), Point(1, 0))  # equal sums, smaller x first
    assert not prec(Point(F(1, 2), F(1, 2)), Point(F(1, 2), F(1, 2)))


@given(points, points)
def test_prec_trichotomy_and_asymmetry(p, q):
    if p == q:
        assert not prec(p, q) and not prec(q, p)
    else:
        assert prec(p, q) != prec(q, p)


@given(points, points, points)
def test_prec_transitive(p, q, r):
    if prec(p, q) and prec(q, r):
        assert prec(p, r)


@given(points, points, points)
def test_prec_translation_compatible(p, q, w):
    assert prec(p, q) == prec(p + w, q + w)


def test_stair_validation_rejects_degenerate():
    # the messages print rationals as a/b, not as Fraction reprs
    with pytest.raises(ValueError, match=r"increasing: \(0, 0, 1\)$"):
        StairPolygon([0, 0, 1], [2, 1])  # zero-width column
    with pytest.raises(ValueError, match=r"decreasing: \(1, 1\)$"):
        StairPolygon([0, 1, 2], [1, 1])  # non-decreasing heights
    with pytest.raises(ValueError, match=r"decreasing: \(1, 1/2, 1/2\)$"):
        StairPolygon([0, 1, 2, 3], [1, F(1, 2), F(1, 2)])
    with pytest.raises(ValueError, match=r"positive: \(0\)$"):
        StairPolygon([0, 1], [0])  # non-positive height
    with pytest.raises(ValueError):
        StairPolygon([0, 1, 2], [1])  # length mismatch


def test_stair_contains_half_open():
    s1 = StairPolygon([0, 1, 2], [2, 1])
    assert s1.contains(Point(0, 0))
    assert not s1.contains(Point(1, 1))  # second column has height 1
    assert not s1.contains(Point(0, 2))  # top edge excluded
    assert s1.contains(Point(1, 0))
    assert not s1.contains(Point(2, 0))  # right edge excluded
    assert not s1.contains(Point(F(-1, 2), F(1, 2)))


def test_stair_corner_membership_rule():
    s = StairPolygon([0, 1, 3], [3, 1])
    # every corner: closed-left/open-right, closed-bottom/open-top
    assert s.contains(Point(0, 0))
    assert s.contains(Point(1, 0))
    assert not s.contains(Point(3, 0))
    assert not s.contains(Point(0, 3))
    assert not s.contains(Point(1, 1))
    assert s.contains(Point(1, F(1, 2)))


def test_stair_closed_and_interior():
    s = StairPolygon([0, 1, 2], [2, 1])
    assert s.contains_closed(Point(0, 2))
    assert s.contains_closed(Point(2, 1))
    assert s.contains_closed(Point(1, F(3, 2)))  # wall below taller column
    assert not s.contains_closed(Point(1, F(5, 2)))
    assert not s.contains_interior(Point(1, F(3, 2)))  # on the wall
    assert s.contains_interior(Point(1, F(1, 2)))  # wall below both columns
    assert not s.contains_interior(Point(0, 1))
    assert s.contains_interior(Point(F(1, 2), 1))


def test_stair_area_examples():
    # oracle: sum of column heights 2j, 2j-1, ..., 1
    assert stair_area_by_columns(1) == 3
    assert stair_area_by_columns(2) == 10
    assert StairPolygon([0, 1, 2], [2, 1]).area() == 3
    assert StairPolygon([0, 1, 2, 3, 4], [4, 3, 2, 1]).area() == 10
    assert StairPolygon([0, 1], [1]).area() == 1


def test_scale_stair_examples():
    s1 = StairPolygon([0, 1, 2], [2, 1])
    assert s1.scaled(F(1, 3)) == StairPolygon([0, "1/3", "2/3"],
                                              ["2/3", "1/3"])
    assert s1.scaled(1) == s1
    s2 = StairPolygon([0, 1, 2, 3, 4], [4, 3, 2, 1])
    assert s2.scaled(F(1, 4)).area() == F(5, 8)
    with pytest.raises(ValueError):
        s1.scaled(0)
    with pytest.raises(ValueError):
        s1.scaled(F(-1, 2))


@settings(max_examples=60)
@given(hyp.fractions(min_value="1/7", max_value=5, max_denominator=24))
def test_stair_area_scales_quadratically(c):
    rng = random.Random(7)
    xs = sorted(rng.sample(range(0, 12), 4))
    hs = sorted(rng.sample(range(1, 12), 3), reverse=True)
    s = StairPolygon(xs, hs)
    assert s.scaled(c).area() == c * c * s.area()


def test_stair_json_round_trip():
    s = StairPolygon([0, "1/3", "2/3"], ["2/3", "1/3"])
    blob = json.dumps(s.to_json())
    assert StairPolygon.from_json(json.loads(blob)) == s


def test_triangle_membership_and_area():
    t = ScaledTriangle(F(3, 2))
    assert t.contains_closed(Point(0, 0))
    assert t.contains_closed(Point(F(3, 4), F(3, 4)))
    assert not t.contains_interior(Point(F(3, 4), F(3, 4)))
    assert t.contains_interior(Point(F(1, 2), F(1, 2)))
    assert not t.contains_closed(Point(1, 1))
    with pytest.raises(ValueError):
        ScaledTriangle(F(0))
