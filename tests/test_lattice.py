import random
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hyp

from stairtile import (Box, Lattice, Point, enumerate_integer_sublattices,
                       integer_lattice, points_in_box, shift_lattice)

from oracles import canonical_key_reference, lattice_points_bruteforce


def test_lattice_constructor_examples():
    assert Lattice(Point(1, 0), Point(0, 1)).det == 1
    assert Lattice(Point(1, 1), Point(0, 3)).det == 3
    with pytest.raises(ValueError):
        Lattice(Point(1, 2), Point(2, 4))


_COORD = hyp.fractions(min_value=-6, max_value=6, max_denominator=30)
_SHEAR = hyp.integers(min_value=-4, max_value=4)
_BIG = 2**31


@settings(max_examples=300, deadline=None)
@given(_COORD, _COORD, _COORD, _COORD, _SHEAR, _SHEAR, hyp.booleans())
@example(F(1, _BIG - 1), F(3, _BIG - 3), F(-5, _BIG + 11), F(7, _BIG - 1),
         2, -1, False)
@example(F(_BIG - 5, _BIG - 1), F(-1, _BIG + 1), F(2, _BIG - 3),
         F(_BIG + 3, _BIG - 5), -3, 1, True)
@example(F(0), F(1, _BIG - 1), F(1, _BIG + 1), F(0), 0, 0, False)
def test_canonical_key_matches_reference(x1, y1, x2, y2, k, m, swap):
    assume(x1 * y2 != y1 * x2)
    # a unimodular skew: two shears, then perhaps a swap
    u1, u2 = Point(x1, y1), Point(x2, y2)
    u2 = u2 + u1.scaled(k)
    u1 = u1 + u2.scaled(m)
    if swap:
        u1, u2 = u2, u1
    lat = Lattice(u1, u2)
    key = lat.canonical_key()
    assert key == canonical_key_reference(u1, u2)
    assert key == canonical_key_reference(Point(x1, y1), Point(x2, y2))
    assert lat.d == abs(lat.det)


@pytest.mark.parametrize("u1, u2", [
    (Point(1, 2), Point(2, 4)),                       # collinear
    (Point(F(1, 3), F(1, 2)), Point(F(-2, 3), -1)),   # collinear, rational
    (Point(0, 1), Point(0, 2)),                       # both x-coordinates 0
    (Point(0, F(1, 5)), Point(0, F(-3, 7))),
    (Point(0, 0), Point(1, 1)),                       # a zero vector
    (Point(F(2, 3), F(1, 7)), Point(0, 0)),
])
def test_singular_bases_raise(u1, u2):
    with pytest.raises(ValueError, match="singular basis"):
        Lattice(u1, u2)
    with pytest.raises(ValueError):
        canonical_key_reference(u1, u2)


def test_shift_lattice_examples():
    l11 = shift_lattice(1, 1)
    assert (l11.u1, l11.u2) == (Point(1, 1), Point(0, 3))
    l22 = shift_lattice(2, 2)
    assert (l22.u1, l22.u2) == (Point(1, 2), Point(0, 5))
    assert l22.det == 5
    with pytest.raises(ValueError):
        shift_lattice(0, 1)


def test_shift_lattice_membership_combination_oracle():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 9)
        j = rng.randint(1, 4)
        b = rng.randint(-3, 3)
        lat = shift_lattice(m, j)
        # a*(1,m) + b*(0,2j+1) with a = 5
        assert lat.contains(Point(5, 5 * m + b * (2 * j + 1)))
        assert not lat.contains(Point(5, 5 * m + b * (2 * j + 1) + 1)) or \
            (2 * j + 1) == 1


def test_points_in_box_examples():
    nine = points_in_box(integer_lattice(), Box(0, 2, 0, 2))
    assert len(nine) == 9
    diag = points_in_box(shift_lattice(1, 1), Box(0, 2, 0, 2))
    assert diag == [Point(0, 0), Point(1, 1), Point(2, 2)]
    only_origin = points_in_box(shift_lattice(2, 2), Box(0, 0, 0, 4))
    assert only_origin == [Point(0, 0)]


def test_points_in_box_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.choice([1, 2, 3])
        while True:
            u1 = Point(F(rng.randint(-3, 3), q), F(rng.randint(-3, 3), q))
            u2 = Point(F(rng.randint(-3, 3), q), F(rng.randint(-3, 3), q))
            if u1.x * u2.y != u1.y * u2.x:
                break
        lat = Lattice(u1, u2)
        box = Box(F(rng.randint(-4, 0)), F(rng.randint(1, 4)),
                  F(rng.randint(-4, 0)), F(rng.randint(1, 4)))
        got = points_in_box(lat, box)
        assert got == lattice_points_bruteforce(lat, box, coeff=30)
        # every point solves back to integer coefficients
        for p in got:
            a, b = lat.coefficients(p)
            assert a.denominator == 1 and b.denominator == 1
    # skewed bases with denominators up to 30: a short basis given through
    # a unimodular change, so the canonical basis is far from the given one
    checked = 0
    while checked < 25:
        u1, u2 = (Point(F(rng.randint(-30, 30), rng.randint(1, 30)),
                        F(rng.randint(-30, 30), rng.randint(1, 30)))
                  for _ in range(2))
        if not F(1, 8) <= abs(u1.x * u2.y - u1.y * u2.x) <= 2:
            continue
        for _ in range(3):
            k = rng.choice((-2, -1, 1, 2))
            u1, u2 = (u1 + u2.scaled(k), u2) if rng.random() < 0.5 else (
                u1, u2 + u1.scaled(k))
        lat = Lattice(u1, u2)
        x0, y0 = F(rng.randint(-60, 60), 7), F(rng.randint(-60, 60), 11)
        box = Box(x0, x0 + F(rng.randint(10, 40), 7),
                  y0, y0 + F(rng.randint(10, 40), 11))
        corners = [Point(x, y) for x in (box.x_min, box.x_max)
                   for y in (box.y_min, box.y_max)]
        coeff = ceil(max(abs(c) for p in corners
                         for c in lat.coefficients(p)))
        if coeff > 60:
            continue
        checked += 1
        assert points_in_box(lat, box) == lattice_points_bruteforce(
            lat, box, coeff=coeff)


def test_points_in_box_negation_closure():
    lat = shift_lattice(2, 1)
    box = Box(F(-2), F(3), F(-1), F(4))
    neg_box = Box(-box.x_max, -box.x_min, -box.y_max, -box.y_min)
    pts = {(p.x, p.y) for p in points_in_box(lat, box)}
    neg = {(-p.x, -p.y) for p in points_in_box(lat, neg_box)}
    assert pts == neg


def test_enumerate_integer_sublattices_examples():
    got = enumerate_integer_sublattices(3)
    assert [(l.u1, l.u2) for l in got] == [
        (Point(1, 0), Point(0, 3)), (Point(1, 1), Point(0, 3)),
        (Point(1, 2), Point(0, 3)), (Point(3, 0), Point(0, 1))]
    assert enumerate_integer_sublattices(1) == [integer_lattice()]
    assert len(enumerate_integer_sublattices(5)) == 6  # sigma(5)


def test_enumerate_integer_sublattices_pairwise_distinct():
    for n in (4, 6, 12):
        lats = enumerate_integer_sublattices(n)
        assert len(set(lats)) == len(lats)
        # distinctness is witnessed by basis membership, not basis labels
        for i, a in enumerate(lats):
            for b in lats[i + 1:]:
                assert not (b.contains(a.u1) and b.contains(a.u2)
                            and a.contains(b.u1) and a.contains(b.u2))


def test_scaled_determinant_quadratic():
    lat = shift_lattice(3, 2)
    for c in (F(1, 2), F(2, 3), F(5)):
        assert lat.scaled(c).d == c * c * lat.d


def test_lattice_equality_is_basis_membership():
    assert Lattice(Point(0, 1), Point(1, 0)) == integer_lattice()
    assert Lattice(Point(1, 1), Point(0, 1)) == integer_lattice()
    assert Lattice(Point(2, 1), Point(1, 1)) == integer_lattice()
    assert Lattice(Point(1, 1), Point(1, -1)) != integer_lattice()
    assert len({Lattice(Point(0, 1), Point(1, 0)), integer_lattice()}) == 1


def test_canonical_form_shape():
    lat = Lattice(Point(F(-1, 2), F(3, 4)), Point(F(1, 2), F(1, 4)))
    x1, y1, y2 = lat.canonical_key()
    assert Lattice(Point(x1, y1), Point(0, y2)) == lat
    assert x1 > 0 and y2 > 0
    assert 0 <= y1 < y2


def test_fundamental_rect_is_fundamental():
    # the canonical rectangle [0, x1) x [0, y2) of the basis (x1, y1),
    # (0, y2)
    lat = shift_lattice(2, 1)
    w, _, h = lat.canonical_key()
    assert w * h == lat.d
    rng = random.Random(9)
    for _ in range(50):
        p = Point(F(rng.randint(-30, 30), 5), F(rng.randint(-30, 30), 5))
        # exactly one translate of p lands in the rectangle
        hits = [v for v in points_in_box(
            lat, Box(-p.x - w, -p.x + w, -p.y - h, -p.y + h))
            if 0 <= p.x + v.x < w and 0 <= p.y + v.y < h]
        assert len(hits) == 1


def test_lattice_json_round_trip():
    lat = Lattice(Point(F(1, 3), F(2, 3)), Point(0, 1))
    assert Lattice.from_json(lat.to_json()) == lat
