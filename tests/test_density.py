import random
from fractions import Fraction as F

import pytest

from stairtile import (Lattice, Mode, Point, canonical_stair,
                       selection_stair, count_at, count_optimal_lattices,
                       covering_density, density_result, integer_lattice,
                       optimal_covering_lattices, optimal_packing_lattices,
                       packing_density, triangle_lattice, triangle_region)
from stairtile import density
from stairtile.density import family_lattice

from oracles import triangle_count_reference


def test_density_formulas():
    assert packing_density(1) == F(2, 3)
    assert packing_density(2) == F(8, 5)
    assert packing_density(3) == F(18, 7)
    assert covering_density(1) == F(3, 2)
    assert covering_density(2) == F(5, 2)
    assert covering_density(4) == F(9, 2)
    with pytest.raises(ValueError):
        packing_density(0)


def test_optimal_packing_lattices_j1():
    lats = optimal_packing_lattices(1)
    assert lats == [Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))]


def test_optimal_covering_lattices_examples():
    lats = optimal_covering_lattices(1)
    assert lats == [Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))]
    lats2 = optimal_covering_lattices(2)
    assert len(lats2) == 3
    assert all(lat.d == F(1, 5) for lat in lats2)
    assert len(optimal_covering_lattices(3)) == 5


def test_family_lattice_bases():
    # the basis itself, not only the lattice: to_json prints the basis
    for j in range(1, 9):
        for m in range(1, 2 * j + 2):
            lat = family_lattice(j, m, "packing")
            assert (lat.u1, lat.u2) == (
                Point(F(1, 2 * j), F(m, 2 * j)),
                Point(0, F(2 * j + 1, 2 * j)))
            lat = family_lattice(j, m, "covering")
            assert (lat.u1, lat.u2) == (
                Point(F(1, 2 * j + 1), F(m, 2 * j + 1)), Point(0, 1))
    for j, m in ((0, 1), (1, 0)):
        for kind in ("packing", "covering"):
            with pytest.raises(ValueError):
                family_lattice(j, m, kind)


def test_optimal_family_sizes_match_phi2():
    for j in range(1, 5):
        assert len(optimal_packing_lattices(j)) == count_optimal_lattices(j)
        assert len(optimal_covering_lattices(j)) == count_optimal_lattices(j)


def test_optimal_lattices_verified_through_j5():
    # verify=True re-checks the family by the stair lemma and the density
    for j in range(1, 6):
        assert len(optimal_packing_lattices(j, verify=True)) == \
            count_optimal_lattices(j)
        assert len(optimal_covering_lattices(j, verify=True)) == \
            count_optimal_lattices(j)


def test_family_check_refuses_a_non_tiler(monkeypatch):
    # m = 4 is not admissible at j = 2: gcd(5, 5) != 1, so S_2 does not
    # tile with shift_lattice(4, 2) and the check must refuse the claim
    monkeypatch.setattr(density, "admissible_shifts",
                        lambda j: [1, 2, 3, 4])
    for kind in ("packing", "covering"):
        with pytest.raises(AssertionError,
                           match=r"shifts \[1, 2, 3\], not \[1, 2, 3, 4\]"):
            density_result(2, kind)


def test_density_result_payload():
    res = density_result(2, "covering")
    assert res.value == F(5, 2)
    assert len(res.witness_lattices) == 3
    for lat in res.witness_lattices:
        assert F(1, 2) / lat.d == res.value
    with pytest.raises(ValueError, match="kind must be"):
        density_result(1, "nonsense")


def _random_triangle(rng):
    """Seeded rational vertices a, b, c, not collinear, of either
    orientation and away from the origin."""
    while True:
        a, b, c = (Point(F(rng.randint(-9, 9), rng.randint(1, 4)),
                         F(rng.randint(-9, 9), rng.randint(1, 4)))
                   for _ in range(3))
        e1, e2 = b - a, c - a
        if e1.x * e2.y != e1.y * e2.x:
            return a, b, c


def test_triangle_lattice_examples():
    lat = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    unit = (Point(0, 0), Point(1, 0), Point(0, 1))
    assert triangle_lattice(*unit, lat) == lat
    # the basis itself is carried, not only the point set
    moved = triangle_lattice(Point(1, 1), Point(3, 2), Point(2, 4), lat)
    assert (moved.u1, moved.u2) == (Point(1, F(4, 3)), Point(1, 3))
    doubled = triangle_lattice(Point(5, 5), Point(7, 5), Point(5, 7), lat)
    assert doubled == lat.scaled(2)


def test_triangle_transport_of_predicates():
    # the translates of a, b, c by the carried lattice meet the point
    # u = a + s (b - a) + t (c - a) as often as the translates of the unit
    # triangle meet (s, t), closed and open, so every j-fold predicate
    # carries over; counted by the edge-determinant oracle
    rng = random.Random(13)
    cover_lat = Lattice(Point(F(1, 3), F(1, 3)), Point(0, 1))
    pack_lat = Lattice(Point(F(1, 2), F(1, 2)), Point(0, F(3, 2)))
    # not symmetric in x and y, unlike the three others
    skew_lat = Lattice(Point(F(2, 3), F(1, 5)), Point(F(-1, 4), F(3, 2)))
    # boundary points of the unit triangle and its translates, and inside
    grid = [F(0), F(1, 3), F(1, 2), F(1)]
    orientations = set()
    for _ in range(8):
        a, b, c = _random_triangle(rng)
        area = abs((b - a).x * (c - a).y - (b - a).y * (c - a).x) / 2
        orientations.add(triangle_lattice(a, b, c, integer_lattice()).det > 0)
        for lat in (cover_lat, pack_lat, integer_lattice(), skew_lat):
            moved = triangle_lattice(a, b, c, lat)
            for s, t in [(s, t) for s in grid for t in grid] + [
                    (F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 5))]:
                u = a + (b - a).scaled(s) + (c - a).scaled(t)
                for mode in (Mode.CLOSED, Mode.INTERIOR):
                    expected = count_at(lat, triangle_region(1, mode),
                                        Point(s, t))
                    assert triangle_count_reference(
                        a, b, c, moved, u, mode is Mode.CLOSED) == expected
            # the density ratio |T| / d is invariant
            assert area / moved.d == F(1, 2) / lat.d
    assert orientations == {True, False}


def test_collinear_triangle_vertices_raise():
    lat = integer_lattice()
    for a, b, c in ((Point(0, 0), Point(1, 1), Point(2, 2)),
                    (Point(F(1, 2), 0), Point(1, F(-1, 3)),
                     Point(0, F(1, 3))),
                    (Point(1, 2), Point(1, 2), Point(3, 4))):
        with pytest.raises(ValueError, match="collinear triangle vertices"):
            triangle_lattice(a, b, c, lat)


def test_chain_inequalities():
    pack1 = packing_density(1)
    cover1 = covering_density(1)
    for j in range(1, 7):
        assert j * pack1 <= packing_density(j) <= j
        assert j <= covering_density(j) <= j * cover1


def test_duality_of_optimal_structures():
    for j in (1, 2):
        for lat in optimal_covering_lattices(j, verify=False):
            res = selection_stair(lat, j)
            assert res.stair == canonical_stair(j).scaled(F(1, 2 * j + 1))
        for lat in optimal_packing_lattices(j, verify=False):
            res = selection_stair(lat, j)
            assert res.stair == canonical_stair(j).scaled(F(1, 2 * j))
