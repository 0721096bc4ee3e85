"""Closed-form j-fold densities of the triangle and their optimal lattices.

The closed forms are 2j^2/(2j+1) for packing and (2j+1)/2 for covering, and
the lattices attaining them are one family for both kinds: the stair
lattices (1, m), (0, 2j+1) of ``shift_lattice`` with gcd(m, 2j+1) =
gcd(m+1, 2j+1) = 1, scaled by 1/(2j) for packing and by 1/(2j+1) for
covering (``family_lattice``).  A triangle a, b, c carries lattices
through its edge basis b - a, c - a (``triangle_lattice``), and every
j-fold predicate and density value is invariant under that linear map.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Frozen, Point, fields_json
from .lattice import Lattice, shift_lattice
from .multiplicity import (COVERING, KIND_MODE, PACKING, Region,
                           jfold_violation, triangle_region)
from .stairs import admissible_shifts


class DensityPredicateError(ValueError):
    """The lattice fails the requested j-fold predicate; carries a witness
    point whose multiplicity violates it."""

    def __init__(self, message: str, witness: Point, multiplicity: int):
        super().__init__(message)
        self.witness = witness
        self.multiplicity = multiplicity


class DensityResult(Frozen):
    """A density value with the lattices that witness it."""

    value: Fraction
    kind: str
    j: int
    witness_lattices: tuple[Lattice, ...]

    to_json = fields_json


def packing_density(j: int) -> Fraction:
    """Best j-fold lattice packing density of a triangle: 2j^2/(2j+1)."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return Fraction(2 * j * j, 2 * j + 1)


def covering_density(j: int) -> Fraction:
    """Best j-fold lattice covering density of a triangle: (2j+1)/2."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    return Fraction(2 * j + 1, 2)


_CLOSED_FORMS = {PACKING: packing_density, COVERING: covering_density}


def _unit_triangle(kind: str) -> Region:
    """The standard triangle in the mode that decides the kind's predicate."""
    if kind not in KIND_MODE:
        raise ValueError(f"kind must be {PACKING!r} or {COVERING!r}: {kind}")
    return triangle_region(1, KIND_MODE[kind])


def family_lattice(j: int, m: int, kind: str) -> Lattice:
    """``shift_lattice(m, j)`` scaled by 1/(2j) for packing and by
    1/(2j+1) for covering: for an admissible m, a lattice attaining the
    kind's closed form."""
    return shift_lattice(m, j).scaled(
        Fraction(1, 2 * j if kind == PACKING else 2 * j + 1))


def _optimal_lattices(j: int, kind: str, verify: bool) -> list[Lattice]:
    region = _unit_triangle(kind)
    lats = [family_lattice(j, m, kind) for m in admissible_shifts(j)]
    if verify:
        for lat in lats:
            if jfold_violation(region, lat, j, kind) is not None:
                raise AssertionError(
                    f"claimed optimal {kind} lattice fails the predicate: "
                    f"{lat.to_json()}")
            if Fraction(1, 2) / lat.d != _CLOSED_FORMS[kind](j):
                raise AssertionError(
                    f"density mismatch for {lat.to_json()}")
    return lats


def optimal_packing_lattices(j: int, verify: bool = True) -> list[Lattice]:
    """``family_lattice(j, m, PACKING)`` for the admissible shifts m; each
    is checked to pack j-fold at the closed form density when verify is
    set."""
    return _optimal_lattices(j, PACKING, verify)


def optimal_covering_lattices(j: int, verify: bool = True) -> list[Lattice]:
    """``family_lattice(j, m, COVERING)`` for the admissible shifts m; each
    is checked to cover j-fold at the closed form density when verify is
    set."""
    return _optimal_lattices(j, COVERING, verify)


def density_of(lat: Lattice, j: int, kind: str) -> Fraction:
    """|T| / d(lat) if the unit triangle with this lattice satisfies the
    requested j-fold predicate; raises DensityPredicateError with a witness
    point otherwise."""
    violation = jfold_violation(_unit_triangle(kind), lat, j, kind)
    if violation is not None:
        witness, mult = violation
        many = f"{mult} open" if kind == PACKING else f"only {mult} closed"
        raise DensityPredicateError(
            f"not a {j}-fold {kind}: point {witness.to_json()} lies in "
            f"{many} translates", witness, mult)
    return Fraction(1, 2) / lat.d


def density_result(j: int, kind: str) -> DensityResult:
    """Closed-form density together with its verified optimal lattices."""
    lats = tuple(_optimal_lattices(j, kind, True))
    return DensityResult(_CLOSED_FORMS[kind](j), kind, j, lats)


def _edges(a: Point, b: Point, c: Point) -> Lattice:
    """The edge basis b - a, c - a; collinear vertices raise ValueError."""
    e1, e2 = b - a, c - a
    if e1.x * e2.y == e1.y * e2.x:
        raise ValueError(f"collinear triangle vertices: {a}, {b}, {c}")
    return Lattice(e1, e2)


def triangle_lattice(a: Point, b: Point, c: Point, lat: Lattice) -> Lattice:
    """``lat`` carried from the standard triangle to a, b, c: each basis
    vector (x, y) goes to x (b - a) + y (c - a)."""
    edges = _edges(a, b, c)
    return Lattice(edges.point(lat.u1.x, lat.u1.y),
                   edges.point(lat.u2.x, lat.u2.y))


def triangle_jfold_predicate(a: Point, b: Point, c: Point, lat: Lattice,
                             j: int, kind: str) -> bool:
    """j-fold packing/covering predicate for an arbitrary triangle, decided
    on the standard triangle with the lattice written in the triangle's
    edge basis."""
    edges = _edges(a, b, c)
    moved = Lattice(Point(*edges.coefficients(lat.u1)),
                    Point(*edges.coefficients(lat.u2)))
    return jfold_violation(_unit_triangle(kind), moved, j, kind) is None
