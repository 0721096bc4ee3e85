"""Closed-form j-fold densities of the triangle and their optimal lattices.

The closed forms are 2j^2/(2j+1) for packing and (2j+1)/2 for covering, and
the lattices attaining them come in a single family per kind, indexed by the
shifts m with gcd(m, 2j+1) = gcd(m+1, 2j+1) = 1.  Arbitrary triangles reduce
to the standard one through an exact affine normalization, under which every
j-fold predicate and every density value is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point, ScaledTriangle, format_rational, frac
from .lattice import Lattice
from .multiplicity import (Mode, Region,
                           is_jfold_covering, is_jfold_packing,
                           multiplicity_extrema)
from .stairs import admissible_shifts

PACKING = "packing"
COVERING = "covering"


class DensityPredicateError(ValueError):
    """The lattice fails the requested j-fold predicate; carries a witness
    point whose multiplicity violates it."""

    def __init__(self, message: str, witness: Point, multiplicity: int):
        super().__init__(message)
        self.witness = witness
        self.multiplicity = multiplicity


@dataclass(frozen=True)
class AffineMap:
    """Exact invertible affine map p -> M p + t with a rational 2x2 M."""

    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    t: Point

    def __post_init__(self) -> None:
        for field in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, field, frac(getattr(self, field)))
        if self.det == 0:
            raise ValueError("affine map must be non-singular")

    @property
    def det(self) -> Fraction:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p: Point) -> Point:
        return Point(self.m11 * p.x + self.m12 * p.y + self.t.x,
                     self.m21 * p.x + self.m22 * p.y + self.t.y)

    def apply_linear(self, p: Point) -> Point:
        return Point(self.m11 * p.x + self.m12 * p.y,
                     self.m21 * p.x + self.m22 * p.y)

    def apply_lattice(self, lat: Lattice) -> Lattice:
        return Lattice(self.apply_linear(lat.u1), self.apply_linear(lat.u2))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            self.apply(other.t))

    def inverse(self) -> "AffineMap":
        det = self.det
        inv = AffineMap(self.m22 / det, -self.m12 / det,
                        -self.m21 / det, self.m11 / det,
                        Point(Fraction(0), Fraction(0)))
        return AffineMap(inv.m11, inv.m12, inv.m21, inv.m22,
                         -inv.apply_linear(self.t))

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(Fraction(1), Fraction(0), Fraction(0), Fraction(1),
                         Point(Fraction(0), Fraction(0)))


def normalize_triangle(a: Point, b: Point, c: Point) -> AffineMap:
    """The affine map sending a to (0,0), b to (1,0), c to (0,1).

    Applying it to a lattice preserves every j-fold predicate and density
    value; collinear vertices are rejected.
    """
    e1 = b - a
    e2 = c - a
    det = e1.x * e2.y - e1.y * e2.x
    if det == 0:
        raise ValueError(f"collinear triangle vertices: {a}, {b}, {c}")
    m11 = e2.y / det
    m12 = -e2.x / det
    m21 = -e1.y / det
    m22 = e1.x / det
    t = Point(-(m11 * a.x + m12 * a.y), -(m21 * a.x + m22 * a.y))
    return AffineMap(m11, m12, m21, m22, t)


@dataclass(frozen=True)
class DensityResult:
    """A density value with the lattices that witness it."""

    value: Fraction
    kind: str
    j: int
    witness_lattices: tuple[Lattice, ...]

    def to_json(self) -> dict:
        return {
            "value": format_rational(self.value),
            "kind": self.kind,
            "j": self.j,
            "witness_lattices": [lat.to_json()
                                 for lat in self.witness_lattices],
        }


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


def _unit_triangle(mode: Mode) -> Region:
    return Region(ScaledTriangle(Fraction(1)), mode)


def packing_lattice(j: int, m: int) -> Lattice:
    """The lattice generated by (1/(2j), m/(2j)) and (0, (2j+1)/(2j))."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    den = 2 * j
    return Lattice(Point(Fraction(1, den), Fraction(m, den)),
                   Point(Fraction(0), Fraction(2 * j + 1, den)))


def covering_lattice(j: int, m: int) -> Lattice:
    """The lattice generated by (1/(2j+1), m/(2j+1)) and (0, 1)."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    den = 2 * j + 1
    return Lattice(Point(Fraction(1, den), Fraction(m, den)),
                   Point(Fraction(0), Fraction(1)))


def optimal_packing_lattices(j: int, verify: bool = True) -> list[Lattice]:
    """``packing_lattice(j, m)`` for the admissible shifts m; each is checked
    to pack j-fold at the closed form density when verify is set."""
    lats = [packing_lattice(j, m) for m in admissible_shifts(j)]
    if verify:
        region = _unit_triangle(Mode.INTERIOR)
        for lat in lats:
            if not is_jfold_packing(region, lat, j):
                raise AssertionError(
                    f"claimed optimal packing lattice fails the predicate: "
                    f"{lat.to_json()}")
            if Fraction(1, 2) / lat.d != packing_density(j):
                raise AssertionError(
                    f"density mismatch for {lat.to_json()}")
    return lats


def optimal_covering_lattices(j: int, verify: bool = True) -> list[Lattice]:
    """``covering_lattice(j, m)`` for the admissible shifts m; each is
    checked to cover j-fold at the closed form density when verify is set."""
    lats = [covering_lattice(j, m) for m in admissible_shifts(j)]
    if verify:
        region = _unit_triangle(Mode.CLOSED)
        for lat in lats:
            if not is_jfold_covering(region, lat, j):
                raise AssertionError(
                    f"claimed optimal covering lattice fails the predicate: "
                    f"{lat.to_json()}")
            if Fraction(1, 2) / lat.d != covering_density(j):
                raise AssertionError(
                    f"density mismatch for {lat.to_json()}")
    return lats


def density_of(lat: Lattice, j: int, kind: str) -> Fraction:
    """|T| / d(lat) if the unit triangle with this lattice satisfies the
    requested j-fold predicate; raises DensityPredicateError with a witness
    point otherwise."""
    if kind == PACKING:
        report = multiplicity_extrema(lat, _unit_triangle(Mode.INTERIOR))
        if report.max_mult > j:
            raise DensityPredicateError(
                f"not a {j}-fold packing: point "
                f"{report.max_witness.to_json()} lies in "
                f"{report.max_mult} open translates",
                report.max_witness, report.max_mult)
    elif kind == COVERING:
        report = multiplicity_extrema(lat, _unit_triangle(Mode.CLOSED))
        if report.min_mult < j:
            raise DensityPredicateError(
                f"not a {j}-fold covering: point "
                f"{report.min_witness.to_json()} lies in only "
                f"{report.min_mult} closed translates",
                report.min_witness, report.min_mult)
    else:
        raise ValueError(f"kind must be {PACKING!r} or {COVERING!r}: {kind}")
    return Fraction(1, 2) / lat.d


def density_result(j: int, kind: str) -> DensityResult:
    """Closed-form density together with its verified optimal lattices."""
    if kind == PACKING:
        return DensityResult(packing_density(j), kind, j,
                             tuple(optimal_packing_lattices(j)))
    if kind == COVERING:
        return DensityResult(covering_density(j), kind, j,
                             tuple(optimal_covering_lattices(j)))
    raise ValueError(f"kind must be {PACKING!r} or {COVERING!r}: {kind}")


def triangle_jfold_predicate(a: Point, b: Point, c: Point, lat: Lattice,
                             j: int, kind: str) -> bool:
    """j-fold packing/covering predicate for an arbitrary triangle, decided
    by normalizing the triangle to the standard one and transporting the
    lattice through the same map."""
    nmap = normalize_triangle(a, b, c)
    moved = nmap.apply_lattice(lat)
    if kind == PACKING:
        return is_jfold_packing(_unit_triangle(Mode.INTERIOR), moved, j)
    if kind == COVERING:
        return is_jfold_covering(_unit_triangle(Mode.CLOSED), moved, j)
    raise ValueError(f"kind must be {PACKING!r} or {COVERING!r}: {kind}")
