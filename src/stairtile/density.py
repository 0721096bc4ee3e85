"""Closed-form j-fold densities of the triangle and their optimal lattices.

The closed forms are 2j^2/(2j+1) for packing and (2j+1)/2 for covering, and
the lattices attaining them come in a single family per kind, indexed by the
shifts m with gcd(m, 2j+1) = gcd(m+1, 2j+1) = 1.  Arbitrary triangles reduce
to the standard one through an exact affine normalization, under which every
j-fold predicate and every density value is invariant.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (Frozen, Point, RationalLike, ScaledTriangle,
                       format_rational, frac)
from .lattice import Lattice
from .multiplicity import (COVERING, KIND_MODE, PACKING, Region,
                           jfold_violation)
from .stairs import admissible_shifts


class DensityPredicateError(ValueError):
    """The lattice fails the requested j-fold predicate; carries a witness
    point whose multiplicity violates it."""

    def __init__(self, message: str, witness: Point, multiplicity: int):
        super().__init__(message)
        self.witness = witness
        self.multiplicity = multiplicity


class AffineMap(Frozen):
    """Exact invertible affine map p -> M p + t with a rational 2x2 M."""

    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    t: Point

    def __init__(self, m11: RationalLike, m12: RationalLike,
                 m21: RationalLike, m22: RationalLike, t: Point) -> None:
        m11, m12, m21, m22 = frac(m11), frac(m12), frac(m21), frac(m22)
        if m11 * m22 - m12 * m21 == 0:
            raise ValueError("affine map must be non-singular")
        super().__init__(m11, m12, m21, m22, t)

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


class DensityResult(Frozen):
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


_CLOSED_FORMS = {PACKING: packing_density, COVERING: covering_density}


def _unit_triangle(kind: str) -> Region:
    """The standard triangle in the mode that decides the kind's predicate."""
    if kind not in KIND_MODE:
        raise ValueError(f"kind must be {PACKING!r} or {COVERING!r}: {kind}")
    return Region(ScaledTriangle(Fraction(1)), KIND_MODE[kind])


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


def _optimal_lattices(j: int, kind: str, verify: bool) -> list[Lattice]:
    region = _unit_triangle(kind)
    build = packing_lattice if kind == PACKING else covering_lattice
    lats = [build(j, m) for m in admissible_shifts(j)]
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
    """``packing_lattice(j, m)`` for the admissible shifts m; each is checked
    to pack j-fold at the closed form density when verify is set."""
    return _optimal_lattices(j, PACKING, verify)


def optimal_covering_lattices(j: int, verify: bool = True) -> list[Lattice]:
    """``covering_lattice(j, m)`` for the admissible shifts m; each is
    checked to cover j-fold at the closed form density when verify is set."""
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


def triangle_jfold_predicate(a: Point, b: Point, c: Point, lat: Lattice,
                             j: int, kind: str) -> bool:
    """j-fold packing/covering predicate for an arbitrary triangle, decided
    by normalizing the triangle to the standard one and transporting the
    lattice through the same map."""
    moved = normalize_triangle(a, b, c).apply_lattice(lat)
    return jfold_violation(_unit_triangle(kind), moved, j, kind) is None
