"""Desk-scale optimization evidence for the closed-form densities.

Two independent kinds of evidence: a brute-force sweep over a bounded grid
of rational lattices, whose best packing/covering densities must land
exactly on the closed forms once the optimal lattices enter the search
space, and a floating-point coordinate-ascent optimizer for the largest
stair polygon inside the triangle (resp. smallest stair containing its
interior), whose optima must approach j/(2j+1) and (2j+1)/(4j).

The sweep decides each lattice by the corner formula (``scales._corner``):
the critical scale is the coordinate sum x + y of one corner of the
lattice's quadrant stair P, built once per lattice in integers at its
1/den grid, and the unit triangle passes iff x + y >= den (packing) or
<= den (covering).  P proves each pass, at a scale that must pass too, by
its fit and by 2c + 1 lattice counts at its corners, which show that it
tiles exactly j-fold (``scales._proven_stair``).  One point next to the
corner, counted in integers, proves each failure
(``scales._witness_refutes``): it is a witness at 1, as the scale and 1
both lie on the lattice's 1/den grid.  A disagreement raises
``CandidateGapError``.

The stair optimizers are the only place in the package where inexact
numbers appear; the best layout found is afterwards snapped to nearby
small-denominator rationals and its area re-evaluated exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .geometry import Frozen, Point, fields_json
from .lattice import Lattice
from .multiplicity import COVERING, PACKING
from .scales import (CandidateGapError, _corner, _proven_stair,
                     _witness_refutes, quadrant_stair)


class SearchReport(Frozen):
    """Outcome of a brute-force lattice sweep."""

    best_value: Fraction | None
    best_lattices: tuple[Lattice, ...]
    space_size: int
    parameters: tuple[tuple[str, object], ...]  # (name, value) pairs

    def to_json(self) -> dict:
        return {**fields_json(self), "parameters": dict(self.parameters)}


def lattice_search_space(denominator_bound: int,
                         coefficient_bound: int) -> list[Lattice]:
    """Distinct lattices with a triangular basis ((a/q, b/q), (0, c/q)),
    1 <= a, c <= coefficient_bound, 0 <= b < c, 1 <= q <= denominator_bound.

    Every planar lattice has a triangular basis after column reduction, so
    this is a genuine bounded slice of lattice space.  The basis is the
    lattice's canonical one, so two encodings give the same lattice iff
    (a, b, c)/q agree; each lattice is kept once, at its encoding with
    gcd(q, a, b, c) = 1, which lies in the bounds whenever another does.
    """
    if denominator_bound < 1 or coefficient_bound < 1:
        raise ValueError("bounds must be positive")
    return [Lattice(Point(Fraction(a, q), Fraction(b, q)),
                    Point(Fraction(0), Fraction(c, q)))
            for q in range(1, denominator_bound + 1)
            for a in range(1, coefficient_bound + 1)
            for c in range(1, coefficient_bound + 1)
            for b in range(c) if gcd(q, a, b, c) == 1]


def _search(j: int, denominator_bound: int, coefficient_bound: int,
            kind: str) -> SearchReport:
    """Best-first sweep of the bounded space: lattices are visited from the
    best density down (a stable sort), and the sweep stops at the first
    lattice whose density differs from one that has already passed.  Every
    lattice at the best level is decided, so the result is the same as a
    full scan's; space_size still counts the whole space.

    The corner formula decides each lattice: the unit triangle passes iff
    its critical scale x + y is >= den (packing) or <= den (covering)."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    space = lattice_search_space(denominator_bound, coefficient_bound)
    packing = kind == PACKING
    sign = 1 if packing else -1  # packings maximize the density
    best_value: Fraction | None = None
    best: list[Lattice] = []
    for lat in sorted(space, key=lambda lat: sign * lat.d):
        value = Fraction(1, 2) / lat.d
        if best_value is not None and value != best_value:
            break
        den, breaks, heights = quadrant_stair(lat, j)
        x, y = _corner(breaks, heights, kind)
        if x + y >= den if packing else x + y <= den:
            # raises unless P proves its scale, which must pass as well
            _, proven = _proven_stair(lat, j, kind)
            if (proven.x + proven.y - 1) * sign < 0:
                raise CandidateGapError(
                    f"the witness at corner {proven} refutes the {j}-fold "
                    f"{kind} predicate at scale 1 on {lat.to_json()}")
            best_value = value
            best.append(lat)
            continue
        corner = Point(Fraction(x, den), Fraction(y, den))
        if not _witness_refutes(lat, j, kind, corner):
            raise CandidateGapError(
                f"the witness at corner {corner} does not refute the "
                f"{j}-fold {kind} predicate at scale 1 on {lat.to_json()}, "
                f"as its scale {Fraction(x + y, den)} says")
    best.sort(key=Lattice.canonical_key)
    params = (("j", j), ("denominator_bound", denominator_bound),
              ("coefficient_bound", coefficient_bound), ("kind", kind))
    return SearchReport(best_value, tuple(best), len(space), params)


def search_packing(j: int, denominator_bound: int,
                   coefficient_bound: int) -> SearchReport:
    """Maximal density 1/(2 d) over lattices in the bounded space whose unit
    triangle translates form a j-fold packing; never exceeds the closed
    form, and reaches it once the optimal lattices are inside the bounds.

    The sweep is best-first: lattices are decided from the smallest
    determinant up, and it stops below the first density that passes;
    space_size still counts the whole space.  Each verdict is proven as
    the module docstring says."""
    return _search(j, denominator_bound, coefficient_bound, PACKING)


def search_covering(j: int, denominator_bound: int,
                    coefficient_bound: int) -> SearchReport:
    """Minimal density over j-fold covering lattices in the bounded space;
    never below the closed form.

    The sweep is best-first: lattices are decided from the largest
    determinant down, and it stops above the first density that passes;
    space_size still counts the whole space.  Each verdict is proven as
    the module docstring says."""
    return _search(j, denominator_bound, coefficient_bound, COVERING)


class AreaOptimum(Frozen):
    """Result of a numeric stair-area optimization run.

    value is the best area found (floating point), corner_layout the
    breakpoints achieving it, target the analytic optimum; the gap and the
    worst bound violation seen over all iterates are reported, never
    hidden.  snapped_area re-evaluates the layout exactly after rounding
    the breakpoints to nearby small-denominator rationals.
    """

    value: float
    corner_layout: tuple[float, ...]
    target: Fraction
    gap: float
    max_bound_violation: float
    snapped_area: Fraction

    to_json = fields_json


def _inscribed_area(xs: list) -> float | Fraction:
    """Area of the stair with breakpoints [0] + xs and the tight heights
    1 - x_{i+1} allowed inside the closed unit triangle; exact when the
    breakpoints are Fractions."""
    pts = [0] + xs
    total = 0  # left to right: sum() compensates float sums from 3.12 on
    for a, b in zip(pts, pts[1:]):
        total += (b - a) * (1 - b)
    return total


def _circumscribed_area(xs: list) -> float | Fraction:
    """Area of the stair with breakpoints [0] + xs + [1] and the tight
    heights 1 - x_i needed to contain the open unit triangle; exact when the
    breakpoints are Fractions."""
    pts = [0] + xs + [1]
    total = 0  # left to right: sum() compensates float sums from 3.12 on
    for a, b in zip(pts, pts[1:]):
        total += (b - a) * (1 - a)
    return total


def _optimize_stair(j: int, iterations: int, seed: int,
                    inscribed: bool) -> AreaOptimum:
    """Coordinate ascent over the interior breakpoints with seeded random
    restarts: maximize the inscribed area (2j breakpoints) or minimize the
    circumscribed one (2j-1 breakpoints).

    Each one-dimensional update has a closed form, the midpoint of the
    neighbouring breakpoints.  Every iterate is feasible, so no area may
    beat the analytic optimum beyond float noise; the worst violation
    observed is reported.
    """
    if j < 1 or iterations < 1:
        raise ValueError("need j >= 1 and iterations >= 1")
    if inscribed:  # maximize the area
        sign, n_vars, area_of = 1, 2 * j, _inscribed_area
        target = Fraction(j, 2 * j + 1)
    else:  # minimize it
        sign, n_vars, area_of = -1, 2 * j - 1, _circumscribed_area
        target = Fraction(2 * j + 1, 4 * j)
    target_f = float(target)
    rng = random.Random(seed)
    restarts = 3
    sweeps = max(1, iterations // restarts)
    best_area = -sign * float("inf")
    best_xs: list[float] = []
    worst_violation = 0.0
    for _ in range(restarts):
        xs = sorted(rng.random() for _ in range(n_vars))
        for _ in range(sweeps):
            for k in range(n_vars):
                left = xs[k - 1] if k else 0.0
                right = xs[k + 1] if k + 1 < n_vars else 1.0
                xs[k] = (left + right) / 2.0
            area = area_of(xs)
            # positive when the area beats the analytic optimum
            worst_violation = max(worst_violation, sign * (area - target_f))
            if sign * area > sign * best_area:
                best_area = area
                best_xs = xs.copy()
    snapped = [Fraction(x).limit_denominator(4 * (2 * j + 1))
               for x in best_xs]
    return AreaOptimum(best_area, tuple(best_xs), target,
                       abs(best_area - target_f), worst_violation,
                       area_of(snapped))


def optimize_inscribed_stair(j: int, iterations: int,
                             seed: int = 0) -> AreaOptimum:
    """Numerically maximize the area of a stair with at most 2j-1 steps
    inside the closed unit triangle; analytic optimum j/(2j+1)."""
    return _optimize_stair(j, iterations, seed, inscribed=True)


def optimize_circumscribed_stair(j: int, iterations: int,
                                 seed: int = 0) -> AreaOptimum:
    """Numerically minimize the area of a stair with at most 2j-1 steps
    containing the open unit triangle; analytic optimum (2j+1)/(4j)."""
    return _optimize_stair(j, iterations, seed, inscribed=False)
