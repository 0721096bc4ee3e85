"""Desk-scale optimization evidence for the closed-form densities.

Two independent kinds of evidence: a brute-force sweep over a bounded grid
of rational lattices, whose best packing/covering densities must land
exactly on the closed forms once the optimal lattices enter the search
space, and a floating-point coordinate-ascent optimizer for the largest
stair polygon inside the triangle (resp. smallest stair containing its
interior), whose optima must approach j/(2j+1) and (2j+1)/(4j).

The sweep walks the space as integer triples (q, a, b, c) with
gcd(q, a, b, c) = 1 (``_triples``), whose lattice ((a/q, b/q), (0, c/q))
has den = q and integer canonical key (a, b, c) at q.  It visits them best
density first, by the integer key sign*a*c*(M/q)^2 = sign*d*M^2 with
M = lcm(1..q_max) (``_best_first``), and decides each on its key by the
corner formula (``scales._corner``): the critical scale is the coordinate
sum x + y of one corner of the quadrant stair P, built in integers, and
the unit triangle passes iff x + y >= q (packing) or <= q (covering).
Only a pass is built as a ``Lattice``, and P proves it, at a scale that
must pass too, by its fit and by 2c + 1 lattice counts at its corners,
which show that it tiles exactly j-fold (``scales._proven_stair``).  One
point next to the corner, counted in integers, proves each failure
(``scales._witness_refutes``): it is a witness at 1, as the scale and 1
both lie on the 1/q grid.  A disagreement raises ``CandidateGapError``.

The stair optimizers are the only place in the package where inexact
numbers appear; the best layout found is afterwards snapped to nearby
small-denominator rationals and its area re-evaluated exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .geometry import Frozen, fields_json
from .lattice import Lattice, _triangular
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


def _triples(denominator_bound: int,
             coefficient_bound: int) -> list[tuple[int, int, int, int]]:
    """The space of ``lattice_search_space`` as integer triples (q, a, b, c)
    over q, in its order."""
    if denominator_bound < 1 or coefficient_bound < 1:
        raise ValueError("bounds must be positive")
    coefficients = range(1, coefficient_bound + 1)
    return [(q, a, b, c) for q in range(1, denominator_bound + 1)
            for a in coefficients for c in coefficients
            for b in range(c) if gcd(q, a, b, c) == 1]


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
    return [_triangular(*t)
            for t in _triples(denominator_bound, coefficient_bound)]


def _best_first(triples: list[tuple[int, int, int, int]], kind: str,
                denominator_bound: int
                ) -> list[tuple[int, tuple[int, int, int, int]]]:
    """The triples as (key, triple) pairs, best density first: key is the
    integer sign*a*c*(M/q)^2 = sign*d*M^2, M = lcm(1..denominator_bound),
    which orders the space as sign*d does (sign = 1 for packing, -1 for
    covering), and the stable sort keeps the space's order among equal
    keys."""
    sign = 1 if kind == PACKING else -1
    m = lcm(*range(1, denominator_bound + 1))
    weights = [0] + [sign * (m // q) ** 2
                     for q in range(1, denominator_bound + 1)]
    keyed = [(a * c * weights[q], (q, a, b, c)) for q, a, b, c in triples]
    keyed.sort(key=itemgetter(0))
    return keyed


def _search(j: int, denominator_bound: int, coefficient_bound: int,
            kind: str) -> SearchReport:
    """Best-first sweep of the bounded space, as the module docstring says:
    the triples come in the order of ``_best_first`` (a stable sort), and
    the sweep stops at the first key that differs from one that has
    passed.  Every lattice at the best level is decided, so the result is
    a full scan's; space_size counts the whole space.  Only a pass is
    built as a ``Lattice``, and the density 1/(2d) is formed once."""
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    triples = _triples(denominator_bound, coefficient_bound)
    packing = kind == PACKING
    best_key: int | None = None
    best: list[Lattice] = []
    for key, (q, a, b, c) in _best_first(triples, kind, denominator_bound):
        if best and key != best_key:
            break
        x, y = _corner(*quadrant_stair((a, b, c), j), kind)
        if x + y >= q if packing else x + y <= q:
            lat = _triangular(q, a, b, c)
            # raises unless P proves its scale, which must pass as well
            _, p = _proven_stair(lat, j, kind)
            if not (p.x + p.y >= 1 if packing else p.x + p.y <= 1):
                raise CandidateGapError(
                    f"the witness at corner {p} refutes the {j}-fold "
                    f"{kind} predicate at scale 1 on {lat.to_json()}")
            best_key = key
            best.append(lat)
        elif not _witness_refutes((a, b, c), j, kind, (x, y), 8 * q):
            raise CandidateGapError(
                f"the witness at corner ({x}/{q}, {y}/{q}) does not refute "
                f"the {j}-fold {kind} predicate at scale 1 on the lattice "
                f"(({a}/{q}, {b}/{q}), (0, {c}/{q})), as its scale "
                f"{Fraction(x + y, q)} says")
    best_value = Fraction(1, 2) / best[0].d if best else None
    best.sort(key=Lattice.canonical_key)
    params = (("j", j), ("denominator_bound", denominator_bound),
              ("coefficient_bound", coefficient_bound), ("kind", kind))
    return SearchReport(best_value, tuple(best), len(triples), params)


def search_packing(j: int, denominator_bound: int,
                   coefficient_bound: int) -> SearchReport:
    """Maximal density 1/(2 d) over lattices in the bounded space whose unit
    triangle translates form a j-fold packing; never exceeds the closed
    form, and reaches it once the optimal lattices are inside the bounds.

    The sweep (``_search``) decides lattices from the smallest determinant
    up and stops below the first density that passes."""
    return _search(j, denominator_bound, coefficient_bound, PACKING)


def search_covering(j: int, denominator_bound: int,
                    coefficient_bound: int) -> SearchReport:
    """Minimal density over j-fold covering lattices in the bounded space;
    never below the closed form.

    The sweep (``_search``) decides lattices from the largest determinant
    down and stops above the first density that passes."""
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
