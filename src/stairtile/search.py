"""Desk-scale optimization evidence for the closed-form densities.

Two independent kinds of evidence: an exact search over a bounded grid of
rational lattices, whose best packing/covering densities must land exactly
on the closed forms once the optimal lattices enter the search space, and
a floating-point coordinate-ascent optimizer for the largest stair polygon
inside the triangle (resp. smallest stair containing its interior), whose
optima must approach j/(2j+1) and (2j+1)/(4j).

The space is the integer triples (q, a, b, c) with gcd(q, a, b, c) = 1
(``_triples``), whose lattice ((a/q, b/q), (0, c/q)) has den = q and
integer canonical key (a, b, c) at q.  Each is a scaling (g/q)*L0 of a
primitive integer shape L0, and the search (``_search``) decides each
shape once, in integers: the corner formula (``scales._corner``) reads
the shape's critical scale s off one corner of its quadrant stair P, and
the unit triangle passes on (g/q)*L0 iff g*s >= q (packing) or <= q
(covering), so each shape's best scaling follows in closed form.  One
point next to the corner, counted in integers, refutes every failing
scaling of the shape (``scales._witness_refutes``).  The shapes are
visited by increasing determinant a0*c0, from a sorted list of the
pairs (a0*c0, a0, c0) alone, and each kind stops at a bound on the
shapes left: packing once none can reach the best density, covering
once 2j*a0*c0 > q_max^2, since P, of area j*a0*c0, lies in s*T, so
that s > q_max.  The space's size is counted per pair in closed form,
never listed.  Only a best lattice
is built as a ``Lattice``, and P proves it, at a scale that must pass too,
by its fit and by 2c + 1 lattice counts at its corners, which show that it
tiles exactly j-fold (``scales._proven_stair``).  A disagreement raises
``CandidateGapError``.

The stair optimizers are the only place in the package where inexact
numbers appear; the best layout found is afterwards snapped to nearby
small-denominator rationals and its area re-evaluated exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .arith import phi_k
from .geometry import Frozen, fields_json
from .lattice import Lattice, _triangular
from .multiplicity import COVERING, PACKING
from .scales import (CandidateGapError, _corner, _proven_stair,
                     _witness_refutes, quadrant_stair)


class SearchReport(Frozen):
    """Outcome of a bounded lattice search."""

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


def _search(j: int, q_max: int, c_max: int, kind: str) -> SearchReport:
    """The best lattices of the bounded space, from one decision per
    primitive shape and each shape's best scaling in closed form.

    Lemma.  A triple (q, a, b, c) with gcd(q, a, b, c) = 1 is the lattice
    (g/q)*L0, where g = gcd(a, b, c), L0 = ((a0, b0), (0, c0)) =
    ((a, b), (0, c))/g is a primitive integer shape, and gcd(g, q) = 1.
    This is a bijection: the triples correspond one to one to the tuples
    (shape, g, q) with g <= c_max // max(a0, c0), q <= q_max and
    gcd(g, q) = 1.  ``quadrant_stair`` is homogeneous, so the triple's
    corner sum at den q is g*s, s the shape's integer corner sum: packing
    passes iff g*s >= q, covering iff g*s <= q.  The density is
    (q/g)^2/(2*a0*c0), with q/g in lowest terms.  So a shape's best
    passing scaling has g = 1, and q = min(q_max, s) for packing, q = s
    for covering, and then only when s <= q_max; every other scaling of the
    shape is strictly worse.

    Proofs.  The point next to the shape's corner refutes the predicate
    on L0 at scale s + 1/2 (packing) or s - 1/2 (covering), 8s +- 4 in
    units of 1/8 at den 1 (``_witness_refutes``).  The predicate flips
    only on the 1/den grid, the integers for L0, and is monotone in the
    scale, so this one call refutes every failing scaling of the shape,
    each q/g > s (packing) or < s (covering).  Each best lattice is built
    with ``_triangular`` and proven by ``_proven_stair``, at a scale that
    must pass too; a disagreement raises ``CandidateGapError``.

    Order.  The shapes are visited by increasing a0*c0, then a0, then b0.
    Only the pairs (a0*c0, a0, c0) are sorted; b0 runs over the residues
    mod c0 coprime to h = gcd(a0, c0), as gcd(a0, b0, c0) = gcd(h, b0).
    Both kinds stop between two pairs, on a bound that holds for every
    shape of the pair and every later one:
      packing, once q_max^2/(a0*c0), which bounds the density of every
        shape left, falls strictly below the best density, so that all
        ties are kept.  A shape's best density is at most its pair's
        bound, so the stop never falls within a pair;
      covering, once 2j*a0*c0 > q_max^2.  Area lemma: P lies in the
        closed s*T (each outer corner has sum at most s, ``_corner``) and
        has area j*a0*c0 (it tiles exactly j-fold), so s^2/2 >= j*a0*c0
        and s > q_max: neither the shape nor any later one has a covering
        scaling in the space.
    So every failing scaling is refuted, by its shape's witness or by the
    area lemma.  Densities are compared in integers, by cross-multiplying.

    Size.  A pair holds (c0/h)*phi(h) shapes, phi = ``phi_k(1, .)``
    tabulated once up to c_max, as the residues coprime to h repeat with
    period h | c0; each shape has upto[c_max // max(a0, c0)] scalings
    (g, q) by the bijection.  space_size sums these over every pair:
    O(c_max^2) work, with no list of the space.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    if q_max < 1 or c_max < 1:
        raise ValueError("bounds must be positive")
    packing = kind == PACKING
    sign = 1 if packing else -1
    sides = range(1, c_max + 1)
    phi = [0, *(phi_k(1, n) for n in sides)]
    # upto[n]: the coprime pairs (g, q) with g <= n and q <= q_max
    upto = [0, *accumulate(sum(gcd(g, q) == 1 for q in range(1, q_max + 1))
                           for g in sides)]
    pairs = sorted((a * c, a, c, gcd(a, c)) for a in sides for c in sides)
    space_size = sum(c // h * phi[h] * upto[c_max // max(a, c)]
                     for _, a, c, h in pairs)
    # the best density is best_q^2 / (2*best_area): at first 0 (packing)
    # or infinite (covering)
    best_q, best_area = (0, 1) if packing else (1, 0)
    best: list[tuple[int, int, int, int]] = []
    for area, a, c, h in pairs:
        if (q_max ** 2 * best_area < best_q ** 2 * area if packing
                else q_max ** 2 < 2 * j * area):
            break
        for b in range(c):
            if gcd(h, b) != 1:
                continue
            x, y = _corner(*quadrant_stair((a, b, c), j), kind)
            across = 8 * (x + y) + 4 * sign  # x + y +- 1/2 in units of 1/8
            if not _witness_refutes((a, b, c), j, kind, (x, y), across):
                raise CandidateGapError(
                    f"the witness at corner ({x}, {y}) of the shape "
                    f"{(a, b, c)} does not refute the {j}-fold {kind} "
                    f"predicate at {across}/8")
            q = min(q_max, x + y) if packing else x + y
            gain = sign * (q * q * best_area - best_q ** 2 * area)
            if q <= q_max and gain > 0:
                best_q, best_area, best = q, area, []
            if q <= q_max and gain >= 0:
                best.append((q, a, b, c))
    lats = sorted((_triangular(*t) for t in best), key=Lattice.canonical_key)
    for lat in lats:
        _, p = _proven_stair(lat, j, kind)  # raises unless P proves it
        if sign * (p.x + p.y - 1) < 0:  # P's scale must pass as well
            raise CandidateGapError(
                f"the witness at corner {p} refutes the {j}-fold {kind} "
                f"predicate at scale 1 on {lat.to_json()}")
    best_value = Fraction(best_q ** 2, 2 * best_area) if best else None
    params = (("j", j), ("denominator_bound", q_max),
              ("coefficient_bound", c_max), ("kind", kind))
    return SearchReport(best_value, tuple(lats), space_size, params)


def search_packing(j: int, denominator_bound: int,
                   coefficient_bound: int) -> SearchReport:
    """Maximal density 1/(2 d) over lattices in the bounded space whose unit
    triangle translates form a j-fold packing; never exceeds the closed
    form, and reaches it once the optimal lattices are inside the bounds.

    The search (``_search``) decides each primitive shape once, from the
    smallest determinant up, and stops once no shape left can reach the
    best density."""
    return _search(j, denominator_bound, coefficient_bound, PACKING)


def search_covering(j: int, denominator_bound: int,
                    coefficient_bound: int) -> SearchReport:
    """Minimal density over j-fold covering lattices in the bounded space;
    never below the closed form.

    The search (``_search``) decides each primitive shape once, from the
    smallest determinant a0*c0 up, and stops once 2j*a0*c0 exceeds the
    square of the denominator bound: such a shape's quadrant stair, of
    area j*a0*c0, lies in s*T, so its critical scale s exceeds the bound
    and it has no covering scaling in the space, nor has any later one."""
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
