"""Critical triangle scales for a fixed lattice.

For a lattice L, ``lambda_upper`` finds the largest l such that the open
translates of l*T never overlap more than j deep (the j-fold packing scale),
and ``lambda_lower`` the smallest l such that the closed translates cover
every point at least j deep (the j-fold covering scale).

Both scales are read off corners (v_x, w_y) built from one lattice x- and
one lattice y-coordinate.  The covering scale is the largest distance
v_x + w_y - (z_x + z_y) from a corner to its j-th nearest lattice point z
strictly south-west of it; the packing scale is the smallest distance to
the (j+1)-th nearest point weakly south-west.  ``_corner_scale`` computes
both in integers with one sliding window over the canonical columns, and
returns the corner that attains the extremum: just south-west of it
(covering) or north-east (packing), a point proves the predicate false
on the far side of the scale.

The formula gives the value; the predicates certify it.  Both predicates
are monotone in l and can only flip where a translate vertex meets a
translate edge or three boundary lines concur.  For triangles whose
boundary lines come in the three families x = c, y = c, x + y = c, every
such degeneracy happens at a scale of one of the difference forms produced
by ``candidate_scales``.  The value must be such a candidate; the predicate
must hold there and fail at the midpoint to the neighbouring candidate
across the flip, and it is recorded at the midpoint on the other side.
That is three predicate evaluations per scale.  A value that is not a
candidate, or a probe that disagrees, aborts loudly instead of returning a
wrong value.

The candidates are found on integers: the window's coordinates and l_max
are scaled to one common denominator, and the candidate set is an integer
sumset, collected as the bits of a Python int (``_scaled_candidates``).
Only the value and its two probes become Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .geometry import Frozen, Point, as_int, fields_json, frac
from .lattice import Lattice, scaled_points
from .multiplicity import (COVERING, PACKING, Mode, is_jfold_covering,
                           is_jfold_packing, triangle_region)


class CandidateGapError(RuntimeError):
    """The corner formula's scale failed its certificate: it is not a
    candidate, the predicate fails there, or the predicate does not flip
    at the neighbouring candidate.  A lattice search raises it when the
    formula's verdict at scale 1 is not confirmed by the predicate or by
    the corner's witness point."""


class ScaleCertificate(Frozen):
    """A critical scale plus the predicate probes that certify it.

    The predicate holds at ``value`` and flips across it: the recorded
    booleans at the probe scales just below and above reproduce on
    re-evaluation.
    """

    value: Fraction
    predicate_at_value: bool
    below_scale: Fraction
    predicate_below: bool
    above_scale: Fraction
    predicate_above: bool

    to_json = fields_json


def covering_predicate(lat: Lattice, j: int, scale) -> bool:
    """True iff closed scale*T translates cover every point >= j deep."""
    return is_jfold_covering(triangle_region(scale, Mode.CLOSED), lat, j)


def packing_predicate(lat: Lattice, j: int, scale) -> bool:
    """True iff open scale*T translates overlap at most j deep."""
    return is_jfold_packing(triangle_region(scale, Mode.INTERIOR), lat, j)


# A set of ints costs some 60 bytes per element; a bitmask is filled
# through one byte per value of its range.  The lifts go into a bitmask
# while its range is at most this many bytes per pair summed, so that a huge
# denominator, which widens the range but not the pairs, falls back to sets.
_BYTES_PER_PAIR = 32


def _spans(xs: Iterable[int], ys: list[int], lo: int,
           hi: int) -> list[tuple[int, int, int]]:
    """Each x with the index range [i, j) of the sorted ys that bisection
    finds in [lo - x, hi - x]."""
    return [(x, bisect_left(ys, lo - x), bisect_right(ys, hi - x))
            for x in xs]


def _bit_values(mask: int, lo: int) -> list[int]:
    """The values lo + k for the set bits k of mask, in increasing order."""
    bits = bin(mask)[:1:-1]
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(lo + k)
        k = bits.find("1", k + 1)
    return out


def _scaled_candidates(lat: Lattice, l_max: Fraction) -> tuple[int,
                                                               list[int]]:
    """``candidate_scales`` as (den, values): the candidates are v/den for
    the sorted integers v in values.

    With every coordinate an integer at den and top = l_max * den, the
    values are the sums x + (y - s) in (0, top].  Bisection pairs each y
    only with the s that give a lift y - s in (-max xs, top - min xs],
    which some x can bring into (0, top].  The lifts are set as the bits of
    one Python int, and that mask is ORed in once per x, shifted by x, so
    the xs x ys sums are never built.
    """
    if l_max <= 0:
        raise ValueError(f"l_max must be positive: {l_max}")
    key = lat.canonical_key()
    den = lcm(*(v.denominator for v in key), l_max.denominator)
    x1, y1, y2 = (as_int(v, den) for v in key)
    top = as_int(l_max, den)
    # the canonical parallelogram's bounding box is [0, x1] x [0, y1 + y2],
    # as y1 >= 0
    pts = scaled_points(lat, den, -top, x1 + top, -top, y1 + y2 + top)
    xs = sorted({x for x, _ in pts})
    ys = {y for _, y in pts}
    neg_sums = sorted({-x - y for x, y in pts})
    lo, hi = 1 - xs[-1], top - xs[0]
    spans = _spans(ys, neg_sums, lo, hi)
    if hi - lo >= _BYTES_PER_PAIR * sum(j - i for _, i, j in spans):
        lifts = sorted({y + s for y, i, j in spans for s in neg_sums[i:j]})
        return den, sorted({x + d for x, i, j in _spans(xs, lifts, 1, top)
                            for d in lifts[i:j]})
    # the binary digits of the mask, most significant first: the lift d
    # is bit d - lo, digit hi - d
    digits = bytearray(b"0") * (hi - lo + 1)
    for y, i, j in spans:
        for s in neg_sums[i:j]:
            digits[hi - y - s] = 49  # "1"
    lifts = int(digits, 2)
    # bit k of lifts is the lift lo + k, so bit k of lifts >> (xs[-1] - x)
    # is the value x + lo + k - xs[-1] = 1 + k
    found = 0
    for x in xs:
        found |= lifts >> (xs[-1] - x)
    return den, _bit_values(found & ((1 << top) - 1), 1)


def candidate_scales(lat: Lattice, l_max) -> list[Fraction]:
    """Every scale in (0, l_max] at which a covering or packing multiplicity
    can change.

    The values have the forms w_x + w'_y - z_x - z_y, w_x - v_x, and
    w_y - v_y over lattice points of the enumeration window (the bounding
    box of the fundamental parallelogram inflated by l_max on all sides).
    The first form holds the other two (take w' = z = v, or w = z = v), so
    only it is computed, on integers at one common denominator
    (``_scaled_candidates``).
    """
    den, values = _scaled_candidates(lat, frac(l_max))
    return [Fraction(v, den) for v in values]


def _corner_scale(lat: Lattice, j: int, kind: str) -> tuple[Fraction,
                                                             Point]:
    """The kind's critical scale by the corner formula, and a corner
    (0, b) that attains it.

    With the canonical basis (x1, y1), (0, y2) at one common denominator,
    a lattice vector moves a corner to (0, b), b the height of a point k0
    columns to its left.  The highest point of column k (x = -k*x1) below
    b then lies k0*x1 + S(k - k0) away, and t rows lower t*y2 further,
    where S(d) = d*x1 + ((d*y1 - s) mod y2) + s, with s = 1 for strict
    dominance and s = 0 for weak.  Covering is the largest over k0 >= 1 of
    the j-th smallest distance to columns k >= 1, strictly south-west;
    packing the smallest over k0 >= 0 of the (j+1)-th smallest to columns
    k >= 0, weakly south-west.

    Corners and columns are cut at k0, k <= size, and the distances of one
    corner sit in a sorted window that slides as k0 steps.  A point past
    column size is more than size*x1 away, so once size*x1 reaches the
    result, no left-out point is among the nearest ones.  No left-out
    corner is the extremum either.  The packing minimum's own points lie
    within size*x1 of its corner, so that corner is in.  The covering
    maximum sits at a corner whose point k0* columns to the left is nearer
    than the maximum (else raising the corner's y would raise its value);
    were k0* > size, the corner size columns right of that point would
    read at least the maximum less (k0* - size)*x1, more than size*x1.

    The corner is returned at the origin's column: b = (-k0*y1) mod y2 for
    the k0 that attains the extremum.
    """
    key = lat.canonical_key()
    den = lcm(*(v.denominator for v in key))
    x1, y1, y2 = (as_int(v, den) for v in key)
    strict = int(kind == COVERING)
    # the n-th nearest point, from column `strict` on; a column holds at
    # most n of the n nearest
    n = j + 1 - strict

    def dist(d: int) -> int:
        return d * x1 + (d * y1 - strict) % y2 + strict

    size = 1
    while True:
        # corner k0 sees the column offsets d in [strict - k0, size - k0]
        window = sorted(dist(d) + t * y2 for d in range(size - strict + 1)
                        for t in range(n))
        found, at = strict * x1 + window[n - 1], strict
        for k0 in range(strict + 1, size + 1):
            new, old = dist(strict - k0), dist(size + 1 - k0)
            for t in range(n):
                insort(window, new + t * y2)
                del window[bisect_left(window, old + t * y2)]
            value = k0 * x1 + window[n - 1]
            if value > found if strict else value < found:
                found, at = value, k0
        if size * x1 >= found:
            return (Fraction(found, den),
                    Point(0, Fraction(-at * y1 % y2, den)))
        size *= 2


def _critical_scale(lat: Lattice, j: int, kind: str) -> ScaleCertificate:
    """The kind's critical scale from ``_corner_scale``, with its
    certificate.

    Covering holds from its critical scale upwards, packing up to it.  The
    value is placed among the candidates up to l_max, the smallest power
    of two >= 1 where covering holds or packing fails; l_max itself is a
    last packing candidate, as packing is known to fail there.  The
    probes are the midpoints to the neighbouring candidates (value / 2 and
    value + 1/2 past the ends).  The predicate is evaluated three times:
    at the value and across the flip, where it must hold and fail, and on
    the other side, where it is recorded.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    covering = kind == COVERING
    pred = covering_predicate if covering else packing_predicate
    value, _ = _corner_scale(lat, j, kind)
    l_max = Fraction(1)
    while l_max < value or (not covering and l_max == value):
        l_max *= 2
    den, cands = _scaled_candidates(lat, l_max)
    top = as_int(l_max, den)
    if not covering and cands[-1] != top:
        cands.append(top)
    idx = bisect_left(cands, value * den)
    if idx == len(cands) or cands[idx] != value * den:
        raise CandidateGapError(
            f"{kind} scale {value} from the corner formula is not a "
            f"candidate up to {l_max}")
    below = (value / 2 if idx == 0
             else Fraction(cands[idx - 1] + cands[idx], 2 * den))
    above = (Fraction(cands[idx] + cands[idx + 1], 2 * den)
             if idx + 1 < len(cands) else value + Fraction(1, 2))
    # across the flip the predicate must fail; on the other side it is
    # recorded as found
    across, other = (below, above) if covering else (above, below)
    if not pred(lat, j, value):
        raise CandidateGapError(
            f"{kind} predicate fails at scale {value} from the corner "
            f"formula")
    if pred(lat, j, across):
        raise CandidateGapError(
            f"{kind} predicate still holds at probe {across} across "
            f"scale {value} from the corner formula")
    held = pred(lat, j, other)
    if covering:
        return ScaleCertificate(value, True, below, False, above, held)
    return ScaleCertificate(value, True, below, held, above, False)


def lambda_lower(lat: Lattice, j: int) -> ScaleCertificate:
    """Smallest scale making closed triangle translates a j-fold covering."""
    return _critical_scale(lat, j, COVERING)


def lambda_upper(lat: Lattice, j: int) -> ScaleCertificate:
    """Largest scale keeping open triangle translates a j-fold packing."""
    return _critical_scale(lat, j, PACKING)
