"""Critical triangle scales for a fixed lattice.

For a lattice L, ``lambda_upper`` finds the largest l such that the open
translates of l*T never overlap more than j deep (the j-fold packing scale),
and ``lambda_lower`` the smallest l such that the closed translates cover
every point at least j deep (the j-fold covering scale).

Both predicates are monotone in l and can only flip where a translate vertex
meets a translate edge or three boundary lines concur.  For triangles whose
boundary lines come in the three families x = c, y = c, x + y = c, every
such degeneracy happens at a scale of one of the difference forms produced
by ``candidate_scales``, so a binary search over the candidate list plus a
flip certificate at the adjacent midpoints pins the answer down exactly.  A
failed certificate aborts loudly instead of returning a wrong value.

The candidates are found on integers: the window's coordinates and l_max
are scaled to one common denominator, and the candidate set is an integer
sumset, collected as the bits of a Python int (``_scaled_candidates``).
The search runs over those integers; only the scales it probes and the
three it certifies become Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .geometry import as_int, format_rational, frac
from .lattice import Lattice, scaled_points
from .multiplicity import (COVERING, PACKING, Mode, Region, ScaledTriangle,
                           is_jfold_covering, is_jfold_packing)


class CandidateGapError(RuntimeError):
    """The flip scale fell between candidates; the candidate set has a gap."""


@dataclass(frozen=True)
class ScaleCertificate:
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

    def to_json(self) -> dict:
        return {
            "value": format_rational(self.value),
            "predicate_at_value": self.predicate_at_value,
            "below_scale": format_rational(self.below_scale),
            "predicate_below": self.predicate_below,
            "above_scale": format_rational(self.above_scale),
            "predicate_above": self.predicate_above,
        }


def covering_predicate(lat: Lattice, j: int, scale) -> bool:
    """True iff closed scale*T translates cover every point >= j deep."""
    return is_jfold_covering(Region(ScaledTriangle(frac(scale)), Mode.CLOSED),
                             lat, j)


def packing_predicate(lat: Lattice, j: int, scale) -> bool:
    """True iff open scale*T translates overlap at most j deep."""
    return is_jfold_packing(Region(ScaledTriangle(frac(scale)),
                                   Mode.INTERIOR), lat, j)


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


def _critical_scale(lat: Lattice, j: int, kind: str) -> ScaleCertificate:
    """The scale where the kind's predicate flips, with its certificate.

    Covering holds from its critical scale upwards, packing up to its
    critical scale, so both searches look for the first candidate past the
    flip: where covering starts to hold, or where packing stops holding.
    The search runs over the integer candidates; only the scales it probes
    and certifies become Fractions.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    covering = kind == COVERING
    pred = covering_predicate if covering else packing_predicate
    l_max = Fraction(1)
    while pred(lat, j, l_max) != covering:
        l_max *= 2
    den, cands = _scaled_candidates(lat, l_max)
    top = as_int(l_max, den)
    if not covering and cands[-1] != top:
        # packing fails at l_max, so the flip is found even when the
        # packing scale is the last candidate below it
        cands.append(top)
    # the last candidate is left to the re-check below, not probed here
    idx = bisect_left(cands, True, hi=len(cands) - 1,
                      key=lambda v: pred(lat, j, Fraction(v, den)) == covering)
    if pred(lat, j, Fraction(cands[idx], den)) != covering:
        raise CandidateGapError(
            f"{kind} predicate does not flip on candidates up to {l_max} "
            f"although it does by {l_max}; candidate set has a gap")
    if not covering:
        if idx == 0:
            raise CandidateGapError(
                "packing predicate fails at the smallest candidate scale; "
                "candidate set has a gap below it")
        idx -= 1
    value = Fraction(cands[idx], den)
    below = (value / 2 if idx == 0
             else Fraction(cands[idx - 1] + cands[idx], 2 * den))
    above = (Fraction(cands[idx] + cands[idx + 1], 2 * den)
             if idx + 1 < len(cands) else value + Fraction(1, 2))
    # across the flip the predicate must fail; on the other side it is
    # recorded as found
    across, other = (below, above) if covering else (above, below)
    if pred(lat, j, across):
        raise CandidateGapError(
            f"{kind} predicate still holds at probe {across} across "
            f"certified scale {value}; candidate set has a gap")
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
