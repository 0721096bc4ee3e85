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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Box, Point, format_rational, frac
from .lattice import Lattice, points_in_box
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


def candidate_scales(lat: Lattice, l_max) -> list[Fraction]:
    """Every scale in (0, l_max] at which a covering or packing multiplicity
    can change.

    The values have the forms w_x + w'_y - z_x - z_y, w_x - v_x, and
    w_y - v_y over lattice points of the enumeration window (the bounding
    box of the fundamental parallelogram inflated by l_max on all sides).
    """
    l_max = frac(l_max)
    if l_max <= 0:
        raise ValueError(f"l_max must be positive: {l_max}")
    can = lat.canonical()
    corners = [Point(Fraction(0), Fraction(0)), can.u1, can.u2,
               can.u1 + can.u2]
    window = Box(min(p.x for p in corners), max(p.x for p in corners),
                 min(p.y for p in corners),
                 max(p.y for p in corners)).inflated(l_max)
    pts = points_in_box(lat, window)
    xs = sorted({p.x for p in pts})
    ys = sorted({p.y for p in pts})
    sums = sorted({p.x + p.y for p in pts})
    values: set[Fraction] = set()
    for x in xs:
        for x2 in xs:
            values.add(x - x2)
    for y in ys:
        for y2 in ys:
            values.add(y - y2)
    xy = {x + y for x in xs for y in ys}
    for s in xy:
        for s2 in sums:
            values.add(s - s2)
    return sorted(v for v in values if 0 < v <= l_max)


def _critical_scale(lat: Lattice, j: int, kind: str) -> ScaleCertificate:
    """The scale where the kind's predicate flips, with its certificate.

    Covering holds from its critical scale upwards, packing up to its
    critical scale, so both searches look for the first candidate past the
    flip: where covering starts to hold, or where packing stops holding.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    covering = kind == COVERING
    pred = covering_predicate if covering else packing_predicate
    l_max = Fraction(1)
    while pred(lat, j, l_max) != covering:
        l_max *= 2
    cands = candidate_scales(lat, l_max)
    # the last candidate is left to the re-check below, not probed here
    idx = bisect_left(cands, True, hi=len(cands) - 1,
                      key=lambda l: pred(lat, j, l) == covering)
    if pred(lat, j, cands[idx]) != covering:
        raise CandidateGapError(
            f"{kind} predicate does not flip on candidates up to {l_max} "
            f"although it does by {l_max}; candidate set has a gap")
    if not covering:
        if idx == 0:
            raise CandidateGapError(
                "packing predicate fails at the smallest candidate scale; "
                "candidate set has a gap below it")
        idx -= 1
    value = cands[idx]
    below = value / 2 if idx == 0 else (cands[idx - 1] + value) / 2
    above = ((value + cands[idx + 1]) / 2 if idx + 1 < len(cands)
             else value + Fraction(1, 2))
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
