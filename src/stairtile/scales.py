"""Critical triangle scales for a fixed lattice.

For a lattice L, ``lambda_upper`` finds the largest l such that the open
translates of l*T never overlap more than j deep (the j-fold packing scale),
and ``lambda_lower`` the smallest l such that the closed translates cover
every point at least j deep (the j-fold covering scale).

Both scales are read off the quadrant stair P(L, j) (``quadrant_stair``),
which tiles the plane exactly j-fold: covering at l holds iff P lies in
the closed l*T, and packing iff the open l*T lies in P, so each scale is
an extreme coordinate sum over P's corners (``_corner``).

P alone proves each verdict, and no triangle arrangement is sampled.
Integer lattice counts at P's c outer and c + 1 inner corners, 2c + 1 in
all, prove that P is the set of quadrant points with fewer than j
predecessors in their coset, a set that tiles exactly j-fold.  With P's
fit in the scale's triangle, that gives the predicate at the value, and
one point next to the corner, counted in integers, proves it false at
value - 1/(2*den) (covering) or value + 1/(2*den) (packing)
(``_proven_stair``, ``_witness_refutes``).  Both predicates are monotone
in l and flip only at candidate scales (``candidate_scales``), which lie
on the 1/den grid of the canonical basis.  So the probe across the flip,
the midpoint to the neighbouring candidate, lies at least 1/(2*den) past
the value, and monotonicity carries both verdicts to the probes.  A
failed check aborts loudly instead of returning a wrong value.

The candidates are found on integers: the window's coordinates and l_max
are scaled to one common denominator, and the candidate set is an integer
sumset, collected as the bits of a Python int (``_scaled_candidates``):
the lifts y - s are set once, and the window's columns, a full arithmetic
progression, are ORed in by doubling.  The value's neighbours are read
off that mask by bit arithmetic (``_neighbours``); only
``candidate_scales`` lists the candidates.  Only the value and its two
probes become Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .geometry import Frozen, Point, StairPolygon, as_int, fields_json, frac
from .lattice import (Lattice, preceding_count, scaled_points,
                      triangle_count)
from .multiplicity import (COVERING, PACKING, Mode, is_jfold_covering,
                           is_jfold_packing, triangle_region)


class CandidateGapError(RuntimeError):
    """The corner formula's scale failed its certificate: the quadrant
    stair does not prove the predicate there, the corner's witness does not
    refute it across the flip, or the scale is not a candidate.  A lattice
    search raises it when a shape's witness does not refute its failing
    scalings, or when the stair of a best lattice does not prove a scale
    that passes at 1."""


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


def _scaled_candidates(lat: Lattice, l_max: Fraction
                       ) -> tuple[int, int | list[int]]:
    """``candidate_scales`` at one common denominator, as (den, found):
    the candidates are v/den for the integers v in (0, l_max * den] that
    found holds, either as its set bits (bit v - 1 for v) or, when the
    sums are few for their range, as a sorted list.

    With every coordinate an integer at den and top = l_max * den, the
    values are the sums x + (y - s) in (0, top].  Bisection pairs each y
    only with the s that give a lift y - s in (-max xs, top - min xs],
    which some x can bring into (0, top].  The lifts are set as the bits of
    one Python int, and the xs x ys sums are never built.

    The window is y1 + y2 + 2 * top tall, at least y2, so each lattice
    column k * x1 of its width holds a point: the xs are the whole
    progression xs[-1] - i * x1, 0 <= i < n.  The sums are therefore the
    lift mask ORed with itself shifted by i * x1 for each such i, and
    doubling builds that OR in about log2(n) shift-ORs: a mask holding the
    shifts 0 .. m - 1, ORed with itself shifted by step * x1, step <= m,
    holds 0 .. m + step - 1.
    """
    if l_max <= 0:
        raise ValueError(f"l_max must be positive: {l_max}")
    den = lcm(lat.den, l_max.denominator)
    x1, y1, y2 = lat.int_key(den)
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
        base = hi - y
        for s in neg_sums[i:j]:
            digits[base - s] = 49  # "1"
    # bit k of the lift mask is the lift lo + k, so bit k of the mask
    # shifted right by xs[-1] - x is the value x + lo + k - xs[-1] = 1 + k
    found, shifts = int(digits, 2), 1
    while shifts < len(xs):
        step = min(shifts, len(xs) - shifts)
        found |= found >> (step * x1)
        shifts += step
    return den, found & ((1 << top) - 1)


def _neighbours(found: int | list[int], v: int) -> tuple[int, int] | None:
    """The candidates next to v in found (``_scaled_candidates``), below
    and above, with 0 for none below and v for none above; None if v is
    not a candidate.

    A mask is read in place: v is a candidate iff bit v - 1 is set, the
    bits below it end at the candidate below, and the lowest set bit of
    found >> v, bit i for the candidate v + i + 1, gives the one above.
    """
    if isinstance(found, int):
        if not found >> (v - 1) & 1:
            return None
        rest = found >> v
        return ((found & ((1 << (v - 1)) - 1)).bit_length(),
                v + (rest & -rest).bit_length())
    idx = bisect_left(found, v)
    if idx == len(found) or found[idx] != v:
        return None
    return (found[idx - 1] if idx else 0,
            found[idx + 1] if idx + 1 < len(found) else v)


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
    den, found = _scaled_candidates(lat, frac(l_max))
    values = _bit_values(found, 1) if isinstance(found, int) else found
    return [Fraction(v, den) for v in values]


def quadrant_stair(key: tuple[int, int, int],
                   j: int) -> tuple[list[int], list[int]]:
    """The quadrant stair P(L, j) as (breaks, heights): the columns
    [breaks[i], breaks[i+1]) x [0, heights[i]) in units of 1/den, where
    key = ``L.int_key(den)`` is the canonical basis (x1, y1), (0, y2).

    P holds the j first points, by ``prec``, of each coset in the closed
    quadrant Q (well ordered: finitely many lie below any coordinate sum),
    so it tiles exactly j-fold.  p in Q is one of them iff fewer than j
    vectors v that precede the origin (v.x + v.y < 0, or = 0 with v.x < 0)
    keep p + v in Q, i.e. iff p lies in fewer than j quadrants above the
    blocks (max(0, -v.x), max(0, -v.y)).

    The blocks, per column k of v = (k*x1, k*y1 + t*y2):
      k = 0: the heights t*y2, t >= 1, at x = 0;
      k >= 1: at x = 0, -v.y >= k*x1 + 1 with -v.y = -k*y1 (mod y2), so
        from h = k*x1 + 1 + ((-k*x1 - 1 - k*y1) mod y2) up;
      k = -m: at x = m*x1, v.y <= m*x1 (the tie counts).  v.y lies in
        r + y2*Z, r = (-m*y1) mod y2: the (m*x1 - r) // y2 + 1 (or none)
        in [0, m*x1] give height 0, the rest y2 - r, 2*y2 - r, ...
    A column's heights step by y2, so its j lowest are its first j.

    Column k >= 1 has no height below k*x1 + 1: the columns at x = 0 stop
    once that exceeds the j-th lowest so far (column 0 gives j), and each
    one taken has k*x1 < h_0.  P's height at x, the j-th lowest of the
    blocks at or left of x, only falls: a column starts where it drops,
    and P ends at 0.  P lies in the covering triangle, so both loops take
    at most scale/x1 columns, of O(j) work each.
    """
    x1, y1, y2 = key
    low = [t * y2 for t in range(1, j + 1)]  # the j lowest heights
    k = 1
    while k * x1 + 1 <= low[-1]:
        h = k * x1 + 1 + (-k * x1 - 1 - k * y1) % y2
        low = sorted(low + [h + t * y2 for t in range(j)])[:j]
        k += 1
    breaks, heights = [0], [low[-1]]
    m = 0
    while low[-1]:
        m += 1
        x = m * x1
        r = -m * y1 % y2
        zeros = min(j, (x - r) // y2 + 1)
        low = sorted(low + [0] * zeros
                     + [t * y2 - r for t in range(1, j + 1 - zeros)])[:j]
        if low[-1] < heights[-1]:
            breaks.append(x)
            heights.append(low[-1])
    heights.pop()  # the height 0 where P ends
    return breaks, heights


def _inner_corners(xs, hs) -> list:
    """The inner corners (0, h_0), (x_i, h_i) for 0 < i < c, and (x_c, 0)
    of the stair with breaks xs and heights hs, c columns."""
    return [(0, hs[0]), *zip(xs[1:-1], hs[1:]), (xs[-1], 0)]


def _corner(xs, hs, kind: str) -> tuple:
    """The corner (x, y) of the stair with breaks xs and heights hs, the
    columns [x_i, x_{i+1}) x [0, h_i) for i = 0..r, whose sum x + y is the
    kind's critical scale when the stair is the quadrant stair P.

    Covering.  The closed l*T translates hold p once per point of its coset
    in l*T: the coset's points of Q with sum <= l, a prefix of its
    ``prec`` order, which compares sums first (a tie is wholly in or out).
    So covering holds iff each coset's points in P lie in l*T, iff P does.
    Over column i, x + y tends to x_{i+1} + h_i, so the covering scale is
    the largest sum over the outer corners (x_{i+1}, h_i).

    Packing.  If the open l*T lies in P, it holds at most j points of a
    coset.  Else some p in it lies outside P, after j points of its coset
    in Q with sums <= that of p (a tie goes by x); shifted by a small
    (e, e), the coset has those j and p in the open l*T.  So packing holds
    iff the open l*T lies in P, which it leaves iff l > x_{r+1}, l > h_0
    (as x -> 0) or l > x_i + h_i for some i >= 1: the packing scale is the
    smallest sum over the inner corners (0, h_0), (x_i, h_i), (x_{r+1}, 0).
    """
    if kind == COVERING:
        return max(zip(xs[1:], hs), key=sum)
    return min(_inner_corners(xs, hs), key=sum)


def _is_first_j(key: tuple[int, int, int], j: int, breaks: list[int],
                heights: list[int]) -> bool:
    """Whether the stair with integer breaks and strictly falling heights
    is F = {p in Q : B(p) < j}, B = ``preceding_count``, by 2c + 1 counts
    at its corners, c its number of columns (``_proven_stair``)."""
    return (breaks[0] == 0
            and all(preceding_count(key, b - 1, h - 1) < j
                    for b, h in zip(breaks[1:], heights))
            and all(preceding_count(key, x, y) >= j
                    for x, y in _inner_corners(breaks, heights)))


def _proven_stair(lat: Lattice, j: int, kind: str,
                  error: type[Exception] = CandidateGapError
                  ) -> tuple[StairPolygon, Point]:
    """P(L, j) as a ``StairPolygon``, with the corner that sets the kind's
    scale, proven to be that scale.  P tiles exactly j-fold (the lemma
    below), has area j * d(L) and at most 2j - 1 steps, and fits the scale
    as ``_corner`` says over all its corners, and the point next to
    the corner refutes the predicate at scale -+ 1/(2*den), den = lat.den
    (``_witness_refutes``), all on the key ``lat.int_key(den)``.  A failed
    check, or a column that ``StairPolygon`` refuses, raises error.

    Lemma.  Let B(p) = ``preceding_count`` count the points of p's coset in
    the closed quadrant Q that precede p.  A coset meets Q in an infinite
    set, well ordered by ``prec`` (finitely many of its points lie below
    any coordinate sum), so F = {p in Q : B(p) < j} holds exactly the j
    first points of each coset.  A point z lies in F + v iff z - v is in
    F, so z lies in exactly j translates of F, one per point of F in the
    coset z + L: F tiles exactly j-fold, half open as the stair is.

    Corners.  L lies on the 1/den grid, so B(p) is B at the grid point
    below p, and F, like the stair, is a union of grid cells.  B is
    monotone, so F's cells are a down-set of the quadrant's, as the
    stair's are (breaks from 0, heights strictly falling).  So the stair
    lies in F iff each of its maximal cells does, B < j at the c outer
    corners (b_{i+1} - 1, h_i - 1); and F lies in the stair iff each
    minimal cell outside the stair lies outside F, B >= j at the c + 1
    inner corners (0, h_0), (b_i, h_i) for 0 < i < c, and (b_c, 0).  These
    2c + 1 counts (``_is_first_j``) prove that the stair is F.
    """
    if j < 1:
        raise ValueError(f"need j >= 1: {j}")
    den = lat.den
    key = lat.int_key(den)
    breaks, heights = quadrant_stair(key, j)
    x, y = _corner(breaks, heights, kind)
    if kind == COVERING:
        fits = all(hi + h <= x + y for hi, h in zip(breaks[1:], heights))
    else:
        fits = (breaks[-1] >= x + y
                and all(lo + h >= x + y for lo, h in zip(breaks, heights)))
    area = sum((hi - lo) * h for lo, hi, h in zip(breaks, breaks[1:], heights))
    corner = Point(Fraction(x, den), Fraction(y, den))
    try:
        stair = StairPolygon([Fraction(b, den) for b in breaks],
                             [Fraction(h, den) for h in heights])
    except ValueError as err:
        raise error(f"no stair for lattice {lat.to_json()}: {err}") from err
    if not (fits and area == j * key[0] * key[2] and stair.r <= 2 * j - 1
            and _is_first_j(key, j, breaks, heights)):
        raise error(f"the quadrant stair of {lat.to_json()} (area "
                    f"{stair.area()}, j*d = {j * lat.d}, {stair.r} steps) does "
                    f"not prove the {kind} scale of corner {corner.to_json()}")
    # scale -+ 1/(2*den) in units of 1/(8*den), the witness's grid
    across = 4 * (2 * (x + y) + (1 if kind == PACKING else -1))
    if not _witness_refutes(key, j, kind, (x, y), across):
        raise error(f"the witness at corner {corner.to_json()} does not "
                    f"refute the {kind} predicate at "
                    f"{Fraction(across, 8 * den)}")
    return stair, corner


def _witness_refutes(key: tuple[int, int, int], j: int, kind: str,
                     corner: tuple[int, int], scale: int) -> bool:
    """Whether the point p = corner + (e, e) (packing) or corner - (e, e)
    (covering), e = 1/(8*den), proves that the translates of scale*T are
    no j-fold packing (covering): it lies in more (fewer) than j of them,
    counted in integers at 8*den as the v with v_x <= p_x, v_y <= p_y and
    v_x + v_y >= p_x + p_y - scale, strict for the open translates
    (``triangle_count``).  key = ``L.int_key(den)`` and the corner are in
    units of 1/den, the scale in units of 1/(8*den).

    At a corner of P from ``_corner``, this is a proof at each scale more
    than 2e past the corner's sum.  Covering: p lies in P, so the fewer
    than j points of its coset that precede it hold all those in scale*T.
    Packing: p lies in Q outside P and off the 1/den grid, so with its j
    predecessors in Q, off the axes, it lies in the open scale*T.
    """
    strict = int(kind != COVERING)  # packing: p = corner + (e, e)
    px, py = (8 * v + 2 * strict - 1 for v in corner)
    count = triangle_count([8 * v for v in key], px - strict, py - strict,
                           px + py - scale + strict)
    return count > j if strict else count < j


def _critical_scale(lat: Lattice, j: int, kind: str) -> ScaleCertificate:
    """The kind's critical scale from ``_proven_stair``, with its
    certificate (see the module docstring).

    Covering holds from its critical scale upwards, packing up to it.  The
    value is placed among the candidates up to l_max, the smallest power
    of two >= 1 where covering holds or packing fails; l_max itself is a
    last packing candidate, as packing is known to fail there.  The probes
    are the midpoints to the neighbouring candidates (value / 2 and
    value + 1/2 past the ends), which ``_neighbours`` reads off the
    candidate bitmask by bit arithmetic, with no list of the candidates.
    The one across the flip lies at least 1/(2*den) past the value, as far
    as the witness of ``_proven_stair``, and monotonicity carries both
    verdicts to the probes.
    """
    covering = kind == COVERING
    _, corner = _proven_stair(lat, j, kind)
    value = corner.x + corner.y
    l_max = Fraction(1)
    while l_max < value or (not covering and l_max == value):
        l_max *= 2
    den, found = _scaled_candidates(lat, l_max)
    v = as_int(value, den)
    near = _neighbours(found, v)
    if near is None:
        raise CandidateGapError(
            f"{kind} scale {value} from the corner formula is not a "
            f"candidate up to {l_max}")
    below, above = near
    if above == v and not covering:
        above = as_int(l_max, den)
    # the midpoint to 0, none below, is value / 2
    return ScaleCertificate(
        value, True, Fraction(below + v, 2 * den), not covering,
        Fraction(v + above, 2 * den) if above > v else value + Fraction(1, 2),
        covering)


def lambda_lower(lat: Lattice, j: int) -> ScaleCertificate:
    """Smallest scale making closed triangle translates a j-fold covering."""
    return _critical_scale(lat, j, COVERING)


def lambda_upper(lat: Lattice, j: int) -> ScaleCertificate:
    """Largest scale keeping open triangle translates a j-fold packing."""
    return _critical_scale(lat, j, PACKING)
