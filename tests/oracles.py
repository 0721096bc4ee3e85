"""Independent brute-force oracles used to derive frozen expected values.

Everything here deliberately avoids the library's own algorithms: critical
scales come from corner/subset enumeration, areas from summation, counts
from naive double loops.  Slow and only correct at desk scale, which is all
the tests need.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from math import floor, lcm

from stairtile import (Box, Lattice, Point, StairPolygon, points_in_box,
                       prec)


def covering_scale_oracle(lat: Lattice, j: int, window: int) -> Fraction:
    """Smallest l so that closed l*T translates cover j-fold.

    The worst points of a covering sit just below corners (vx, wy) built
    from one lattice x-coordinate and one lattice y-coordinate; the scale
    needed there is vx + wy minus the j-th largest coordinate sum among
    lattice points strictly dominated by the corner.  Corner residues
    repeat modulo the lattice, so corners are taken from one fundamental
    rectangle while the dominated points range over a generous window
    (which must extend at least the answer below the rectangle).
    """
    x1, _, y2 = lat.canonical_key()
    pts = points_in_box(lat, Box(-window, window + x1, -window,
                                 window + y2))
    xs = sorted({p.x for p in pts if 0 <= p.x <= x1})
    ys = sorted({p.y for p in pts if 0 <= p.y <= y2})
    best: Fraction | None = None
    for vx in xs:
        for wy in ys:
            sums = sorted((z.x + z.y for z in pts
                           if z.x < vx and z.y < wy), reverse=True)
            if len(sums) < j:
                continue
            cand = vx + wy - sums[j - 1]
            if best is None or cand > best:
                best = cand
    assert best is not None, "window too small for the covering oracle"
    assert best <= window, "window too small for the covering oracle"
    return best


def packing_scale_oracle(lat: Lattice, j: int, window: int) -> Fraction:
    """Largest l so that open l*T translates overlap at most j deep.

    j+1 open triangle translates anchored at lattice points first share a
    point when l exceeds max(x) + max(y) - min(x + y) over the anchors, so
    the packing scale is the minimum of that expression over all
    (j+1)-subsets in a window.
    """
    pts = points_in_box(lat, Box(-window, window, -window, window))
    best: Fraction | None = None
    for subset in combinations(pts, j + 1):
        expr = (max(p.x for p in subset) + max(p.y for p in subset)
                - min(p.x + p.y for p in subset))
        if best is None or expr < best:
            best = expr
    assert best is not None
    return best


def candidate_scales_reference(lat: Lattice, l_max) -> list[Fraction]:
    """Every scale in (0, l_max] of the forms w_x + w'_y - z_x - z_y,
    w_x - v_x and w_y - v_y over the lattice points of the window.

    The window is the bounding box of the canonical fundamental
    parallelogram inflated by l_max on all sides.  The three difference
    sets are built in full from the window's coordinates, as Fractions.
    """
    l_max = Fraction(l_max)
    x1, y1, y2 = lat.canonical_key()
    corners = [Point(0, 0), Point(x1, y1), Point(0, y2), Point(x1, y1 + y2)]
    window = Box(min(c.x for c in corners) - l_max,
                 max(c.x for c in corners) + l_max,
                 min(c.y for c in corners) - l_max,
                 max(c.y for c in corners) + l_max)
    pts = points_in_box(lat, window)
    xs = {p.x for p in pts}
    ys = {p.y for p in pts}
    sums = {p.x + p.y for p in pts}
    values = {a - b for a in xs for b in xs}
    values |= {a - b for a in ys for b in ys}
    values |= {x + y - s for x in xs for y in ys for s in sums}
    return sorted(v for v in values if 0 < v <= l_max)


def selection_member(lat: Lattice, j: int, p: Point) -> bool:
    """Is p among the j first points, in the coordinate-sum order, of its
    coset in the closed quadrant x, y >= 0?  That is membership in the
    quadrant stair P(L, j).

    True iff p lies in the quadrant and fewer than j lattice vectors v with
    ``prec(v, 0)`` keep p + v in it.  Such a v has v.x >= -p.x,
    v.y >= -p.y and v.x + v.y <= 0, so it lies in the box
    [-p.x, p.y] x [-p.y, p.x].
    """
    if p.x < 0 or p.y < 0:
        return False
    box, origin = Box(-p.x, p.y, -p.y, p.x), Point(0, 0)
    return sum(1 for v in points_in_box(lat, box)
               if prec(v, origin) and p.x + v.x >= 0
               and p.y + v.y >= 0) < j


def triangle_count_reference(a: Point, b: Point, c: Point, lat: Lattice,
                             u: Point, closed: bool) -> int:
    """Number of lattice vectors v with u + v in the triangle a, b, c,
    closed or open, for vertices of either orientation.

    A point p is inside iff the three edge determinants
    det(b - a, p - a), det(c - b, p - b) and det(a - c, p - c) all have the
    sign of det(b - a, c - a), or are zero where the triangle is closed.
    """
    def det(e: Point, f: Point) -> Fraction:
        return e.x * f.y - e.y * f.x

    sign = 1 if det(b - a, c - a) > 0 else -1
    edges = ((a, b), (b, c), (c, a))
    xs, ys = (a.x, b.x, c.x), (a.y, b.y, c.y)
    box = Box(min(xs) - u.x, max(xs) - u.x, min(ys) - u.y, max(ys) - u.y)
    count = 0
    for v in points_in_box(lat, box):
        sides = [sign * det(q - p, u + v - p) for p, q in edges]
        count += all(d >= 0 if closed else d > 0 for d in sides)
    return count


def faces_reference(a_vals: list[int], b_vals: list[int],
                    c_in: list[int]) -> list[tuple[int, int]]:
    """One sample in every cell, edge fragment and vertex of the
    arrangement of the vertical lines x = a, the horizontal lines y = b and
    the diagonals x + y = c over the closed rectangle [0, w] x [0, h],
    where w = a_vals[-1] and h = b_vals[-1], each sample once and in the
    order of its first construction.

    The lines are sorted integers, multiples of 4, that include the
    rectangle's sides; c_in holds the diagonals that meet it.  First one
    point in each piece of each grid square cut by the diagonals; then,
    line by line (verticals, horizontals, diagonals), the vertices on the
    line followed by the midpoints of the edge fragments between them.
    """
    w, h = a_vals[-1], b_vals[-1]
    samples: list[tuple[int, int]] = []
    for a0, a1 in zip(a_vals, a_vals[1:]):
        for b0, b1 in zip(b_vals, b_vals[1:]):
            sq_lo, sq_hi = a0 + b0, a1 + b1
            cuts = [sq_lo, *c_in[bisect_right(c_in, sq_lo):
                                 bisect_left(c_in, sq_hi)], sq_hi]
            for lo, hi in zip(cuts, cuts[1:]):
                s = (lo + hi) // 2
                x = (max(a0, s - b1) + min(a1, s - b0)) // 2
                samples.append((x, s - x))
    for a in a_vals:
        ts = sorted(set(b_vals).union(
            c - a for c in c_in[bisect_left(c_in, a):
                                bisect_right(c_in, a + h)]))
        samples += [(a, t) for t in ts]
        samples += [(a, (t0 + t1) // 2) for t0, t1 in zip(ts, ts[1:])]
    for b in b_vals:
        us = sorted(set(a_vals).union(
            c - b for c in c_in[bisect_left(c_in, b):
                                bisect_right(c_in, b + w)]))
        samples += [(u, b) for u in us]
        samples += [((u0 + u1) // 2, b) for u0, u1 in zip(us, us[1:])]
    for c in c_in:
        x_lo, x_hi = max(0, c - h), min(w, c)
        us = sorted({x_lo, x_hi}.union(
            a_vals[bisect_left(a_vals, x_lo):bisect_right(a_vals, x_hi)],
            (c - b for b in b_vals[bisect_left(b_vals, c - x_hi):
                                   bisect_right(b_vals, c - x_lo)])))
        samples += [(u, c - u) for u in us]
        samples += [((u0 + u1) // 2, c - (u0 + u1) // 2)
                    for u0, u1 in zip(us, us[1:])]
    return list(dict.fromkeys(samples))


def halfopen_grid_reference(lat: Lattice, stairs: list[StairPolygon],
                            den: int) -> tuple[list[int], list[int]]:
    """The verticals and horizontals of the translate boundaries of the
    half open stairs inside the canonical rectangle [0, w) x [0, h),
    scaled by den, with the sides 0, w and 0, h, each list sorted.

    The walls cross the rectangle at the x-breaks mod w.  For the floors
    and ceilings every translate t of the box [-x_max, w - x_min] x
    [-y_max, h] of each stair is listed, and each t.y + o, o = 0 or a
    height, that falls strictly inside (0, h) is kept.
    """
    x1, _, y2 = lat.canonical_key()
    w, h = int(x1 * den), int(y2 * den)
    xs, ys = {0, w}, {0, h}
    for shape in stairs:
        xs.update(int(v * den) % w for v in shape.x_breaks)
        bb = shape.bbox()
        box = Box(-bb.x_max, x1 - bb.x_min, -bb.y_max, y2 - bb.y_min)
        for t in points_in_box(lat, box):
            for o in (0, *shape.heights):
                y = (t.y + o) * den
                if 0 < y < h:
                    ys.add(int(y))
    return sorted(xs), sorted(ys)


def coset_counts_reference(columns: list[tuple[int, int]], j: int,
                           key: tuple[int, int, int]) -> bool:
    """Whether no coset of the lattice ((a, b), (0, c)) in Z^2 holds more
    than j of the points in columns; key is (a, b, c) with a, c > 0.

    The point (X, Y) lies in the coset (X mod a, (Y - (X // a)*b) mod c):
    subtracting (X // a) lattice vectors (a, b) leaves the x-residue, and
    multiples of (0, c) the y-residue.  Every point is filed in a table of
    a*c counts, and the walk stops at the first coset past j.  On the
    stair's j*a*c grid points this is "every coset holds exactly j", by
    pigeonhole.
    """
    a, b, c = key
    counts = [0] * (a * c)
    for x, height in columns:
        row, shift = x % a * c, x // a * b
        for y in range(height):
            k = row + (y - shift) % c
            counts[k] += 1
            if counts[k] > j:
                return False
    return True


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0, by recursion."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, s, t = _bezout(b, a % b)
    return g, t, s - (a // b) * t


def canonical_key_reference(u1: Point, u2: Point
                            ) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical (x1, y1, y2) of the lattice spanned by u1, u2, by integer
    row operations on Fraction points: a Bezout combination of the basis
    has the smallest positive x-coordinate g/den, the primitive kernel of
    the x-map is the vertical basis vector, and the first vector's height
    is reduced modulo the second's.  Raises ValueError on a singular
    basis."""
    den = lcm(u1.x.denominator, u2.x.denominator)
    n1 = int(u1.x * den)
    n2 = int(u2.x * den)
    if n1 == 0 and n2 == 0:
        raise ValueError("both basis x-coordinates vanish")
    g, s, t = _bezout(n1, n2)
    v1 = u1.scaled(s) + u2.scaled(t)
    v2 = u1.scaled(-(n2 // g)) + u2.scaled(n1 // g)
    if v2.y < 0:
        v2 = v2.scaled(-1)
    if v2.y == 0:
        raise ValueError("basis is singular")
    v1 = v1 - v2.scaled(floor(v1.y / v2.y))
    return v1.x, v1.y, v2.y


def sublattices_reference(n: int) -> list[Lattice]:
    """The index-n sublattices of Z^2 in the library's order (a ascending
    over the divisors of n, then b), each through the checked
    ``Lattice`` constructor: the Hermite normal forms ((a, b), (0, c))
    with a*c = n and 0 <= b < c."""
    return [Lattice(Point(a, b), Point(0, n // a))
            for a in range(1, n + 1) if n % a == 0
            for b in range(n // a)]


def lattice_points_bruteforce(lat: Lattice, box: Box,
                              coeff: int = 12) -> list[Point]:
    """Lattice points in a closed box by sweeping small basis coefficients."""
    out = []
    for a in range(-coeff, coeff + 1):
        for b in range(-coeff, coeff + 1):
            p = lat.point(a, b)
            if box.contains(p):
                out.append(p)
    out.sort(key=lambda p: (p.x, p.y))
    return out


def stair_area_by_columns(j: int) -> Fraction:
    """Area of the canonical stair as the plain sum 2j + (2j-1) + ... + 1."""
    return Fraction(sum(range(1, 2 * j + 1)))
