"""Deterministic SVG rendering of lattice translate families.

Geometry stays rational until the final serialization, where coordinates
become decimal strings with at most twelve fractional digits (presentation
only; nothing downstream consumes them).  Identical render specs produce
byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Box, Frozen, Point, ScaledTriangle, StairPolygon
from .lattice import Lattice
from .multiplicity import Region

_CANVAS = 720  # logical pixel width of the viewport square

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac",
)


class RenderSpec(Frozen):
    """What to draw: a region, its lattice, and a viewport.

    copies bounds the basis-coefficient range of the enumerated translates
    in each direction; only translates whose bounding box meets the
    viewport are emitted.
    """

    region: Region
    lattice: Lattice
    viewport: Box
    copies: int

    def __init__(self, region: Region, lattice: Lattice, viewport: Box,
                 copies: int) -> None:
        if viewport.width == 0 or viewport.height == 0:
            raise ValueError("viewport must be two-dimensional")
        if copies < 0:
            raise ValueError(f"copies must be non-negative: {copies}")
        super().__init__(region, lattice, viewport, copies)


def _dec12(value: Fraction) -> str:
    """Decimal string with at most 12 fractional digits, round half away
    from zero, trailing zeros stripped.  Pure integer arithmetic."""
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    scaled = (mag.numerator * 10**12 * 2
              + mag.denominator) // (2 * mag.denominator)
    whole, fracpart = divmod(scaled, 10**12)
    if fracpart == 0:
        return f"{sign}{whole}"
    digits = f"{fracpart:012d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def _outline(shape: StairPolygon | ScaledTriangle,
             offset: Point) -> list[Point]:
    if isinstance(shape, ScaledTriangle):
        return [v + offset for v in shape.vertices()]
    pts = [Point(shape.x_breaks[0], Fraction(0))]
    for i, h in enumerate(shape.heights):
        pts.append(Point(shape.x_breaks[i], h))
        pts.append(Point(shape.x_breaks[i + 1], h))
    pts.append(Point(shape.x_breaks[-1], Fraction(0)))
    return [p + offset for p in pts]


def render(spec: RenderSpec) -> str:
    """Emit an SVG 1.1 document: one polygon per translate in the viewport,
    filled by its multiplicity layer at its own anchor corner."""
    vp = spec.viewport
    scale = Fraction(_CANVAS) / vp.width
    height = vp.height * scale

    def sx(x: Fraction) -> str:
        return _dec12((x - vp.x_min) * scale)

    def sy(y: Fraction) -> str:
        # flip so that the y axis points up
        return _dec12((vp.y_max - y) * scale)

    shape = spec.region.shape
    bb = shape.bbox()
    translates: list[Point] = []
    if spec.copies > 0:
        for a in range(-spec.copies, spec.copies + 1):
            for b in range(-spec.copies, spec.copies + 1):
                w = spec.lattice.point(a, b)
                moved = bb.translated(w)
                if (moved.x_max < vp.x_min or moved.x_min > vp.x_max
                        or moved.y_max < vp.y_min or moved.y_min > vp.y_max):
                    continue
                translates.append(w)
    translates.sort(key=lambda p: (p.x + p.y, p.x))

    # anchor slightly inside the lower-left corner; layer = how many
    # earlier translates already cover that anchor
    corner = Point(bb.x_min + Fraction(1, 97), bb.y_min + Fraction(1, 89))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS}" height="{_dec12(height)}" '
        f'viewBox="0 0 {_CANVAS} {_dec12(height)}">',
        f'<rect x="0" y="0" width="{_CANVAS}" height="{_dec12(height)}" '
        f'fill="#ffffff"/>',
    ]
    if vp.x_min <= 0 <= vp.x_max:
        lines.append(f'<line x1="{sx(Fraction(0))}" y1="0" '
                     f'x2="{sx(Fraction(0))}" y2="{_dec12(height)}" '
                     f'stroke="#888888" stroke-width="1"/>')
    if vp.y_min <= 0 <= vp.y_max:
        lines.append(f'<line x1="0" y1="{sy(Fraction(0))}" '
                     f'x2="{_CANVAS}" y2="{sy(Fraction(0))}" '
                     f'stroke="#888888" stroke-width="1"/>')
    for idx, w in enumerate(translates):
        anchor = corner + w
        layer = 0
        for earlier in translates[:idx]:
            if spec.region.contains(anchor - earlier):
                layer += 1
        color = _PALETTE[layer % len(_PALETTE)]
        pts = " ".join(f"{sx(p.x)},{sy(p.y)}"
                       for p in _outline(shape, w))
        lines.append(f'<polygon points="{pts}" fill="{color}" '
                     f'fill-opacity="0.55" stroke="#222222" '
                     f'stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
