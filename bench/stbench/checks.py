"""Result checks that do not trust the code path under measurement.

Closed forms are recomputed here from their definitions with plain integer
arithmetic.  Scale certificates and selection stairs are re-verified through
``multiplicity_extrema``, which is independent of the candidate-scale search
and of the stair sweep.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

import stairtile as st


def admissible(j: int) -> list[int]:
    n = 2 * j + 1
    return [m for m in range(1, n + 1)
            if gcd(m, n) == 1 and gcd(m + 1, n) == 1]


def packing_closed_form(j: int) -> Fraction:
    return Fraction(2 * j * j, 2 * j + 1)


def covering_closed_form(j: int) -> Fraction:
    return Fraction(2 * j + 1, 2)


def phi_definition(k: int, n: int) -> int:
    return sum(1 for m in range(1, n + 1)
               if all(gcd(m + i, n) == 1 for i in range(k)))


def optimal_count(j: int) -> int:
    return phi_definition(2, 2 * j + 1)


def divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def expect(condition: bool, message: str) -> Optional[str]:
    return None if condition else f"wrong: {message}"


def check_density(result: st.DensityResult, j: int,
                  kind: str) -> Optional[str]:
    value = (packing_closed_form(j) if kind == st.PACKING
             else covering_closed_form(j))
    if result.value != value or result.kind != kind or result.j != j:
        return f"wrong: density {result.value} != closed form {value}"
    if len(result.witness_lattices) != optimal_count(j):
        return (f"wrong: {len(result.witness_lattices)} witnesses, "
                f"phi_2(2j+1) = {optimal_count(j)}")
    for lat in result.witness_lattices:
        if Fraction(1, 2) / lat.d != value:
            return f"wrong: witness {lat.to_json()} has another density"
    return None


def _covering_at(lat: st.Lattice, j: int, scale: Fraction) -> bool:
    region = st.Region(st.ScaledTriangle(scale), st.Mode.CLOSED)
    return st.multiplicity_extrema(lat, region).min_mult >= j


def _packing_at(lat: st.Lattice, j: int, scale: Fraction) -> bool:
    region = st.Region(st.ScaledTriangle(scale), st.Mode.INTERIOR)
    return st.multiplicity_extrema(lat, region).max_mult <= j


def check_certificate(cert: st.ScaleCertificate, lat: st.Lattice, j: int,
                      which: str) -> Optional[str]:
    """Re-evaluate value, below and above of a critical-scale certificate."""
    if not cert.below_scale < cert.value < cert.above_scale:
        return "wrong: certificate probes do not bracket the value"
    pred = _covering_at if which == "lower" else _packing_at
    for scale, recorded in ((cert.value, cert.predicate_at_value),
                            (cert.below_scale, cert.predicate_below),
                            (cert.above_scale, cert.predicate_above)):
        if pred(lat, j, scale) != recorded:
            return f"wrong: predicate at {scale} does not reproduce"
    # covering holds from the value up, packing holds from the value down
    outside = (cert.predicate_below if which == "lower"
               else cert.predicate_above)
    return expect(cert.predicate_at_value and not outside,
                  "certificate does not flip across the value")


def check_selection_stair(sel: st.SelectionStair, lat: st.Lattice,
                          j: int) -> Optional[str]:
    """Area identity, step bound and exact j-fold tiling of the stair."""
    if sel.stair.area() != j * lat.d:
        return f"wrong: area {sel.stair.area()} != j*d = {j * lat.d}"
    if sel.stair.r > 2 * j - 1:
        return f"wrong: {sel.stair.r} steps exceed 2j-1"
    region = st.Region(sel.stair, st.Mode.HALF_OPEN)
    report = st.multiplicity_extrema(lat, region)
    return expect(report.min_mult == j == report.max_mult,
                  f"stair covers {report.min_mult}..{report.max_mult}-fold")
