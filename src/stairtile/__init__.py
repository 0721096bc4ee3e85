"""Exact j-fold lattice packings, coverings, and stair tilings of the plane.

The package computes, verifies, and searches j-fold lattice packings and
coverings of triangles and exact j-fold tilings with half open stair
polygons, entirely in rational arithmetic.  Closed forms: the best j-fold
packing density of any triangle is 2j^2/(2j+1), the best covering density
is (2j+1)/2, and the number of lattices attaining either is
(2j+1) * prod(1 - 2/p) over the primes p dividing 2j+1.
"""

from .arith import (count_optimal_lattices, factorize, phi_k,
                    phi_k_bruteforce)
from .density import (COVERING, PACKING, DensityResult, covering_density,
                      density_result, optimal_covering_lattices,
                      optimal_packing_lattices, packing_density,
                      triangle_lattice)
from .geometry import (Box, Point, ScaledTriangle, StairPolygon,
                       format_rational, frac, parse_rational, prec)
from .lattice import (Lattice, enumerate_integer_sublattices,
                      integer_lattice, points_in_box, shift_lattice)
from .multiplicity import (Mode, MultiplicityReport, Region, count_at,
                           is_exact_jfold_tiling, is_jfold_covering,
                           is_jfold_packing, layer_extrema,
                           multiplicity_extrema, random_sampling_oracle,
                           stair_region, triangle_region)
from .scales import (CandidateGapError, ScaleCertificate, candidate_scales,
                     covering_predicate, lambda_lower, lambda_upper,
                     packing_predicate)
from .search import (AreaOptimum, SearchReport,
                     optimize_circumscribed_stair, optimize_inscribed_stair,
                     search_covering, search_packing)
from .stairs import (SelectionStairError, SelectionStair, admissible_shifts,
                     canonical_stair, selection_stair, count_region,
                     verify_stair_tiling_converse,
                     verify_stair_tiling_forward)
from .svgout import RenderSpec, render

__version__ = "0.1.0"

__all__ = [
    "AreaOptimum", "Box", "COVERING", "CandidateGapError",
    "DensityResult", "Lattice", "Mode", "MultiplicityReport", "PACKING",
    "Point", "Region",
    "RenderSpec", "ScaleCertificate", "ScaledTriangle", "SearchReport",
    "SelectionStairError", "SelectionStair", "StairPolygon", "admissible_shifts",
    "canonical_stair", "candidate_scales",
    "selection_stair", "count_at",
    "count_optimal_lattices", "count_region", "covering_density",
    "covering_predicate", "density_result",
    "enumerate_integer_sublattices", "factorize", "format_rational", "frac",
    "integer_lattice", "is_exact_jfold_tiling",
    "is_jfold_covering", "is_jfold_packing",
    "lambda_lower", "shift_lattice", "lambda_upper",
    "layer_extrema", "multiplicity_extrema",
    "optimal_covering_lattices", "optimal_packing_lattices",
    "optimize_circumscribed_stair", "optimize_inscribed_stair",
    "packing_density", "packing_predicate", "parse_rational",
    "phi_k", "phi_k_bruteforce", "points_in_box", "prec",
    "random_sampling_oracle", "render",
    "search_covering", "search_packing", "stair_region", "triangle_lattice",
    "triangle_region",
    "verify_stair_tiling_converse", "verify_stair_tiling_forward",
]
