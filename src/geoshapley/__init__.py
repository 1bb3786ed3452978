"""Exact Shapley values for coalitional games on planar point sets.

Players are points in the plane; a coalition's worth is a geometric
measure of it (convex-hull area/perimeter, smallest-enclosing-disk
area/perimeter, union of origin-anchored rectangles, bounding boxes, and
the 1-D airport family).  Every fast engine ships with brute-force
oracles and baselines that verify it.
"""

from .algebra import (
    RationalStepSeries,
    convolve,
    direct_rational_eval,
    multipoint_rational_eval,
)
from .axis import (
    GridArrangement,
    shapley_anchored_bbox,
    shapley_anchored_bbox_quadratic,
    shapley_anchored_rects,
    shapley_anchored_rects_quadratic,
    shapley_bbox,
    shapley_bbox_quadratic,
)
from .disk import DiskBasis, enumerate_bases, shapley_disk
from .errors import (
    AxisDegeneracyError,
    ConsistencyError,
    DomainError,
    GeneralPositionError,
    GeoShapleyError,
    SizeLimitError,
)
from .games import (
    GAME_KINDS,
    ShapleyVector,
    eval_characteristic,
    shapley_airport,
    shapley_anchored_bbox_perimeter,
    shapley_area_band,
    shapley_bbox_perimeter,
    shapley_interval_length,
)
from .geometry import (
    Disk,
    convex_hull,
    hull_area,
    hull_perimeter,
    min_enclosing_disk,
)
from .hull import (
    all_pair_levels,
    rho,
    rho_prime,
    shapley_hull_area,
    shapley_hull_area_naive,
    shapley_hull_perimeter,
)
from .oracle import coalition_table, shapley_by_permutations, shapley_by_subsets
from .permcount import (
    TripleCounts,
    prob_first_of_A_before_B_or_C,
    prob_first_of_B_before_A_after_some_C,
    prob_sandwich,
)

__version__ = "0.1.0"
