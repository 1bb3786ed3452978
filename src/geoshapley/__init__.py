"""Exact Shapley values for coalitional games on planar point sets.

Players are points in the plane; a coalition's worth is a geometric
measure of it (convex-hull area/perimeter, smallest-enclosing-disk
area/perimeter, union of origin-anchored rectangles, bounding boxes, and
the 1-D airport family).  Every fast engine ships with brute-force
oracles and baselines that verify it.

The public names below load their module on first use (PEP 562), so
importing the package, or one of its modules, loads no engine it does
not need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("convolve",),
    "axis": (
        "GridArrangement",
        "shapley_anchored_bbox",
        "shapley_anchored_bbox_quadratic",
        "shapley_anchored_rects",
        "shapley_anchored_rects_quadratic",
        "shapley_bbox",
        "shapley_bbox_quadratic",
    ),
    "disk": ("DiskBasis", "enumerate_bases", "shapley_disk"),
    "errors": (
        "ConsistencyError",
        "DomainError",
        "GeneralPositionError",
        "GeoShapleyError",
        "SizeLimitError",
    ),
    "games": (
        "GAME_KINDS",
        "ShapleyVector",
        "eval_characteristic",
        "shapley_airport",
        "shapley_anchored_bbox_perimeter",
        "shapley_area_band",
        "shapley_bbox_perimeter",
        "shapley_interval_length",
    ),
    "geometry": (
        "Disk",
        "convex_hull",
        "hull_area",
        "hull_perimeter",
        "min_enclosing_disk",
    ),
    "hull": (
        "all_pair_levels",
        "shapley_hull_area",
        "shapley_hull_area_naive",
        "shapley_hull_perimeter",
    ),
    "oracle": ("coalition_table", "shapley_by_permutations", "shapley_by_subsets"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:  # the modules that export names are attributes too
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
