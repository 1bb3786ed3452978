"""The twelve coalitional games and their closed-form solvers.

Every game assigns to a coalition Q of points a nonnegative geometric
measure v(Q), with v(empty) = 0.  The five 1-D-reducible games (airport,
interval length, area band, and the two box perimeters) have O(n log n)
Shapley solvers built from the Littlechild-Owen recurrence and linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError

GAME_KINDS = (
    "hull-area",
    "hull-perimeter",
    "disk-area",
    "disk-perimeter",
    "anchored-rects",
    "bbox-area",
    "anchored-bbox-area",
    "airport",
    "interval-length",
    "area-band",
    "bbox-perimeter",
    "anchored-bbox-perimeter",
)

@dataclass
class ShapleyVector:
    """Per-player allocation, aligned with the input point order."""

    values: np.ndarray
    game_total: float
    game: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def efficiency_residual(self):
        return float(np.sum(self.values) - self.game_total)


def check_game(game):
    if game not in GAME_KINDS:
        raise DomainError(f"unknown game kind {game!r}")


def _anchored_union_area(pts):
    """Area of the union of origin-anchored rectangles (staircase sweep
    per quadrant after coordinate compression by reflection)."""
    total = 0.0
    ax = np.abs(pts)
    sx = np.sign(pts[:, 0])
    sy = np.sign(pts[:, 1])
    for qx, qy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        sel = (sx == qx) & (sy == qy)
        if not np.any(sel):
            continue
        q = ax[sel]
        order = np.argsort(q[:, 0], kind="stable")
        xs = q[order, 0]
        ys = q[order, 1]
        suffix_max = np.maximum.accumulate(ys[::-1])[::-1]
        widths = np.diff(np.concatenate(([0.0], xs)))
        total += float(np.dot(widths, suffix_max))
    return total


def eval_characteristic(game, q_points, full_points=None):
    """Exact measure v(Q) for a nonempty coalition Q.

    ``full_points`` supplies the ambient player set for games whose
    definition references constants of the full instance (area-band);
    it defaults to Q itself.
    """
    check_game(game)
    q = geometry.as_points(q_points)
    x = q[:, 0]
    y = q[:, 1]
    if game == "hull-area":
        return geometry.hull_area(geometry.convex_hull(q))
    if game == "hull-perimeter":
        return geometry.hull_perimeter(geometry.convex_hull(q))
    if game in ("disk-area", "disk-perimeter"):
        disk, _ = geometry.min_enclosing_disk(q)
        return disk.area if game == "disk-area" else disk.perimeter
    if game == "anchored-rects":
        return _anchored_union_area(q)
    if game == "bbox-area":
        return float((x.max() - x.min()) * (y.max() - y.min()))
    if game == "anchored-bbox-area":
        return float(
            (max(x.max(), 0.0) - min(x.min(), 0.0))
            * (max(y.max(), 0.0) - min(y.min(), 0.0))
        )
    if game == "airport":
        if np.any(x <= 0.0):
            raise DomainError("airport game requires strictly positive coordinates")
        return float(x.max())
    if game == "interval-length":
        return float(x.max() - x.min())
    if game == "area-band":
        full = q if full_points is None else geometry.as_points(full_points)
        height = float(full[:, 1].max() - full[:, 1].min())
        return height * float(x.max() - x.min())
    if game == "bbox-perimeter":
        return 2.0 * float(x.max() - x.min()) + 2.0 * float(y.max() - y.min())
    # anchored-bbox-perimeter
    return 2.0 * float(max(x.max(), 0.0) - min(x.min(), 0.0)) + 2.0 * float(
        max(y.max(), 0.0) - min(y.min(), 0.0)
    )


def _airport_values(coords):
    """Littlechild-Owen recurrence; accepts zeros and ties (gap 0)."""
    x = np.asarray(coords, dtype=float)
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    gaps = np.diff(np.concatenate(([0.0], xs)))
    phi_sorted = np.cumsum(gaps / (n - np.arange(n)))
    out = np.empty(n)
    out[order] = phi_sorted
    return out


def _interval_length_values(coords):
    """Shapley values of v(Q) = max(Q) - min(Q) on the line.

    Decomposes into two airport games (after translation / reflection)
    plus the constant game v3 = min(P) - max(P), whose Shapley value is
    v3 / n for everyone.  v3 is the only negative-valued component.
    """
    x = np.asarray(coords, dtype=float)
    n = x.size
    alpha = float(x.min())
    beta = float(x.max())
    v1 = _airport_values(x - alpha)
    v2 = _airport_values(beta - x)
    return v1 + v2 + (alpha - beta) / n


def shapley_airport(coords):
    """Airport game v(Q) = max(Q) for points on the positive line."""
    x = np.asarray(coords, dtype=float).reshape(-1)
    if x.size < 1:
        raise DomainError("need at least one player")
    if not np.all(np.isfinite(x)):
        raise DomainError("point coordinates must be finite")
    if np.any(x <= 0.0):
        raise DomainError("airport coordinates must be strictly positive")
    return ShapleyVector(_airport_values(x), float(x.max()), "airport")


def shapley_interval_length(coords):
    """Interval-length game v(Q) = max(Q) - min(Q) on the line."""
    x = np.asarray(coords, dtype=float).reshape(-1)
    if x.size < 1:
        raise DomainError("need at least one player")
    if not np.all(np.isfinite(x)):
        raise DomainError("point coordinates must be finite")
    return ShapleyVector(
        _interval_length_values(x), float(x.max() - x.min()), "interval-length"
    )


def shapley_area_band(points):
    """Band game: interval length of the x coordinates scaled by the
    (constant) y extent of the full point set."""
    pts = geometry.as_points(points)
    height = float(pts[:, 1].max() - pts[:, 1].min())
    values = height * _interval_length_values(pts[:, 0])
    total = height * float(pts[:, 0].max() - pts[:, 0].min())
    return ShapleyVector(values, total, "area-band")


def shapley_bbox_perimeter(points):
    """Perimeter of the bounding box: two interval-length games."""
    pts = geometry.as_points(points)
    values = 2.0 * _interval_length_values(pts[:, 0]) + 2.0 * _interval_length_values(
        pts[:, 1]
    )
    total = eval_characteristic("bbox-perimeter", pts)
    return ShapleyVector(values, total, "bbox-perimeter")


def shapley_anchored_bbox_perimeter(points):
    """Perimeter of the origin-anchored bounding box: four airport games
    on the clamped coordinates max(+-x, 0), max(+-y, 0)."""
    pts = geometry.as_points(points)
    x = pts[:, 0]
    y = pts[:, 1]
    values = 2.0 * (
        _airport_values(np.maximum(x, 0.0)) + _airport_values(np.maximum(-x, 0.0))
    ) + 2.0 * (
        _airport_values(np.maximum(y, 0.0)) + _airport_values(np.maximum(-y, 0.0))
    )
    total = eval_characteristic("anchored-bbox-perimeter", pts)
    return ShapleyVector(values, total, "anchored-bbox-perimeter")
