"""The twelve coalitional games and their closed-form solvers.

GAMES is the game table: one row per game, naming its solvers and how its
random instances and bench series are drawn.  Every other list of the
games is read from it.

Every game assigns to a coalition Q of points a nonnegative geometric
measure v(Q), with v(empty) = 0.  The five 1-D-reducible games (airport,
interval length, area band, and the two box perimeters) have O(n log n)
Shapley solvers built from the Littlechild-Owen recurrence and linearity.
The ordering probabilities rho and rho' that weight the hull and disk
bases live here too, since every engine loads this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import DomainError


class Game(NamedTuple):
    """One row of the game table.

    A solver is a (module, function, keyword arguments after the points)
    triple, so that resolving a row imports only the module that serves
    it; None where the game has no solver of that kind.
    """

    bench_sizes: str  # the default `bench` series
    fast: tuple
    quadratic: tuple | None = None
    naive: tuple | None = None
    domain: str = "plane"  # of random instances: "line+" (x > 0, y = 0), "anchored" or "plane"
    chains: bool = False  # the fast solver detects chains, so verification mixes them in
    # v(Q) from Q's extents lx, hx (x) and ly, hy (y) and the full set's y
    # extent, on floats or arrays; None where v is not a function of them
    extent: Callable | None = None


def _anchored_width(lo, hi):
    return np.maximum(hi, 0.0) - np.minimum(lo, 0.0)


_HULL, _DISK = "1000,2000,4000,8000", "40,80,160"
_BOX, _LINE = "4096,8192,16384,32768", "65536,131072,262144"

GAMES = {
    "hull-area": Game(_HULL, ("hull", "shapley_hull_area", {}),
                      naive=("hull", "shapley_hull_area_naive", {})),
    "hull-perimeter": Game(_HULL, ("hull", "shapley_hull_perimeter", {}),
                           naive=("hull", "shapley_hull_perimeter", {"naive": True})),
    "disk-area": Game(_DISK, ("disk", "shapley_disk", {"measure": "area"}),
                      naive=("disk", "shapley_disk", {"measure": "area", "minus_mode": "direct"})),
    "disk-perimeter": Game(
        _DISK, ("disk", "shapley_disk", {"measure": "perimeter"}),
        naive=("disk", "shapley_disk", {"measure": "perimeter", "minus_mode": "direct"}),
    ),
    "anchored-rects": Game(
        "4096,8192,16384,32768,65536", ("axis", "shapley_anchored_rects", {}),
        ("axis", "shapley_anchored_rects_quadratic", {}), domain="anchored", chains=True,
    ),
    "bbox-area": Game(
        _BOX, ("axis", "shapley_bbox", {}), ("axis", "shapley_bbox_quadratic", {}), chains=True,
        extent=lambda lx, hx, ly, hy, band: (hx - lx) * (hy - ly),
    ),
    "anchored-bbox-area": Game(
        _BOX, ("axis", "shapley_anchored_bbox", {}),
        ("axis", "shapley_anchored_bbox_quadratic", {}), domain="anchored", chains=True,
        extent=lambda lx, hx, ly, hy, band: _anchored_width(lx, hx) * _anchored_width(ly, hy),
    ),
    "airport": Game(_LINE, ("dispatch", "_airport", {}), domain="line+",
                    extent=lambda lx, hx, ly, hy, band: hx),
    "interval-length": Game(_LINE, ("dispatch", "_interval", {}),
                            extent=lambda lx, hx, ly, hy, band: hx - lx),
    "area-band": Game(_LINE, ("games", "shapley_area_band", {}),
                      extent=lambda lx, hx, ly, hy, band: band * (hx - lx)),
    "bbox-perimeter": Game(
        _LINE, ("games", "shapley_bbox_perimeter", {}),
        extent=lambda lx, hx, ly, hy, band: 2.0 * (hx - lx) + 2.0 * (hy - ly),
    ),
    "anchored-bbox-perimeter": Game(
        _LINE, ("games", "shapley_anchored_bbox_perimeter", {}), domain="anchored",
        extent=lambda lx, hx, ly, hy, band: (
            2.0 * _anchored_width(lx, hx) + 2.0 * _anchored_width(ly, hy)
        ),
    ),
}

GAME_KINDS = tuple(GAMES)


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
    if game not in GAMES:
        raise DomainError(f"unknown game kind {game!r}")


def _rising(size, lv):
    """(lv + size) (lv + size - 1) ... (lv + 1), multiplied in that order."""
    den = lv + size
    for k in range(size - 1, 0, -1):
        den = den * (lv + k)
    return den


def rho(size, levels):
    """Per level, the probability that p, one of the `level` points outside
    a basis of `size` points, comes after the basis and before the other
    level - 1 points outside it in a random order:
    size! / ((level+size) ... (level+1) level), and 0 at level 0.  A hull
    triangle's base edge is a basis of 2."""
    lv = np.asarray(levels, dtype=float)
    out = np.zeros_like(lv)
    np.divide(math.factorial(size), _rising(size, lv) * lv, out=out, where=lv >= 1)
    return out


def rho_prime(size, levels):
    """Per level, the probability that p, a point of a basis of `size`
    points, comes after the rest of the basis and before the `level`
    points outside it in a random order:
    (size-1)! / ((level+size) ... (level+1)).  A hull edge is a basis of 2."""
    lv = np.asarray(levels, dtype=float)
    return math.factorial(size - 1) / _rising(size, lv)


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


def check_airport(x):
    """Reject airport coordinates that are not strictly positive."""
    if np.any(x <= 0.0):
        raise DomainError("airport coordinates must be strictly positive")


def eval_characteristic(game, q_points, full_points=None):
    """Exact measure v(Q) for a nonempty coalition Q.

    ``full_points`` supplies the ambient player set for games whose
    definition references constants of the full instance (area-band);
    it defaults to Q itself.
    """
    check_game(game)
    q = geometry.as_points(q_points)
    extent = GAMES[game].extent
    if extent is not None:
        x, y = q[:, 0], q[:, 1]
        if game == "airport":
            check_airport(x)
        ly, hy = y.min(), y.max()
        band = hy - ly
        if full_points is not None:
            full_y = geometry.as_points(full_points)[:, 1]
            band = full_y.max() - full_y.min()
        return float(extent(x.min(), x.max(), ly, hy, band))
    if game == "hull-area":
        return geometry.hull_area(geometry.convex_hull(q))
    if game == "hull-perimeter":
        return geometry.hull_perimeter(geometry.convex_hull(q))
    if game == "anchored-rects":
        return _anchored_union_area(q)
    disk, _ = geometry.min_enclosing_disk(q)
    return disk.area if game == "disk-area" else disk.perimeter


# Elements per step of the in-place airport recurrence.
_GAP_BLOCK = 1 << 14


def _airport_phi(t):
    """Overwrite t, coordinates in ascending order, with their airport
    values in that order: the Littlechild-Owen recurrence
    phi_k = sum_{j <= k} (t_j - t_{j-1}) / (n - j), with t_{-1} = 0.
    Zeros and ties (gap 0) are accepted.

    The gaps are formed block by block from the end, each block's left
    neighbours copied first, so no n-length temporary is needed.
    """
    n = t.size
    for lo in range((n - 1) // _GAP_BLOCK * _GAP_BLOCK, -1, -_GAP_BLOCK):
        hi = min(lo + _GAP_BLOCK, n)
        prev = np.empty(hi - lo)
        prev[0] = t[lo - 1] if lo else 0.0
        prev[1:] = t[lo : hi - 1]
        block = t[lo:hi]
        np.subtract(block, prev, out=block)
        np.divide(block, np.arange(n - lo, n - hi, -1, dtype=float), out=block)
    np.cumsum(t, out=t)


def _airport_family(x, kind, a, b):
    """Solve the 1-D game ``kind`` on the coordinates x and return b, which
    holds its values by player; a and b are n-length buffers.

    x is copied into b and sorted into a by one argsort of that contiguous
    copy, so neither the sort nor the gather makes a copy of its own; the
    game is solved in a and scattered back into b.  Each kind is a sum of
    airport games on the sorted coordinates t:

    - "airport", v(Q) = max(Q): the recurrence on t;
    - "interval", v(Q) = max(Q) - min(Q): airport games on t - min x and,
      read backward, on max x - t, plus the constant game min x - max x,
      whose value is (min x - max x) / n for everyone;
    - "anchored", v(Q) = max(max(Q), 0) - min(min(Q), 0): airport games on
      max(t, 0) and, read backward, on max(-t, 0).

    A tie has gap 0, so tied players get equal values whichever the sort
    puts first.
    """
    np.copyto(b, x)
    order = np.argsort(b)
    np.take(b, order, out=a, mode="clip")  # "clip": no bounds-check copy
    if kind == "interval":
        alpha, beta = float(x.min()), float(x.max())
        np.subtract(beta, a[::-1], out=b)
        np.subtract(a, alpha, out=a)
    elif kind == "anchored":
        np.negative(a[::-1], out=b)
        np.maximum(b, 0.0, out=b)
        np.maximum(a, 0.0, out=a)
    _airport_phi(a)
    if kind != "airport":
        _airport_phi(b)
        np.add(a, b[::-1], out=a)
    if kind == "interval":
        np.add(a, (alpha - beta) / a.size, out=a)
    b[order] = a
    return b


def _line(coords):
    """Coerce 1-D input, a vector or one column, to a flat float64 array of
    at least one finite coordinate."""
    x = np.asarray(coords, dtype=float)
    if x.ndim > 2 or (x.ndim == 2 and x.shape[1] != 1):
        raise DomainError(f"expected one coordinate per player, got shape {x.shape}")
    x = x.reshape(-1)
    if x.size < 1:
        raise DomainError("need at least one player")
    if not np.all(np.isfinite(x)):
        raise DomainError("point coordinates must be finite")
    return x


def shapley_airport(coords):
    """Airport game v(Q) = max(Q) for points on the positive line."""
    x = _line(coords)
    check_airport(x)
    values = _airport_family(x, "airport", np.empty(x.size), np.empty(x.size))
    return ShapleyVector(values, float(x.max()), "airport")


def shapley_interval_length(coords):
    """Interval-length game v(Q) = max(Q) - min(Q) on the line."""
    x = _line(coords)
    values = _airport_family(x, "interval", np.empty(x.size), np.empty(x.size))
    return ShapleyVector(values, float(x.max() - x.min()), "interval-length")


def shapley_area_band(points):
    """Band game: interval length of the x coordinates scaled by the
    (constant) y extent of the full point set."""
    pts = geometry.as_points(points)
    n = pts.shape[0]
    height = float(pts[:, 1].max() - pts[:, 1].min())
    values = _airport_family(pts[:, 0], "interval", np.empty(n), np.empty(n))
    np.multiply(height, values, out=values)
    # The total is the table's formula, as for every engine; it takes the
    # band from pts again rather than restate v(N) here.
    return ShapleyVector(values, eval_characteristic("area-band", pts), "area-band")


def _box_perimeter(points, kind, game):
    """Twice the sum of the 1-D game ``kind`` on x and on y, each solved in
    the order of its own coordinate, in three n-length buffers besides the
    sort."""
    pts = geometry.as_points(points)
    n = pts.shape[0]
    values, a, b = np.empty(n), np.empty(n), np.empty(n)
    _airport_family(pts[:, 0], kind, a, values)
    values += _airport_family(pts[:, 1], kind, a, b)
    values *= 2.0
    return ShapleyVector(values, eval_characteristic(game, pts), game)


def shapley_bbox_perimeter(points):
    """Perimeter of the bounding box: two interval-length games."""
    return _box_perimeter(points, "interval", "bbox-perimeter")


def shapley_anchored_bbox_perimeter(points):
    """Perimeter of the origin-anchored bounding box: four airport games
    on the clamped coordinates max(+-x, 0), max(+-y, 0), one sort per
    coordinate."""
    return _box_perimeter(points, "anchored", "anchored-bbox-perimeter")
