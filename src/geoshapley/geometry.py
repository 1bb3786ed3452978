"""Geometric primitives shared by every engine.

Points are plain ``(n, 2)`` float arrays.  Predicates are evaluated in
floating point with a documented degeneracy threshold: a determinant whose
magnitude falls below ``DEGENERACY_TOL`` times the input magnitude scale is
classified as degenerate, never silently perturbed.

There is no separate general-position pass.  Each engine checks the
assumptions its own algorithm needs, where it needs them, and raises
``GeneralPositionError`` with the offending input-index tuples: the hull
engine rejects (near-)collinear triples, the disk engine rejects points on
the diametral circle of a pair and cocircular ties that involve a basis
triple, and the axis engines reject shared coordinates
(``check_distinct_coords``).  The brute-force oracles accept degenerate
input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeneralPositionError

DEGENERACY_TOL = 1e-12

# Fixed shuffle seed for the randomized incremental enclosing-disk algorithm.
_DISK_SEED = 0x5EED


def as_points(points) -> np.ndarray:
    """Coerce input to an (n, 2) float64 array and check finiteness."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 2:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise DomainError("point set must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise DomainError("point coordinates must be finite")
    return pts


def check_distinct_coords(pts):
    """Reject points that share an x or a y coordinate.

    The offending pairs are the tied neighbours of a stable sort along
    each axis, x ties first, each pair in increasing index order.
    """
    bad = []
    for axis in (0, 1):
        order = np.argsort(pts[:, axis], kind="stable")
        vals = pts[order, axis]
        bad += [(int(order[k]), int(order[k + 1])) for k in np.nonzero(vals[1:] == vals[:-1])[0]]
    if bad:
        raise GeneralPositionError("two points share an x or y coordinate", offending=bad)


def orientation(a, b, c):
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 degenerate.

    Degenerate means |det| below DEGENERACY_TOL relative to the magnitude
    of the coordinate differences entering the determinant.
    """
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    mx = max(abs(b[0] - a[0]), abs(c[0] - a[0]))
    my = max(abs(b[1] - a[1]), abs(c[1] - a[1]))
    tol = DEGENERACY_TOL * max(1.0, mx * my)
    if det > tol:
        return 1
    if det < -tol:
        return -1
    return 0


def convex_hull(points):
    """Convex hull vertices in counterclockwise order (monotone chain).

    Degenerate inputs: a single point yields that point, two points (or a
    fully collinear set) yield the segment endpoints.  Repeated points
    count once; of rows equal up to the sign of a zero, the first in input
    order is kept.
    """
    pts = as_points(points)
    srt = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(srt.shape[0], dtype=bool)
    fresh[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    uniq = srt[fresh]  # one row per distinct point, its first in input order
    if uniq.shape[0] == 1:
        return uniq
    sp = uniq.tolist()  # Python floats: the same doubles, faster scalar arithmetic

    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(sp)
    upper = half(sp[::-1])
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 2:  # all points collinear: keep the two extremes
        cycle = [sp[0], sp[-1]]
    return np.array(cycle)


def hull_area(vertices):
    """Shoelace area of a ccw vertex cycle; 0 for degenerate hulls."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def hull_perimeter(vertices):
    """Perimeter of the hull boundary cycle.

    Degenerate convention: a segment counts both directed edges (2 * length),
    a single point has perimeter 0.  The doubled-segment rule keeps the
    brute-force oracle consistent with the directed-edge perimeter engine.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        return 0.0
    if v.shape[0] == 2:
        return 2.0 * float(np.hypot(*(v[1] - v[0])))
    return float(np.sum(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))


@dataclass(frozen=True)
class Disk:
    """A closed disk; radius 0 is a single point."""

    center: tuple
    radius: float

    def contains(self, p, tol=None):
        if tol is None:
            tol = 1e-9 * max(1.0, self.radius)
        return math.hypot(p[0] - self.center[0], p[1] - self.center[1]) <= self.radius + tol

    @property
    def area(self):
        return math.pi * self.radius * self.radius

    @property
    def perimeter(self):
        return 2.0 * math.pi * self.radius


def _circumdisk(a, b, c):
    """Circumscribed disk of three points, or None when collinear."""
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    if d == 0.0:
        return None
    b2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    c2 = (c[0] - a[0]) ** 2 + (c[1] - a[1]) ** 2
    ux = a[0] + (c[1] - a[1]) * b2 / d - (b[1] - a[1]) * c2 / d
    uy = a[1] + (b[0] - a[0]) * c2 / d - (c[0] - a[0]) * b2 / d
    r = max(
        math.hypot(ux - p[0], uy - p[1]) for p in (a, b, c)
    )
    return Disk((ux, uy), r)


def _diametral_disk(a, b):
    return Disk(
        (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])),
        0.5 * math.hypot(a[0] - b[0], a[1] - b[1]),
    )


def min_enclosing_disk(points):
    """Smallest enclosing disk plus its support basis (1-3 point indices).

    Randomized incremental construction with a fixed shuffle seed, so the
    result (including the basis) is deterministic.  The basis B satisfies
    med(B) = med(P) with every basis point on the boundary.  The returned
    disk is recomputed from the basis points in lexicographic (x, y)
    order, so its bits depend neither on the shuffle nor on the order of
    the input.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n == 1:
        return Disk((float(pts[0, 0]), float(pts[0, 1])), 0.0), (0,)
    order = list(range(n))
    if n > 2:
        random.Random(_DISK_SEED).shuffle(order)

    def contains(disk, k):
        return disk is not None and disk.contains(pts[k], tol=1e-12 * max(1.0, disk.radius))

    disk = _diametral_disk(pts[order[0]], pts[order[1]])
    basis = (order[0], order[1])
    for ii in range(2, n):
        i = order[ii]
        if contains(disk, i):
            continue
        # p = pts[i] is on the boundary of med of the prefix.
        disk = _diametral_disk(pts[order[0]], pts[i])
        basis = (order[0], i)
        for jj in range(1, ii):
            j = order[jj]
            if contains(disk, j):
                continue
            disk = _diametral_disk(pts[j], pts[i])
            basis = (j, i)
            for kk in range(jj):
                k = order[kk]
                if contains(disk, k):
                    continue
                cd = _circumdisk(pts[i], pts[j], pts[k])
                if cd is not None:
                    disk = cd
                    basis = (k, j, i)
    support = sorted(pts[list(basis)].tolist())
    if len(support) == 2:
        disk = _diametral_disk(*support)
    else:
        disk = _circumdisk(*support) or disk
    return disk, tuple(sorted(basis))
