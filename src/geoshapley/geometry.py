"""Geometric primitives shared by every engine.

Points are plain ``(n, 2)`` float arrays.  Predicates are evaluated in
floating point under the one degeneracy rule stated at ``DEGENERACY_TOL``.
Degenerate input is rejected, never silently perturbed.

There is no separate general-position pass.  Each engine checks the
assumptions its own algorithm needs, where it needs them, and raises
``GeneralPositionError`` with the offending input-index tuples: the hull
engine rejects (near-)collinear triples, and the disk engine rejects
points on the diametral circle of a pair and cocircular ties that involve
a basis triple.  The rank-space axis engines and the brute-force oracles
accept every finite input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The one degeneracy rule of the hull and disk engines: a tested value is
# degenerate when |value| <= DEGENERACY_TOL * scale, the scale built from
# the value's own operands (|u| |v| for the cross product u x v, the sum of
# the squared lengths for a power, a radius for a gap on the radius scale).
# No absolute floor enters, so scaling the input never changes a decision.
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


def orientation(a, b, c):
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 degenerate.

    With u = b - a and v = c - a, degenerate means |u x v| <= DEGENERACY_TOL
    |u| |v|: the sine of the angle at a is at most DEGENERACY_TOL, the test
    the hull sweep makes on directions.
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    det = ux * vy - uy * vx
    if abs(det) <= DEGENERACY_TOL * math.hypot(ux, uy) * math.hypot(vx, vy):
        return 0
    return 1 if det > 0 else -1


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
    return np.array(lower[:-1] + upper[:-1])


def hull_area(vertices):
    """Shoelace area of a ccw vertex cycle; 0 for degenerate hulls.

    The shoelace runs on the vectors from the first vertex to the others,
    a fan of triangles, so its products scale with the hull and not with
    its distance from the origin.  The fan's terms all have one sign on a
    convex cycle, so their sum cancels nothing, and np.sum adds them the
    same way whatever the BLAS thread count.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    w = v[1:] - v[0]
    x, y = w[:, 0], w[:, 1]
    return 0.5 * abs(float(np.sum(x[:-1] * y[1:] - y[:-1] * x[1:])))


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

    def contains(self, p):
        """Distance to the centre at most radius (1 + DEGENERACY_TOL)."""
        dist = math.hypot(p[0] - self.center[0], p[1] - self.center[1])
        return dist <= self.radius + DEGENERACY_TOL * self.radius

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

    disk = _diametral_disk(pts[order[0]], pts[order[1]])
    basis = (order[0], order[1])
    for ii in range(2, n):
        i = order[ii]
        if disk.contains(pts[i]):
            continue
        # p = pts[i] is on the boundary of med of the prefix.
        disk = _diametral_disk(pts[order[0]], pts[i])
        basis = (order[0], i)
        for jj in range(1, ii):
            j = order[jj]
            if disk.contains(pts[j]):
                continue
            disk = _diametral_disk(pts[j], pts[i])
            basis = (j, i)
            for kk in range(jj):
                k = order[kk]
                if disk.contains(pts[k]):
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
