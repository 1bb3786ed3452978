"""Shapley values for the smallest-enclosing-disk games.

A basis is a support set B (a pair, or a triple spanning an acute
triangle) with every point of B on the boundary of med(B); level(B)
counts the points strictly outside med(B).  phi_plus(p) sums the
rho'-weighted measures of bases containing p; phi_minus(p) sums the
rho-weighted measures of bases excluding p.

Pair bases are handled directly.  Triple bases are organized per point
pair into a pencil of circles: sweeping the circumcenter along the
bisector of the pair orders the third points by their crossing
parameter, which yields every triple level and every per-query
prefix sum for that pencil in one sort.  Each triple appears in three
pencils, hence the final division by three.  The pairs (i, j), j > i, of
one first endpoint i are handled together, as the rows of one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import DomainError, GeneralPositionError
from .games import ShapleyVector, rho, rho_prime
from .geometry import DEGENERACY_TOL, Disk

_MEASURES = ("area", "perimeter")


@dataclass(frozen=True)
class DiskBasis:
    """Support indices, the disk they span, and its level."""

    support: tuple
    disk: Disk
    level: int


def rho_basis(size, level):
    """Probability that med of the points before p has exactly this basis:
    |B|! / ((level+|B|) ... (level+1) level).  Requires level >= 1."""
    if level < 1:
        raise DomainError("rho_basis requires level >= 1")
    return math.factorial(size) / math.prod(range(level, level + size + 1))


def rho_prime_basis(size, level):
    """Probability that p closes this basis: (|B|-1)! / ((level+|B|) ... (level+1))."""
    if level < 0:
        raise DomainError("rho_prime_basis requires level >= 0")
    return math.factorial(size - 1) / math.prod(range(level + 1, level + size + 1))


class _Sweep(NamedTuple):
    """Pair bases (i, j) and the pencils through them, for all j > i.

    Row k belongs to the pair (i, js[k]).  ``outside`` is indexed by point;
    the pencil fields are in sweep order: position s of row k holds the
    third point ``order[k, s]`` and its circle through (i, js[k]).
    """

    i: int
    js: np.ndarray  # (K,) second endpoints
    pair_level: np.ndarray  # (K,) points outside the diametral disk
    pair_radius: np.ndarray  # (K,)
    outside: np.ndarray  # (K, n) outside the diametral disk
    const_out: np.ndarray  # (K, n) on the pair's line, beyond the segment
    order: np.ndarray  # (K, n) third point at each sweep position
    t: np.ndarray  # (K, n) circumcenter parameter, 0 where side == 0
    side: np.ndarray  # (K, n) +1 enters, -1 leaves, 0 never crosses
    acute: np.ndarray  # (K, n) the triple is a basis
    level: np.ndarray  # (K, n) triple level (meaningful where acute)
    radius: np.ndarray  # (K, n) circumradius


def _sweeps(pts):
    """Yield one _Sweep per first endpoint i, in index order.

    Sweeping the circle center along the bisector of (i, j), center =
    midpoint + t * u with u the unit normal of the segment, a third point
    r with signed normal offset g = 2 (r - m).u crosses the boundary at
    t = (|r - m|^2 - |seg|^2 / 4) / g; it enters (g > 0) or leaves (g < 0)
    the disk there.  Points on the line through the pair (g == 0) never
    cross: outside iff beyond the segment.

    Degeneracies raise GeneralPositionError in a fixed order: every pair
    check (diametral circle) first, then the pencils in (i, j) order, each
    checking right triangles before cocircular ties.  A pencil error is
    therefore held back until the remaining pair checks have passed.
    """
    n = pts.shape[0]
    pending = None
    for i in range(n - 1):
        js = np.arange(i + 1, n)
        seg = pts[js] - pts[i]
        r2 = 0.25 * np.sum(seg * seg, axis=1)
        num, g, ends = _pair_rows(pts, i, js, seg, r2)
        if pending is not None:
            continue
        outside = (num > 0) & ~ends
        try:
            sweep = _pencils(pts, i, js, seg, r2, num, g, ends)
        except GeneralPositionError as err:
            pending = err
            continue
        yield _Sweep(i, js, outside.sum(axis=1), np.sqrt(r2), outside, *sweep)
    if pending is not None:
        raise pending


def _pair_rows(pts, i, js, seg, r2):
    """Rows (i, j) for j in js, with a column per point: its power with
    respect to the diametral circle of (i, j), its signed normal offset
    g = 2 (r - m).u, and whether it is i or j.  A point on a diametral
    circle is rejected before g is formed."""
    m = 0.5 * (pts[i] + pts[js])
    dx = pts[None, :, 0] - m[:, 0, None]
    dy = pts[None, :, 1] - m[:, 1, None]
    num = dx * dx + dy * dy - r2[:, None]
    ends = np.zeros(num.shape, dtype=bool)
    ends[:, i] = True
    ends[np.arange(js.size), js] = True
    tol = DEGENERACY_TOL * np.maximum(1.0, r2)[:, None]
    on_boundary = (np.abs(num) <= tol) & ~ends
    if np.any(on_boundary):
        k, s = np.argwhere(on_boundary)[0]
        raise GeneralPositionError(
            "point lies on the diametral circle of a pair",
            offending=[tuple(sorted((i, int(js[k]), int(s))))],
        )
    norm = np.hypot(seg[:, 0], seg[:, 1])
    u = np.stack([-seg[:, 1], seg[:, 0]], axis=1) / norm[:, None]
    return num, 2.0 * (dx * u[:, 0, None] + dy * u[:, 1, None]), ends


def _pencils(pts, i, js, seg, r2, num, g, ends):
    """Sweep fields of the pencils through (i, j) for all j in js."""
    k_rows, n = num.shape
    g[ends] = 0.0
    live = g != 0.0
    const_out = ~live & ~ends & (num > 0)
    t = np.divide(num, g, out=np.full(num.shape, np.inf), where=live)
    order = np.argsort(t, axis=1, kind="stable")
    flat = (order + n * np.arange(k_rows)[:, None]).ravel()

    def sort(a):
        return a.ravel()[flat].reshape(k_rows, n)

    side = np.sign(sort(g)).astype(np.int8)
    t = np.where(side != 0, sort(t), 0.0)
    right, acute = _corners(pts, i, seg, r2, live)
    acute = sort(acute)

    # Parameter ties between sweep neighbours, one of them a basis triple.
    # Ties between two obtuse triples change no level or sum and pass
    # (near-collinear points give huge, closely spaced parameters).
    abs_t = np.abs(t)
    gap_tol = DEGENERACY_TOL * np.maximum(1.0, np.maximum(abs_t[:, 1:], abs_t[:, :-1]))
    tie = (
        (side[:, 1:] != 0)
        & (side[:, :-1] != 0)
        & (acute[:, 1:] | acute[:, :-1])
        & (np.diff(t, axis=1) <= gap_tol)
    )
    bad = np.any(right, axis=(0, 2)) | np.any(tie, axis=1)
    if np.any(bad):
        k = int(np.argmax(bad))
        for hit in right[:, k, order[k]]:  # the first sorted hit, corner by corner
            if np.any(hit):
                r = int(order[k, np.argmax(hit)])
                raise GeneralPositionError(
                    "circle through three points has an input-pair diameter",
                    offending=[tuple(sorted((i, int(js[k]), r)))],
                )
        s = int(np.argmax(tie[k]))
        raise GeneralPositionError(
            "four points are cocircular",
            offending=[tuple(sorted((i, int(js[k]), int(order[k, s]), int(order[k, s + 1]))))],
        )

    # Level at each crossing: entering points not yet entered, leaving
    # points already left, plus the constant outsiders.
    leaves = side < 0
    c_in = np.cumsum(side > 0, axis=1)
    level = (c_in[:, -1:] - c_in) + (np.cumsum(leaves, axis=1) - leaves)
    level += np.sum(const_out, axis=1)[:, None]
    radius = np.sqrt(t * t + r2[:, None])
    return const_out, order, t, side, acute, level, radius


def _corners(pts, i, seg, r2, live):
    """Right and acute triangles (i, j, r), from the dot products at their
    corners: seg.a at i, with a = r - pts[i]; |seg|^2 - seg.a at j;
    |a|^2 - seg.a at r.  A vanishing one is a right triangle, whose
    circumcircle has an input-pair diameter; all positive is acute.

    Returns right as a (3, K, n) mask, corner by corner, and acute as (K, n).
    """
    a = pts - pts[i]
    seg2 = 4.0 * r2[:, None]
    a2 = np.sum(a * a, axis=1)[None, :]
    at_i = seg @ a.T
    tol = DEGENERACY_TOL * np.maximum(1.0, seg2 + a2)
    corners = (at_i, seg2 - at_i, a2 - at_i)
    right = np.stack([live & (np.abs(d) <= tol) for d in corners])
    return right, live & (corners[0] > 0) & (corners[1] > 0) & (corners[2] > 0)


def enumerate_bases(points):
    """All bases with their levels.

    Every pair is a basis (both endpoints lie on their diametral circle);
    a triple is a basis iff it spans an acute triangle.  Pairs come first
    in (i, j) order, then triples in (i, j, sweep) order; each triple is
    reported once, from the pencil of its lexicographically first pair.
    """
    pts = geometry.as_points(points)
    pairs, triples = [], []
    for sw in _sweeps(pts):
        i = sw.i
        for k, j in enumerate(sw.js.tolist()):
            center = tuple(0.5 * (pts[i] + pts[j]))
            disk = Disk(center, float(sw.pair_radius[k]))
            pairs.append(DiskBasis((i, j), disk, int(sw.pair_level[k])))
            for s in np.nonzero(sw.acute[k] & (sw.order[k] > j))[0]:
                third = int(sw.order[k, s])
                disk = Disk(_circumcenter(pts, i, j, sw.t[k, s]), float(sw.radius[k, s]))
                triples.append(DiskBasis((i, j, third), disk, int(sw.level[k, s])))
    return pairs + triples


def _circumcenter(pts, i, j, t):
    m = 0.5 * (pts[i] + pts[j])
    seg = pts[j] - pts[i]
    norm = math.hypot(seg[0], seg[1])
    u = np.array([-seg[1], seg[0]]) / norm
    c = m + t * u
    return (float(c[0]), float(c[1]))


def shapley_disk(points, measure="area", minus_mode="pencil"):
    """Shapley values of the enclosing-disk game for the given measure.

    ``minus_mode="pencil"`` is the fast path: per-pencil prefix sums.
    ``"direct"`` is an independent O(n^4) cross-check that shares only the
    basis enumeration: every basis adds its rho'-weighted measure to its
    support and its rho-weighted measure to every point outside its disk.
    """
    if measure not in _MEASURES:
        raise DomainError(f"measure must be one of {_MEASURES}")
    if minus_mode not in ("pencil", "direct"):
        raise DomainError("minus_mode must be 'pencil' or 'direct'")
    pts = geometry.as_points(points)
    n = pts.shape[0]
    game = "disk-area" if measure == "area" else "disk-perimeter"
    disk, _ = geometry.min_enclosing_disk(pts)
    total = disk.area if measure == "area" else disk.perimeter
    if n == 1:
        return ShapleyVector(np.zeros(1), total, game)

    def meas_of(radii):
        r = np.asarray(radii, dtype=float)
        return math.pi * r * r if measure == "area" else 2.0 * math.pi * r

    if minus_mode == "direct":
        return ShapleyVector(_shapley_direct(pts, meas_of), total, game)

    phi_plus = np.zeros(n)
    phi_minus = np.zeros(n)
    acc_plus = np.zeros(n)  # triple sums, each triple seen from three pencils
    acc_minus = np.zeros(n)
    for sw in _sweeps(pts):
        w2 = meas_of(sw.pair_radius)
        w2_plus = w2 * rho_prime(2, sw.pair_level)
        phi_plus[sw.i] += np.sum(w2_plus)
        phi_plus[sw.js] += w2_plus
        phi_minus += sw.outside.T @ (w2 * rho(2, sw.pair_level))

        plus, minus = _triple_sums(sw, meas_of, n)
        acc_plus += plus
        acc_minus += minus
    phi_plus += acc_plus / 3.0
    phi_minus += acc_minus / 3.0
    return ShapleyVector(phi_plus - phi_minus, total, game)


def _triple_sums(sw, meas_of, n):
    """phi_plus and phi_minus of the triple bases in the pencils of a sweep."""
    order = sw.order.ravel()
    w = meas_of(sw.radius)
    w_plus = np.where(sw.acute, w * rho_prime(3, sw.level), 0.0)
    w_minus = np.where(sw.acute, w * rho(3, sw.level), 0.0)
    s_plus = np.sum(w_plus, axis=1)
    plus = np.bincount(order, w_plus.ravel(), minlength=n)
    plus[sw.i] += np.sum(s_plus)
    plus[sw.js] += s_plus
    # A point that enters at position s is outside the circles before it;
    # one that leaves is outside the circles after it.
    pref = np.zeros((sw.js.size, n + 1))
    np.cumsum(w_minus, axis=1, out=pref[:, 1:])
    after = pref[:, -1:] - pref[:, 1:]
    contrib = np.where(sw.side > 0, pref[:, :-1], np.where(sw.side < 0, after, 0.0))
    minus = np.bincount(order, contrib.ravel(), minlength=n)
    minus += sw.const_out.T @ pref[:, -1]
    return plus, minus


# Basis-by-point entries per block of the direct path.
_DIRECT_BLOCK = 1 << 16


def _shapley_direct(pts, meas_of):
    """O(n^4) reference: every basis against every point.

    The bases are those enumerate_bases lists, taken sweep by sweep as
    arrays: the sweep's pairs, then the acute triples it reports first.
    Each basis adds w * rho' to its support and -w * rho to every point
    whose squared distance to the basis's own centre exceeds its squared
    radius, the support excepted; rho and rho' come from rho_basis and
    rho_prime_basis.  The sweep's outside masks and sums are not used.
    """
    n = pts.shape[0]
    rho_of = {b: np.array([rho_basis(b, lv) if lv else 0.0 for lv in range(n)]) for b in (2, 3)}
    rho_prime_of = {b: np.array([rho_prime_basis(b, lv) for lv in range(n)]) for b in (2, 3)}
    phi = np.zeros(n)
    for sw in _sweeps(pts):
        i = sw.i
        k, s = np.nonzero(sw.acute & (sw.order > sw.js[:, None]))
        j = sw.js[k]
        seg = pts[j] - pts[i]
        u = np.stack([-seg[:, 1], seg[:, 0]], axis=1) / np.hypot(seg[:, 0], seg[:, 1])[:, None]
        bases = (
            (
                np.column_stack([np.full(sw.js.size, i), sw.js]),
                0.5 * (pts[i] + pts[sw.js]),
                sw.pair_radius,
                sw.pair_level,
            ),
            (
                np.column_stack([np.full(k.size, i), j, sw.order[k, s]]),
                0.5 * (pts[i] + pts[j]) + sw.t[k, s][:, None] * u,
                sw.radius[k, s],
                sw.level[k, s],
            ),
        )
        for support, center, radius, level in bases:
            size = support.shape[1]
            w = meas_of(radius)
            w_plus = np.repeat(w * rho_prime_of[size][level], size)
            phi += np.bincount(support.ravel(), w_plus, minlength=n)
            w_minus = w * rho_of[size][level]
            step = max(1, _DIRECT_BLOCK // n)
            for lo in range(0, w.size, step):
                c = center[lo : lo + step]
                dx = pts[None, :, 0] - c[:, 0, None]
                dy = pts[None, :, 1] - c[:, 1, None]
                out = dx * dx + dy * dy > (radius[lo : lo + step] ** 2)[:, None]
                out[np.arange(c.shape[0])[:, None], support[lo : lo + step]] = False
                phi -= w_minus[lo : lo + step] @ out
    return phi
