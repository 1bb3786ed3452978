"""Shapley values for the smallest-enclosing-disk games.

A basis is a support set B (a pair, or a triple spanning an acute
triangle) with every point of B on the boundary of med(B); level(B)
counts the points strictly outside med(B).  phi_plus(p) sums the
rho'-weighted measures of bases containing p; phi_minus(p) sums the
rho-weighted measures of bases excluding p.

Every basis is a position of the pencil of circles through one of its
pairs: sweeping the circumcenter along the bisector of the pair orders the
third points by their crossing parameter t, the pair's diametral circle
sits at t = 0, and one sort yields every level and every per-query prefix
sum of the pencil.  A triple sits in three pencils and takes a third of its
rho and rho' in each.  The pairs (i, j), j > i, of one first endpoint i are
handled together, as the rows of one array pass.

Degenerate input is rejected under the one rule of ``geometry`` (see
``DEGENERACY_TOL``): a point on the diametral circle of a pair, and a
cocircular tie in a pencil that involves a basis triple.  A right triangle
needs no check of its own, since its right-angled corner lies on the
diametral circle of the other two points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import games, geometry
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


class _Sweep(NamedTuple):
    """The pencils through (i, j), for all j > i, in sweep order.

    Row k belongs to the pair (i, js[k]); position s holds the third point
    ``order[k, s]`` and its circle through (i, js[k]).  Third point n is
    the diametral circle of the pair, the pencil's circle at t = 0.
    """

    i: int
    js: np.ndarray  # (K,) second endpoints
    order: np.ndarray  # (K, n + 1) third point at each sweep position
    t: np.ndarray  # (K, n + 1) circumcenter parameter, 0 where it is not finite
    side: np.ndarray  # (K, n + 1) +1 enters, -1 leaves, 0 the diametral circle
    basis: np.ndarray  # (K, n + 1) the support is a basis
    level: np.ndarray  # (K, n + 1) points outside the circle (meaningful at bases)
    radius: np.ndarray  # (K, n + 1)


def _sweeps(pts):
    """Yield one _Sweep per first endpoint i, in index order.

    Sweeping the circle center along the bisector of (i, j), center =
    midpoint + t * u with u the unit normal of the segment, a third point
    r with signed normal offset g = 2 (r - m).u is outside the circle at t
    iff num - t g > 0, with num the power (r - pts[i]).(r - pts[j]): it
    enters (g > 0) or leaves (g < 0) the disk at t = num / g.  A point on
    the line through the pair (g == 0) never crosses; it enters at
    t = +inf if it is outside every circle (num > 0, beyond the segment)
    and at t = -inf otherwise, as i and j do.

    Degeneracies raise GeneralPositionError in a fixed order: every pair
    check (diametral circle) first, then the cocircular ties of the pencils
    in (i, j) order.  A pencil error is therefore held back until the
    remaining pair checks have passed.
    """
    n = pts.shape[0]
    pending = None
    for i in range(n - 1):
        js = np.arange(i + 1, n)
        seg = pts[js] - pts[i]
        r2 = 0.25 * np.sum(seg * seg, axis=1)
        num, g, ends, corners = _pair_rows(pts, i, js, seg)
        if pending is not None:
            continue
        try:
            sweep = _pencils(i, js, r2, num, g, ends, corners)
        except GeneralPositionError as err:
            pending = err
            continue
        yield _Sweep(i, js, *sweep)
    if pending is not None:
        raise pending


def _pair_rows(pts, i, js, seg):
    """Rows (i, j) for j in js, with a column per point r, all formed from
    coordinate differences: the power of r with respect to the diametral
    circle of (i, j), (r - pts[i]).(r - pts[j]); its signed normal offset
    g = ((r - pts[i]) + (r - pts[j])).u; whether r is i or j; and whether
    the triangle (i, j, r) is acute at i and at j.

    A point on a diametral circle is rejected before g is formed: its power
    is at most DEGENERACY_TOL times (|r - pts[i]|^2 + |r - pts[j]|^2) / 2.
    A right angle at any corner of a triangle is such a point, and the dot
    products at i and at j are bit for bit the powers that the pair checks
    of (j, r) and (i, r) test, so no corner sign is read off noise."""
    ax = pts[:, 0] - pts[i, 0]
    ay = pts[:, 1] - pts[i, 1]
    bx = pts[None, :, 0] - pts[js, 0, None]
    by = pts[None, :, 1] - pts[js, 1, None]
    num = ax * bx + ay * by
    ends = np.zeros(num.shape, dtype=bool)
    ends[:, i] = True
    ends[np.arange(js.size), js] = True
    scale = 0.5 * ((ax * ax + ay * ay) + (bx * bx + by * by))
    on_boundary = (np.abs(num) <= DEGENERACY_TOL * scale) & ~ends
    if np.any(on_boundary):
        k, s = np.argwhere(on_boundary)[0]
        raise GeneralPositionError(
            "point lies on the diametral circle of a pair",
            offending=[tuple(sorted((i, int(js[k]), int(s))))],
        )
    sx, sy = seg[:, 0, None], seg[:, 1, None]
    norm = np.hypot(sx, sy)
    g = ((ay + by) * sx - (ax + bx) * sy) / norm
    corners = (sx * ax + sy * ay > 0) & (sx * bx + sy * by < 0)
    return num, g, ends, corners


def _pencils(i, js, r2, num, g, ends, corners):
    """Sweep fields of the pencils through (i, j) for all j in js."""
    k_rows, n = num.shape
    g[ends] = 0.0
    key = np.zeros((k_rows, n + 1))  # column n: the diametral circle, t = 0
    key[:, :n] = np.where(num > 0, np.inf, -np.inf)
    np.divide(num, g, out=key[:, :n], where=g != 0)
    crossing = np.zeros((k_rows, n + 1), dtype=np.int8)
    crossing[:, :n] = np.where(g < 0, -1, 1)
    # The bases: the diametral circle, and each acute (i, j, r), that is
    # acute at i and at j with r outside the diametral disk.
    is_basis = np.ones((k_rows, n + 1), dtype=bool)
    is_basis[:, :n] = (g != 0) & corners & (num > 0)
    # Equal parameters that pass the tie check hold no basis, so nothing of
    # weight: their order changes no sum, and the sort need not be stable.
    order = np.argsort(key, axis=1)
    t, side, basis, radius, tie = _in_order(order, key, crossing, is_basis, r2)
    if np.any(tie):
        # Name the first tie in the order (parameter, index).
        order = np.lexsort((np.broadcast_to(np.arange(n + 1), key.shape), key))
        k, s = np.argwhere(_in_order(order, key, crossing, is_basis, r2)[-1])[0]
        raise GeneralPositionError(
            "four points are cocircular",
            offending=[tuple(sorted((i, int(js[k]), int(order[k, s]), int(order[k, s + 1]))))],
        )

    # Level at each position: entering points not yet entered and leaving
    # points already left.
    leaves = side < 0
    c_in = np.cumsum(side > 0, axis=1)
    level = (c_in[:, -1:] - c_in) + (np.cumsum(leaves, axis=1) - leaves)
    return order, t, side, basis, level, radius


def _in_order(order, key, side, basis, r2):
    """t, side, basis and radius in sweep order, and the neighbour ties.

    A tie is a gap in t at most DEGENERACY_TOL times the larger of the two
    radii between two finite crossings, one of them a basis triple.  Ties
    between two obtuse triples change no level or sum and pass
    (near-collinear points give huge, closely spaced parameters)."""
    rows, m = order.shape
    flat = (order + m * np.arange(rows)[:, None]).ravel()

    def sort(a):
        return a.ravel()[flat].reshape(rows, m)

    t, side, basis = sort(key), sort(side), sort(basis)
    live = np.isfinite(t) & (side != 0)
    t = np.where(live, t, 0.0)
    radius = np.sqrt(t * t + r2[:, None])
    neighbours = live[:, 1:] & live[:, :-1] & (basis[:, 1:] | basis[:, :-1])
    near = np.diff(t, axis=1) <= DEGENERACY_TOL * np.maximum(radius[:, 1:], radius[:, :-1])
    return t, side, basis, radius, neighbours & near


def _bases(pts):
    """Yield, per first endpoint i, i and its bases as arrays
    (support, centre - pts[i], radius, level): the pairs (i, j), j > i,
    then the acute triples that the pencils of those pairs report first,
    those whose third point follows j.  Triples are in (j, sweep) order."""
    n = pts.shape[0]
    for sw in _sweeps(pts):
        i, js = sw.i, sw.js
        seg = pts[js] - pts[i]
        k, s = np.nonzero(sw.basis & (sw.order > js[:, None]))
        support = np.column_stack([np.full(k.size, i), js[k], sw.order[k, s]])
        triple = support[:, 2] < n
        centre = 0.5 * seg[k]  # t = 0; u for triples only, as two equal points have none
        kt, st = k[triple], s[triple]
        u = np.stack([-seg[kt, 1], seg[kt, 0]], axis=1) / np.hypot(seg[kt, 0], seg[kt, 1])[:, None]
        centre[triple] += sw.t[kt, st][:, None] * u
        yield i, tuple(
            (support[m, :size], centre[m], sw.radius[k, s][m], sw.level[k, s][m])
            for m, size in ((~triple, 2), (triple, 3))
        )


def enumerate_bases(points):
    """All bases with their levels.

    Every pair is a basis (both endpoints lie on their diametral circle);
    a triple is a basis iff it spans an acute triangle.  Pairs come first
    in (i, j) order, then triples in (i, j, sweep) order; each triple is
    reported once, from the pencil of its lexicographically first pair.
    """
    pts = geometry.as_points(points)
    pairs, triples = [], []
    for i, bases in _bases(pts):
        for found, (support, centre, radius, level) in zip((pairs, triples), bases):
            found += [
                DiskBasis(tuple(b), Disk(tuple(c), r), lv)
                for b, c, r, lv in zip(
                    support.tolist(), (centre + pts[i]).tolist(), radius.tolist(), level.tolist()
                )
            ]
    return pairs + triples


def shapley_disk(points, measure="area", minus_mode="pencil"):
    """Shapley values of the enclosing-disk game for the given measure.

    ``minus_mode="pencil"`` is the fast path: per-pencil prefix sums.
    ``"direct"`` is an O(n^4) cross-check that shares the basis listing and
    the rho weights: every basis adds its rho'-weighted measure to its
    support and its rho-weighted measure to every point outside its disk,
    tested against the basis's own centre and radius.
    """
    if measure not in _MEASURES:
        raise DomainError(f"measure must be one of {_MEASURES}")
    if minus_mode not in ("pencil", "direct"):
        raise DomainError("minus_mode must be 'pencil' or 'direct'")
    pts = geometry.as_points(points)
    n = pts.shape[0]
    game = "disk-area" if measure == "area" else "disk-perimeter"
    total = games.eval_characteristic(game, pts)

    def meas_of(r):
        return math.pi * r * r if measure == "area" else 2.0 * math.pi * r

    if minus_mode == "direct":
        return ShapleyVector(_shapley_direct(pts, meas_of), total, game)

    # rho' and rho by level, from level + (n + 1) for a pair: a third of
    # each for a triple, which sits in three pencils.
    lv = np.arange(n + 1)
    rho_plus = np.concatenate([rho_prime(3, lv) / 3.0, rho_prime(2, lv)])
    rho_minus = np.concatenate([rho(3, lv) / 3.0, rho(2, lv)])
    phi = np.zeros((2, n))  # phi_plus, phi_minus
    for sw in _sweeps(pts):
        phi += _pencil_sums(sw, meas_of(sw.radius), rho_plus, rho_minus)
    return ShapleyVector(phi[0] - phi[1], total, game)


def _pencil_sums(sw, w, rho_plus, rho_minus):
    """phi_plus and phi_minus of the bases in the pencils of a sweep, given
    the measure w of each circle."""
    n = sw.order.shape[1] - 1
    order = sw.order.ravel()
    w = w * sw.basis
    lv = sw.level + (n + 1) * (sw.order == n)
    w_plus = w * rho_plus[lv]
    w_minus = w * rho_minus[lv]
    s_plus = np.sum(w_plus, axis=1)
    plus = np.bincount(order, w_plus.ravel(), minlength=n + 1)[:n]
    plus[sw.i] += np.sum(s_plus)
    plus[sw.js] += s_plus
    # A point that enters at position s is outside the circles before it;
    # one that leaves is outside the circles after it.
    pref = np.zeros((sw.js.size, n + 2))
    np.cumsum(w_minus, axis=1, out=pref[:, 1:])
    contrib = np.where(sw.side > 0, pref[:, :-1], pref[:, -1:] - pref[:, 1:])
    return plus, np.bincount(order, contrib.ravel(), minlength=n + 1)[:n]


# Basis-by-point entries per block of the direct path.
_DIRECT_BLOCK = 1 << 16


def _shapley_direct(pts, meas_of):
    """O(n^4) reference: every basis against every point.

    The bases come from _bases, as for enumerate_bases.  Each basis adds
    w * rho' to its support and -w * rho to every point whose squared
    distance to the basis's own centre exceeds its squared radius, the
    support excepted; rho and rho' are the pencil path's games.rho and
    games.rho_prime.  The sweep's prefix sums are not used.
    Centres and points are taken relative to pts[i], as in the sweep.
    """
    n = pts.shape[0]
    phi = np.zeros(n)
    for i, bases in _bases(pts):
        rel = pts - pts[i]
        for support, center, radius, level in bases:
            size = support.shape[1]
            w = meas_of(radius)
            w_plus = np.repeat(w * rho_prime(size, level), size)
            phi += np.bincount(support.ravel(), w_plus, minlength=n)
            w_minus = w * rho(size, level)
            step = max(1, _DIRECT_BLOCK // n)
            for lo in range(0, w.size, step):
                c = center[lo : lo + step]
                dx = rel[None, :, 0] - c[:, 0, None]
                dy = rel[None, :, 1] - c[:, 1, None]
                out = dx * dx + dy * dy > (radius[lo : lo + step] ** 2)[:, None]
                out[np.arange(c.shape[0])[:, None], support[lo : lo + step]] = False
                phi -= (w_minus[lo : lo + step, None] * out).sum(axis=0)
    return phi
