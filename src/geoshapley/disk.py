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
    t = (|r - m|^2 - |seg|^2 / 4) / g, whose numerator is the power
    (r - pts[i]).(r - pts[j]); it enters (g > 0) or leaves (g < 0)
    the disk there.  Points on the line through the pair (g == 0) never
    cross: outside iff beyond the segment.

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
        outside = (num > 0) & ~ends
        try:
            sweep = _pencils(i, js, r2, num, g, ends, corners)
        except GeneralPositionError as err:
            pending = err
            continue
        yield _Sweep(i, js, outside.sum(axis=1), np.sqrt(r2), outside, *sweep)
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
    live = g != 0.0
    const_out = ~live & ~ends & (num > 0)
    t = np.divide(num, g, out=np.full(num.shape, np.inf), where=live)
    order = np.argsort(t, axis=1, kind="stable")
    flat = (order + n * np.arange(k_rows)[:, None]).ravel()

    def sort(a):
        return a.ravel()[flat].reshape(k_rows, n)

    side = np.sign(sort(g)).astype(np.int8)
    t = np.where(side != 0, sort(t), 0.0)
    radius = np.sqrt(t * t + r2[:, None])
    # Acute (i, j, r): acute at i and at j, and r outside the diametral disk.
    acute = sort(live & corners & (num > 0))

    # Parameter ties between sweep neighbours, one of them a basis triple:
    # a gap in t at most DEGENERACY_TOL times the larger of the two radii.
    # Ties between two obtuse triples change no level or sum and pass
    # (near-collinear points give huge, closely spaced parameters).
    tie = (
        (side[:, 1:] != 0)
        & (side[:, :-1] != 0)
        & (acute[:, 1:] | acute[:, :-1])
        & (np.diff(t, axis=1) <= DEGENERACY_TOL * np.maximum(radius[:, 1:], radius[:, :-1]))
    )
    if np.any(tie):
        k, s = np.argwhere(tie)[0]
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
    return const_out, order, t, side, acute, level, radius


def _bases(pts):
    """Yield, per first endpoint i, i and its bases as arrays
    (support, centre - pts[i], radius, level): the pairs (i, j), j > i,
    then the acute triples that the pencils of those pairs report first,
    those whose third point follows j.  Triples are in (j, sweep) order."""
    for sw in _sweeps(pts):
        i, js = sw.i, sw.js
        seg = pts[js] - pts[i]
        k, s = np.nonzero(sw.acute & (sw.order > js[:, None]))
        u = np.stack([-seg[k, 1], seg[k, 0]], axis=1) / np.hypot(seg[k, 0], seg[k, 1])[:, None]
        yield i, (
            (np.column_stack([np.full(js.size, i), js]), 0.5 * seg, sw.pair_radius, sw.pair_level),
            (
                np.column_stack([np.full(k.size, i), js[k], sw.order[k, s]]),
                0.5 * seg[k] + sw.t[k, s][:, None] * u,
                sw.radius[k, s],
                sw.level[k, s],
            ),
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

    The bases come from _bases, as for enumerate_bases.  Each basis adds
    w * rho' to its support and -w * rho to every point whose squared
    distance to the basis's own centre exceeds its squared radius, the
    support excepted; rho and rho' are the pencil path's games.rho and
    games.rho_prime.  The sweep's outside masks and sums are not used.
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
                phi -= w_minus[lo : lo + step] @ out
    return phi
