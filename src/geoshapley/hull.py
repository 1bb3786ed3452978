"""Shapley values for the convex-hull area and perimeter games.

For a directed pair (q, q'), level(q, q') counts the points strictly left
of the line q -> q'.  Both engines are one angular sweep around every
source point r, run for a block of sources at a time as row-wise array
passes.  Each row sorts the other points by direction mod pi (the
direction of their line through r) and splits them into the two half
turns [0, pi) and [pi, 2 pi).  Every point p then sees the half plane
left of r -> p as the points after it in its own half turn plus those
before it in the other one, so one prefix sum of half-turn-signed weights
answers "count the points in a half plane" (the levels) and "sum the
weights of the pairs (r, s) whose half plane holds p" for a whole row.

The area game gives p the triangle area(p, r, s) = cross(s - r, p - r) / 2
for each pair whose left half plane holds p, weighted by rho(level).
Summing the rho-weighted vectors s - r over those pairs first, every p
takes its share from source r as one cross product with p - r.  Only
coordinate differences enter, so translating the input leaves the
values unchanged up to rounding.  Each directed pair is seen from both of
its endpoints, hence the final halving.
"""

from __future__ import annotations

import math

import numpy as np

from . import games, geometry
from .errors import GeneralPositionError
from .games import ShapleyVector, rho, rho_prime
from .geometry import DEGENERACY_TOL

# Array elements (sources x points) per block of the sweep.  A block keeps
# about twenty arrays of this size alive, so 2^12 elements hold its working
# set near 0.5 MB while numpy's per-call cost stays small against the work;
# 2^13 and 2^14 were no more than 5% faster from n = 250 to 2000.
_BLOCK = 1 << 12


def _sweep(pts):
    """Angular sweeps around every source, one block of sources at a time.

    Yields (rows, idx, d, sign, level) per block; row i describes source
    rows[i] and its columns the other points in order of direction mod pi:
    idx holds their indices, d = point - source as complex numbers, sign
    is +1 for a direction in [0, pi) and -1 in [pi, 2 pi), and level is
    level(source, point).
    """
    n = pts.shape[0]
    m = n - 1
    z = pts[:, 0] + 1j * pts[:, 1]
    step = max(1, _BLOCK // n)
    for start in range(0, n, step):
        rows = np.arange(start, min(n, start + step))
        d = z[None, :] - z[rows, None]
        theta = np.angle(d)
        up = (theta >= 0.0) & (theta < math.pi)
        # equal to np.mod(theta, pi), which costs four times as much
        mod = np.where(up, theta, theta - np.copysign(math.pi, theta))
        mod[np.arange(rows.size), rows] = 4.0  # the source sorts last: dropped
        idx = np.argsort(mod, axis=1)[:, :m]
        flat = idx + n * np.arange(rows.size)[:, None]
        mod = np.take(mod, flat)
        gaps = np.diff(mod, axis=1)
        wrap = math.pi - (mod[:, -1] - mod[:, 0])
        bad = np.any(gaps <= DEGENERACY_TOL, axis=1) | (wrap <= DEGENERACY_TOL)
        if bad.any():
            raise _position_error(pts, int(rows[np.argmax(bad)]))
        sign = np.where(np.take(up, flat), 1, -1)
        # Points strictly left of source -> p: those after p in its half
        # turn and those before p in the other.  With c the running sum of
        # signs, that count is (m + sign * (c[-1] - 2 c)) / 2.
        c = np.cumsum(sign, axis=1)
        level = (m + sign * (c[:, -1:] - 2 * c)) // 2
        yield rows, idx, np.take(d, flat), sign, level


def _position_error(pts, r):
    """The error for a source whose directions are not distinct mod pi,
    naming the adjacent pair at the smallest gap (the wrap gap joins the
    last direction to the first); ties order by direction, then index."""
    others = np.delete(np.arange(pts.shape[0]), r)
    d = pts[others] - pts[r]
    theta = np.arctan2(d[:, 1], d[:, 0])
    mod = np.mod(theta, math.pi)
    order = np.lexsort((theta, mod))
    mod = mod[order]
    k = int(np.argmin(np.append(np.diff(mod), math.pi - (mod[-1] - mod[0]))))
    a, b = others[order[k]], others[order[(k + 1) % others.size]]
    return GeneralPositionError(
        "three points are collinear or nearly so",
        offending=[tuple(sorted((r, int(a), int(b))))],
    )


def _window_sums(sign, q, total):
    """Per point p of a row, u summed over p and the points right of
    source -> p, plus v summed over the points left of it; q is the running
    sum of sign * (u - v) along the row and total the row sum of u + v."""
    return 0.5 * total + sign * (q - 0.5 * q[:, -1:])


def all_pair_levels(points):
    """Table of level(q, q') for all ordered pairs; diagonal entries -1.

    O(n^2 log n) via one angular sweep per source point (output-equivalent
    to traversing the dual line arrangement).
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    table = np.full((n, n), -1, dtype=np.int64)
    if n >= 2:
        for rows, idx, _, _, level in _sweep(pts):
            table[rows[:, None], idx] = level
    return table


def shapley_hull_area(points):
    """Shapley values of the hull-area game in O(n^2 log n).

    From source r, p collects rho(level(r, s)) (s - r) over the points s
    with p left of r -> s and -rho(level(s, r)) (s - r) over those with p
    right of it.  Half the cross product of that sum with p - r is p's
    rho-weighted triangle area over the pairs (r, s) and (s, r); halving
    again undoes seeing each pair from both of its endpoints.
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = games.eval_characteristic("hull-area", pts)
    if n <= 2:
        return ShapleyVector(np.zeros(n), total, "hull-area")
    rho_lv = rho(2, np.arange(n - 1))
    plus = rho_lv + rho_lv[::-1]  # rho(level(r, s)) + rho(level(s, r))
    minus = rho_lv - rho_lv[::-1]
    acc = np.zeros(n)
    for _, idx, d, sign, level in _sweep(pts):
        q = np.cumsum(sign * plus[level] * d, axis=1)
        v = _window_sums(sign, q, np.sum(minus[level] * d, axis=1)[:, None])
        # u_p is parallel to p - r, so it drops out of the cross product
        acc += np.bincount(idx.ravel(), (v.conj() * d).imag.ravel(), minlength=n)
    return ShapleyVector(0.25 * acc, total, "hull-area")


def _naive_left_sums(pts, weight, term):
    """values[p] = sum of term(cross, weight[q, s]) over the directed pairs
    (q, s) with p strictly left of q -> s, where cross is
    cross(s - q, p - q); O(n^3)."""
    n = pts.shape[0]
    values = np.zeros(n)
    dx = pts[:, 0][None, :] - pts[:, 0][:, None]  # dx[q, s] = x_s - x_q
    dy = pts[:, 1][None, :] - pts[:, 1][:, None]
    for p in range(n):
        cross = dx * (pts[p, 1] - pts[:, 1][:, None]) - dy * (pts[p, 0] - pts[:, 0][:, None])
        mask = cross > 0.0
        mask[p, :] = False
        mask[:, p] = False
        np.fill_diagonal(mask, False)
        values[p] = float(np.sum(term(cross[mask], weight[mask])))
    return values


def shapley_hull_area_naive(points):
    """Per-point direct evaluation of the pair sum; O(n^3) cross-check."""
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = games.eval_characteristic("hull-area", pts)
    if n <= 2:
        return ShapleyVector(np.zeros(n), total, "hull-area")
    rho_tab = rho(2, np.maximum(all_pair_levels(pts), 0))
    values = _naive_left_sums(pts, rho_tab, lambda cross, w: 0.5 * cross * w)
    return ShapleyVector(values, total, "hull-area")


def shapley_hull_perimeter(points, naive=False):
    """Shapley values of the hull-perimeter game: phi_plus - phi_minus.

    phi_plus sums |p-q| over both directed edge events; phi_minus sums
    |q-q'| rho(level(q, q')) over the pairs whose left half plane holds p,
    with the area engine's sweep (naive: a direct O(n^3) pair sum).
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = games.eval_characteristic("hull-perimeter", pts)
    if n <= 1:
        return ShapleyVector(np.zeros(n), total, "hull-perimeter")
    if naive:
        return ShapleyVector(_perimeter_naive(pts), total, "hull-perimeter")
    rho_lv = rho(2, np.arange(n - 1))
    plus = rho_lv + rho_lv[::-1]
    minus = rho_lv - rho_lv[::-1]
    rho_p = rho_prime(2, np.arange(n - 1))
    values = np.zeros(n)
    for rows, idx, d, sign, level in _sweep(pts):
        dist = np.abs(d)
        edge = dist * rho_p[level]
        values[rows] += np.sum(edge, axis=1)
        q = np.cumsum(sign * dist * minus[level], axis=1)
        cut = _window_sums(sign, q, np.sum(dist * plus[level], axis=1)[:, None])
        cut -= dist * rho_lv[level]
        values += np.bincount(idx.ravel(), (edge - 0.5 * cut).ravel(), minlength=n)
    return ShapleyVector(values, total, "hull-perimeter")


def _perimeter_naive(pts):
    """phi_plus - phi_minus by direct pair sums over all_pair_levels."""
    levels = np.maximum(all_pair_levels(pts), 0)
    dist = np.hypot(*(pts[None, :, :] - pts[:, None, :]).transpose(2, 0, 1))
    edge = dist * rho_prime(2, levels)
    phi_plus = edge.sum(axis=0) + edge.sum(axis=1)
    cut = dist * rho(2, levels)
    return phi_plus - _naive_left_sums(pts, cut, lambda cross, w: w)
