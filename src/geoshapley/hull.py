"""Shapley values for the convex-hull area and perimeter games.

For a directed pair (q, q'), level(q, q') counts the points strictly left
of the line q -> q'.  The area engine sums, for every point p, the
rho-weighted linear forms of the triangles p-q-q' over all pairs whose
left halfplane contains p.  Levels and the per-point aggregation are both
done with one angular sweep around each point: sorting the other points
by direction turns both "count points in a halfplane" and "sum weights of
pairs whose halfplane contains p" into circular window sums, which prefix
sums answer in O(log n) per query.  Each directed pair is seen from both
of its endpoints, hence the final division by two.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .errors import DomainError, GeneralPositionError
from .games import ShapleyVector

_ANGLE_TOL = 1e-12


def rho(level):
    """Probability that a fixed triangle p-q-q' realizes the hull delta:
    2 / ((level+2)(level+1)level).  Requires level >= 1."""
    if level < 1:
        raise DomainError("rho requires level >= 1")
    return 2.0 / ((level + 2.0) * (level + 1.0) * level)


def rho_prime(level):
    """Probability that a fixed directed edge (q, p) enters the hull:
    1 / ((level+2)(level+1)).  Valid for level >= 0."""
    if level < 0:
        raise DomainError("rho_prime requires level >= 0")
    return 1.0 / ((level + 2.0) * (level + 1.0))


def _rho_array(levels):
    lv = levels.astype(float)
    out = np.zeros_like(lv)
    pos = lv >= 1
    lvp = lv[pos]
    out[pos] = 2.0 / ((lvp + 2.0) * (lvp + 1.0) * lvp)
    return out


def _rho_prime_array(levels):
    lv = levels.astype(float)
    return 1.0 / ((lv + 2.0) * (lv + 1.0))


class _AngularView:
    """Sorted directions around one source point r.

    Exposes circular window sums over the other points: windows are
    half-open direction arcs of length pi, evaluated on a doubled sorted
    array so no wraparound branching is needed.
    """

    def __init__(self, pts, r):
        self.r = r
        self.m = pts.shape[0] - 1
        self.others = np.delete(np.arange(pts.shape[0]), r)
        d = pts[self.others] - pts[r]
        theta = np.arctan2(d[:, 1], d[:, 0])
        order = np.argsort(theta, kind="stable")
        self.idx = self.others[order]
        self.theta = theta[order]
        self.d = d[order]
        self._check_general_position()
        self.t2 = np.concatenate([self.theta, self.theta + 2.0 * math.pi])
        # Antipode split: elements of the doubled array strictly inside
        # (theta_k, theta_k + pi) occupy indices (k, hi_k); the complementary
        # arc (theta_k - pi, theta_k) occupies [hi_k, k + m).  Index-based
        # windows avoid any float arithmetic on arc endpoints, so a query
        # never swallows its own doubled copy.
        self.hi = np.searchsorted(self.t2, self.theta + math.pi, side="left")

    def _check_general_position(self):
        if self.m < 2:
            return
        mod = np.sort(np.mod(self.theta, math.pi))
        gaps = np.diff(mod)
        wrap = math.pi - (mod[-1] - mod[0])
        if np.any(gaps < _ANGLE_TOL) or wrap < _ANGLE_TOL:
            # Report the adjacent pair of directions with the smallest gap
            # (mod pi, the wrap gap joining the last direction to the first).
            order = np.argsort(np.mod(self.theta, math.pi), kind="stable")
            k = int(np.argmin(np.append(gaps, wrap)))
            a, b = self.idx[order[k]], self.idx[order[(k + 1) % self.m]]
            raise GeneralPositionError(
                "three points are collinear or nearly so",
                offending=[tuple(sorted((self.r, int(a), int(b))))],
            )

    def window_counts(self):
        """level(r, s) for every other point s: the number of points with
        direction strictly inside (theta_s, theta_s + pi)."""
        return self.hi - np.arange(1, self.m + 1)

    def _prefix(self, weights):
        return np.concatenate([[0.0], np.cumsum(np.concatenate([weights, weights]))])

    def sum_forward(self, weights):
        """Per query k, sum of weights over directions in (theta_k, theta_k + pi)."""
        pref = self._prefix(weights)
        return pref[self.hi] - pref[np.arange(1, self.m + 1)]

    def sum_backward(self, weights):
        """Per query k, sum of weights over directions in (theta_k - pi, theta_k)."""
        pref = self._prefix(weights)
        return pref[np.arange(self.m) + self.m] - pref[self.hi]


def all_pair_levels(points):
    """Table of level(q, q') for all ordered pairs; diagonal entries -1.

    O(n^2 log n) via one angular sweep per source point (output-equivalent
    to traversing the dual line arrangement).
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    table = np.full((n, n), -1, dtype=np.int64)
    for r in range(n):
        view = _AngularView(pts, r)
        table[r, view.idx] = view.window_counts()
    return table


def _triangle_form(pts, r, view):
    """Linear-form coefficients (a, b, c) with area(tri p,r,s) =
    a x(p) + b y(p) + c for p left of r -> s, for every s in sorted order."""
    rs = view.d  # s - r in sorted order
    xr, yr = pts[r]
    a = -0.5 * rs[:, 1]
    b = 0.5 * rs[:, 0]
    # constant term x_r y_s - x_s y_r, with (x_s, y_s) = r + rs
    c = 0.5 * (xr * (rs[:, 1] + yr) - (rs[:, 0] + xr) * yr)
    return a, b, c


def shapley_hull_area(points):
    """Shapley values of the hull-area game in O(n^2 log n).

    For each source r the directed pairs (r, s) and (s, r) carry the
    rho-weighted triangle forms; circular prefix sums aggregate them into
    the per-point linear coefficients, and every pair is counted from both
    endpoints, so the aggregate is halved.
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = geometry.hull_area(geometry.convex_hull(pts))
    if n <= 2:
        return ShapleyVector(np.zeros(n), total, "hull-area")
    acc = np.zeros((n, 3))
    for r in range(n):
        view = _AngularView(pts, r)
        lv_rs = view.window_counts()
        lv_sr = n - 2 - lv_rs
        w_rs = _rho_array(lv_rs)
        w_sr = _rho_array(lv_sr)
        a, b, c = _triangle_form(pts, r, view)
        for k, coef in enumerate((a, b, c)):
            # p in H(r, s): directions s in (theta_p - pi, theta_p)
            s1 = view.sum_backward(coef * w_rs)
            # p in H(s, r): directions s in (theta_p, theta_p + pi);
            # the (s, r) form is the negated (r, s) form.
            s2 = view.sum_forward(-coef * w_sr)
            acc[view.idx, k] += s1 + s2
    acc *= 0.5
    values = acc[:, 0] * pts[:, 0] + acc[:, 1] * pts[:, 1] + acc[:, 2]
    return ShapleyVector(values, total, "hull-area")


def shapley_hull_area_naive(points):
    """Per-point direct evaluation of the pair sum; O(n^3) cross-check."""
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = geometry.hull_area(geometry.convex_hull(pts))
    if n <= 2:
        return ShapleyVector(np.zeros(n), total, "hull-area")
    levels = all_pair_levels(pts)
    rho_tab = _rho_array(np.maximum(levels, 0))
    values = np.zeros(n)
    dx = pts[:, 0][None, :] - pts[:, 0][:, None]  # dx[q, s] = x_s - x_q
    dy = pts[:, 1][None, :] - pts[:, 1][:, None]
    for p in range(n):
        cross = dx * (pts[p, 1] - pts[:, 1][:, None]) - dy * (pts[p, 0] - pts[:, 0][:, None])
        mask = cross > 0.0
        mask[p, :] = False
        mask[:, p] = False
        np.fill_diagonal(mask, False)
        values[p] = float(np.sum(0.5 * cross[mask] * rho_tab[mask]))
    return ShapleyVector(values, total, "hull-area")


def shapley_hull_perimeter(points, naive=False):
    """Shapley values of the hull-perimeter game: phi_plus - phi_minus.

    phi_plus sums |p-q| over both directed edge events; phi_minus reuses
    the area engine's window machinery with scalar weights |q-q'| rho.
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    total = geometry.hull_perimeter(geometry.convex_hull(pts))
    if n <= 1:
        return ShapleyVector(np.zeros(n), total, "hull-perimeter")
    phi_plus = np.zeros(n)
    phi_minus = np.zeros(n)
    for r in range(n):
        view = _AngularView(pts, r)
        lv_rs = view.window_counts()
        dist = np.hypot(view.d[:, 0], view.d[:, 1])
        edge = dist * _rho_prime_array(lv_rs)
        phi_plus[view.idx] += edge
        phi_plus[r] += float(np.sum(edge))
        if n >= 3:
            w_rs = dist * _rho_array(lv_rs)
            w_sr = dist * _rho_array(n - 2 - lv_rs)
            if naive:
                contrib = _window_sums_naive(view, w_rs, w_sr)
            else:
                contrib = view.sum_backward(w_rs) + view.sum_forward(w_sr)
            phi_minus[view.idx] += contrib
    phi_minus *= 0.5
    return ShapleyVector(phi_plus - phi_minus, total, "hull-perimeter")


def _window_sums_naive(view, w_rs, w_sr):
    """Direct O(m^2) window accumulation (cross-check path)."""
    m = view.m
    out = np.zeros(m)
    for k in range(m):
        tp = view.theta[k]
        arc1 = np.mod(tp - view.theta, 2.0 * math.pi)
        arc2 = np.mod(view.theta - tp, 2.0 * math.pi)
        sel1 = (arc1 > 0) & (arc1 < math.pi)
        sel2 = (arc2 > 0) & (arc2 < math.pi)
        out[k] = float(np.sum(w_rs[sel1]) + np.sum(w_sr[sel2]))
    return out
