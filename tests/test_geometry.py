import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshapley.geometry import (
    DEGENERACY_TOL,
    convex_hull,
    hull_area,
    hull_perimeter,
    min_enclosing_disk,
)

from conftest import assert_close, random_plane_points


class TestConvexHull:
    def test_triangle(self):
        hull = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert hull.shape == (3, 2)

    def test_interior_point_excluded(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert hull.shape == (4, 2)
        assert not any(np.allclose(v, (0.5, 0.5)) for v in hull)

    def test_segment(self):
        hull = convex_hull([(0, 0), (2, 2)])
        assert hull.shape == (2, 2)

    def test_collinear_returns_extremes(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert hull.shape == (2, 2)
        assert_close(hull_perimeter(hull), 2 * math.hypot(3, 3))

    def test_ccw_orientation(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        x, y = hull[:, 0], hull[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0

    @given(st.integers(min_value=3, max_value=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(n, 2))
        h1 = convex_hull(pts)
        h2 = convex_hull(pts[rng.permutation(n)])
        assert_close(hull_area(h1), hull_area(h2), rel=1e-12)
        assert_close(hull_perimeter(h1), hull_perimeter(h2), rel=1e-12)


def _orientation_fsum(a, b, c):
    """geometry.orientation as it was, with the determinant from math.fsum."""
    det = math.fsum([(b[0] - a[0]) * (c[1] - a[1]), -(b[1] - a[1]) * (c[0] - a[0])])
    mx = max(abs(b[0] - a[0]), abs(c[0] - a[0]))
    my = max(abs(b[1] - a[1]), abs(c[1] - a[1]))
    tol = DEGENERACY_TOL * max(1.0, mx * my)
    return 1 if det > tol else -1 if det < -tol else 0


def _hull_fsum(points):
    """The monotone chain over numpy rows with _orientation_fsum: the
    reference for convex_hull's vertex lists."""
    uniq = np.unique(np.asarray(points, dtype=float), axis=0)
    if uniq.shape[0] == 1:
        return uniq
    sp = uniq[np.lexsort((uniq[:, 1], uniq[:, 0]))]

    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and _orientation_fsum(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    cycle = half(sp)[:-1] + half(sp[::-1])[:-1]
    return np.array(cycle if len(cycle) >= 2 else [sp[0], sp[-1]])


def _same_hull(points):
    got, want = convex_hull(points), _hull_fsum(points)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestHullVerticesUnchanged:
    """convex_hull's subtraction for the determinant gives the vertex lists
    that the fsum of the same two products gave."""

    def test_criterion_4_input(self):
        _same_hull(np.random.default_rng(404).uniform(-50.0, 50.0, (300, 2)))

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0)],
            [(0, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 1)],
            [(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)],
            [(0, 0), (1, 0), (2, 0), (1, 1), (1, -1), (1, 0)],
            [(x, y) for x in range(4) for y in range(4)],
            [(-0.0, 0.0), (0.0, -0.0), (1, 0), (0, 1), (1, 1)],
            [(0, 0), (1, 1e-17), (2, 0), (1, 1)],
            [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.3, 0.1)],
            [(1e6, 1e6), (1e6 + 1e-9, 1e6), (1e6, 1e6 + 1e-9), (1e6 + 1e-9, 1e6 + 1e-9)],
        ],
        ids=["one", "repeated", "pair", "collinear", "cross", "grid", "signed-zero",
             "near-collinear", "decimal-collinear", "tiny-square-far-out"],
    )
    def test_degenerate_sets(self, points):
        _same_hull(points)

    def test_random_small_integer_sets(self):
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            _same_hull(rng.integers(-3, 4, (n, 2)).astype(float))


class TestHullSignedZeroDuplicates:
    """Rows equal up to the sign of a zero are one point; the hull keeps
    the first of them in input order."""

    @staticmethod
    def _signed_small(rng, n):
        pts = rng.integers(-2, 3, (n, 2)).astype(float)
        return pts * np.where(rng.integers(0, 2, (n, 2)) == 1, -1.0, 1.0)

    def test_same_row_as_np_unique(self):
        # np.unique sorts at most 16 rows by insertion, which keeps the
        # first of equal rows, so its representative is defined there.
        rng = np.random.default_rng(16)
        for _ in range(500):
            _same_hull(self._signed_small(rng, int(rng.integers(1, 17))))

    def test_first_row_in_input_order(self):
        rng = np.random.default_rng(400)
        for _ in range(200):
            pts = self._signed_small(rng, int(rng.integers(17, 400)))
            for v in convex_hull(pts):
                first = pts[np.nonzero(np.all(pts == v, axis=1))[0][0]]
                assert first.tobytes() == v.tobytes()


class TestHullMeasures:
    def test_right_triangle(self):
        hull = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert_close(hull_area(hull), 0.5)
        assert_close(hull_perimeter(hull), 2 + math.sqrt(2))

    def test_segment_conventions(self):
        hull = convex_hull([(0, 0), (3, 4)])
        assert hull_area(hull) == 0.0
        assert_close(hull_perimeter(hull), 10.0)

    def test_single_point(self):
        hull = convex_hull([(2, 5)])
        assert hull_area(hull) == 0.0
        assert hull_perimeter(hull) == 0.0

    def test_area_monotone_under_insertion(self, rng):
        pts = random_plane_points(rng, 50)
        areas = [hull_area(convex_hull(pts[: k + 1])) for k in range(50)]
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(areas, areas[1:]))


class TestMinEnclosingDisk:
    def test_diametral_pair(self):
        disk, basis = min_enclosing_disk([(-1, 0), (1, 0)])
        assert_close(disk.center, (0, 0), abs_floor=1e-12)
        assert_close(disk.radius, 1.0)
        assert basis == (0, 1)

    def test_equilateral_triangle(self):
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        disk, basis = min_enclosing_disk(pts)
        assert_close(disk.radius, 1 / math.sqrt(3))
        assert basis == (0, 1, 2)

    def test_obtuse_triangle_uses_longest_pair(self):
        pts = np.array([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0)])
        disk, basis = min_enclosing_disk(pts)
        # Brute force over all candidate disks confirms the diametral pair.
        best = _brute_force_med(pts)
        assert_close(disk.radius, best.radius, rel=1e-12)
        assert_close(disk.center, best.center, abs_floor=1e-9)
        assert basis == (0, 1)

    def test_matches_brute_force_on_random_sets(self, rng):
        for n in (3, 5, 8, 13):
            for _ in range(10):
                pts = random_plane_points(rng, n)
                disk, basis = min_enclosing_disk(pts)
                best = _brute_force_med(pts)
                assert_close(disk.radius, best.radius, rel=1e-9)
                assert 1 <= len(basis) <= 3
                # containment and boundary-basis invariants
                d = np.hypot(*(pts - disk.center).T)
                assert np.all(d <= disk.radius * (1 + 1e-9) + 1e-12)
                for b in basis:
                    assert abs(d[b] - disk.radius) <= 1e-9 * max(1.0, disk.radius)

    def test_permuted_input_same_bits(self):
        """A permuted input gives the mapped basis and the same centre and
        radius, bit for bit: the disk is recomputed from its basis points
        in coordinate order, whatever order the shuffle visited them in."""
        rng = np.random.default_rng(3000)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            pts = rng.uniform(-50.0, 50.0, (n, 2))
            perm = rng.permutation(n)
            disk, basis = min_enclosing_disk(pts)
            pdisk, pbasis = min_enclosing_disk(pts[perm])
            assert tuple(sorted(int(perm[k]) for k in pbasis)) == basis
            assert pdisk.center == disk.center and pdisk.radius == disk.radius

    def test_radius_monotone_under_insertion(self, rng):
        pts = random_plane_points(rng, 40)
        radii = [min_enclosing_disk(pts[: k + 1])[0].radius for k in range(40)]
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(radii, radii[1:]))


def _brute_force_med(pts):
    """Smallest disk over all O(n^3) pair/triple candidates."""
    from geoshapley.geometry import Disk, _circumdisk, _diametral_disk

    n = len(pts)
    best = None
    tol = 1e-9
    cands = [_diametral_disk(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)]
    cands += [
        d
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if (d := _circumdisk(pts[i], pts[j], pts[k])) is not None
    ]
    if n == 1:
        return Disk((pts[0][0], pts[0][1]), 0.0)
    for d in cands:
        dist = np.hypot(*(pts - d.center).T)
        if np.all(dist <= d.radius * (1 + tol) + tol):
            if best is None or d.radius < best.radius:
                best = d
    return best
