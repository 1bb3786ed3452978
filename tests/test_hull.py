import math

import numpy as np
import pytest

from geoshapley import hull
from geoshapley.errors import GeneralPositionError
from geoshapley.games import rho, rho_prime
from geoshapley.geometry import convex_hull, hull_area, hull_perimeter
from geoshapley.hull import (
    all_pair_levels,
    shapley_hull_area,
    shapley_hull_area_naive,
    shapley_hull_perimeter,
)
from geoshapley.oracle import shapley_by_permutations, shapley_by_subsets

from conftest import assert_close, random_plane_points
from permcount import prob_sandwich


def brute_levels(pts):
    """O(n^3) point-in-halfplane counting."""
    n = len(pts)
    table = np.full((n, n), -1, dtype=int)
    for q in range(n):
        for qq in range(n):
            if q == qq:
                continue
            d = pts[qq] - pts[q]
            cnt = 0
            for t in range(n):
                if t in (q, qq):
                    continue
                cross = d[0] * (pts[t][1] - pts[q][1]) - d[1] * (pts[t][0] - pts[q][0])
                if cross > 0:
                    cnt += 1
            table[q, qq] = cnt
    return table


class TestLevels:
    def test_triangle_identity(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.1), (0.7, 1.5)])
        table = all_pair_levels(pts)
        off = ~np.eye(3, dtype=bool)
        assert np.all(table[off] + table.T[off] == 1)

    def test_convex_quadrilateral_ccw_edges(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.2), (2.2, 2.0), (0.1, 1.8)])
        table = all_pair_levels(pts)
        # ccw hull edge (i, i+1) keeps the other two points on its left
        for i in range(4):
            assert table[i, (i + 1) % 4] == 2
            assert table[(i + 1) % 4, i] == 0

    def test_random_matches_brute_force(self, rng):
        pts = random_plane_points(rng, 40)
        assert np.array_equal(all_pair_levels(pts), brute_levels(pts))

    def test_antisymmetry_random(self, rng):
        n = 25
        pts = random_plane_points(rng, n)
        table = all_pair_levels(pts)
        off = ~np.eye(n, dtype=bool)
        assert np.all(table[off] + table.T[off] == n - 2)

    def test_collinear_rejected(self):
        with pytest.raises(GeneralPositionError):
            all_pair_levels([(0, 0), (1, 1), (2, 2), (5, 0)])


class TestRho:
    """The weights of the hull (size 2) and the disk (sizes 2 and 3) are
    games.rho and games.rho_prime."""

    def test_paper_values(self):
        assert_close(rho(2, 1), 1 / 3, rel=1e-15)
        assert_close(rho_prime(2, 0), 1 / 2, rel=1e-15)

    def test_rho_2_matches_sandwich(self):
        # rho(level) is the sandwich probability with beta=2, alpha=level-1
        assert_close(rho(2, 2), 1 / 12, rel=1e-15)
        for level in range(1, 6):
            assert_close(rho(2, level), prob_sandwich(level - 1, 2), rel=1e-12)

    def test_rho_3_matches_sandwich(self):
        # a triple basis: beta=3 points before p, alpha=level-1 after it
        for level in range(1, 6):
            assert_close(rho(3, level), prob_sandwich(level - 1, 3), rel=1e-12)

    def test_rho_prime_matches_sandwich(self):
        # p closes the basis: size-1 members before p, level points after
        for size in (2, 3):
            for level in range(0, 6):
                assert_close(rho_prime(size, level), prob_sandwich(level, size - 1), rel=1e-12)

    def test_rho_zero_level_weighs_nothing(self):
        assert rho(2, 0) == 0.0
        assert np.array_equal(rho(3, [0, 0]), [0.0, 0.0])

    def test_closed_forms_bit_for_bit(self):
        # the engines' weights before games.rho: the same products, in
        # the same order, so the values must not move by a bit
        lv = np.arange(200_001).astype(float)
        pos = lv[1:]
        assert np.array_equal(rho(2, lv)[1:], 2.0 / ((pos + 2.0) * (pos + 1.0) * pos))
        assert np.array_equal(rho(3, lv)[1:], 6.0 / ((pos + 3.0) * (pos + 2.0) * (pos + 1.0) * pos))
        assert np.array_equal(rho_prime(2, lv), 1.0 / ((lv + 2.0) * (lv + 1.0)))
        assert np.array_equal(rho_prime(3, lv), 2.0 / ((lv + 3.0) * (lv + 2.0) * (lv + 1.0)))
        assert np.array_equal(rho(2, np.arange(5)), rho(2, np.arange(5.0)))


class TestHullArea:
    def test_triangle_equal_split(self):
        pts = np.array([(0.0, 0.0), (2.0, 0.1), (0.7, 1.5)])
        area = hull_area(convex_hull(pts))
        sv = shapley_hull_area(pts)
        assert_close(sv.values, [area / 3] * 3)

    def test_degenerate_sizes(self):
        assert_close(shapley_hull_area([(1, 2)]).values, [0.0])
        assert_close(shapley_hull_area([(1, 2), (3, 4)]).values, [0.0, 0.0])

    def test_matches_oracle_random(self, rng):
        for n in (4, 5, 6, 7, 8):
            for _ in range(6):
                pts = random_plane_points(rng, n)
                oracle = shapley_by_permutations("hull-area", pts)
                fast = shapley_hull_area(pts)
                naive = shapley_hull_area_naive(pts)
                assert_close(fast.values, oracle.values, rel=1e-9)
                assert_close(naive.values, oracle.values, rel=1e-9)

    def test_fast_equals_naive_larger(self, rng):
        pts = random_plane_points(rng, 60)
        fast = shapley_hull_area(pts)
        naive = shapley_hull_area_naive(pts)
        assert_close(fast.values, naive.values, rel=1e-10)

    def test_efficiency(self, rng):
        pts = random_plane_points(rng, 400)
        sv = shapley_hull_area(pts)
        assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total

    def test_translation_invariance(self, rng):
        pts = random_plane_points(rng, 30)
        sv1 = shapley_hull_area(pts)
        sv2 = shapley_hull_area(pts + np.array([123.0, -45.0]))
        assert_close(sv2.values, sv1.values, rel=1e-9)


class TestHullPerimeter:
    def test_equilateral_triangle(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
        sv = shapley_hull_perimeter(pts)
        assert_close(sv.values, [1.0, 1.0, 1.0])

    def test_two_points_doubled_convention(self):
        sv = shapley_hull_perimeter([(0, 0), (3, 4)])
        assert_close(sv.values, [5.0, 5.0])
        assert_close(sv.game_total, 10.0)

    def test_matches_oracle_random(self, rng):
        for n in (3, 4, 5, 6, 7, 8):
            for _ in range(6):
                pts = random_plane_points(rng, n)
                oracle = shapley_by_permutations("hull-perimeter", pts)
                fast = shapley_hull_perimeter(pts)
                assert_close(fast.values, oracle.values, rel=1e-9)

    def test_window_fast_equals_naive(self, rng):
        pts = random_plane_points(rng, 40)
        fast = shapley_hull_perimeter(pts)
        naive = shapley_hull_perimeter(pts, naive=True)
        assert_close(fast.values, naive.values, rel=1e-10)

    def test_efficiency(self, rng):
        pts = random_plane_points(rng, 400)
        sv = shapley_hull_perimeter(pts)
        assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total

    @pytest.mark.parametrize("naive", [False, True])
    def test_single_point(self, naive):
        sv = shapley_hull_perimeter([(3, 4)], naive=naive)
        assert sv.values.tolist() == [0.0] and sv.game_total == 0.0


class TestGeneralPosition:
    @pytest.mark.parametrize("solver", [shapley_hull_area, shapley_hull_perimeter])
    def test_collinear_triple_reported(self, solver):
        with pytest.raises(GeneralPositionError) as exc:
            solver([(0, 0), (1, 1), (2, 2), (3, 0.5)])
        assert exc.value.offending == ((0, 1, 2),)

    @pytest.mark.parametrize("solver", [shapley_hull_area, shapley_hull_perimeter])
    def test_near_collinear_triple_reported(self, solver):
        # Seen from point 0, points 1 and 2 are 7.5e-13 rad apart: inside the
        # angle tolerance, and orientation calls the triple degenerate too.
        with pytest.raises(GeneralPositionError) as exc:
            solver([(0, 0), (1000, 0), (2000, 1.5e-9), (500, 700)])
        assert exc.value.offending == ((0, 1, 2),)

    @pytest.mark.parametrize(
        "solver", [shapley_hull_area, shapley_hull_perimeter, all_pair_levels]
    )
    def test_first_failing_source_past_first_block(self, solver):
        # Only sources 262, 275 and 291 see two others within the angle
        # tolerance; the sweep must name the lowest of them, which no
        # block of the default size starts with.
        pts = np.random.default_rng(11).uniform(-50.0, 50.0, (300, 2))
        a, b = pts[262], pts[291]
        normal = np.array([-(b - a)[1], (b - a)[0]])
        pts[275] = a + 0.4 * (b - a) + 1e-14 * normal
        assert 262 % max(1, hull._BLOCK // 300) != 0
        with pytest.raises(GeneralPositionError) as exc:
            solver(pts)
        assert exc.value.offending == ((262, 275, 291),)


@pytest.mark.parametrize(
    "solver, n",
    [
        (shapley_hull_area, 40),
        (shapley_hull_perimeter, 40),
        (lambda pts: shapley_by_subsets("hull-area", pts), 12),
    ],
    ids=["shapley_hull_area", "shapley_hull_perimeter", "shapley_by_subsets"],
)
def test_far_from_origin(solver, n):
    # Only coordinate differences may enter: a shift by 1e6 must not move
    # the values by more than rounding the shifted input does.
    pts = np.random.default_rng(0).uniform(-5.0, 5.0, (n, 2))
    assert_close(solver(pts + 1e6).values, solver(pts).values, rel=1e-9)


@pytest.mark.parametrize("shift", [1e5, 1e6, 1e8])
def test_area_total_far_from_origin(shift):
    # The shoelace total, like the values, must see only coordinate
    # differences: far from the origin it keeps its digits and its sum.
    pts = np.random.default_rng(0).uniform(-5.0, 5.0, (40, 2))
    total = shapley_hull_area(pts).game_total
    sv = shapley_hull_area(pts + shift)
    assert abs(sv.game_total - total) <= 1e-9 * total
    assert abs(sv.efficiency_residual) <= 1e-12 * sv.game_total


@pytest.mark.parametrize("n", [7, 64, 301])
def test_block_size_does_not_change_results(monkeypatch, n):
    pts = np.random.default_rng(n).uniform(-50.0, 50.0, (n, 2))
    area = shapley_hull_area(pts).values
    perimeter = shapley_hull_perimeter(pts).values
    levels = all_pair_levels(pts)
    for block in (1, n * n):  # one source per block; all sources in one
        monkeypatch.setattr(hull, "_BLOCK", block)
        assert_close(shapley_hull_area(pts).values, area, rel=1e-12)
        assert_close(shapley_hull_perimeter(pts).values, perimeter, rel=1e-12)
        assert np.array_equal(all_pair_levels(pts), levels)
