import math
import warnings

import numpy as np
import pytest

from geoshapley.disk import (
    DiskBasis,
    enumerate_bases,
    rho_basis,
    rho_prime_basis,
    shapley_disk,
)
from geoshapley.errors import DomainError, GeneralPositionError
from geoshapley.geometry import min_enclosing_disk
from geoshapley.oracle import shapley_by_permutations, shapley_by_subsets

from conftest import assert_close, on_circle, random_plane_points
from permcount import prob_sandwich


def brute_bases(pts):
    """All pair/triple bases with levels by direct containment tests."""
    n = len(pts)
    found = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = 0.5 * (pts[i] + pts[j])
            r = 0.5 * math.hypot(*(pts[i] - pts[j]))
            lv = sum(
                1
                for k in range(n)
                if k not in (i, j) and math.hypot(*(pts[k] - c)) > r
            )
            found[(i, j)] = lv
            for k in range(j + 1, n):
                disk, basis = min_enclosing_disk(pts[[i, j, k]])
                if len(basis) == 3:  # acute triangle: circumdisk is med
                    lv3 = sum(
                        1
                        for s in range(n)
                        if s not in (i, j, k)
                        and math.hypot(pts[s][0] - disk.center[0], pts[s][1] - disk.center[1])
                        > disk.radius
                    )
                    found[(i, j, k)] = lv3
    return found


class TestRhoBasis:
    def test_matches_sandwich_probability(self):
        # rho(B) is the sandwich probability with beta = |B|, alpha = level-1
        for size in (2, 3):
            for level in range(1, 5):
                assert_close(
                    rho_basis(size, level), prob_sandwich(level - 1, size), rel=1e-12
                )

    def test_rho_prime_is_sandwich_with_smaller_before_set(self):
        # p closes the basis: |B|-1 members before p, level points after.
        for size in (2, 3):
            for level in range(0, 5):
                assert_close(
                    rho_prime_basis(size, level),
                    prob_sandwich(level, size - 1) / 1.0 * 1.0
                    if False
                    else math.factorial(size - 1)
                    / math.prod(range(level + 1, level + size + 1)),
                    rel=1e-12,
                )

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            rho_basis(2, 0)


class TestEnumerateBases:
    def test_diametral_pair(self):
        bases = enumerate_bases([(-1, 0), (1, 0)])
        assert len(bases) == 1
        b = bases[0]
        assert b.support == (0, 1) and b.level == 0
        assert_close(b.disk.radius, 1.0)

    def test_equilateral_triangle(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
        bases = enumerate_bases(pts)
        pairs = [b for b in bases if len(b.support) == 2]
        triples = [b for b in bases if len(b.support) == 3]
        assert len(pairs) == 3 and all(b.level == 1 for b in pairs)
        assert len(triples) == 1 and triples[0].level == 0
        assert_close(triples[0].disk.radius, 1 / math.sqrt(3))

    def test_obtuse_triangle_has_no_triple_basis(self):
        bases = enumerate_bases([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0)])
        assert all(len(b.support) == 2 for b in bases)

    def test_random_matches_brute_force(self, rng):
        pts = random_plane_points(rng, 25)
        expected = brute_bases(pts)
        got = {b.support: b.level for b in enumerate_bases(pts)}
        assert got == expected

    def test_levels_bounded(self, rng):
        pts = random_plane_points(rng, 15)
        for b in enumerate_bases(pts):
            assert 0 <= b.level <= 15 - len(b.support)
            # all points not counted by level are inside med(B)
            c = np.asarray(b.disk.center)
            d = np.hypot(*(pts - c).T)
            outside = int(np.sum(d > b.disk.radius * (1 + 1e-12) + 1e-12))
            assert outside == b.level

    def test_cocircular_rejected(self):
        pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (5.0, 5.0)]
        with pytest.raises(GeneralPositionError):
            enumerate_bases(pts)


class TestShapleyDisk:
    def test_diametral_pair_area(self):
        sv = shapley_disk([(-1, 0), (1, 0)], "area")
        assert_close(sv.values, [math.pi / 2, math.pi / 2])

    def test_equilateral_triangle_area(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
        sv = shapley_disk(pts, "area")
        assert_close(sv.values, [math.pi / 9] * 3)
        assert_close(sv.game_total, math.pi / 3)

    @pytest.mark.parametrize("measure", ["area", "perimeter"])
    def test_matches_oracle_random(self, rng, measure):
        game = "disk-area" if measure == "area" else "disk-perimeter"
        for n in (3, 4, 5, 6, 7):
            for _ in range(5):
                pts = random_plane_points(rng, n)
                oracle = shapley_by_subsets(game, pts)
                fast = shapley_disk(pts, measure)
                assert_close(fast.values, oracle.values, rel=1e-9)

    def test_pencil_equals_direct_minus(self, rng):
        for n in (5, 12, 24, 30):
            pts = random_plane_points(rng, n)
            fast = shapley_disk(pts, "area", minus_mode="pencil")
            direct = shapley_disk(pts, "area", minus_mode="direct")
            assert_close(fast.values, direct.values, rel=1e-10)

    @pytest.mark.parametrize("minus_mode", ["pencil", "direct"])
    @pytest.mark.parametrize("measure", ["area", "perimeter"])
    def test_points_on_a_pair_line(self, measure, minus_mode):
        # (0, 0), (2, 0), (5, 0) are collinear: in the pencil of each of
        # their pairs the third never crosses the circle, and is outside
        # every circle iff it lies beyond the segment.
        pts = [(0, 0), (2, 0), (5, 0), (1.1, 1.7), (0.7, -1.3)]
        game = "disk-area" if measure == "area" else "disk-perimeter"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = shapley_disk(pts, measure, minus_mode=minus_mode)
        assert_close(got.values, shapley_by_permutations(game, pts).values, rel=1e-9)

    @pytest.mark.parametrize("measure", ["area", "perimeter"])
    def test_player_permutation(self, rng, measure):
        pts = random_plane_points(rng, 40)
        perm = rng.permutation(40)
        base = shapley_disk(pts, measure).values
        assert_close(shapley_disk(pts[perm], measure).values, base[perm], rel=1e-9)

    def test_efficiency_larger(self, rng):
        pts = random_plane_points(rng, 120)
        for measure in ("area", "perimeter"):
            sv = shapley_disk(pts, measure)
            assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total

    def test_single_point(self):
        sv = shapley_disk([(3, 4)], "area")
        assert_close(sv.values, [0.0])

    def test_bad_measure(self):
        with pytest.raises(DomainError):
            shapley_disk([(0, 0), (1, 1)], "volume")


class TestGeneralPosition:
    @pytest.mark.parametrize("measure", ["area", "perimeter"])
    def test_diametral_conflict(self, measure):
        # (0,0),(2,0) define a diameter; (1,1) lies on that circle.
        with pytest.raises(GeneralPositionError) as exc:
            shapley_disk([(0, 0), (2, 0), (1, 1)], measure)
        assert exc.value.offending == ((0, 1, 2),)

    def test_duplicate_point(self):
        # Point 1 repeats point 0, so it lies on the diametral circle of (0, 2).
        with pytest.raises(GeneralPositionError) as exc:
            shapley_disk([(0, 0), (0, 0), (1, 1), (3, -1)])
        assert exc.value.offending == ((0, 1, 2),)

    @pytest.mark.parametrize("measure", ["area", "perimeter"])
    def test_cocircular_four(self, measure):
        # No pair of the four is a diameter, and (0, 1, 3) is acute, so the
        # tie in the pencil of (0, 1) involves a basis triple.
        with pytest.raises(GeneralPositionError) as exc:
            shapley_disk(on_circle([0.3, 1.4, 2.9, 4.4]), measure)
        assert exc.value.offending == ((0, 1, 2, 3),)

    @staticmethod
    def planted(kind):
        """Twelve random points with one or two planted degeneracies."""
        pts = np.random.default_rng(2026).uniform(-10, 10, size=(12, 2))
        if kind in ("diametral", "right", "both"):
            # Point 9 on the circle with diameter (7, 10); "right" moves it
            # out by a relative 1.5e-12, past the pair test's tolerance but
            # within the right-angle test's.
            m = 0.5 * (pts[7] + pts[10])
            r = 0.5 * np.hypot(*(pts[7] - pts[10])) * (1 + 1.5e-12 * (kind == "right"))
            pts[9] = m + r * np.array([np.cos(1.0), np.sin(1.0)])
        if kind in ("cocircular", "both"):
            for k, a in zip((1, 3, 4, 6), (0.3, 1.4, 2.9, 4.4)):
                pts[k] = (2.0 + 5.0 * np.cos(a), -1.0 + 5.0 * np.sin(a))
        return pts

    @pytest.mark.parametrize(
        "solve",
        [
            lambda p: shapley_disk(p, "area"),
            lambda p: shapley_disk(p, "perimeter", minus_mode="direct"),
            enumerate_bases,
        ],
        ids=["area-pencil", "perimeter-direct", "bases"],
    )
    @pytest.mark.parametrize(
        "kind, message, offending",
        [
            ("diametral", "diametral circle of a pair", (7, 9, 10)),
            ("right", "input-pair diameter", (7, 9, 10)),
            ("cocircular", "four points are cocircular", (1, 3, 4, 6)),
            # The pencil of (1, 3) comes before the pair (7, 10), but every
            # pair check runs before the first pencil check.
            ("both", "diametral circle of a pair", (7, 9, 10)),
        ],
    )
    def test_planted_offending_tuple(self, solve, kind, message, offending):
        with pytest.raises(GeneralPositionError, match=message) as exc:
            solve(self.planted(kind))
        assert exc.value.offending == (offending,)
