import math

import numpy as np
import pytest

from geoshapley import axis, games
from geoshapley.errors import DomainError
from geoshapley.games import (
    GAME_KINDS,
    eval_characteristic,
    shapley_airport,
    shapley_anchored_bbox_perimeter,
    shapley_area_band,
    shapley_bbox_perimeter,
    shapley_interval_length,
)
from geoshapley.oracle import shapley_by_permutations

from conftest import assert_close, random_plane_points


class TestEvaluators:
    def test_hull_area_triangle(self):
        assert_close(eval_characteristic("hull-area", [(0, 0), (1, 0), (0, 1)]), 0.5)

    def test_anchored_rects_single(self):
        assert_close(eval_characteristic("anchored-rects", [(1, 1)]), 1.0)

    def test_anchored_bbox_single(self):
        assert_close(eval_characteristic("anchored-bbox-area", [(2, 3)]), 6.0)

    def test_anchored_rects_union(self):
        # Two overlapping rectangles in the positive quadrant: 3 + 2 - 1
        assert_close(eval_characteristic("anchored-rects", [(1, 3), (2, 1)]), 4.0)

    def test_anchored_rects_multi_quadrant(self):
        pts = [(1, 1), (-2, 1), (1, -3), (-1, -1)]
        expected = 1 + 2 + 3 + 1
        assert_close(eval_characteristic("anchored-rects", pts), expected)

    def test_disk_games(self):
        assert_close(eval_characteristic("disk-area", [(-1, 0), (1, 0)]), math.pi)
        assert_close(
            eval_characteristic("disk-perimeter", [(-1, 0), (1, 0)]), 2 * math.pi
        )

    def test_area_band_uses_full_set_height(self):
        full = [(0, 0), (2, 5)]
        v = eval_characteristic("area-band", [(0, 0)], full_points=full)
        assert v == 0.0
        v2 = eval_characteristic("area-band", [(0, 0), (2, 5)], full_points=full)
        assert_close(v2, 10.0)

    def test_airport_requires_positive(self):
        with pytest.raises(DomainError):
            eval_characteristic("airport", [(0.0, 0.0)])

    def test_unknown_game(self):
        with pytest.raises(DomainError):
            eval_characteristic("poker", [(1, 1)])

    def test_monotone_on_random_instances(self, rng):
        pts = random_plane_points(rng, 7)
        for game in GAME_KINDS:
            if game == "airport":
                continue
            idx = list(range(7))
            vals = [
                eval_characteristic(game, pts[idx[: k + 1]], pts) for k in range(7)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), game


class TestAirport:
    def test_single(self):
        assert_close(shapley_airport([5.0]).values, [5.0])

    def test_golden_1_2_3(self):
        sv = shapley_airport([1.0, 2.0, 3.0])
        assert_close(sv.values, [1 / 3, 5 / 6, 11 / 6])
        assert_close(sv.efficiency_residual, 0.0, abs_floor=1e-12)

    def test_matches_permutation_oracle(self):
        pts = np.array([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        oracle = shapley_by_permutations("airport", pts)
        sv = shapley_airport([1.0, 2.0, 3.0])
        assert_close(sv.values, oracle.values, rel=1e-12)

    def test_values_monotone_in_coordinate(self, rng):
        x = np.sort(rng.uniform(0.5, 9.5, size=12))
        sv = shapley_airport(x)
        assert np.all(np.diff(sv.values) >= -1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            shapley_airport([1.0, -2.0])
        with pytest.raises(DomainError):
            shapley_airport([0.0, 1.0])


class TestIntervalLength:
    def test_two_point_symmetry(self):
        assert_close(shapley_interval_length([0.0, 1.0]).values, [0.5, 0.5])

    def test_single_point(self):
        assert_close(shapley_interval_length([7.0]).values, [0.0])

    def test_three_points_match_oracle(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        oracle = shapley_by_permutations("interval-length", pts)
        sv = shapley_interval_length([0.0, 1.0, 2.0])
        assert_close(sv.values, oracle.values, rel=1e-12)

    def test_random_matches_oracle(self, rng):
        for n in (2, 4, 6):
            x = rng.uniform(-5, 5, size=n)
            pts = np.column_stack([x, np.zeros(n)])
            oracle = shapley_by_permutations("interval-length", pts)
            sv = shapley_interval_length(x)
            assert_close(sv.values, oracle.values, rel=1e-9)


class TestPlanarBasicGames:
    def test_pbb_two_point_symmetry(self):
        sv = shapley_bbox_perimeter([(0, 0), (1, 1)])
        assert_close(sv.values, [2.0, 2.0])
        assert_close(sv.game_total, 4.0)

    def test_area_band_square_matches_oracle(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        oracle = shapley_by_permutations("area-band", pts)
        sv = shapley_area_band(pts)
        assert_close(sv.values, oracle.values, rel=1e-9)

    def test_pabb_single(self):
        sv = shapley_anchored_bbox_perimeter([(2, 3)])
        assert_close(sv.values, [10.0])

    @pytest.mark.parametrize(
        "solver,game",
        [
            (shapley_area_band, "area-band"),
            (shapley_bbox_perimeter, "bbox-perimeter"),
            (shapley_anchored_bbox_perimeter, "anchored-bbox-perimeter"),
        ],
    )
    def test_random_matches_oracle(self, rng, solver, game):
        for n in (2, 3, 5, 7):
            pts = random_plane_points(rng, n)
            oracle = shapley_by_permutations(game, pts)
            sv = solver(pts)
            assert_close(sv.values, oracle.values, rel=1e-9)
            assert_close(sv.efficiency_residual, 0.0, abs_floor=1e-9)

    def test_efficiency_large(self, rng):
        pts = random_plane_points(rng, 200)
        for solver in (
            shapley_area_band,
            shapley_bbox_perimeter,
            shapley_anchored_bbox_perimeter,
        ):
            sv = solver(pts)
            assert abs(sv.efficiency_residual) <= 1e-9 * max(1.0, abs(sv.game_total))


def _airport_two_sort(coords, order=None):
    """games._airport_values as it was before the solvers shared one sort
    per coordinate: its own stable sort on every call, ``order`` unused."""
    x = np.asarray(coords, dtype=float)
    n = x.size
    order = np.argsort(x, kind="stable")
    phi_sorted = np.cumsum(np.diff(np.concatenate(([0.0], x[order]))) / (n - np.arange(n)))
    out = np.empty(n)
    out[order] = phi_sorted
    return out


def _one_d_inputs():
    """(name, points) with ties, zeros, -0.0, all-equal coordinates, and
    n = 1, 2 and 2^k +- 1."""
    rng = np.random.default_rng(2718)
    cases = [("n1", np.array([[3.5, -2.0]])), ("n2", np.array([[1.0, 2.0], [4.0, -1.0]]))]
    for n in (3, 5, 7, 9, 15, 17, 31, 33, 255, 257, 4095, 4097):
        cases.append((f"uniform-{n}", rng.uniform(-50.0, 50.0, (n, 2))))
        small = rng.integers(-3, 4, (n, 2)).astype(float)  # ties and zeros
        cases.append((f"ties-{n}", small))
        signs = np.where(rng.integers(0, 2, (n, 2)) == 1, -1.0, 1.0)
        cases.append((f"signed-zeros-{n}", small * signs))  # -0.0 where small is 0
    cases.append(("all-equal", np.full((100, 2), 2.5)))
    cases.append(("all-zero", np.zeros((64, 2))))
    cases.append(("all-minus-zero", np.full((64, 2), -0.0)))
    return cases


_ONE_D_SOLVERS = {
    "airport": lambda p: shapley_airport(np.abs(p[:, 0]) + 1.0),
    "airport-ties": lambda p: shapley_airport(np.round(np.abs(p[:, 0])) + 1.0),
    "interval-length": lambda p: shapley_interval_length(p[:, 0]),
    "area-band": shapley_area_band,
    "bbox-perimeter": shapley_bbox_perimeter,
    "anchored-bbox-perimeter": shapley_anchored_bbox_perimeter,
}


class TestOneSortPerCoordinate:
    """The 1-D solvers sort each coordinate once; their values equal those
    of the formula that sorted every clamped or reflected copy anew."""

    @pytest.mark.parametrize("solver", list(_ONE_D_SOLVERS))
    @pytest.mark.parametrize("name,pts", _one_d_inputs(), ids=[c[0] for c in _one_d_inputs()])
    def test_equal_to_two_sort_formula(self, monkeypatch, solver, name, pts):
        got = _ONE_D_SOLVERS[solver](pts)
        monkeypatch.setattr(games, "_airport_values", _airport_two_sort)
        want = _ONE_D_SOLVERS[solver](pts)
        assert np.array_equal(got.values, want.values)
        assert got.game_total == want.game_total

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 255, 257, 4097])
    def test_bbox_band_terms(self, monkeypatch, n):
        pts = np.random.default_rng(n).uniform(-50.0, 50.0, (n, 2))
        got = axis.shapley_bbox(pts)
        monkeypatch.setattr(axis, "_airport_values", _airport_two_sort)
        want = axis.shapley_bbox(pts)
        assert np.array_equal(got.values, want.values)
