import math
import tracemalloc

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
from geoshapley.oracle import coalition_table, shapley_by_permutations

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

    def test_airport_precondition_has_one_message(self):
        pts = [(2.0, 1.0), (0.0, 3.0)]
        messages = set()
        for call in (
            lambda: shapley_airport([2.0, 0.0]),
            lambda: eval_characteristic("airport", pts),
            lambda: coalition_table("airport", pts),
        ):
            with pytest.raises(DomainError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"airport coordinates must be strictly positive"}

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

    def test_no_player_rejected(self):
        with pytest.raises(DomainError, match="need at least one player"):
            shapley_airport([])

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


@pytest.mark.parametrize("solver", [shapley_airport, shapley_interval_length])
class TestLineInput:
    """The 1-D solvers take a vector or one column, one player per entry."""

    def test_one_column_accepted(self, solver):
        assert_close(solver(np.array([[1.0], [3.0]])).values, solver([1.0, 3.0]).values)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 1, 1)])
    def test_more_columns_rejected(self, solver, shape):
        with pytest.raises(DomainError, match=rf"shape \({shape[0]}, "):
            solver(np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape))


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


def _airport_one_sort(coords, order):
    """games._airport_values as it was before the 1-D solvers ran in reused
    buffers: a fresh array for every step."""
    x = np.asarray(coords, dtype=float)
    n = x.size
    xs = x[order]
    gaps = np.diff(np.concatenate(([0.0], xs)))
    phi_sorted = np.cumsum(gaps / (n - np.arange(n)))
    out = np.empty(n)
    out[order] = phi_sorted
    return out


def _reference_values(solver, pts, airport):
    """The values of a _ONE_D_SOLVERS entry by the formulas the 1-D solvers
    had before they ran in reused buffers, on ``airport(coords, order)``."""

    def interval(coords):
        x = np.asarray(coords, dtype=float).reshape(-1)
        n = x.size
        alpha = float(x.min())
        beta = float(x.max())
        order = np.argsort(x)
        v1 = airport(x - alpha, order)
        v2 = airport(beta - x, order[::-1])
        return v1 + v2 + (alpha - beta) / n

    def clamped(x):
        o = np.argsort(x)
        return airport(np.maximum(x, 0.0), o) + airport(np.maximum(-x, 0.0), o[::-1])

    x, y = pts[:, 0], pts[:, 1]
    if solver.startswith("airport"):
        a = (np.round(np.abs(x)) if solver == "airport-ties" else np.abs(x)) + 1.0
        return airport(a, np.argsort(a))
    if solver == "interval-length":
        return interval(x)
    if solver == "area-band":
        return float(y.max() - y.min()) * interval(x)
    if solver == "bbox-perimeter":
        return 2.0 * interval(x) + 2.0 * interval(y)
    return 2.0 * clamped(x) + 2.0 * clamped(y)


def _bbox_reference(pts, airport):
    """axis.shapley_bbox's values with its band terms from
    ``airport(coords, order)``, each coordinate argsorted once, in
    shapley_bbox's order of operations."""
    n = pts.shape[0]
    if n == 1:
        return np.zeros(1)
    x, y = pts[:, 0], pts[:, 1]
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(y.min()), float(y.max())
    W = xhi - xlo
    H = yhi - ylo
    values = np.full(n, W * H / n)
    for cx, sx in ((xlo, 1.0), (xhi, -1.0)):
        for cy, sy in ((ylo, 1.0), (yhi, -1.0)):
            sub = np.column_stack([sx * (x - cx), sy * (y - cy)])
            values += axis._solve_grid(sub, axis._abb_fast)
    ox = np.argsort(x)
    oy = np.argsort(y)
    values -= H * airport(xhi - x, ox[::-1])
    values -= H * airport(x - xlo, ox)
    values -= W * airport(yhi - y, oy[::-1])
    values -= W * airport(y - ylo, oy)
    return values


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
    def test_equal_to_two_sort_formula(self, solver, name, pts):
        got = _ONE_D_SOLVERS[solver](pts)
        assert np.array_equal(got.values, _reference_values(solver, pts, _airport_two_sort))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 255, 257, 4097])
    def test_bbox_band_terms(self, n):
        pts = np.random.default_rng(n).uniform(-50.0, 50.0, (n, 2))
        got = axis.shapley_bbox(pts)
        assert np.array_equal(got.values, _bbox_reference(pts, _airport_two_sort))


def _buffer_inputs():
    """_one_d_inputs, and sets whose size crosses the blocks of the
    in-place airport recurrence."""
    rng = np.random.default_rng(1414)
    cases = _one_d_inputs()
    for n in (games._GAP_BLOCK - 1, games._GAP_BLOCK, games._GAP_BLOCK + 1, 2 * games._GAP_BLOCK + 1):
        cases.append((f"uniform-{n}", rng.uniform(-50.0, 50.0, (n, 2))))
        cases.append((f"ties-{n}", rng.integers(-3, 4, (n, 2)) * np.where(rng.integers(0, 2, (n, 2)), -1.0, 1.0)))
    return cases


class TestReusedBuffers:
    """The 1-D solvers run in a few reused buffers; their values keep the
    bits of the formulas that made a fresh array for every step."""

    @pytest.mark.parametrize("solver", list(_ONE_D_SOLVERS))
    @pytest.mark.parametrize("name,pts", _buffer_inputs(), ids=[c[0] for c in _buffer_inputs()])
    def test_bit_identical(self, solver, name, pts):
        got = _ONE_D_SOLVERS[solver](pts).values
        assert _same_bits(got, _reference_values(solver, pts, _airport_one_sort))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 255, 257, 4097, games._GAP_BLOCK + 1])
    def test_bbox_band_terms(self, n):
        pts = np.random.default_rng(n).uniform(-50.0, 50.0, (n, 2))
        got = axis.shapley_bbox(pts).values
        assert _same_bits(got, _bbox_reference(pts, _airport_one_sort))


# (solver, its argument from a (2^16, 2) point set, peak bound): the peak
# traced allocation of a call, in n-length float arrays.  The solvers read
# 3.50 (values, the sort order, one buffer and the recurrence's blocks)
# and 4.50 for the perimeters (one more buffer); each bound is 0.25 above.
_MEMORY_CASES = [
    ("airport", shapley_airport, lambda p: np.abs(p[:, 0]) + 1.0, 3.75),
    ("interval-length", shapley_interval_length, lambda p: p[:, 0].copy(), 3.75),
    ("area-band", shapley_area_band, lambda p: p, 3.75),
    ("bbox-perimeter", shapley_bbox_perimeter, lambda p: p, 4.75),
    ("anchored-bbox-perimeter", shapley_anchored_bbox_perimeter, lambda p: p, 4.75),
]


@pytest.mark.parametrize("solver,arg,peak_bound", [c[1:] for c in _MEMORY_CASES], ids=[c[0] for c in _MEMORY_CASES])
def test_one_d_memory(solver, arg, peak_bound):
    """A 1-D solver's traced peak stays within its bound, and after the
    call only the values array (1.00) is still held, within 0.25."""
    n = 1 << 16
    x = arg(np.random.default_rng(16).uniform(-50.0, 50.0, (n, 2)))
    solver(x)  # any first-call set-up is not the solver's to count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sv = solver(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sv.values.size == n
    assert (peak - base) / (8 * n) <= peak_bound
    assert (held - base) / (8 * n) <= 1.25
