import numpy as np
import pytest

from geoshapley import axis
from geoshapley.axis import (
    GridArrangement,
    shapley_anchored_bbox,
    shapley_anchored_bbox_quadratic,
    shapley_anchored_rects,
    shapley_anchored_rects_quadratic,
    shapley_bbox,
    shapley_bbox_quadratic,
)
from geoshapley.errors import ConsistencyError, DomainError
from geoshapley.games import shapley_airport
from geoshapley.oracle import shapley_by_permutations, shapley_by_subsets

from conftest import assert_close, random_points
from rational_series import RationalStepSeries, direct_batched_eval, direct_rational_eval


def ne_table(grid):
    """Brute-force ne counts for all cells (1-based)."""
    n = grid.n
    t = np.zeros((n + 1, n + 1), dtype=int)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t[i, j] = np.sum(grid.Y[i:] >= j)
    return t


def ranks(grid):
    """The x and y rank (1-based) of every input point, by input index."""
    x_rank = np.empty(grid.n, dtype=np.int64)
    x_rank[grid.order] = np.arange(1, grid.n + 1)
    return x_rank, grid.Y[x_rank]


def make_chain(rng, n, inc=True, low=0.1, high=10.0):
    x = np.sort(rng.uniform(low, high, n))
    y = np.sort(rng.uniform(low, high, n))
    if not inc:
        y = y[::-1]
    return np.column_stack([x, y])


def tie_heavy_sets(rng):
    """Sets of n <= 12 with shared coordinates and points on the axes:
    integer grids in one quadrant and around the origin, tied chains of
    both orientations, repeated points, rounded x, and coordinates set to
    0 with the origin among them."""
    sets = []
    for n in (4, 8, 12):
        sets += [rng.integers(lo, 4, (n, 2)).astype(float) for lo in (0, -3)]
        x, y = (np.sort(rng.integers(1, 4, n)).astype(float) for _ in "xy")
        sets += [np.column_stack([x, y]), np.column_stack([x, y[::-1]])]
        sets.append(rng.uniform(-5.0, 5.0, (n // 2, 2))[rng.integers(0, n // 2, n)])
        p = rng.uniform(-5.0, 5.0, (n, 2))
        p[:, 0] = np.round(p[:, 0])
        sets.append(p)
        p = rng.uniform(-5.0, 5.0, (n, 2))
        p[rng.uniform(size=(n, 2)) < 0.3] = 0.0
        p[0] = 0.0
        sets.append(p)
    return sets


def band_engine(game):
    """The anchored game's solver with the band engine on every grid,
    chains included."""
    engine = axis._ar_general if game == "anchored-rects" else axis._abb_general
    return lambda pts: axis._anchored(game, pts, engine)


# Each solver of the rank-space games, by game and by the engine it runs
# on its grids: "fast" detects chains, "general" is the band engine alone.
ENGINES = {
    "anchored-rects": {
        "fast": shapley_anchored_rects,
        "general": band_engine("anchored-rects"),
        "quadratic": shapley_anchored_rects_quadratic,
    },
    "anchored-bbox": {
        "fast": shapley_anchored_bbox,
        "general": band_engine("anchored-bbox-area"),
        "quadratic": shapley_anchored_bbox_quadratic,
    },
    "bbox": {"fast": shapley_bbox, "quadratic": shapley_bbox_quadratic},
}


class TestGridArrangement:
    def test_ranks_and_widths(self):
        g = GridArrangement([(2, 1), (1, 3)])
        assert list(g.Y) == [0, 2, 1]
        assert_close(g.w[1:], [1, 1])
        assert_close(g.h[1:], [1, 2])

    def test_ties_take_consecutive_ranks(self):
        g = GridArrangement([(1, 1), (2, 1), (1, 3)])
        x_rank, y_rank = ranks(g)
        assert list(x_rank) == [1, 3, 2] and list(y_rank) == [1, 2, 3]
        assert g.w[2] == 0 and g.w[3] == 1
        assert g.h[2] == 0 and g.h[3] == 2

    def test_axis_points_take_lowest_ranks(self):
        g = GridArrangement([(0, 1), (0, 2), (1, 3)])
        assert list(ranks(g)[0]) == [1, 2, 3]
        assert g.w[1] == g.w[2] == 0 and g.w[3] == 1
        g = GridArrangement([(3, 0), (1, 2), (2, 0)])
        assert list(ranks(g)[1]) == [1, 3, 2]
        assert g.h[1] == g.h[2] == 0 and g.h[3] == 2

    def test_negative_coordinate_rejected(self):
        with pytest.raises(DomainError):
            GridArrangement([(-1.0, 2.0)])

    def test_decreasing_chain_closed_form(self, rng):
        n = 12
        g = GridArrangement(make_chain(rng, n, inc=False))
        tbl = ne_table(g)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expect = n + 2 - i - j if i + j <= n + 1 else 0
                assert tbl[i, j] == expect


class TestAnchoredRects:
    def test_single_point(self):
        assert_close(shapley_anchored_rects([(1, 1)]).values, [1.0])

    def test_increasing_pair_golden(self):
        sv = shapley_anchored_rects([(1, 1), (2, 2)])
        assert_close(sv.values, [0.5, 3.5])

    def test_decreasing_pair_golden(self):
        sv = shapley_anchored_rects([(1, 2), (2, 1)])
        assert_close(sv.values, [1.5, 1.5])
        assert_close(sv.game_total, 3.0)

    def test_axis_point_is_null(self):
        # the rectangle of a point on an axis is empty
        sv = shapley_anchored_rects([(0, 1), (1, 1), (2, 0), (0, 0)])
        assert_close(sv.values, [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("method", ["fast", "general", "quadratic"])
    def test_matches_oracle(self, rng, method):
        for n in (2, 3, 5, 7, 8):
            pts = random_points(rng, n)
            o = shapley_by_permutations("anchored-rects", pts)
            sv = ENGINES["anchored-rects"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)
        for pts in tie_heavy_sets(rng):
            o = shapley_by_subsets("anchored-rects", pts)
            sv = ENGINES["anchored-rects"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)

    def test_mixed_quadrants_match_oracle(self, rng):
        for n in (3, 5, 7):
            pts = rng.uniform(-5, 5, (n, 2))
            o = shapley_by_permutations("anchored-rects", pts)
            sv = shapley_anchored_rects(pts)
            assert_close(sv.values, o.values, rel=1e-9)

    def test_fast_equals_quadratic_large(self, rng):
        pts = random_points(rng, 700)
        f = shapley_anchored_rects(pts)
        q = shapley_anchored_rects_quadratic(pts)
        assert_close(f.values, q.values, rel=1e-10, abs_floor=1e-13)

    def test_chain_solvers_match_general_and_quadratic(self, rng):
        for inc in (True, False):
            ch = make_chain(rng, 500, inc)
            c = shapley_anchored_rects(ch)
            g = ENGINES["anchored-rects"]["general"](ch)
            q = shapley_anchored_rects_quadratic(ch)
            assert_close(c.values, q.values, rel=1e-9)
            assert_close(g.values, q.values, rel=1e-9)

    def test_increasing_chain_is_airport_on_areas(self, rng):
        # the anchored rectangles of an increasing chain nest, so the game
        # is the airport game on the areas x * y, bit for bit
        for n in (1, 2, 7, 500, 20_000):
            ch = make_chain(rng, n)
            got = shapley_anchored_rects(ch).values
            assert np.array_equal(got, shapley_airport(ch[:, 0] * ch[:, 1]).values)

    def test_direct_series_mode_matches(self, rng, monkeypatch):
        pts = random_points(rng, 300)
        a = shapley_anchored_rects(pts)
        monkeypatch.setattr(axis, "_batched_consecutive_eval", direct_batched_eval)
        b = shapley_anchored_rects(pts)
        assert_close(a.values, b.values, rel=1e-10)

    def test_per_cell_identity(self, rng):
        # summing area/ne over the cells inside R_p reproduces the output
        pts = random_points(rng, 12)
        g = GridArrangement(pts)
        tbl = ne_table(g)
        sv = shapley_anchored_rects(pts)
        x_rank, y_rank = ranks(g)
        for k in range(12):
            i_p = x_rank[k]
            j_p = y_rank[k]
            expect = sum(
                g.w[i] * g.h[j] / tbl[i, j]
                for i in range(1, i_p + 1)
                for j in range(1, j_p + 1)
            )
            assert_close(sv.values[k], expect, rel=1e-10)

    def test_efficiency_large(self, rng):
        pts = random_points(rng, 3000)
        sv = shapley_anchored_rects(pts)
        assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total


class TestAnchoredBBox:
    def test_single_point(self):
        assert_close(shapley_anchored_bbox([(2, 3)]).values, [6.0])

    def test_pair_golden_from_oracle(self):
        pts = [(1, 2), (2, 1)]
        o = shapley_by_permutations("anchored-bbox-area", pts)
        sv = shapley_anchored_bbox(pts)
        assert_close(sv.values, o.values, rel=1e-12)
        assert_close(sv.game_total, 4.0)

    @pytest.mark.parametrize("method", ["fast", "general", "quadratic"])
    def test_matches_oracle(self, rng, method):
        for n in (2, 3, 5, 7, 8):
            pts = random_points(rng, n)
            o = shapley_by_permutations("anchored-bbox-area", pts)
            sv = ENGINES["anchored-bbox"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)
        for pts in tie_heavy_sets(rng):
            o = shapley_by_subsets("anchored-bbox-area", pts)
            sv = ENGINES["anchored-bbox"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)

    def test_mixed_quadrants_match_oracle(self, rng):
        for n in (2, 4, 6, 8):
            pts = rng.uniform(-5, 5, (n, 2))
            o = shapley_by_permutations("anchored-bbox-area", pts)
            sv = shapley_anchored_bbox(pts)
            assert_close(sv.values, o.values, rel=1e-9)

    def test_fast_equals_quadratic_large(self, rng):
        pts = random_points(rng, 700)
        f = shapley_anchored_bbox(pts)
        q = shapley_anchored_bbox_quadratic(pts)
        assert_close(f.values, q.values, rel=1e-9, abs_floor=1e-13)

    def test_chain_solvers_match_quadratic(self, rng):
        for inc in (True, False):
            ch = make_chain(rng, 400, inc)
            c = shapley_anchored_bbox(ch)
            g = ENGINES["anchored-bbox"]["general"](ch)
            q = shapley_anchored_bbox_quadratic(ch)
            assert_close(c.values, q.values, rel=1e-9)
            assert_close(g.values, q.values, rel=1e-9)

    def test_efficiency_large(self, rng):
        pts = random_points(rng, 3000)
        sv = shapley_anchored_bbox(pts)
        assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total


class TestBBox:
    def test_single_point(self):
        sv = shapley_bbox([(2, 3)])
        assert sv.values.tolist() == [0.0]
        assert sv.game_total == 0.0

    def test_two_point_symmetry(self):
        sv = shapley_bbox([(0, 0), (1, 1)])
        assert_close(sv.values, [0.5, 0.5])

    def test_three_points_match_oracle(self):
        pts = [(0, 0), (2, 1), (1, 2)]
        o = shapley_by_permutations("bbox-area", pts)
        sv = shapley_bbox(pts)
        assert_close(sv.values, o.values, rel=1e-9)

    @pytest.mark.parametrize("method", ["fast", "quadratic"])
    def test_matches_oracle_random(self, rng, method):
        for n in (2, 3, 4, 5, 6, 7, 8):
            pts = rng.uniform(-5, 5, (n, 2))
            o = shapley_by_permutations("bbox-area", pts)
            sv = ENGINES["bbox"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)
        for pts in tie_heavy_sets(rng):
            o = shapley_by_subsets("bbox-area", pts)
            sv = ENGINES["bbox"][method](pts)
            assert_close(sv.values, o.values, rel=1e-9)

    def test_tie_matches_oracle(self):
        pts = [(2, 1), (3, 4), (5, 1)]
        assert_close(shapley_bbox(pts).values, [1.5, 4.5, 3.0])
        assert_close(shapley_by_permutations("bbox-area", pts).values, [1.5, 4.5, 3.0])

    def test_chain_routing_matches_quadratic(self, rng):
        ch = make_chain(rng, 300, inc=False) * np.array([1.0, -1.0])
        f = shapley_bbox(ch)
        q = shapley_bbox_quadratic(ch)
        assert_close(f.values, q.values, rel=1e-9, abs_floor=1e-12)

    def test_efficiency_large(self, rng):
        pts = rng.uniform(-40, 40, (3000, 2))
        sv = shapley_bbox(pts)
        assert abs(sv.efficiency_residual) <= 1e-9 * sv.game_total

    def test_values_nonnegative(self, rng):
        for n in (2, 5, 9, 30):
            pts = rng.uniform(-5, 5, (n, 2))
            sv = shapley_bbox(pts)
            assert np.all(sv.values >= -1e-12)


class TestGeneralPosition:
    """The rank-space games need no general position."""

    def test_shared_x_coordinate(self):
        pts = [(1, 2), (1, 3), (2, 5)]
        for game, solvers in zip(("anchored-rects", "anchored-bbox-area", "bbox-area"),
                                 ENGINES.values()):
            o = shapley_by_permutations(game, pts)
            for method in ("fast", "quadratic"):
                assert_close(solvers[method](pts).values, o.values, rel=1e-9)

    @pytest.mark.parametrize("solver", [shapley_anchored_rects, shapley_anchored_bbox, shapley_bbox])
    def test_repeated_points_get_equal_values(self, rng, solver):
        base = rng.uniform(-5.0, 5.0, (30, 2))
        pts = base[rng.integers(0, 30, 300)]
        values = solver(pts).values
        _, first, group = np.unique(pts, axis=0, return_index=True, return_inverse=True)
        tol = 1e-12 * np.max(np.abs(values))
        assert_close(values, values[first[group.ravel()]], rel=0.0, abs_floor=tol)


class TestMetamorphic:
    """Exact effects of reflections, the x-y swap, scaling, translation
    (bbox only) and reordering the players, each to 1e-9 of max |value|.
    The reflections and the swap put every sign region at every position
    of the region loop."""

    @pytest.mark.parametrize("method", ["fast", "quadratic"])
    @pytest.mark.parametrize("shape", ["plane-9", "plane-200", "chain", "grid-40"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("game", list(ENGINES))
    def test_transforms(self, game, seed, shape, method):
        rng = np.random.default_rng(seed)
        if shape == "chain":
            pts = make_chain(rng, 200, inc=seed % 2 == 0)
        elif shape == "grid-40":
            pts = rng.integers(-5, 6, (40, 2)).astype(float)
        else:
            pts = rng.uniform(-5.0, 5.0, (int(shape[6:]), 2))

        def values(p):
            return ENGINES[game][method](p).values

        base = values(pts)
        tol = 1e-9 * np.max(np.abs(base))
        for same in (pts * [-1.0, 1.0], pts * [1.0, -1.0], pts[:, ::-1]):
            assert_close(values(same), base, rel=0.0, abs_floor=tol)
        for f in (1e6, 1e-6):
            assert_close(values(pts * f), base * f**2, rel=0.0, abs_floor=tol * f**2)
        if game == "bbox":
            assert_close(values(pts + [31.5, -17.25]), base, rel=0.0, abs_floor=tol)
        perm = rng.permutation(len(pts))
        assert_close(values(pts[perm]), base[perm], rel=0.0, abs_floor=tol)


def random_tasks(rng, shapes):
    """Evaluator arguments for tasks of the given (n_t, m) shapes.  Every
    task has entries at offsets 0 and n_t, so both ends of its series
    reach the result, plus random repeated offsets in between."""
    task, offset = [], []
    for t, (n_t, _) in enumerate(shapes):
        off = np.concatenate([[0, n_t], rng.integers(0, n_t + 1, int(rng.integers(0, 2 * n_t + 3)))])
        task.append(np.full(off.size, t))
        offset.append(off)
    task = np.concatenate(task)
    offset = np.concatenate(offset)
    n_t = np.array([s[0] for s in shapes], dtype=np.int64)
    m = np.array([s[1] for s in shapes], dtype=np.int64)
    l0 = m + 1 + rng.integers(0, 40, len(shapes))  # l0 + dmin >= 1
    return task, offset, rng.uniform(0.1, 2.0, task.size), n_t, l0, -m


def evaluator_shapes():
    shapes = [(0, 0), (0, 6), (6, 0), (9, 2), (40, 3), (3, 40), (1, 1)]
    # m + n_t + 1 at 2^k - 1, 2^k and 2^k + 1, split three ways: a cyclic
    # convolution one element short of m + n_t + 1 aliases the last read
    for k in range(3, 11):
        for total in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            mn = total - 1
            shapes += [(mn, 0), (0, mn), (mn // 3, mn - mn // 3)]
    return shapes


class TestBatchedEvaluator:
    # direct=True checks the direct evaluator that other tests substitute
    # for the FFT one.
    @pytest.mark.parametrize("direct", [False, True])
    def test_matches_direct_sums(self, rng, direct):
        evaluate = direct_batched_eval if direct else axis._batched_consecutive_eval
        shapes = evaluator_shapes()
        task, offset, weight, n_t, l0, dmin = random_tasks(rng, shapes)
        order = rng.permutation(len(shapes))  # tasks of one size need not be adjacent
        remap = np.empty_like(order)
        remap[order] = np.arange(order.size)
        vals, slot = evaluate(remap[task], offset, weight, n_t[order], l0[order], dmin[order])
        for t in range(len(shapes)):
            G = np.bincount(offset[task == t], weights=weight[task == t], minlength=n_t[t] + 1)
            x = np.arange(dmin[t], 1)
            expect = direct_rational_eval(RationalStepSeries(G, float(l0[t])), x)
            got = vals[slot[remap[t]] + n_t[t] - x]
            assert_close(got, expect, rel=1e-12, abs_floor=0.0)

    def test_nonpositive_denominator_rejected(self, rng):
        task, offset, weight, n_t, l0, dmin = random_tasks(rng, [(3, 4), (2, 5)])
        l0[1] = 5  # l0 + dmin = 0
        for evaluate in (axis._batched_consecutive_eval, direct_batched_eval):
            with pytest.raises(ConsistencyError):
                evaluate(task, offset, weight, n_t, l0, dmin)


def chain_sizes():
    return list(range(1, 71)) + [(1 << k) + d for k in range(6, 11) for d in (-1, 0, 1)]


class TestChainBoundaries:
    """The chain engines at every small n and around powers of two, where
    the dyadic levels gain a block cut short below row 1."""

    @pytest.mark.parametrize("game", ["anchored-rects", "anchored-bbox"])
    def test_decreasing_chains_match_quadratic(self, monkeypatch, game):
        rng = np.random.default_rng(6)
        fast, quadratic = ENGINES[game]["fast"], ENGINES[game]["quadratic"]
        for n in chain_sizes():
            ch = make_chain(rng, n, inc=False)
            q = quadratic(ch).values
            assert_close(fast(ch).values, q, rel=1e-9, abs_floor=1e-13)
            with monkeypatch.context() as m:
                m.setattr(axis, "_batched_consecutive_eval", direct_batched_eval)
                assert_close(fast(ch).values, q, rel=1e-9, abs_floor=1e-13)

    @pytest.mark.parametrize("inc", [True, False], ids=["increasing", "decreasing"])
    @pytest.mark.parametrize("game", ["anchored-rects", "anchored-bbox"])
    def test_wide_range_chains_match_quadratic(self, game, inc):
        # Three profiles, in each of which the head sums of the chain
        # engines are orders of magnitude below the tail, so a running sum
        # that cancels loses the head:
        # - coordinates from 1e-6 to 1e6 in geometric steps of about 1.4%,
        #   each moved by a relative jitter of at most 1e-4;
        # - widths shrinking from 1e6 to 1e-6 while heights grow from 1e-6
        #   to 1e6;
        # - uniform widths while heights grow from 1e-6 to 1e6.
        rng = np.random.default_rng(12)
        n = 2048
        jittered = (np.geomspace(1e-6, 1e6, n) * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0, n)) for _ in "xy")
        growing = np.cumsum(np.geomspace(1e-6, 1e6, n))
        profiles = [
            tuple(jittered),
            (np.cumsum(np.geomspace(1e6, 1e-6, n)), growing),
            (np.arange(1.0, n + 1.0), growing),
        ]
        fast, quadratic = ENGINES[game]["fast"], ENGINES[game]["quadratic"]
        for x, y in profiles:
            ch = np.column_stack([x, y if inc else y[::-1]])
            assert_close(fast(ch).values, quadratic(ch).values, rel=1e-9, abs_floor=0.0)


def band_staircase(rng, n):
    """Points whose every horizontal band (the engine's bands of y ranks)
    lies right of all points above it, so each band's first block spans
    the columns of every higher band: one long horizontal series beside
    blocks of a column or two."""
    kb = axis._band_rows(n)[0][1]
    key = rng.uniform(0.0, 1.0, n) - np.arange(n) // kb  # by y rank
    x = np.sort(rng.uniform(0.1, 10.0, n))[np.argsort(np.argsort(key))]
    return np.column_stack([x, np.sort(rng.uniform(0.1, 10.0, n))])


# Budget 1 puts one band in each pool, 20000 a few.  The staircase runs
# with both the FFT evaluator and the direct one from the tests.
POOL_CASES = [
    pytest.param(game, budget, "uniform", False, id=f"{game}-{budget}")
    for game in ("anchored-rects", "anchored-bbox")
    for budget in (1, 20000)
] + [
    pytest.param(game, 1, "staircase", direct, id=f"{game}-staircase-{mode}")
    for game in ("anchored-rects", "anchored-bbox")
    for direct, mode in ((False, "fft"), (True, "direct"))
]


class TestBandPools:
    @pytest.mark.parametrize("game, budget, shape, direct", POOL_CASES)
    def test_pool_budget_does_not_change_values(self, rng, monkeypatch, game, budget, shape, direct):
        general, quadratic = ENGINES[game]["general"], ENGINES[game]["quadratic"]
        pts = random_points(rng, 700) if shape == "uniform" else band_staircase(rng, 700)
        if direct:
            monkeypatch.setattr(axis, "_batched_consecutive_eval", direct_batched_eval)
        pooled = general(pts).values
        monkeypatch.setattr(axis, "_POOL", budget)
        small = general(pts).values
        assert_close(small, pooled, rel=1e-12, abs_floor=0.0)
        q = quadratic(pts).values
        assert_close(pooled, q, rel=1e-9, abs_floor=1e-13)
        assert_close(small, q, rel=1e-9, abs_floor=1e-13)
