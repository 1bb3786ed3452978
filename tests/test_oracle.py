import itertools
import math
import tracemalloc

import numpy as np
import pytest

from geoshapley import oracle
from geoshapley.errors import DomainError, SizeLimitError
from geoshapley.games import GAME_KINDS, GAMES, eval_characteristic
from geoshapley.oracle import (
    coalition_table,
    shapley_by_permutations,
    shapley_by_subsets,
)

from conftest import assert_close, random_plane_points, random_points
from subset_loop import subset_loop_table


class TestPermutationOracle:
    def test_triangle_hull_area(self):
        sv = shapley_by_permutations("hull-area", [(0, 0), (1, 0), (0, 1)])
        assert_close(sv.values, [1 / 6, 1 / 6, 1 / 6])

    def test_disk_area_symmetry(self):
        sv = shapley_by_permutations("disk-area", [(-1, 0), (1, 0)])
        assert_close(sv.values, [math.pi / 2, math.pi / 2])

    def test_single_point(self):
        for game in GAME_KINDS:
            pts = [(2.0, 3.0)]
            sv = shapley_by_permutations(game, pts)
            from geoshapley.games import eval_characteristic

            assert_close(sv.values, [eval_characteristic(game, pts)])

    def test_size_guard(self):
        pts = np.column_stack([np.arange(1.0, 12.0), np.arange(1.0, 12.0) ** 2])
        with pytest.raises(SizeLimitError):
            shapley_by_permutations("bbox-area", pts)


class TestSubsetOracle:
    def test_square_plus_center_hull_area(self):
        # The center is not a null player: two adjacent corners plus the
        # center span a positive-area triangle, so it earns 4 * (2!2!/5!) / 4
        # = 1/30; the corners split the rest symmetrically.
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        sv = shapley_by_subsets("hull-area", pts)
        assert_close(sv.values, [29 / 120] * 4 + [1 / 30])
        assert_close(sv.game_total, 1.0)

    def test_increasing_chain_anchored_rects(self):
        sv = shapley_by_subsets("anchored-rects", [(1, 1), (2, 2)])
        assert_close(sv.values, [0.5, 3.5])

    def test_size_guard(self):
        pts = np.column_stack([np.arange(23.0), np.arange(23.0) ** 1.5])
        with pytest.raises(SizeLimitError):
            shapley_by_subsets("bbox-area", pts)

    @pytest.mark.parametrize("block", [256, 4096])
    def test_subset_block_size_does_not_change_bits(self, rng, monkeypatch, block):
        """Block sums added pairwise give np.sum over all masks at once."""
        pts = random_plane_points(rng, 14)
        table = coalition_table("hull-area", pts)
        want = shapley_by_subsets("hull-area", pts, table=table).values
        monkeypatch.setattr(oracle, "_SUBSET_BLOCK", block)
        assert np.array_equal(shapley_by_subsets("hull-area", pts, table=table).values, want)


class TestCrossOracle:
    def test_weight_identity(self):
        # sum over subsets of the permutation weights is 1 for each n
        for n in range(1, 23):
            w = np.empty(n)
            w[0] = 1.0 / n
            for s in range(1, n):
                w[s] = w[s - 1] * s / (n - s)
            counts = [math.comb(n - 1, s) for s in range(n)]
            assert_close(float(np.dot(counts, w)), 1.0, rel=1e-12)

    def test_agreement_all_games(self, rng):
        for game in GAME_KINDS:
            for n in (2, 3, 5, 7):
                if game == "airport":
                    pts = random_points(rng, n)
                else:
                    pts = random_plane_points(rng, n)
                table = coalition_table(game, pts)
                a = shapley_by_permutations(game, pts, table=table)
                b = shapley_by_subsets(game, pts, table=table)
                assert_close(a.values, b.values, rel=1e-12)

    def test_efficiency_and_nonnegativity(self, rng):
        for game in GAME_KINDS:
            pts = random_points(rng, 6)
            sv = shapley_by_subsets(game, pts)
            assert_close(sv.efficiency_residual, 0.0, abs_floor=1e-10)
            assert np.all(sv.values >= -1e-12), game

    def test_null_players_get_zero(self):
        # Collinear hull-area instance: every coalition has zero area, so
        # every insertion is a null move.
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        sv = shapley_by_permutations("hull-area", pts)
        assert_close(sv.values, [0.0, 0.0, 0.0], abs_floor=1e-12)

    def test_symmetric_players_get_equal_values(self):
        # Mirror-symmetric instance: the two outer disk players are
        # exchangeable in every coalition.
        pts = [(-2.0, 0.0), (2.0, 0.0), (0.0, 1.0)]
        for game in ("disk-area", "bbox-perimeter", "hull-perimeter"):
            sv = shapley_by_subsets(game, pts)
            assert abs(sv.values[0] - sv.values[1]) <= 1e-12


def _itertools_chunks(n):
    """itertools.permutations(range(n)) cut into arrays of m! rows, m =
    min(n, 8): one per head of n - m players, the block the permutation
    oracle sums each position over."""
    rows = math.factorial(min(n, oracle._TAIL))
    perms = itertools.permutations(range(n))
    while True:
        chunk = np.array(list(itertools.islice(perms, rows)), dtype=np.int64)
        if chunk.size == 0:
            return
        yield chunk


def _step_table_chunks(n):
    """The orders the permutation oracle reads from the step table, head by
    head: the head, then the players left in the order of the table of
    m = min(n, 8) players."""
    m = min(n, oracle._TAIL)
    players, _ = oracle._steps(m)
    tail = players.T.astype(np.int64)
    for head in itertools.permutations(range(n), n - m):
        rest = np.array(sorted(set(range(n)).difference(head)), dtype=np.int64)
        block = np.empty((tail.shape[0], n), dtype=np.int64)
        block[:, : n - m] = head
        block[:, n - m :] = rest[tail]
        yield block


def _shapley_by_permutations_itertools(table, n):
    """The marginal-contribution loop over itertools chunks."""
    phi = np.zeros(n)
    total = 0
    for chunk in _itertools_chunks(n):
        total += chunk.shape[0]
        mask = np.zeros(chunk.shape[0], dtype=np.int64)
        for k in range(n):
            pid = chunk[:, k]
            new_mask = mask | (np.int64(1) << pid)
            delta = table[new_mask] - table[mask]
            phi += np.bincount(pid, weights=delta, minlength=n)
            mask = new_mask
    return phi / total


class TestOrderChunks:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_same_rows_order_and_boundaries(self, n):
        """The step table, head by head, gives the rows of itertools in its
        order, one head per chunk."""
        count = 0
        for got, want in itertools.zip_longest(_step_table_chunks(n), _itertools_chunks(n)):
            assert got.shape == want.shape and np.array_equal(got, want)
            count += got.shape[0]
        assert count == math.factorial(n)

    def test_step_masks_follow_players(self):
        for m in range(1, oracle._TAIL + 1):
            players, masks = oracle._steps(m)
            assert players.dtype == masks.dtype == np.uint8
            assert players.shape == (m, math.factorial(m))
            assert masks.shape == (m + 1, math.factorial(m))
            assert not masks[0].any() and np.all(masks[-1] == (1 << m) - 1)
            for k in range(m):
                assert np.array_equal(masks[k + 1], masks[k] | (np.uint8(1) << players[k]))

    def test_lex_orders_read_only(self):
        for m in range(1, oracle._TAIL + 1):
            players, masks = oracle._steps(m)
            assert np.array_equal(players.T, list(itertools.permutations(range(m))))
            for steps in (players, masks):
                with pytest.raises(ValueError):
                    steps[0, 0] = 1

    @pytest.mark.parametrize(
        "n, game",
        [(n, game) for n in range(3, 10) for game in ("bbox-area", "disk-area", "hull-area")]
        + [(10, "bbox-area")],
    )
    def test_bit_identical_to_itertools_loop(self, rng, game, n):
        pts = random_plane_points(rng, n)
        table = coalition_table(game, pts)
        want = _shapley_by_permutations_itertools(table, n)
        assert np.array_equal(shapley_by_permutations(game, pts, table=table).values, want)
        assert np.array_equal(shapley_by_permutations(game, pts).values, want)


class TestOracleMemory:
    """Neither oracle holds an array over all orders or all masks."""

    def _peak(self, fn, *args, **kwargs):
        fn(*args, **kwargs)  # builds the cached step table outside the trace
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_permutations_at_10(self, rng):
        pts = random_plane_points(rng, 10)
        table = coalition_table("hull-area", pts)
        assert self._peak(shapley_by_permutations, "hull-area", pts, table=table) < 8e6

    def test_subsets_at_20(self, rng):
        pts = random_plane_points(rng, 20)
        table = coalition_table("bbox-area", pts)
        assert self._peak(shapley_by_subsets, "bbox-area", pts, table=table) < 8e6


# Games whose batched table applies the game table's extent formula to the
# exact per-coordinate extents, as eval_characteristic does per subset; the
# others sum or compare in another order.
_BIT_IDENTICAL = tuple(g for g in GAME_KINDS if GAMES[g].extent is not None)

# Every prefix of each set is checked, so each also covers its smaller sizes.
_DEGENERATE = {
    "collinear-triples": [(0, 0), (1, 1), (2, 2), (3, -1), (-1, 2), (0.5, 3), (1.5, 3)],
    "collinear-all": [(0, 1), (1, 3), (2, 5), (-1, -1), (3, 7), (0.5, 2), (-0.5, 0)],
    "horizontal-line": [(0, 0), (1, 0), (2, 0), (3, 0), (-1, 0), (0.25, 0)],
    "duplicates": [(1, 2), (1, 2), (3, 4), (0, 0), (3, 4), (-2, 1), (1, 2), (2, 3)],
    "all-coincident": [(1, 1), (1, 1), (1, 1), (1, 1)],
    "shared-x-or-y": [(1, 2), (1, 5), (3, 2), (4, 4), (-2, 5), (4, -1), (1, -1)],
    "on-the-axes": [(0, 2), (3, 0), (-1, 0), (0, -4), (2, 3), (-2, -1), (0, 0), (-3, 2)],
    "cocircular": [(3, 4), (4, 3), (-3, -4), (0, 5), (5, 0), (1, 1), (-4, 3), (-5, 0)],
    "right-triangle": [(0, 0), (4, 0), (0, 3), (1, 1), (2, 1.5), (0.5, 2)],
    "square-grid": [(x, y) for x in range(3) for y in range(3)],
    "positive-ties": [(1, 1), (2, 3), (2, 3), (4, 1), (1, 5), (3, 3), (2, 0.5), (4, 4)],
    "airport-zero-x": [(2, 1), (3, 2), (0, 1), (1, 4)],
}


def _assert_matches_loop(game, pts):
    want = subset_loop_table(game, pts)
    got = coalition_table(game, pts)
    if game in _BIT_IDENTICAL:
        assert np.array_equal(got, want), (game, pts)
    else:
        tol = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol, (game, pts)


class TestBatchedTable:
    @pytest.mark.parametrize("game", GAME_KINDS)
    def test_random_sets(self, rng, game):
        for n in range(1, 11):
            if game == "airport":
                pts = random_points(rng, n)
            else:
                pts = random_plane_points(rng, n)
            _assert_matches_loop(game, pts)

    @pytest.mark.parametrize("name", sorted(_DEGENERATE))
    @pytest.mark.parametrize("game", GAME_KINDS)
    def test_degenerate_sets(self, game, name):
        pts = np.array(_DEGENERATE[name], dtype=float)
        for n in range(1, len(pts) + 1):
            if game == "airport" and np.any(pts[:n, 0] <= 0.0):
                with pytest.raises(DomainError) as want:
                    subset_loop_table(game, pts[:n])
                with pytest.raises(DomainError) as got:
                    coalition_table(game, pts[:n])
                assert str(got.value) == str(want.value)
            else:
                _assert_matches_loop(game, pts[:n])

    def test_size_guard(self):
        pts = np.column_stack([np.arange(23.0), np.arange(23.0) ** 1.5])
        with pytest.raises(SizeLimitError, match="coalition table"):
            coalition_table("bbox-area", pts)

    def test_full_mask_is_eval_characteristic(self, rng):
        """The games whose table and v(N) share one formula give v(N) bit
        for bit in the table's last entry."""
        games = ("anchored-rects", *_BIT_IDENTICAL)
        for k in range(200):
            n = 1 + k % 14
            pts = random_points(rng, n) if k % 2 else random_plane_points(rng, n)
            for game in games:
                if game == "airport" and not k % 2:
                    continue
                assert coalition_table(game, pts)[-1] == eval_characteristic(game, pts), (game, pts)

    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_block_size_does_not_change_bits(self, rng, monkeypatch, block):
        pts = random_points(rng, 9)
        want = {game: coalition_table(game, pts) for game in GAME_KINDS}
        monkeypatch.setattr(oracle, "_BLOCK", block)
        for game in GAME_KINDS:
            assert np.array_equal(coalition_table(game, pts), want[game]), game

    @pytest.mark.parametrize("scatter", [1, 4, 64])
    def test_scatter_size_does_not_change_bits(self, rng, monkeypatch, scatter):
        pts = random_plane_points(rng, 12)
        games = ("hull-area", "hull-perimeter", "disk-area", "disk-perimeter")
        want = {game: coalition_table(game, pts) for game in games}
        monkeypatch.setattr(oracle, "_SCATTER", scatter)
        for game in games:
            assert np.array_equal(coalition_table(game, pts), want[game]), game
