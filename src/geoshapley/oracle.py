"""Brute-force Shapley oracles: ground truth for every fast engine.

Two independent computations of the same quantity: an average of marginal
contributions over all n! insertion orders, and the weighted subset-sum
formula.  Both read coalition values from a dense 2^n table keyed by
bitmask; a caller that runs both on one instance can build the table once
and pass it to each.

The table is built with array operations, one formula per game family,
and calls no engine code:

- box and line games: per-coordinate min and max by doubling over the bits
  of each block of masks, then the game table's extent formula
  (bit-identical to eval_characteristic on each set);
- hull games: (i, j) is a ccw edge of S iff no other member of S lies
  strictly right of i->j, or on its line outside the open segment; v sums
  the shoelace terms (area) or the lengths (perimeter) of the edges;
- disk games: v is the measure of the largest basis disk (a pair, or a
  non-obtuse triple) with B in S and S inside the disk, which is MED(S);
- anchored-rects: the game table's staircase (games._anchored_union_area),
  one row of membership bits per mask, so the full mask's value is
  eval_characteristic's bit for bit.

A hull edge or disk basis is one row (need, cover): it holds on exactly the
coalitions need | s, s any subset of the points outside cover, and its term
is scattered into those masks alone (interval scatter), so the work is the
number of (coalition, row) hits rather than rows times 2^n.

The permutation oracle walks the orders of itertools.permutations through
a cached step table of every order of its last m = min(n, 8) players, with
the player and the coalitions before and after each step as uint8; its sums
are those of a loop over the orders, one head's block of orders at a time.
The subset formula runs over blocks of 2^16 masks, and its sums are those
of one np.sum over all masks.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import SizeLimitError
from .games import GAMES, ShapleyVector, _anchored_union_area, check_airport, check_game
from .geometry import as_points

PERMUTATION_LIMIT = 10
SUBSET_LIMIT = 22

# Orders are walked as a head from itertools followed by every order of the
# remaining (at most) _TAIL players, read from a cached step table of as
# many players.
_TAIL = 8

# Masks per block of the box and staircase tables, and of the subset
# formula (powers of two).
_BLOCK = 1 << 12
_SUBSET_BLOCK = 1 << 16
# Entries per index array when hull edges or disk bases are scattered into
# their coalitions (a power of two).
_SCATTER = 1 << 16

# Three points are collinear when |cross| <= _FLAT_TOL * (longest side)^2.
_FLAT_TOL = 1e-12
# A point is inside a basis disk when its squared distance to the centre is
# at most r^2 * (1 + _INSIDE_TOL).  Any slack above rounding is safe: every
# basis B in S has r(B) <= r(S), so the largest qualifying disk is MED(S).
_INSIDE_TOL = 1e-9


@functools.cache
def _steps(m):
    """Every order of range(m), lexicographic, as read-only uint8 arrays
    (players, masks): players[k] is the k-th player of each order and
    masks[k] the coalition before it, so masks[k + 1] is the one after."""
    players = np.zeros((0, 1), dtype=np.uint8)  # the one order of no players
    for j in range(1, m + 1):
        # the orders of range(j) with `first` first, then the others in order
        others = np.arange(j, dtype=np.uint8)
        firsts = np.zeros((1, players.shape[1]), dtype=np.uint8)
        players = np.concatenate(
            [np.vstack((firsts + first, np.delete(others, first)[players])) for first in range(j)],
            axis=1,
        )
    masks = np.zeros((m + 1, players.shape[1]), dtype=np.uint8)
    for k in range(m):
        masks[k + 1] = masks[k] | (np.uint8(1) << players[k])
    players.flags.writeable = masks.flags.writeable = False
    return players, masks


def _box_block(extent, pts, start, size):
    """v over masks start..start+size-1 from per-coordinate extents, by the
    game table's formula ``extent``.

    ``size`` is a power of two 2^k and ``start`` a multiple of it: the bits
    at and above k are fixed in the block and seed the extents of its first
    mask, and bit b < k doubles them, lo[s:2s] = min(lo[:s], p_b).
    """
    n = pts.shape[0]
    k = size.bit_length() - 1
    fixed = pts[k:][(start >> np.arange(k, n)) & 1 == 1]
    lo = np.empty((size, 2))
    hi = np.empty((size, 2))
    lo[0] = fixed.min(axis=0) if fixed.size else np.inf
    hi[0] = fixed.max(axis=0) if fixed.size else -np.inf
    for b in range(k):
        s = 1 << b
        np.minimum(lo[:s], pts[b], out=lo[s : 2 * s])
        np.maximum(hi[:s], pts[b], out=hi[s : 2 * s])
    if start == 0:
        lo[0] = hi[0] = 0.0  # the empty set: every formula gives 0
    band = float(pts[:, 1].max() - pts[:, 1].min())
    return extent(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], band)


def _deposit(base, bits):
    """base[r] | every OR of a subset of bits[r], as a (rows, 2^f) array
    whose column s takes the bits named by the set bits of s."""
    out = np.empty((base.size, 1 << bits.shape[1]), dtype=np.int64)
    out[:, 0] = base
    for b in range(bits.shape[1]):
        s = 1 << b
        np.bitwise_or(out[:, :s], bits[:, b : b + 1], out=out[:, s : 2 * s])
    return out


def _scatter(n, cover, need, value, ufunc):
    """The table of ufunc over the rows r with mask & cover[r] == need[r]
    of value[r] (0 where no row holds).

    Row r holds on need[r] | s for every subset s of the f bits outside
    cover[r].  Rows with the same f are deposited together, at most
    _SCATTER entries per index array; a row with more masks than that is
    deposited in pieces.  Each mask meets its rows in order of (f, r),
    whatever _SCATTER is.
    """
    table = np.zeros(1 << n)
    free = np.bitwise_count(~cover & ((1 << n) - 1))
    order = np.argsort(free, kind="stable")  # rows by f, then by r
    outside = (cover[order, None] >> np.arange(n)) & 1 == 0
    bits = np.int64(1) << np.nonzero(outside)[1]  # the free bits of each row in turn
    limit = _SCATTER.bit_length() - 1
    for f, count in enumerate(np.bincount(free).tolist()):
        rows, order = order[:count], order[count:]
        group, bits = bits[: count * f].reshape(count, f), bits[count * f :]
        low = min(f, limit)
        step = 1 << (limit - low)
        for r in range(0, count, step):
            block = slice(r, r + step)
            # flat masks and weights: ufunc.at is about ten times slower on 2-D
            masks = _deposit(need[rows[block]], group[block, :low]).ravel()
            weight = np.repeat(value[rows[block]], 1 << low)
            # past _SCATTER masks a block is one row: walk its other bits
            for high in _deposit(np.zeros(1, dtype=np.int64), group[block, low:])[0]:
                ufunc.at(table, masks | high, weight)
    return table


def _hull_edges(game, pts):
    """(cover, need, value) rows, one per ordered pair of distinct points.

    A point k rules out the edge i->j when it lies strictly right of it, or
    on its line but not strictly between i and j.  Of coincident points only
    the lowest-indexed member of S counts, so a duplicate of an endpoint
    with a larger index rules nothing out.  Orientation is decided once per
    unordered triple, so no pair of tests on a triple can disagree.  A set
    on one line keeps both directed edges between its extremes: area 0 and
    the doubled-segment perimeter.
    """
    n = pts.shape[0]
    d = pts[None, :, :] - pts[:, None, :]  # d[i, j] = p_j - p_i
    cross = d[:, :, None, 0] * d[:, None, :, 1] - d[:, :, None, 1] * d[:, None, :, 0]
    dot = np.einsum("ijc,ikc->ijk", d, d)  # (p_j - p_i) . (p_k - p_i)
    sq = np.einsum("ijc,ijc->ij", d, d)
    i, j, k = np.indices((n, n, n))
    a, b, c = np.sort(np.stack((i, j, k)), axis=0)
    side = np.where((i > j) ^ (i > k) ^ (j > k), -1.0, 1.0) * cross[a, b, c]
    flat = np.abs(side) <= _FLAT_TOL * np.maximum(np.maximum(sq[a, b], sq[a, c]), sq[b, c])
    between = (dot > 0.0) & (dot.transpose(1, 0, 2) > 0.0)
    same = np.all(d == 0.0, axis=2)
    rules_out = ((side < 0.0) & ~flat) | (flat & ~between)
    rules_out &= (k != i) & (k != j)
    rules_out &= ~(same[:, None, :] & (k > i)) & ~(same[None, :, :] & (k > j))
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    ei, ej = np.nonzero(~same)
    need = bits[ei] | bits[ej]
    cover = need | (rules_out[ei, ej] * bits).sum(axis=1)
    if game == "hull-area":
        q = d[0]  # p - p_0: shoelace terms from differences keep their digits far out
        value = 0.5 * (q[ei, 0] * q[ej, 1] - q[ej, 0] * q[ei, 1])
    else:
        value = np.hypot(d[ei, ej, 0], d[ei, ej, 1])
    return cover, need, value


def _disk_bases(game, pts):
    """(cover, need, value) rows, one per pair and per non-obtuse triple:
    need marks the basis, and cover adds the points outside its disk."""
    n = pts.shape[0]
    pi, pj = np.triu_indices(n, 1)
    i, j, k = np.indices((n, n, n))
    ti, tj, tk = (x[(i < j) & (j < k)] for x in (i, j, k))
    ab, ac, bc = pts[tj] - pts[ti], pts[tk] - pts[ti], pts[tk] - pts[tj]
    den = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    acute = (
        (np.einsum("tc,tc->t", ab, ac) >= 0.0)
        & (np.einsum("tc,tc->t", ab, bc) <= 0.0)
        & (np.einsum("tc,tc->t", ac, bc) >= 0.0)
        & (den != 0.0)
    )
    ti, tj, tk, ab, ac, den = ti[acute], tj[acute], tk[acute], ab[acute], ac[acute], den[acute]
    ab2 = np.einsum("tc,tc->t", ab, ab)
    ac2 = np.einsum("tc,tc->t", ac, ac)
    circ = pts[ti] + np.column_stack(
        (ac[:, 1] * ab2 - ab[:, 1] * ac2, ab[:, 0] * ac2 - ac[:, 0] * ab2)
    ) / den[:, None]
    circ_r = np.max([np.hypot(*(circ - pts[t]).T) for t in (ti, tj, tk)], axis=0)
    centre = np.concatenate((0.5 * (pts[pi] + pts[pj]), circ))
    r = np.concatenate((0.5 * np.hypot(*(pts[pi] - pts[pj]).T), circ_r))
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    need = np.concatenate((bits[pi] | bits[pj], bits[ti] | bits[tj] | bits[tk]))
    dist2 = np.einsum("qkc,qkc->qk", pts - centre[:, None, :], pts - centre[:, None, :])
    outside = dist2 > (r * r * (1.0 + _INSIDE_TOL))[:, None]
    cover = need | (outside * bits).sum(axis=1)
    value = np.pi * r * r if game == "disk-area" else 2.0 * np.pi * r
    return cover, need, value


def _anchored_block(pts, start, size):
    """v over masks start..start+size-1 from the game table's staircase."""
    masks = np.arange(start, start + size, dtype=np.int64)
    return _anchored_union_area(pts, (masks[:, None] >> np.arange(pts.shape[0])) & 1 == 1)


def _block_values(game, pts):
    """A function (start, size) -> v for masks start..start+size-1."""
    if game == "anchored-rects":
        return functools.partial(_anchored_block, pts)
    if game == "airport":
        check_airport(pts[:, 0])
    return functools.partial(_box_block, GAMES[game].extent, pts)


def coalition_table(game, points):
    """Dense table v[mask] for all 2^n coalitions (v[0] = 0)."""
    check_game(game)
    pts = as_points(points)
    n = pts.shape[0]
    if n > SUBSET_LIMIT:
        raise SizeLimitError(
            f"2^{n} coalition table exceeds the 2^{SUBSET_LIMIT} guard"
        )
    if game in ("hull-area", "hull-perimeter"):
        return _scatter(n, *_hull_edges(game, pts), np.add)
    if game in ("disk-area", "disk-perimeter"):
        return _scatter(n, *_disk_bases(game, pts), np.maximum)
    block = _block_values(game, pts)
    size = min(1 << n, _BLOCK)
    table = np.empty(1 << n)
    for start in range(0, 1 << n, size):
        table[start : start + size] = block(start, size)
    table[0] = 0.0
    return table


def _player_count(game, points):
    check_game(game)
    return as_points(points).shape[0]


def shapley_by_permutations(game, points, table=None):
    """Exact average of marginal contributions over all n! orders.

    The orders are those of itertools.permutations(range(n)), in its order:
    each head of n - m players, m = min(n, _TAIL), is followed by every
    order of the m players left, read from the step table of m players
    through the 2^m coalition values of the head and a subset of them.
    The marginals are summed one position at a time over each head's m!
    orders.
    """
    n = _player_count(game, points)
    if n > PERMUTATION_LIMIT:
        raise SizeLimitError(
            f"n={n} exceeds the n<={PERMUTATION_LIMIT} permutation guard"
        )
    if table is None:
        table = coalition_table(game, points)
    m = min(n, _TAIL)
    players, masks = _steps(m)
    rows = math.factorial(m)
    phi = np.zeros(n)
    for head in itertools.permutations(range(n), n - m):
        rest = np.array(sorted(set(range(n)).difference(head)), dtype=np.int64)
        coalition = 0
        for p in head:
            # one marginal, added once per order as the loop over orders would
            delta = table[coalition | 1 << p] - table[coalition]
            phi[p] += np.full(rows, delta).cumsum()[-1]
            coalition |= 1 << p
        values = table[_deposit(np.array([coalition]), (np.int64(1) << rest)[None, :])[0]]
        before = values[masks[0].astype(np.intp)]
        for k in range(m):
            after = values[masks[k + 1].astype(np.intp)]
            phi[rest] += np.bincount(players[k], after - before, minlength=m)
            before = after
    phi /= math.factorial(n)
    return ShapleyVector(phi, float(table[-1]), game)


def shapley_by_subsets(game, points, table=None):
    """Weighted subset-sum formula.

    The weights |S|! (n-|S|-1)! / n! are built by a running product of
    ratios s/(n-s), so nothing overflows past n = 20.  Masks are taken
    _SUBSET_BLOCK at a time.  Each player's block sums are added pairwise,
    as np.sum adds the halves of an array of more than 128 elements, so the
    result is that of one np.sum over all masks.
    """
    n = _player_count(game, points)
    if n > SUBSET_LIMIT:
        raise SizeLimitError(f"n={n} exceeds the n<={SUBSET_LIMIT} subset guard")
    if table is None:
        table = coalition_table(game, points)

    weights = np.zeros(n + 1)  # weights[n] weighs the full set, which lacks no one
    weights[0] = 1.0 / n
    for s in range(1, n):
        weights[s] = weights[s - 1] * s / (n - s)

    size = min(1 << n, _SUBSET_BLOCK)
    low = size.bit_length() - 1
    parts = np.zeros((n, (1 << n) // size))
    for b, start in enumerate(range(0, 1 << n, size)):
        values = table[start : start + size]
        weight = weights[np.bitwise_count(np.arange(start, start + size))]
        # a player below bit `low` is absent from the first half of each
        # run of 2^(p+1) masks; one above it is absent from the whole block
        # or from none of it
        for p in range(low):
            pairs = values.reshape(-1, 2, 1 << p)
            gain = weight.reshape(-1, 2, 1 << p)[:, 0] * (pairs[:, 1] - pairs[:, 0])
            parts[p, b] = np.sum(gain)
        for p in range(low, n):
            if not start >> p & 1:
                present = table[start + (1 << p) : start + (1 << p) + size]
                parts[p, b] = np.sum(weight * (present - values))
    while parts.shape[1] > 1:
        parts = parts[:, 0::2] + parts[:, 1::2]
    return ShapleyVector(parts[:, 0], float(table[-1]), game)
