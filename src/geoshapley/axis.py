"""Shapley values for the axis-parallel games: anchored rectangles,
anchored bounding box, and bounding box.

Everything happens in rank space.  For a point set in the closed positive
quadrant, the grid lines through the points and the axes cut the plane
into cells c_{i,j} of size w_i x h_j, and the per-cell quadrant counts
ne/nw/se determine each cell's contribution weight:

  anchored rectangles:  area(c) / ne(c)                 summed over c in R_p
  anchored bounding box: area(c) * psi_*(c)             summed per quadrant class

Every finite input is accepted, ties and points on the axes included.
Tied coordinates take consecutive ranks in index order.  A cell of
positive size lies strictly between distinct coordinates, where rank
order is coordinate order, so its counts are those of the plane; a tie
only gives some cells width or height 0, and no formula changes.  Tied
symmetric players get equal values up to rounding.

The fast engines never enumerate cells.  Within an empty block the counts
shift uniformly from slab to slab, so the per-slab sums are evaluations
of a rational step series at integer offsets: one grouped series per
block and slab direction, read at consecutive integers through one
convolution.  General point sets use ceil(sqrt(n)) horizontal bands split
at their points into empty blocks; chains use the dyadic block family or
closed-form prefix sums.  Every series goes through one pooled evaluator,
_batched_consecutive_eval, which takes the series of many blocks at once
(those of consecutive bands, or of one dyadic level) in FFT batches of one
power-of-two size each.
"""

from __future__ import annotations

import math

import numpy as np

from . import games, geometry
from .errors import ConsistencyError, DomainError
from .games import ShapleyVector, _airport_family, _airport_phi


class GridArrangement:
    """The cell grid of a point set in the closed positive quadrant.

    Coordinates are stored rank-side: x[0] = 0 <= x[1] <= ... <= x[n] (and
    the same for y), widths w[i] = x[i] - x[i-1] (index 0 unused), and Y[i]
    is the y rank of the point with x rank i.  Tied coordinates, 0 on an
    axis among them, take consecutive ranks in index order, as columns of
    width 0 or rows of height 0.
    """

    def __init__(self, points):
        pts = geometry.as_points(points)
        if np.any(pts < 0):
            raise DomainError("grid points must lie in the closed positive quadrant")
        n = pts.shape[0]
        order = np.argsort(pts[:, 0], kind="stable")
        xs = pts[order, 0]
        ys_sorted = np.sort(pts[:, 1], kind="stable")
        self.n = n
        self.x = np.concatenate([[0.0], xs])
        self.y = np.concatenate([[0.0], ys_sorted])
        self.w = np.concatenate([[0.0], np.diff(self.x)])
        self.h = np.concatenate([[0.0], np.diff(self.y)])
        yrank = np.empty(n, dtype=np.int64)
        yrank[np.argsort(pts[:, 1], kind="stable")] = np.arange(1, n + 1)
        self.Y = np.concatenate([[0], yrank[order]])  # 1-based by x rank
        self.order = order  # original index of the point with x rank i+1


# ---------------------------------------------------------------------------
# Per-quadrant engines (rank space).  All take a GridArrangement and return
# values indexed by x rank 1..n (slot 0 unused).


def _band_rows(n):
    kb = max(1, math.isqrt(n - 1) + 1) if n > 1 else 1
    bands = []
    j = 1
    while j <= n:
        bands.append((j, min(j + kb - 1, n)))
        j += kb
    return bands


def _ar_increasing(grid):
    """Increasing chain: the airport game on the areas x_i * y_i."""
    out = np.zeros(grid.n + 1)
    np.multiply(grid.x[1:], grid.y[1:], out=out[1:])
    _airport_phi(out[1:])
    return out


def _ar_decreasing(grid):
    """Dyadic divide and conquer for a decreasing chain: ne(c_{i,j}) is the
    closed form n + 2 - i - j, and the blocks hugging the anti-diagonal are
    empty by construction.

    The dyadic intervals (lo, lo + size] of one level with midpoint
    m = lo + size/2 <= n give blocks of the same shape: columns lo+1 .. m by
    rows n-lo-size+2 .. n-m+1, the block reaching below row 1 cut short.
    So every level's vertical and horizontal slab series take one batch.
    Point a takes, on every level whose size does not divide a, the
    vertical prefix of its interval's block up to column a if a <= m, else
    the horizontal prefix up to row n-a+1; the levels whose size divides a
    lie below the one where a is the midpoint.
    """
    n = grid.n
    out = np.zeros(n + 1)
    a = np.arange(1, n + 1)
    size = 1 << n.bit_length()
    while size >= 2:
        half = size // 2
        lo = np.arange(0, n - half + 1, size)
        K = lo.size
        rj1 = n - lo - half + 1
        rj0 = np.maximum(rj1 - half + 1, 1)
        nr = rj1 - rj0 + 1
        # ne - half = rj1 - j on the rows of a vertical series, which is
        # read at column i = lo + 1 - x; ne - l0 = lo + half - i on the
        # columns of a horizontal series, which is read at row j = rj0 - x
        tv, gv = _ragged(nr)
        th, gh = _ragged(np.full(K, half))
        n_t = np.concatenate([nr - 1, np.full(K, half - 1)])
        vals, slot = _batched_consecutive_eval(
            np.concatenate([tv, K + th]),
            np.concatenate([gv, gh]),
            np.concatenate([grid.h[rj1[tv] - gv], grid.w[lo[th] + half - gh]]),
            n_t,
            np.concatenate([np.full(K, half), n + 2 - lo - half - rj0]),
            np.concatenate([np.full(K, 1 - half), rj0 - rj1]),
        )
        p = np.arange(half)
        cols = lo[:, None] + 1 + p
        sig_v = grid.w[cols] * vals[(slot + n_t)[:K, None] + p]
        vpref = np.cumsum(sig_v, axis=1)
        # rows rj1 - half + 1 + p, zero below row 1
        rows = rj1[:, None] - half + 1 + p
        ok = rows >= rj0[:, None]
        x = np.where(ok, rj0[:, None] - rows, 0)
        sig_h = np.where(ok, grid.h[np.maximum(rows, 0)] * vals[(slot + n_t)[K:, None] - x], 0.0)
        hpref = np.cumsum(sig_h, axis=1)
        k = a // size
        off = a - k * size
        left = (off > 0) & (off <= half) & (k < K)
        right = off > half
        out[a[left]] += vpref[k[left], off[left] - 1]
        out[a[right]] += hpref[k[right], size - 1 - off[right]]
        size //= 2
    return out


def _ragged(lengths):
    """Segment and in-segment position of every entry of segments of the
    given lengths laid back to back."""
    seg = np.repeat(np.arange(lengths.size), lengths)
    starts = np.cumsum(lengths) - lengths
    return seg, np.arange(seg.size) - starts[seg]


def _batched_consecutive_eval(task, offset, weight, n_t, l0, dmin):
    """Evaluate every grouped series R_t(x) = sum_g G_t[g] / (l0[t] + g + x)
    at the consecutive integers dmin[t] .. 0.

    G_t[g], g = 0 .. n_t[t], sums the weights of the entries with that task
    and offset.  Returns (vals, slot) with R_t(x) = vals[slot[t] + n_t[t] - x].
    Row slot[t] of vals is the convolution of G_t with the reciprocals
    1/(l0 + n_t - k), k = 0 .. mn = n_t - dmin; a cyclic convolution of size
    P >= mn + 1 folds only indices above mn onto indices below n_t, which
    are never read.  Tasks are batched per power-of-two P, so one FFT call
    covers all tasks of similar extent and padding wastes at most a factor
    of two.
    """
    from .algebra import convolve  # per call, so wrappers on algebra see it

    mn = n_t - dmin
    if np.any(l0 + dmin < 1):
        raise DomainError("slab series would hit a nonpositive denominator")
    P = np.maximum(8, np.left_shift(1, np.frexp(mn)[1].astype(np.int64)))  # least 2^k > mn
    order = np.argsort(P, kind="stable")
    slot = np.empty_like(P)
    slot[order] = np.cumsum(P[order]) - P[order]
    g = np.bincount(slot[task] + offset, weights=weight, minlength=int(np.sum(P)))
    vals = np.empty(g.size)
    sizes, first, counts = np.unique(P[order], return_index=True, return_counts=True)
    for size, lo, k in zip(sizes.tolist(), first.tolist(), counts.tolist()):
        idx = order[lo : lo + k]
        j = np.arange(size)
        a = np.zeros((k, size))
        np.divide(1.0, (l0 + n_t)[idx, None] - j, out=a, where=j <= mn[idx, None])
        block = slice(int(slot[idx[0]]), int(slot[idx[0]]) + k * size)
        vals[block] = convolve(a, g[block].reshape(k, size), size).ravel()
    return vals, slot


class _BandFrame:
    """Per-band block decomposition with vectorized ne-count snapshots.

    Blocks are the column ranges between consecutive band points; block t
    covers columns (end[t-1], end[t]].  SNAP[r, t] holds the suffix count
    ne(c_{start_t, j0+r}) at each block's base column, built from one
    histogram pass in O(n + kb * B).
    """

    def __init__(self, grid, j0, j1):
        n = grid.n
        self.j0, self.j1 = j0, j1
        self.kb = kb = j1 - j0 + 1
        Y = grid.Y
        inband = (Y[1:] >= j0) & (Y[1:] <= j1)
        self.bx = np.nonzero(inband)[0] + 1  # band points by x rank
        if self.bx.size and self.bx[-1] == n:
            self.ends = self.bx.astype(np.int64)
        else:
            self.ends = np.concatenate([self.bx, [n]]).astype(np.int64)
        self.B = self.ends.size
        self.starts = np.concatenate([[1], self.ends[:-1] + 1]).astype(np.int64)
        widths = self.ends - self.starts + 1
        self.block_of_col = np.repeat(np.arange(self.B), widths)
        # suffix counts of the base row and the top row
        self.row0 = _suffix_indicator(Y, j0)
        self.rowT = _suffix_indicator(Y, j1)
        # block histograms over band rows, then suffix sums in both
        # directions give the base-column snapshots
        hist = np.zeros((self.B, kb), dtype=np.int64)
        bi = self.block_of_col[self.bx - 1]
        np.add.at(hist, (bi, Y[self.bx] - j0), 1)  # one point per band row
        above = np.bincount(
            self.block_of_col[(Y[1:] > j1).nonzero()[0]], minlength=self.B
        )
        tail_ge = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1] + above[:, None]
        self.snap = np.cumsum(tail_ge[::-1, :], axis=0)[::-1, :].T  # (kb, B)
        # the emptiness consistency check: ne shifts alike on the base and
        # top rows from each block's base column
        self.a_of_col = np.repeat(self.starts, widths)
        gap = self.rowT - self.row0
        if not np.array_equal(gap[1 : n + 1], gap[self.a_of_col]):
            raise ConsistencyError("ne column shifts differ inside a block")


def _suffix_indicator(Y, j):
    """counts[i] = #{x ranks i' >= i with Y[i'] >= j}, i in [0, n+1]."""
    ind = (Y >= j).astype(np.int64)
    ind[0] = 0
    out = np.zeros(Y.size + 1, dtype=np.int64)
    out[:-1] = np.cumsum(ind[::-1])[::-1]
    return out


# Array elements that close a pool of consecutive bands, whose series then
# take one evaluator call.  A band counts its series elements (the sum of
# -dmin + n_t + 1 over its tasks, which sizes the FFT buffers) and the
# elements of the task arrays it holds until its pool is evaluated.
_POOL = 1 << 17


def _ne_family(grid, f):
    """Anchored rectangles: den = ne.  Vertical sums stop at the last column
    whose top band cell has ne >= 1; horizontal sums cover the real blocks,
    each up to the highest band row of a point at or right of it (the rows
    above may hit ne = 0)."""
    v_cols = int(np.count_nonzero(f.rowT[1 : grid.n + 1]))  # a suffix count: a prefix is > 0
    rmax = np.maximum.accumulate(grid.Y[f.bx][::-1])[::-1] - f.j0
    return f.snap, f.row0, v_cols, rmax


def _den3_family(grid, f):
    """Anchored bounding box: den = ne + nw + se = (n-j+1) + (n-i+1) - ne,
    positive on every cell, so every column and every block row is summed
    (the tail block serves the NW prefixes)."""
    n = grid.n
    rows = np.arange(f.j0, f.j1 + 1)
    snap = (n - rows + 1)[:, None] + (n - f.starts + 1)[None, :] - f.snap
    row = (n - f.j0 + 1) + (n - np.arange(n + 2) + 1) - f.row0
    return snap, row, n, np.full(f.B, f.kb - 1)


def _band_tasks(grid, f, family):
    """The slab series of one band under a denominator family.

    family(grid, f) gives den at each block's base column per band row
    (kb, B), den on the band's base row per column, the number of columns
    whose vertical sums are needed and, per block with horizontal sums, the
    highest row needed.  Inside an empty block den shifts uniformly from
    column to column and from row to row, so each block gives one vertical
    series (over the band rows, read at its columns' shifts) and one
    horizontal series (over its columns, read at the rows' shifts).

    Returns (tasks, finish): the evaluator arguments, and
    finish(vals, slot) -> (rv, rh) with rv[i - 1] = sum_j h_j / den(i, j)
    over the band rows and rh[r, t] = sum_i w_i / den(i, j0 + r) over block
    t's columns (zero above the needed rows).
    """
    snap, row, v_cols, h_rows = family(grid, f)
    kb, w = f.kb, grid.w
    tv = int(f.block_of_col[v_cols - 1]) + 1
    l0v = snap[:, :tv].min(axis=0)
    ntv = snap[:, :tv].max(axis=0) - l0v
    t_v = f.block_of_col[:v_cols]
    dv = row[1 : v_cols + 1] - row[f.a_of_col[:v_cols]]
    dminv = np.minimum.reduceat(dv, f.starts[:tv] - 1)
    th = h_rows.size
    last = int(f.ends[th - 1])
    base = row[1 : last + 1]
    starts0 = f.starts[:th] - 1
    l0h = np.minimum.reduceat(base, starts0)
    nh = np.maximum.reduceat(base, starts0) - l0h
    dh = snap[:, :th] - snap[0, :th]
    dminh = dh[h_rows, np.arange(th)]
    t_h = f.block_of_col[:last]
    tasks = (
        np.concatenate([np.repeat(np.arange(tv), kb), tv + t_h]),
        np.concatenate([(snap[:, :tv] - l0v).T.ravel(), base - l0h[t_h]]),
        np.concatenate([np.tile(grid.h[f.j0 : f.j1 + 1], tv), w[1 : last + 1]]),
        np.concatenate([ntv, nh]),
        np.concatenate([l0v, l0h]),
        np.concatenate([dminv, dminh]),
    )
    read_v = ntv[t_v] - dv
    okh = np.arange(kb)[:, None] <= h_rows
    read_h = nh - np.where(okh, dh, 0)

    def finish(vals, slot):
        return vals[slot[t_v] + read_v], np.where(okh, vals[slot[tv:] + read_h], 0.0)

    return tasks, finish


def _band_sums(grid, family):
    """(j0, bx, starts, rv, rh) for every band of the grid, in band order:
    its base row, its points by x rank, its block starts, and the slab sums
    of _band_tasks.  Consecutive bands are pooled until they reach _POOL
    elements, and each pool takes one evaluator call."""
    n = grid.n
    bands = _band_rows(n)
    pending, size = [], 0
    for k, (j0, j1) in enumerate(bands):
        f = _BandFrame(grid, j0, j1)
        tasks, finish = _band_tasks(grid, f, family)
        pending.append((j0, f.bx, f.starts, tasks, finish))
        _, _, _, n_t, _, dmin = tasks
        size += int(np.sum(n_t - dmin + 1)) + sum(a.size for a in tasks)
        if size < _POOL and k + 1 < len(bands):
            continue
        parts = list(zip(*(p[3] for p in pending)))  # evaluator arguments, band by band
        first = np.cumsum([0] + [n_t.size for n_t in parts[3]])  # each band's first task
        parts[0] = [t + t0 for t, t0 in zip(parts[0], first)]
        vals, slot = _batched_consecutive_eval(*map(np.concatenate, parts))
        for (j0, bx, starts, _, finish), t0, t1 in zip(pending, first, first[1:]):
            yield (j0, bx, starts, *finish(vals, slot[t0:t1]))
        pending, size = [], 0


def _ar_general(grid):
    """Band decomposition: ceil(sqrt(n)) horizontal bands, each split at
    its own points' vertical lines into empty blocks; the per-block series
    of consecutive bands are grouped and multipoint-evaluated in batched
    FFT calls."""
    n = grid.n
    out = np.zeros(n + 1)
    acc = np.zeros(n + 1)  # acc[i]: sum over finished bands of V_<=(i)
    for j0, bx, _, rv, rh in _band_sums(grid, _ne_family):
        hrows = grid.h[j0 : j0 + rh.shape[0]]
        S = np.cumsum(np.cumsum(hrows[:, None] * rh, axis=0), axis=1)
        out[bx] = S[grid.Y[bx] - j0, np.arange(bx.size)] + acc[bx]
        sigma_v = np.zeros(n)
        sigma_v[: rv.size] = grid.w[1 : rv.size + 1] * rv
        acc[1:] += np.cumsum(sigma_v)
    return out


def _ar_quadratic(grid):
    """Streamed per-cell evaluation: one column at a time, O(n) memory."""
    n = grid.n
    cnt = np.bincount(grid.Y[1:], minlength=n + 2).astype(np.int64)
    out = np.zeros(n + 1)
    run = np.zeros(n + 1)  # run[j] = sum_{i' <= i} sum_{j' <= j} area/ne
    h = grid.h[1:]
    for i in range(1, n + 1):
        ne_col = np.cumsum(cnt[::-1])[::-1][1 : n + 1]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a zero-width column
            wcol = np.where(ne_col >= 1, grid.w[i] * h / ne_col, 0.0)
        run[1:] += np.cumsum(wcol)
        out[i] = run[grid.Y[i]]
        cnt[grid.Y[i]] -= 1
    return out


def _abb_cols_psi(grid, i, ne_col):
    """psi columns for column i from its ne counts (arrays over j = 1..n)."""
    n = grid.n
    j = np.arange(1, n + 1)
    inv_nw = 1.0 / (n - j + 1.0)  # 1/(ne+nw)
    inv_se = 1.0 / (n - i + 1.0)  # 1/(ne+se)
    den3 = (n - j + 1.0) + (n - i + 1.0) - ne_col
    both = 1.0 / den3
    psi_ne = inv_nw + inv_se - both
    psi_nw = inv_nw - both
    psi_se = inv_se - both
    return psi_ne, psi_nw, psi_se


def _abb_quadratic(grid):
    """Streamed quadratic anchored-bbox engine (two column passes)."""
    n = grid.n
    h = grid.h[1:]
    # Pass A: totals over all columns of the NW prefix sums.
    cnt = np.bincount(grid.Y[1:], minlength=n + 2).astype(np.int64)
    tot_nw = np.zeros(n + 1)
    for i in range(1, n + 1):
        ne_col = np.cumsum(cnt[::-1])[::-1][1 : n + 1]
        _, psi_nw, _ = _abb_cols_psi(grid, i, ne_col)
        tot_nw[1:] += np.cumsum(grid.w[i] * h * psi_nw)
        cnt[grid.Y[i]] -= 1
    # Pass B: running prefixes and queries.
    cnt = np.bincount(grid.Y[1:], minlength=n + 2).astype(np.int64)
    run_ne = np.zeros(n + 1)
    run_nw = np.zeros(n + 1)
    run_se = np.zeros(n + 1)
    run_se_full = 0.0
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        ne_col = np.cumsum(cnt[::-1])[::-1][1 : n + 1]
        psi_ne, psi_nw, psi_se = _abb_cols_psi(grid, i, ne_col)
        area = grid.w[i] * h
        run_ne[1:] += np.cumsum(area * psi_ne)
        run_nw[1:] += np.cumsum(area * psi_nw)
        se_col = np.cumsum(area * psi_se)
        run_se[1:] += se_col
        run_se_full += se_col[-1]
        b = grid.Y[i]
        out[i] = run_ne[b] + (tot_nw[b] - run_nw[b]) + (run_se_full - run_se[b])
        cnt[grid.Y[i]] -= 1
    return out


def _abb_decreasing(grid):
    """Closed-form decreasing-chain anchored-bbox engine.

    Below the anti-diagonal staircase ne+nw+se = n, so the NE sums are
    pure prefix sums; the NW and SE sums follow band recurrences around
    the staircase whose only nontrivial terms are two reciprocal
    convolutions.
    """
    n = grid.n
    w = grid.w[1:]  # w[i-1] = w_i
    h = grid.h[1:]
    iidx = np.arange(1, n + 1)
    winv = w / (n - iidx + 1.0)  # w_i / (ne+se)
    hinv = h / (n - iidx + 1.0)  # h_j / (ne+nw)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    ch = np.concatenate([[0.0], np.cumsum(h)])
    cwinv = np.concatenate([[0.0], np.cumsum(winv)])
    chinv = np.concatenate([[0.0], np.cumsum(hinv)])

    # S_NE(a): cells of R_{p_a} = cols <= a, rows <= n - a + 1.
    a = np.arange(1, n + 1)
    b = n - a + 1
    s_ne = cwinv[a] * ch[b] + cw[a] * chinv[b] - cw[a] * ch[b] / n

    # Reciprocal convolutions.  G[a] = sum_{i >= a+2} w_i / (n + a + 1 - i)
    # and H[a] = sum_{j >= n-a+2} h_j / (2n + 2 - a - j); the 1/k arrays are
    # truncated so the convolution index range enforces each restriction.
    # Both inputs are 1-based sequences stored 0-based: the entry for
    # "i + k = m" sits at flat index m - 2.  Each cyclic size covers the
    # linear length len(a) + len(b) - 1, so nothing folds.
    from .algebra import convolve

    u1 = 1.0 / np.arange(1, n)  # 1/k for k = 1 .. n-1
    conv_w = convolve(w[None], u1[None], 1 << (2 * n - 3).bit_length())[0]
    u2 = 1.0 / np.arange(1, n + 1)  # 1/k for k = 1 .. n
    conv_h = convolve(h[None], u2[None], 1 << (2 * n - 2).bit_length())[0]

    # NW sums mu_a = mu_{a+1} + col part + row part, a = n-1 .. 1, and SE
    # sums eta_a = eta_{a-1} + col part + row part, a = 2 .. n: one running
    # sum over the interleaved parts adds them in the recurrences' order.
    aa = np.arange(n - 1, 0, -1)
    g_w = np.zeros(n)
    g_w[1 : n - 1] = conv_w[n : 2 * n - 2]  # at n + aa - 1; none for aa = n-1
    mu_parts = np.empty(2 * (n - 1))
    mu_parts[0::2] = w[aa] * (chinv[n - aa + 1] - ch[n - aa + 1] / n)
    mu_parts[1::2] = h[n - aa] * ((cw[n] - cw[aa + 1]) / aa - g_w[aa])
    mu = np.zeros(n + 1)
    mu[n - 1 : 0 : -1] = np.cumsum(mu_parts)[1::2]
    aa = np.arange(2, n + 1)
    eta_parts = np.empty(2 * (n - 1))
    eta_parts[0::2] = w[aa - 1] * ((ch[n] - ch[n - aa + 1]) / (n - aa + 1.0) - conv_h[2 * n - aa])
    eta_parts[1::2] = h[n - aa + 1] * (cwinv[aa - 1] - cw[aa - 1] / n)
    eta = np.zeros(n + 1)
    eta[2:] = np.cumsum(eta_parts)[1::2]

    out = np.zeros(n + 1)
    out[1:] = s_ne + mu[1:] + eta[1:]
    return out


def _abb_general(grid):
    """Band engine for the anchored bounding box.

    Within an empty block only the ne+nw+se family needs a series
    evaluation (ne+nw and ne+se are the global reciprocals 1/(n-j+1) and
    1/(n-i+1)); each quadrant class gets its own prefix orientation over
    the same slab sums.  Bands are made bottom to top: a point's NE and NW
    parts from the bands below are running prefixes when its band is made,
    and each band adds its SE column prefixes to the points of the bands
    below it, so a point's SE parts arrive nearest band first.
    """
    n = grid.n
    out = np.zeros(n + 1)
    acc_ne = np.zeros(n + 1)
    acc_nw = np.zeros(n + 2)
    w = grid.w[1:]
    inv_ne_se = 1.0 / (n - np.arange(1, n + 1) + 1.0)
    for j0, bx, starts, r3, sh_r3 in _band_sums(grid, _den3_family):
        kb, B = sh_r3.shape
        hrows = grid.h[j0 : j0 + kb]
        rows = np.arange(j0, j0 + kb)
        hs = float(np.sum(hrows))
        r1_const = float(np.sum(hrows / (n - rows + 1.0)))
        r2 = hs * inv_ne_se
        sig_ne_v = w * (r1_const + r2 - r3)
        sig_nw_v = w * (r1_const - r3)
        sig_se_v = w * (r2 - r3)
        starts0 = starts - 1
        ws_t = np.add.reduceat(w, starts0)
        w2_t = np.add.reduceat(w * inv_ne_se, starts0)
        r1r = ws_t[None, :] / (n - rows + 1.0)[:, None]
        sh_ne = hrows[:, None] * (r1r + w2_t[None, :] - sh_r3)
        sh_nw = hrows[:, None] * (r1r - sh_r3)
        sh_se = hrows[:, None] * (w2_t[None, :] - sh_r3)
        # --- prefix matrices oriented per quadrant class
        s_ne = np.cumsum(np.cumsum(sh_ne, axis=0), axis=1)
        s_se = np.cumsum(np.cumsum(sh_se[::-1, :], axis=0)[::-1, :], axis=1)
        s_nw = np.cumsum(np.cumsum(sh_nw, axis=0)[:, ::-1], axis=1)[:, ::-1]
        r_p = grid.Y[bx] - j0
        tt = np.arange(len(bx))
        vals = s_ne[r_p, tt] + acc_ne[bx] + acc_nw[bx + 1]
        up = r_p + 1 < kb
        vals[up] += s_se[r_p[up] + 1, tt[up]]
        right = tt + 1 < B
        vals[right] += s_nw[r_p[right], tt[right] + 1]
        out[bx] = vals
        acc_ne[1:] += np.cumsum(sig_ne_v)
        acc_nw[1 : n + 1] += np.cumsum(sig_nw_v[::-1])[::-1]
        below = np.nonzero(grid.Y[1:] < j0)[0]  # x ranks - 1 of finished points
        out[below + 1] += np.cumsum(sig_se_v)[below]
    return out


# ---------------------------------------------------------------------------
# Grid solver, sign regions and public entry points.

def _chain_or_band(grid, decreasing, general):
    """The values of the grid by x rank: the airport engine on an increasing
    chain, ``decreasing`` on a decreasing chain, ``general`` otherwise.  On
    an increasing chain the anchored bounding box of every coalition
    coincides with its union of anchored rectangles."""
    Y = grid.Y[1:]
    if np.array_equal(Y, np.arange(1, grid.n + 1)):
        return _ar_increasing(grid)
    if np.array_equal(Y, np.arange(grid.n, 0, -1)):
        return decreasing(grid)
    return general(grid)


def _ar_fast(grid):
    return _chain_or_band(grid, _ar_decreasing, _ar_general)


def _abb_fast(grid):
    return _chain_or_band(grid, _abb_decreasing, _abb_general)


def _solve_grid(pts, engine):
    """Values, by input index, of ``engine`` on the grid of pts."""
    grid = GridArrangement(pts)
    out = np.empty(grid.n)
    out[grid.order] = engine(grid)[1:]
    return out


def _solve_regions(pts, engine, both):
    """Sum over the four sign regions around the origin of their games.

    The region with signs (sx, sy) reflects the points by them.  Its players
    are the points whose reflected coordinates are both positive (both=True)
    or at least one positive, projected by max(., 0).  A point behind both
    axes of a region projects to the origin, which every anchored box
    holds, so it is a null player there and is left out.  A region whose
    players have no positive x or no positive y has empty boxes and is
    skipped.
    """
    values = np.zeros(pts.shape[0])
    for signs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        pos = pts * signs > 0
        sel = np.nonzero(pos.all(axis=1) if both else pos.any(axis=1))[0]
        if not pos[sel].any(axis=0).all():
            continue
        values[sel] += _solve_grid(np.maximum(pts[sel] * signs, 0.0), engine)
    return values


def _anchored(game, points, engine):
    """The values of an anchored game from ``engine`` on its sign regions."""
    pts = geometry.as_points(points)
    values = _solve_regions(pts, engine, both=game == "anchored-rects")
    return ShapleyVector(values, games.eval_characteristic(game, pts), game)


def shapley_anchored_rects(points):
    """Shapley values of the anchored-rectangles game.

    The game splits across quadrants (each quadrant is reflected to the
    positive one); a point on an axis has an empty rectangle, so it is a
    null player and in no quadrant's grid.  Chains take the near-linear
    chain solvers, every other grid the sqrt-band engine.
    """
    return _anchored("anchored-rects", points, _ar_fast)


def shapley_anchored_rects_quadratic(points):
    """The per-cell baseline of shapley_anchored_rects."""
    return _anchored("anchored-rects", points, _ar_quadratic)


def shapley_anchored_bbox(points):
    """Shapley values of the anchored-bounding-box area game.

    The box area splits into the four plane quadrants around the origin;
    the regional game for a quadrant projects every point with a positive
    coordinate there onto that closed quadrant (a point behind one axis
    only pushes the box along the other axis, as a column of width 0 or
    a row of height 0).  Engines as for shapley_anchored_rects.
    """
    return _anchored("anchored-bbox-area", points, _abb_fast)


def shapley_anchored_bbox_quadratic(points):
    """The per-cell baseline of shapley_anchored_bbox."""
    return _anchored("anchored-bbox-area", points, _abb_quadratic)


def _bbox(points, engine):
    """Shapley values of the bounding-box area game, with ``engine`` on the
    corner games.

    Inclusion-exclusion around the four corners of bb(P):

      area(bb(Q)) =   sum_corners area(bb(Q + corner))
                    - H * (X+ - min x(Q)) - H * (max x(Q) - X-)
                    - W * (Y+ - min y(Q)) - W * (max y(Q) - Y-)
                    + W * H

    Each corner game is an anchored-bbox instance with all points in one
    closed quadrant (the points realizing an extreme coordinate land
    exactly on an axis, which the rank-space engines absorb as zero-width
    columns or rows); each band term is an airport game on
    reflected coordinates; the constant splits evenly.
    """
    pts = geometry.as_points(points)
    n = pts.shape[0]
    x = pts[:, 0]
    y = pts[:, 1]
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(y.min()), float(y.max())
    W = xhi - xlo
    H = yhi - ylo
    values = np.full(n, W * H / n)
    for cx, sx in ((xlo, 1.0), (xhi, -1.0)):
        for cy, sy in ((ylo, 1.0), (yhi, -1.0)):
            sub = np.column_stack([sx * (x - cx), sy * (y - cy)])
            values += _solve_grid(sub, engine)
    a, b = np.empty(n), np.empty(n)
    for side, t, lo, hi in ((H, x, xlo, xhi), (W, y, ylo, yhi)):
        values -= side * _airport_family(hi - t, "airport", a, b)
        values -= side * _airport_family(t - lo, "airport", a, b)
    return ShapleyVector(values, games.eval_characteristic("bbox-area", pts), "bbox-area")


def shapley_bbox(points):
    """Shapley values of the bounding-box area game (see _bbox)."""
    return _bbox(points, _abb_fast)


def shapley_bbox_quadratic(points):
    """The per-cell baseline of shapley_bbox."""
    return _bbox(points, _abb_quadratic)
