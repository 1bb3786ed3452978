"""Shapley values for the axis-parallel games: anchored rectangles,
anchored bounding box, and bounding box.

Everything happens in rank space.  For a point set with distinct
coordinates in the (closed) positive quadrant, the grid lines through the
points and the axes cut the plane into cells c_{i,j} of size w_i x h_j,
and the per-cell dominance counts ne/nw/se determine each cell's
contribution weight:

  anchored rectangles:  area(c) / ne(c)                 summed over c in R_p
  anchored bounding box: area(c) * psi_*(c)             summed per quadrant class

The fast engines never enumerate cells.  Within an empty block the counts
shift uniformly from slab to slab, so the per-slab sums are evaluations
of a rational step series at integer offsets: one grouped series plus one
FFT multipoint evaluation per block (sigma_slabs_empty_block and its psi
variant).  General point sets use ceil(sqrt(n)) horizontal bands split at
their points into empty blocks; chains use the dyadic block family or
closed-form prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .algebra import RationalStepSeries, direct_rational_eval, multipoint_rational_eval
from .errors import (
    AxisDegeneracyError,
    ConsistencyError,
    DomainError,
    GeneralPositionError,
)
from .games import ShapleyVector, _airport_values

# Deterministic infinitesimal used to separate projected points that share
# an axis coordinate in the mixed-quadrant anchored-bbox reduction.  Cells
# it creates carry ~1e-300 area: exact to double precision, and the limit
# of the game as the spread vanishes is the degenerate game itself.
_TIE_EPS = 1e-300


@dataclass(frozen=True)
class PsiWeights:
    """Per-cell inclusion probabilities for the anchored-bbox game."""

    psi_ne: float
    psi_nw: float
    psi_se: float


def psi_weights(ne, nw, se):
    """psi_* from the dominance counts of a cell; requires ne >= 1 so the
    identity ne*psi_ne + nw*psi_nw + se*psi_se = 1 holds."""
    if ne + nw < 1 or ne + se < 1 or ne + nw + se < 1:
        raise DomainError("psi weights need positive denominators")
    both = 1.0 / (ne + nw + se)
    return PsiWeights(
        1.0 / (ne + nw) + 1.0 / (ne + se) - both,
        1.0 / (ne + nw) - both,
        1.0 / (ne + se) - both,
    )


@dataclass(frozen=True)
class Block:
    """Inclusive cell-index ranges of a rectangular block of grid cells."""

    i0: int
    i1: int
    j0: int
    j1: int

    def __post_init__(self):
        if not (1 <= self.i0 <= self.i1 and 1 <= self.j0 <= self.j1):
            raise DomainError("invalid block index ranges")


class GridArrangement:
    """The cell grid of a point set in the closed positive quadrant.

    Coordinates are stored rank-side: x[0] = 0 < x[1] < ... < x[n] (and the
    same for y), widths w[i] = x[i] - x[i-1] (index 0 unused), and Y[i] is
    the y rank of the point with x rank i.  A single point may sit on each
    axis (rank 1 with width or height 0); coordinate ties are rejected.
    """

    def __init__(self, points):
        pts = geometry.as_points(points)
        if np.any(pts < 0):
            raise DomainError("grid points must lie in the closed positive quadrant")
        geometry.check_distinct_coords(pts)
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
        self.x_rank = np.empty(n, dtype=np.int64)
        self.x_rank[order] = np.arange(1, n + 1)
        self.y_rank = yrank

    def cell_area(self, i, j):
        return float(self.w[i] * self.h[j])

    def ne(self, i, j):
        """Points in the closed NE quadrant of cell (i, j): x rank >= i and
        y rank >= j (O(n) scan; engines use batched counts)."""
        return int(np.sum(self.Y[i:] >= j))

    def nw(self, i, j):
        return int(np.sum(self.Y[1:i] >= j))

    def se(self, i, j):
        return int(np.sum(self.Y[i:] < j))

    def is_empty_block(self, block: Block):
        """No point strictly interior to the block's closed cell union."""
        i = np.arange(max(block.i0, 1), min(block.i1, self.n) + 1)
        inner = i[i < block.i1]
        yv = self.Y[inner]
        return not np.any((yv >= block.j0) & (yv < block.j1))


def _series_values(base, coeffs, deltas, direct=False):
    """Evaluate sum_k coeffs[k] / (base[k] + delta) at every delta.

    base values are grouped into a rational step series; the deltas (all
    <= 0, covering a consecutive run) are answered by one multipoint
    evaluation.  Every touched denominator must stay >= 1.
    """
    base = np.asarray(base, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    l0 = int(base.min())
    dmin = int(deltas.min())
    dmax = int(deltas.max())
    if l0 + dmin < 1:
        raise DomainError("slab series would hit a nonpositive denominator")
    b = np.bincount(base - l0, weights=coeffs)
    series = RationalStepSeries(b, float(l0))
    if direct:
        return direct_rational_eval(series, deltas)
    vals = multipoint_rational_eval(series, dmin, dmax - dmin)
    return vals[deltas - dmin]


def sigma_slabs_empty_block(grid: GridArrangement, block: Block, axis="vertical"):
    """sigma(V(i, B)) for every column of an empty block (or sigma(H(j, B))
    for every row): the sum of area(c)/ne(c) over the slab's cells.

    Requires the block to be empty with ne >= 1 on every cell.
    """
    if axis not in ("vertical", "horizontal"):
        raise DomainError("axis must be 'vertical' or 'horizontal'")
    if not grid.is_empty_block(block):
        raise DomainError("block is not empty")
    if grid.ne(block.i1, block.j1) < 1:
        raise DomainError("block contains a cell with ne = 0")
    i0, i1, j0, j1 = block.i0, block.i1, block.j0, block.j1
    rows = np.arange(j0, j1 + 1)
    cols = np.arange(i0, i1 + 1)
    if axis == "vertical":
        base = np.array([grid.ne(i0, j) for j in rows])
        deltas = np.array([grid.ne(i, j0) for i in cols]) - grid.ne(i0, j0)
        check = np.array([grid.ne(i, j1) for i in cols]) - grid.ne(i0, j1)
        if not np.array_equal(deltas, check):
            raise ConsistencyError("column shifts differ between rows: block not empty")
        vals = _series_values(base, grid.h[rows], deltas)
        return grid.w[cols] * vals
    base = np.array([grid.ne(i, j0) for i in cols])
    deltas = np.array([grid.ne(i0, j) for j in rows]) - grid.ne(i0, j0)
    check = np.array([grid.ne(i1, j) for j in rows]) - grid.ne(i1, j0)
    if not np.array_equal(deltas, check):
        raise ConsistencyError("row shifts differ between columns: block not empty")
    vals = _series_values(base, grid.w[cols], deltas)
    return grid.h[rows] * vals


def sigma_psi_slabs_empty_block(grid: GridArrangement, block: Block, axis="vertical", which="ne"):
    """sigma_*(slab) for every slab of an empty block: the sum of
    area(c) * psi_which(c).

    Decomposes psi into the two closed-form reciprocal families
    1/(ne+nw) = 1/(n-j+1) and 1/(ne+se) = 1/(n-i+1) plus one grouped
    series for 1/(ne+nw+se), which shifts uniformly across slabs of an
    empty block.
    """
    if which not in ("ne", "nw", "se"):
        raise DomainError("which must be 'ne', 'nw' or 'se'")
    if axis not in ("vertical", "horizontal"):
        raise DomainError("axis must be 'vertical' or 'horizontal'")
    if not grid.is_empty_block(block):
        raise DomainError("block is not empty")
    n = grid.n
    i0, i1, j0, j1 = block.i0, block.i1, block.j0, block.j1
    rows = np.arange(j0, j1 + 1)
    cols = np.arange(i0, i1 + 1)

    def den3(i, j):
        return (n - j + 1) + (n - i + 1) - grid.ne(i, j)

    if axis == "vertical":
        base = np.array([den3(i0, j) for j in rows])
        deltas = np.array([den3(i, j0) for i in cols]) - den3(i0, j0)
        check = np.array([den3(i, j1) for i in cols]) - den3(i0, j1)
        if not np.array_equal(deltas, check):
            raise ConsistencyError("den3 shifts differ between rows: block not empty")
        r3 = _series_values(base, grid.h[rows], deltas)
        hs = float(np.sum(grid.h[rows]))
        r1 = float(np.sum(grid.h[rows] / (n - rows + 1.0)))
        r2 = hs / (n - cols + 1.0)
        if which == "ne":
            return grid.w[cols] * (r1 + r2 - r3)
        if which == "nw":
            return grid.w[cols] * (r1 - r3)
        return grid.w[cols] * (r2 - r3)
    base = np.array([den3(i, j0) for i in cols])
    deltas = np.array([den3(i0, j) for j in rows]) - den3(i0, j0)
    check = np.array([den3(i1, j) for j in rows]) - den3(i1, j0)
    if not np.array_equal(deltas, check):
        raise ConsistencyError("den3 shifts differ between columns: block not empty")
    r3 = _series_values(base, grid.w[cols], deltas)
    ws = float(np.sum(grid.w[cols]))
    w2 = float(np.sum(grid.w[cols] / (n - cols + 1.0)))
    r1 = ws / (n - rows + 1.0)
    if which == "ne":
        return grid.h[rows] * (r1 + w2 - r3)
    if which == "nw":
        return grid.h[rows] * (r1 - r3)
    return grid.h[rows] * (w2 - r3)


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


def _ar_increasing(grid, direct=False):
    n = grid.n
    areas = grid.x[1:] * grid.y[1:]
    z = np.diff(np.concatenate([[0.0], areas])) / (n - np.arange(n))
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(z)
    return out


def _dyadic_intervals(n):
    """The dyadic pairs (l, r), r - l = 2^beta >= 2, of the family covering
    [0, 2^ceil(log2(n+1))], restricted to those containing an integer
    a with l < a <= n."""
    N = 1 << max(1, (n + 1 - 1).bit_length())
    out = []
    size = 2
    while size <= N:
        for left in range(0, N, size):
            if left <= n - 1:
                out.append((left, left + size))
        size *= 2
    return out, N


def _ar_decreasing(grid, direct=False):
    """Dyadic divide and conquer for a decreasing chain: ne(c_{i,j}) is the
    closed form n + 2 - i - j, and the blocks hugging the anti-diagonal are
    empty by construction."""
    n = grid.n
    if n == 1:
        return _ar_increasing(grid)
    intervals, N = _dyadic_intervals(n)
    vpref = {}
    hpref = {}
    for (lo, hi) in intervals:
        m = (lo + hi) // 2
        ci0, ci1 = lo + 1, min(m, n)
        rj0, rj1 = max(n - hi + 2, 1), n - m + 1
        if rj1 < rj0 or ci1 < ci0:
            continue
        rows = np.arange(rj0, rj1 + 1)
        cols = np.arange(ci0, ci1 + 1)
        base_v = n + 2 - ci0 - rows
        sig_v = grid.w[cols] * _series_values(base_v, grid.h[rows], ci0 - cols, direct)
        vpref[(lo, hi)] = np.cumsum(sig_v)
        base_h = n + 2 - cols - rj0
        sig_h = grid.h[rows] * _series_values(base_h, grid.w[cols], rj0 - rows, direct)
        hpref[(lo, hi)] = np.cumsum(sig_h)
    out = np.zeros(n + 1)
    for a in range(1, n + 1):
        lo, hi = 0, N
        total = 0.0
        while hi - lo >= 2:
            m = (lo + hi) // 2
            if a <= m:
                if (lo, hi) in vpref:
                    total += vpref[(lo, hi)][a - (lo + 1)]
                if a == m:
                    break
                hi = m
            else:
                if (lo, hi) in hpref:
                    total += hpref[(lo, hi)][(n - a + 1) - max(n - hi + 2, 1)]
                lo = m
        out[a] = total
    return out


def _batched_consecutive_eval(G, n_t, l0, dmin, direct=False):
    """Evaluate every grouped series R_t(x) = sum_g G[t, g] / (l0[t] + g + x)
    at the consecutive integers dmin[t] .. 0.

    Returns C with C[t, s] = R_t(dmin[t] + s).  Tasks are batched per
    power-of-two convolution size, so one FFT call covers all tasks of
    similar extent and padding wastes at most a factor of two.
    """
    T = G.shape[0]
    m = -dmin
    if np.any(l0 + dmin < 1):
        raise DomainError("slab series would hit a nonpositive denominator")
    C = np.zeros((T, int(m.max()) + 1 if T else 1))
    if direct:
        for t in range(T):
            series = RationalStepSeries(G[t, : n_t[t] + 1], float(l0[t]))
            C[t, : m[t] + 1] = direct_rational_eval(series, np.arange(dmin[t], 1))
        return C
    mn = m + n_t
    conv_len = mn + n_t + 1
    keys = np.maximum(8, 2 ** np.ceil(np.log2(np.maximum(conv_len, 2))).astype(np.int64))
    order = np.argsort(keys, kind="stable")
    pos = 0
    while pos < T:
        P = int(keys[order[pos]])
        hi = pos
        while hi < T and keys[order[hi]] == P:
            hi += 1
        idx = order[pos:hi]
        pos = hi
        wa = int(mn[idx].max()) + 1
        k = np.arange(wa)
        valid = k[None, :] <= mn[idx, None]
        denom = (l0 + dmin + mn)[idx, None] - k[None, :]
        a = np.where(valid, 1.0 / np.where(valid, denom, 1.0), 0.0)
        fa = np.fft.rfft(a, P, axis=1)
        fb = np.fft.rfft(G[idx], P, axis=1)
        c = np.fft.irfft(fa * fb, P, axis=1)
        span = int(m[idx].max()) + 1
        s = np.arange(span)
        ok = s[None, :] <= m[idx, None]
        cols = np.where(ok, mn[idx, None] - s[None, :], 0)
        C[idx, :span] = np.take_along_axis(c, cols, axis=1) * ok
    return C


class _BandFrame:
    """Per-band block decomposition with vectorized dominance snapshots.

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
            self.has_tail = False
        else:
            self.ends = np.concatenate([self.bx, [n]]).astype(np.int64)
            self.has_tail = True
        self.B = self.ends.size
        self.starts = np.concatenate([[1], self.ends[:-1] + 1]).astype(np.int64)
        cols = np.arange(1, n + 1)
        self.block_of_col = np.searchsorted(self.ends, cols, side="left")
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
        # ar column shifts and the emptiness consistency check
        a_of = self.starts[self.block_of_col]
        self.delta_col = self.row0[cols] - self.row0[a_of]
        if not np.array_equal(self.rowT[cols] - self.rowT[a_of], self.delta_col):
            raise ConsistencyError("ne column shifts differ inside a block")
        self.a_of_col = a_of


def _suffix_indicator(Y, j):
    """counts[i] = #{x ranks i' >= i with Y[i'] >= j}, i in [0, n+1]."""
    ind = (Y >= j).astype(np.int64)
    ind[0] = 0
    out = np.zeros(Y.size + 1, dtype=np.int64)
    out[:-1] = np.cumsum(ind[::-1])[::-1]
    return out


def _grouped_coeffs(task_of_elem, offsets, weights, n_tasks, width):
    flat = task_of_elem * width + offsets
    return np.bincount(flat, weights=weights, minlength=n_tasks * width).reshape(
        n_tasks, width
    )


def _h_task_split(nh, kb, B):
    """Split horizontal-slab tasks into a batched class and oversized
    stragglers, so the grouped-coefficient matrix stays near-linear."""
    avg = max(1, int(nh.sum()) // max(B, 1))
    cap = max(kb + 1, 4 * avg + 8)
    big = nh + 1 > cap
    return cap, np.nonzero(~big)[0], np.nonzero(big)[0]


def _ar_general(grid, direct=False):
    """Band decomposition: ceil(sqrt(n)) horizontal bands, each split at
    its own points' vertical lines into empty blocks; all per-block series
    in a band are grouped and multipoint-evaluated in batched FFT calls."""
    n = grid.n
    out = np.zeros(n + 1)
    acc = np.zeros(n + 2)  # acc[i]: sum over finished bands of V_<=(i)
    w = grid.w
    for (j0, j1) in _band_rows(n):
        f = _BandFrame(grid, j0, j1)
        kb, B = f.kb, f.B
        hrows = grid.h[j0 : j1 + 1]
        # --- vertical slabs over the positive-ne region (a prefix of columns)
        nz = np.nonzero(f.rowT[1 : n + 1] > 0)[0]
        i_max = int(nz[-1]) + 1 if nz.size else 0
        sigma_v = np.zeros(n + 2)
        if i_max > 0:
            tv = int(f.block_of_col[i_max - 1]) + 1  # blocks with valid columns
            snap = f.snap[:, :tv]
            l0 = snap.min(axis=0)
            n_t = snap.max(axis=0) - l0
            G = _grouped_coeffs(
                np.repeat(np.arange(tv), kb),
                (snap - l0[None, :]).T.ravel(),
                np.tile(hrows, tv),
                tv,
                int(n_t.max()) + 1,
            )
            dcols = f.delta_col[:i_max]
            dmin = np.minimum.reduceat(dcols, f.starts[:tv] - 1)
            C = _batched_consecutive_eval(G, n_t, l0, dmin, direct)
            t_of = f.block_of_col[:i_max]
            vals = C[t_of, dcols - dmin[t_of]]
            sigma_v[1 : i_max + 1] = w[1 : i_max + 1] * vals
        # --- horizontal slabs of the real blocks, rows up to the suffix max
        hreal = len(f.bx)
        sigma_h = np.zeros((kb, B))
        if hreal:
            jt = np.maximum.accumulate(grid.Y[f.bx][::-1])[::-1]
            rmax = jt - j0  # highest needed row per real block
            last = int(f.ends[hreal - 1])
            cols = np.arange(1, last + 1)
            base = f.row0[cols]
            starts0 = f.starts[:hreal] - 1
            l0h = np.minimum.reduceat(base, starts0)
            nh = np.maximum.reduceat(base, starts0) - l0h
            eps = f.snap[:, :hreal] - f.snap[0, :hreal][None, :]
            # rows above a block's suffix-max row may hit ne = 0; the
            # evaluation range must stop at the last needed row
            dminH = eps[rmax, np.arange(hreal)]
            cap, small, big = _h_task_split(nh, kb, hreal)
            t_of = f.block_of_col[: last]
            CH = np.zeros((hreal, kb))
            if small.size:
                sel = np.isin(t_of, small)
                remap = np.full(hreal, -1)
                remap[small] = np.arange(small.size)
                Gs = _grouped_coeffs(
                    remap[t_of[sel]],
                    base[sel] - l0h[t_of[sel]],
                    w[cols[sel]],
                    small.size,
                    cap,
                )
                Cs = _batched_consecutive_eval(
                    Gs, nh[small], l0h[small], dminH[small], direct
                )
                CH[small, : Cs.shape[1]] = Cs
            for t in big:
                a, b = int(f.starts[t]), int(f.ends[t])
                vals = _series_values(
                    f.row0[a : b + 1], w[a : b + 1], eps[: rmax[t] + 1, t], direct
                )
                sigma_h[: rmax[t] + 1, t] = hrows[: rmax[t] + 1] * vals
            if small.size:
                r = np.arange(kb)
                okr = r[:, None] <= rmax[small][None, :]
                s_idx = eps[:, small] - dminH[small][None, :]
                vals = CH[small[None, :], np.where(okr, s_idx, 0)]
                sigma_h[:, small] = hrows[:, None] * vals * okr
        # --- prefix matrices and per-point assembly
        S = np.cumsum(np.cumsum(sigma_h, axis=0), axis=1)
        if hreal:
            r_p = grid.Y[f.bx] - j0
            out[f.bx] = S[r_p, np.arange(hreal)] + acc[f.bx]
        acc[1 : n + 1] += np.cumsum(sigma_v[1 : n + 1])
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
        with np.errstate(divide="ignore"):
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


def _abb_decreasing(grid, direct=False):
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
    u1 = 1.0 / np.arange(1, n)  # 1/k for k = 1 .. n-1
    conv_w = np.convolve(w, u1) if n <= 64 else _fft_convolve(w, u1)
    u2 = 1.0 / np.arange(1, n + 1)  # 1/k for k = 1 .. n
    conv_h = np.convolve(h, u2) if n <= 64 else _fft_convolve(h, u2)

    def conv_at(c, m):
        # both inputs are 1-based sequences stored 0-based: entry for
        # "i + k = m" sits at flat index m - 2
        k = m - 2
        return c[k] if 0 <= k < c.size else 0.0

    # NW sums via the downward recurrence mu_a = mu_{a+1} + col + row parts.
    mu = np.zeros(n + 2)
    for aa in range(n - 1, 0, -1):
        colp = w[aa] * ((chinv[n - aa + 1] - 0.0) - ch[n - aa + 1] / n)
        row_j = n - aa + 1
        rowp = h[row_j - 1] * (
            (cw[n] - cw[aa + 1]) / aa - conv_at(conv_w, n + aa + 1)
        )
        mu[aa] = mu[aa + 1] + colp + rowp
    # SE sums via the upward recurrence eta_a.
    eta = np.zeros(n + 1)
    for aa in range(2, n + 1):
        colp = w[aa - 1] * (
            (ch[n] - ch[n - aa + 1]) / (n - aa + 1.0) - conv_at(conv_h, 2 * n + 2 - aa)
        )
        row_j = n - aa + 2
        rowp = h[row_j - 1] * (cwinv[aa - 1] - cw[aa - 1] / n)
        eta[aa] = eta[aa - 1] + colp + rowp

    out = np.zeros(n + 1)
    out[1:] = s_ne + mu[1 : n + 1] + eta[1:]
    return out


def _fft_convolve(a, b):
    from .algebra import convolve

    return convolve(a, b)


def _abb_general(grid, direct=False):
    """Band engine for the anchored bounding box.

    Reuses the anchored-rectangles band frame: within an empty block only
    the ne+nw+se family needs a series evaluation (ne+nw and ne+se are
    the global reciprocals 1/(n-j+1) and 1/(n-i+1)); each quadrant class
    gets its own prefix orientation over the same slab sums.
    """
    n = grid.n
    bands = _band_rows(n)
    per_band_vse = []
    acc_ne = np.zeros(n + 2)
    acc_nw = np.zeros(n + 3)
    inband = np.zeros(n + 1)
    points_by_band = []
    w = grid.w
    iarr = np.arange(n + 1)
    inv_ne_se = np.zeros(n + 1)
    inv_ne_se[1:] = 1.0 / (n - iarr[1:] + 1.0)
    for (j0, j1) in bands:
        f = _BandFrame(grid, j0, j1)
        kb, B = f.kb, f.B
        hrows = grid.h[j0 : j1 + 1]
        rows = np.arange(j0, j1 + 1)
        hs = float(np.sum(hrows))
        r1_const = float(np.sum(hrows / (n - rows + 1.0)))
        # --- vertical slabs: one ne+nw+se series per block
        den = (n - rows + 1)[:, None] + (n - f.starts + 1)[None, :] - f.snap
        l0 = den.min(axis=0)
        n_t = den.max(axis=0) - l0
        G = _grouped_coeffs(
            np.repeat(np.arange(B), kb),
            (den - l0[None, :]).T.ravel(),
            np.tile(hrows, B),
            B,
            int(n_t.max()) + 1,
        )
        cols = np.arange(1, n + 1)
        delta3 = (f.a_of_col - cols) - f.delta_col
        dmin = np.minimum.reduceat(delta3, f.starts - 1)
        C = _batched_consecutive_eval(G, n_t, l0, dmin, direct)
        t_of = f.block_of_col
        r3 = C[t_of, delta3 - dmin[t_of]]
        r2 = hs * inv_ne_se[1:]
        sig_ne_v = np.zeros(n + 2)
        sig_nw_v = np.zeros(n + 2)
        sig_se_v = np.zeros(n + 2)
        sig_ne_v[1 : n + 1] = w[1:] * (r1_const + r2 - r3)
        sig_nw_v[1 : n + 1] = w[1:] * (r1_const - r3)
        sig_se_v[1 : n + 1] = w[1:] * (r2 - r3)
        # --- horizontal slabs: all blocks (the tail serves the NW prefixes)
        base = (n - j0 + 1) + (n - cols + 1) - f.row0[cols]
        starts0 = f.starts - 1
        l0h = np.minimum.reduceat(base, starts0)
        nh = np.maximum.reduceat(base, starts0) - l0h
        eps3 = -np.arange(kb)[:, None] - (f.snap[:, :] - f.snap[0, :][None, :])
        dminH = eps3[kb - 1, :]
        cap, small, big = _h_task_split(nh, kb, B)
        CH = np.zeros((B, kb))
        sh_r3 = np.zeros((kb, B))
        if small.size:
            sel = np.isin(t_of, small)
            remap = np.full(B, -1)
            remap[small] = np.arange(small.size)
            Gs = _grouped_coeffs(
                remap[t_of[sel]],
                base[sel] - l0h[t_of[sel]],
                w[cols[sel]],
                small.size,
                cap,
            )
            Cs = _batched_consecutive_eval(Gs, nh[small], l0h[small], dminH[small], direct)
            CH[small, : Cs.shape[1]] = Cs
            s_idx = eps3[:, small] - dminH[small][None, :]
            sh_r3[:, small] = CH[small[None, :], s_idx]
        for t in big:
            a, b = int(f.starts[t]), int(f.ends[t])
            sh_r3[:, t] = _series_values(base[a - 1 : b], w[a : b + 1], eps3[:, t], direct)
        ws_t = np.add.reduceat(w[1 : n + 1], starts0)
        w2_t = np.add.reduceat(w[1 : n + 1] * inv_ne_se[1:], starts0)
        r1r = ws_t[None, :] / (n - rows + 1.0)[:, None]
        sh_ne = hrows[:, None] * (r1r + w2_t[None, :] - sh_r3)
        sh_nw = hrows[:, None] * (r1r - sh_r3)
        sh_se = hrows[:, None] * (w2_t[None, :] - sh_r3)
        # --- prefix matrices oriented per quadrant class
        s_ne = np.cumsum(np.cumsum(sh_ne, axis=0), axis=1)
        s_se = np.cumsum(np.cumsum(sh_se[::-1, :], axis=0)[::-1, :], axis=1)
        s_nw = np.cumsum(np.cumsum(sh_nw, axis=0)[:, ::-1], axis=1)[:, ::-1]
        bx = f.bx
        r_p = grid.Y[bx] - j0
        tt = np.arange(len(bx))
        vals = s_ne[r_p, tt] + acc_ne[bx] + acc_nw[bx + 1]
        up = r_p + 1 < kb
        vals[up] += s_se[r_p[up] + 1, tt[up]]
        right = tt + 1 < B
        vals[right] += s_nw[r_p[right], tt[right] + 1]
        inband[bx] = vals
        points_by_band.append(bx)
        acc_ne[1 : n + 1] += np.cumsum(sig_ne_v[1 : n + 1])
        acc_nw[1 : n + 1] += np.cumsum(sig_nw_v[1 : n + 1][::-1])[::-1]
        per_band_vse.append(np.cumsum(sig_se_v[1 : n + 1]))
    # Second pass: SE contributions come from bands strictly above.
    acc_se = np.zeros(n)
    out = np.zeros(n + 1)
    for bi in range(len(bands) - 1, -1, -1):
        bx = points_by_band[bi]
        out[bx] = inband[bx] + acc_se[bx - 1]
        acc_se += per_band_vse[bi]
    return out


# ---------------------------------------------------------------------------
# Quadrant splitting and public entry points.


def _values_by_xrank_to_original(grid, vals):
    out = np.empty(grid.n)
    out[grid.order] = vals[1:]
    return out


def _solve_quadrant_ar(pts_q, method, direct=False):
    grid = GridArrangement(pts_q)
    Y = grid.Y[1:]
    if method == "quadratic":
        vals = _ar_quadratic(grid)
    elif method == "general":
        vals = _ar_general(grid, direct)
    elif np.array_equal(Y, np.arange(1, grid.n + 1)):
        vals = _ar_increasing(grid, direct)
    elif np.array_equal(Y, np.arange(grid.n, 0, -1)):
        vals = _ar_decreasing(grid, direct)
    else:
        vals = _ar_general(grid, direct)
    return _values_by_xrank_to_original(grid, vals)


def _solve_quadrant_abb(pts_q, method, direct=False):
    grid = GridArrangement(pts_q)
    Y = grid.Y[1:]
    if method == "quadratic":
        vals = _abb_quadratic(grid)
    elif method == "general":
        vals = _abb_general(grid, direct)
    elif np.array_equal(Y, np.arange(1, grid.n + 1)):
        # On an increasing chain the anchored bounding box of every
        # coalition coincides with its union of anchored rectangles.
        vals = _ar_increasing(grid, direct)
    elif np.array_equal(Y, np.arange(grid.n, 0, -1)):
        vals = _abb_decreasing(grid, direct)
    else:
        vals = _abb_general(grid, direct)
    return _values_by_xrank_to_original(grid, vals)


def _split_quadrants(pts):
    if np.any(pts[:, 0] == 0.0) or np.any(pts[:, 1] == 0.0):
        raise AxisDegeneracyError("point lies exactly on a coordinate axis")
    sign_x = pts[:, 0] > 0
    sign_y = pts[:, 1] > 0
    for sx, sy in ((True, True), (False, True), (False, False), (True, False)):
        sel = np.nonzero((sign_x == sx) & (sign_y == sy))[0]
        if sel.size:
            yield sel, np.abs(pts[sel])


def shapley_anchored_rects(points, method="fast", direct_series=False):
    """Shapley values of the anchored-rectangles game.

    The game splits across quadrants (each quadrant is reflected to the
    positive one), so only points in the same quadrant must have distinct
    coordinates.  ``method``: "fast" detects chains and uses the
    near-linear chain solvers, falling back to the sqrt-band engine;
    "general" forces the band engine; "quadratic" runs the per-cell
    baseline.
    """
    if method not in ("fast", "general", "quadratic"):
        raise DomainError("method must be 'fast', 'general' or 'quadratic'")
    pts = geometry.as_points(points)
    values = np.zeros(pts.shape[0])
    for sel, sub in _split_quadrants(pts):
        try:
            values[sel] = _solve_quadrant_ar(sub, method, direct_series)
        except GeneralPositionError as exc:
            raise GeneralPositionError(
                str(exc), offending=[tuple(int(sel[k]) for k in t) for t in exc.offending]
            ) from None
    from .games import eval_characteristic

    total = eval_characteristic("anchored-rects", pts)
    return ShapleyVector(values, total, "anchored-rects")


def shapley_anchored_rects_quadratic(points):
    return shapley_anchored_rects(points, method="quadratic")


def _spread_axis_ties(coords):
    """Replace clamped-to-zero coordinates by distinct multiples of a
    deterministic infinitesimal (ascending in original index order)."""
    out = coords.copy()
    zero = np.nonzero(out == 0.0)[0]
    out[zero] = _TIE_EPS * np.arange(1, zero.size + 1)
    return out


def shapley_anchored_bbox(points, method="fast", direct_series=False):
    """Shapley values of the anchored-bounding-box area game.

    The box area splits into the four plane quadrants around the origin;
    the regional game for a quadrant projects every point onto that
    closed quadrant (a point behind an axis only pushes the box along
    the other axis).  Projected points that share an axis coordinate are
    separated by a deterministic infinitesimal, which leaves every double
    within 1e-290 of the exact limit.
    """
    if method not in ("fast", "general", "quadratic"):
        raise DomainError("method must be 'fast', 'general' or 'quadratic'")
    pts = geometry.as_points(points)
    if np.any(pts[:, 0] == 0.0) or np.any(pts[:, 1] == 0.0):
        raise AxisDegeneracyError("point lies exactly on a coordinate axis")
    n = pts.shape[0]
    values = np.zeros(n)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            x = sx * pts[:, 0]
            y = sy * pts[:, 1]
            if not (np.any(x > 0) and np.any(y > 0)):
                continue  # region of the box is always empty
            proj = np.column_stack([
                _spread_axis_ties(np.maximum(x, 0.0)),
                _spread_axis_ties(np.maximum(y, 0.0)),
            ])
            values += _solve_quadrant_abb(proj, method, direct_series)
    from .games import eval_characteristic

    total = eval_characteristic("anchored-bbox-area", pts)
    return ShapleyVector(values, total, "anchored-bbox-area")


def shapley_anchored_bbox_quadratic(points):
    return shapley_anchored_bbox(points, method="quadratic")


def shapley_bbox(points, method="fast", direct_series=False):
    """Shapley values of the bounding-box area game.

    Inclusion-exclusion around the four corners of bb(P):

      area(bb(Q)) =   sum_corners area(bb(Q + corner))
                    - H * (X+ - min x(Q)) - H * (max x(Q) - X-)
                    - W * (Y+ - min y(Q)) - W * (max y(Q) - Y-)
                    + W * H

    Each corner game is an anchored-bbox instance with all points in one
    closed quadrant (the one or two points realizing an extreme coordinate
    land exactly on an axis, which the rank-space engines absorb as a
    zero-width column or row); each band term is an airport game on
    reflected coordinates; the constant splits evenly.
    """
    if method not in ("fast", "general", "quadratic"):
        raise DomainError("method must be 'fast', 'general' or 'quadratic'")
    pts = geometry.as_points(points)
    geometry.check_distinct_coords(pts)
    n = pts.shape[0]
    x = pts[:, 0]
    y = pts[:, 1]
    total = float((x.max() - x.min()) * (y.max() - y.min()))
    if n == 1:
        return ShapleyVector(np.zeros(1), 0.0, "bbox-area")
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(y.min()), float(y.max())
    W = xhi - xlo
    H = yhi - ylo
    values = np.full(n, W * H / n)
    for cx, sx in ((xlo, 1.0), (xhi, -1.0)):
        for cy, sy in ((ylo, 1.0), (yhi, -1.0)):
            sub = np.column_stack([sx * (x - cx), sy * (y - cy)])
            values += _solve_quadrant_abb(sub, method, direct_series)
    values -= H * _airport_values(xhi - x)
    values -= H * _airport_values(x - xlo)
    values -= W * _airport_values(yhi - y)
    values -= W * _airport_values(y - ylo)
    return ShapleyVector(values, total, "bbox-area")


def shapley_bbox_quadratic(points):
    return shapley_bbox(points, method="quadratic")
