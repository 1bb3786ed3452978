"""Brute-force Shapley oracles: ground truth for every fast engine.

Two independent computations of the same quantity: an average of marginal
contributions over all n! insertion orders, and the weighted subset-sum
formula.  Both read coalition values from a dense 2^n table keyed by
bitmask; a caller that runs both on one instance can build the table once
and pass it to each.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import SizeLimitError
from .games import CharacteristicFunction, ShapleyVector

PERMUTATION_LIMIT = 10
SUBSET_LIMIT = 22

_PERM_CHUNK = 200_000

# Orders are enumerated as a head from itertools followed by every order of
# the remaining (at most) _TAIL players, taken from one cached table.
_TAIL = 8


@functools.cache
def _lex_orders(m):
    """Every order of range(m), lexicographic, as a read-only (m!, m) array."""
    if m == 0:
        out = np.zeros((1, 0), dtype=np.int64)
    else:
        sub = _lex_orders(m - 1)
        out = np.empty((m, sub.shape[0], m), dtype=np.int64)
        for first in range(m):
            out[first, :, 0] = first
            out[first, :, 1:] = np.delete(np.arange(m), first)[sub]
        out = out.reshape(-1, m)
    out.flags.writeable = False
    return out


def _order_chunks(n):
    """The rows of itertools.permutations(range(n)), in the same order, as
    int64 arrays of _PERM_CHUNK rows (the last one may be shorter)."""
    m = min(n, _TAIL)
    tail = _lex_orders(m)
    pending, size = [], 0
    for head in itertools.permutations(range(n), n - m):
        rest = np.array(sorted(set(range(n)).difference(head)), dtype=np.int64)
        block = np.empty((tail.shape[0], n), dtype=np.int64)
        block[:, : n - m] = head
        block[:, n - m :] = rest[tail]
        pending.append(block)
        size += block.shape[0]
        if size >= _PERM_CHUNK:
            rows = np.concatenate(pending)
            cut = size - size % _PERM_CHUNK
            yield from np.split(rows[:cut], cut // _PERM_CHUNK)
            pending, size = [rows[cut:]], size - cut
    if size:
        yield np.concatenate(pending)


def coalition_table(game, points):
    """Dense table v[mask] for all 2^n coalitions (v[0] = 0)."""
    char = CharacteristicFunction(game, points)
    n = char.points.shape[0]
    if n > SUBSET_LIMIT:
        raise SizeLimitError(
            f"2^{n} coalition table exceeds the 2^{SUBSET_LIMIT} guard"
        )
    table = np.zeros(1 << n)
    index = np.arange(n)
    for mask in range(1, 1 << n):
        members = index[(mask >> index) & 1 == 1]
        table[mask] = char(members)
    return table


def shapley_by_permutations(game, points, table=None):
    """Exact average of marginal contributions over all n! orders."""
    char = CharacteristicFunction(game, points)
    n = char.points.shape[0]
    if n > PERMUTATION_LIMIT:
        raise SizeLimitError(
            f"n={n} exceeds the n<={PERMUTATION_LIMIT} permutation guard"
        )
    if table is None:
        table = coalition_table(game, points)
    phi = np.zeros(n)
    total = 0
    for chunk in _order_chunks(n):
        total += chunk.shape[0]
        mask = np.zeros(chunk.shape[0], dtype=np.int64)
        for k in range(n):
            pid = chunk[:, k]
            new_mask = mask | (np.int64(1) << pid)
            delta = table[new_mask] - table[mask]
            phi += np.bincount(pid, weights=delta, minlength=n)
            mask = new_mask
    phi /= total
    return ShapleyVector(phi, float(table[-1]), game)


def shapley_by_subsets(game, points, table=None):
    """Weighted subset-sum formula.

    The weights |S|! (n-|S|-1)! / n! are built by a running product of
    ratios s/(n-s), so nothing overflows past n = 20.
    """
    char = CharacteristicFunction(game, points)
    n = char.points.shape[0]
    if n > SUBSET_LIMIT:
        raise SizeLimitError(f"n={n} exceeds the n<={SUBSET_LIMIT} subset guard")
    if table is None:
        table = coalition_table(game, points)

    weights = np.empty(n)
    weights[0] = 1.0 / n
    for s in range(1, n):
        weights[s] = weights[s - 1] * s / (n - s)

    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    phi = np.zeros(n)
    for p in range(n):
        bit = np.int64(1) << p
        absent = masks[(masks & bit) == 0]
        s = sizes[(masks & bit) == 0]
        phi[p] = float(np.sum(weights[s] * (table[absent | bit] - table[absent])))
    return ShapleyVector(phi, float(table[-1]), game)
