"""Random instance generators for verification and benchmarking.

Uniform coordinates in a box are almost surely in general position at
double precision, so the generators draw without rejection; the few
draws that land near a coordinate axis are pushed off it.
"""

from __future__ import annotations

import numpy as np

# Chains draw both coordinates uniformly from [_CHAIN_LOW, _CHAIN_HIGH).
_CHAIN_LOW, _CHAIN_HIGH = 0.1, 100.0

# The rank-space games, whose fast solvers detect chains.
CHAIN_GAMES = ("anchored-rects", "bbox-area", "anchored-bbox-area")

# Every _CHAIN_EVERY-th instance of a verification suite of a rank-space
# game is a chain.
_CHAIN_EVERY = 5


def random_chain(rng, n, increasing=True):
    x = np.sort(rng.uniform(_CHAIN_LOW, _CHAIN_HIGH, n))
    y = np.sort(rng.uniform(_CHAIN_LOW, _CHAIN_HIGH, n))
    if not increasing:
        y = y[::-1]
    return np.column_stack([x, y])


def random_instance(game, rng, n, chain=False):
    """One random instance suited to the game's domain constraints."""
    if game == "airport":
        return np.column_stack([rng.uniform(0.5, 100.0, n), np.zeros(n)])
    if chain:
        pts = random_chain(rng, n, increasing=bool(rng.integers(2)))
        if game == "bbox-area":
            return pts - pts.mean(axis=0)
        return pts
    if game in ("anchored-rects", "anchored-bbox-area", "anchored-bbox-perimeter"):
        # mix of one-quadrant and all-quadrant instances
        if rng.integers(2):
            return rng.uniform(0.1, 100.0, (n, 2))
        pts = rng.uniform(-50.0, 50.0, (n, 2))
        pts[np.abs(pts) < 1e-3] += 0.01  # stay clear of the axes
        return pts
    return rng.uniform(-50.0, 50.0, (n, 2))


def verification_suite(game, rng, n, count):
    """A batch of instances; the rank-space games mix in chains periodically."""
    chainable = game in CHAIN_GAMES
    for k in range(count):
        yield random_instance(game, rng, n, chain=chainable and k % _CHAIN_EVERY == _CHAIN_EVERY - 1)
