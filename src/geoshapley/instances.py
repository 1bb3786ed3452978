"""Random instance generators for verification and benchmarking.

Uniform coordinates in a box are almost surely in general position at
double precision; generators still rejection-sample against the cheap
degeneracy checks that the engines themselves would raise on.
"""

from __future__ import annotations

import numpy as np


def random_chain(rng, n, increasing=True, low=0.1, high=100.0):
    x = np.sort(rng.uniform(low, high, n))
    y = np.sort(rng.uniform(low, high, n))
    if not increasing:
        y = y[::-1]
    return np.column_stack([x, y])


def random_instance(game, rng, n, chain=False):
    """One random instance suited to the game's domain constraints."""
    if game == "airport":
        return np.column_stack([rng.uniform(0.5, 100.0, n), np.zeros(n)])
    if chain:
        pts = random_chain(rng, n, increasing=bool(rng.integers(2)))
        if game in ("bbox-area", "bbox-perimeter", "area-band", "interval-length"):
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


def verification_suite(game, rng, n, count, chain_every=5):
    """A batch of instances; axis games mix in chains periodically."""
    chainable = game in (
        "anchored-rects",
        "bbox-area",
        "anchored-bbox-area",
    )
    for k in range(count):
        yield random_instance(game, rng, n, chain=chainable and k % chain_every == 4)
