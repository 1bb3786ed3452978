"""Random instance generators for verification and benchmarking.

The generators draw uniform coordinates without rejection: the hull and
disk engines reject only sets that uniform draws almost surely avoid,
and the other engines accept every finite input.
"""

from __future__ import annotations

import numpy as np

from .games import GAMES

# Chains draw both coordinates uniformly from [_CHAIN_LOW, _CHAIN_HIGH).
_CHAIN_LOW, _CHAIN_HIGH = 0.1, 100.0

# Every _CHAIN_EVERY-th instance of a verification suite of a game whose
# fast solver detects chains is a chain.
_CHAIN_EVERY = 5


def random_chain(rng, n, increasing=True):
    x = np.sort(rng.uniform(_CHAIN_LOW, _CHAIN_HIGH, n))
    y = np.sort(rng.uniform(_CHAIN_LOW, _CHAIN_HIGH, n))
    if not increasing:
        y = y[::-1]
    return np.column_stack([x, y])


def random_instance(game, rng, n, chain=False):
    """One random instance in the game's domain (see games.Game); a chain
    is centred on the origin unless the domain is anchored."""
    domain = GAMES[game].domain
    if domain == "line+":
        return np.column_stack([rng.uniform(0.5, 100.0, n), np.zeros(n)])
    if chain:
        pts = random_chain(rng, n, increasing=bool(rng.integers(2)))
        return pts if domain == "anchored" else pts - pts.mean(axis=0)
    if domain == "anchored" and rng.integers(2):
        return rng.uniform(0.1, 100.0, (n, 2))  # one quadrant; else all four
    return rng.uniform(-50.0, 50.0, (n, 2))


def verification_suite(game, rng, n, count):
    """A batch of instances, mixing in chains periodically for the games
    whose fast solver detects them."""
    chainable = GAMES[game].chains
    for k in range(count):
        yield random_instance(game, rng, n, chain=chainable and k % _CHAIN_EVERY == _CHAIN_EVERY - 1)
