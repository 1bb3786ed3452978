"""The per-subset coalition table: one ``eval_characteristic`` call per
mask.  It is the reference the batched oracle tables are checked against."""

import numpy as np

from geoshapley import geometry
from geoshapley.games import check_game, eval_characteristic


class CharacteristicFunction:
    """Callable v(Q) bound to a fixed player set, keyed by index arrays."""

    def __init__(self, game, points):
        check_game(game)
        self.game = game
        self.points = geometry.as_points(points)

    def __call__(self, indices):
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            return 0.0
        return eval_characteristic(self.game, self.points[idx], self.points)


def subset_loop_table(game, points):
    """Dense table v[mask] for all 2^n coalitions, one subset at a time."""
    char = CharacteristicFunction(game, points)
    n = char.points.shape[0]
    table = np.zeros(1 << n)
    index = np.arange(n)
    for mask in range(1, 1 << n):
        members = index[(mask >> index) & 1 == 1]
        table[mask] = char(members)
    return table
