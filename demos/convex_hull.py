"""Shapley values of the convex-hull area and perimeter games.

The engine conditions on the hull edge cut off by a newly inserted point:
for each directed pair (q, q'), level(q, q') counts the points left of
the line, and a closed-form permutation probability rho(2, level) weights
the triangle each point p would add.  One angular sweep per point yields
all levels and all weighted sums.
"""

import numpy as np

from geoshapley import (
    all_pair_levels,
    shapley_by_permutations,
    shapley_hull_area,
    shapley_hull_area_naive,
    shapley_hull_perimeter,
)
from geoshapley.games import rho

rng = np.random.default_rng(42)

# Levels of a convex quadrilateral: each ccw hull edge keeps the other
# two points on its left.
quad = np.array([(0.0, 0.0), (2.0, 0.2), (2.2, 2.0), (0.1, 1.8)])
levels = all_pair_levels(quad)
edge_levels = [int(levels[i, (i + 1) % 4]) for i in range(4)]
print("levels of ccw hull edges:", edge_levels)
print("rho at those levels:", rho(2, edge_levels))

# Small instance: the fast engine, the per-point naive variant, and the
# factorial oracle all coincide.
pts = rng.uniform(-5, 5, (7, 2))
fast = shapley_hull_area(pts)
naive = shapley_hull_area_naive(pts)
oracle = shapley_by_permutations("hull-area", pts)
print("\nn=7 hull-area")
print("  fast  :", np.round(fast.values, 10))
print("  naive :", np.round(naive.values, 10))
print("  oracle:", np.round(oracle.values, 10))

# Interior points earn little; extreme points carry the hull.
pts = np.vstack([rng.uniform(-10, 10, (500, 2)), rng.uniform(-1, 1, (500, 2))])
sv = shapley_hull_area(pts)
outer = sv.values[:500].sum()
inner = sv.values[500:].sum()
print(f"\nn=1000: outer cloud receives {outer / sv.game_total:.1%} of the hull area,")
print(f"        the dense inner cloud only {inner / sv.game_total:.2%}")

sv = shapley_hull_perimeter(pts)
print(f"perimeter game on the same instance: residual {sv.efficiency_residual:.2e}")
