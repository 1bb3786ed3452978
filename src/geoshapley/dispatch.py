"""Game-to-algorithm registry used by the CLI and the verification harness.

The tables name each solver by module and function, and ``solver_for``
imports only the module that serves the requested pair, so a process that
solves one game loads no other game's engine.
"""

from __future__ import annotations

import importlib

from . import games
from .errors import DomainError

ALGORITHM_NAMES = ("auto", "fast", "quadratic", "naive", "oracle-perm", "oracle-subset")

# game -> (module, function, keyword arguments after the points).
_FAST = {
    "hull-area": ("hull", "shapley_hull_area", {}),
    "hull-perimeter": ("hull", "shapley_hull_perimeter", {}),
    "disk-area": ("disk", "shapley_disk", {"measure": "area"}),
    "disk-perimeter": ("disk", "shapley_disk", {"measure": "perimeter"}),
    "anchored-rects": ("axis", "shapley_anchored_rects", {}),
    "bbox-area": ("axis", "shapley_bbox", {}),
    "anchored-bbox-area": ("axis", "shapley_anchored_bbox", {}),
    "airport": ("dispatch", "_airport", {}),
    "interval-length": ("dispatch", "_interval", {}),
    "area-band": ("games", "shapley_area_band", {}),
    "bbox-perimeter": ("games", "shapley_bbox_perimeter", {}),
    "anchored-bbox-perimeter": ("games", "shapley_anchored_bbox_perimeter", {}),
}

_QUADRATIC = {
    "anchored-rects": ("axis", "shapley_anchored_rects_quadratic", {}),
    "bbox-area": ("axis", "shapley_bbox_quadratic", {}),
    "anchored-bbox-area": ("axis", "shapley_anchored_bbox_quadratic", {}),
}

_NAIVE = {
    "hull-area": ("hull", "shapley_hull_area_naive", {}),
    "hull-perimeter": ("hull", "shapley_hull_perimeter", {"naive": True}),
    "disk-area": ("disk", "shapley_disk", {"measure": "area", "minus_mode": "direct"}),
    "disk-perimeter": ("disk", "shapley_disk", {"measure": "perimeter", "minus_mode": "direct"}),
}


def _airport(pts):
    return games.shapley_airport(pts[:, 0])


def _interval(pts):
    return games.shapley_interval_length(pts[:, 0])


def _load(entry):
    """The solver an entry names, its module imported on this call."""
    module, name, kwargs = entry
    fn = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    return (lambda p: fn(p, **kwargs)) if kwargs else fn


def solver_for(game, algorithm):
    """Resolve (game, algorithm) to a callable points -> ShapleyVector.

    "auto" picks the fast engine (which already detects chains); the
    brute-force oracles are never auto-selected.
    """
    games.check_game(game)
    if algorithm not in ALGORITHM_NAMES:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    if algorithm in ("auto", "fast"):
        return _load(_FAST[game])
    if algorithm == "quadratic":
        if game not in _QUADRATIC:
            raise DomainError(f"no quadratic baseline for game {game!r}")
        return _load(_QUADRATIC[game])
    if algorithm == "naive":
        if game not in _NAIVE:
            raise DomainError(f"no naive variant for game {game!r}")
        return _load(_NAIVE[game])
    from . import oracle

    if algorithm == "oracle-perm":
        return lambda p: oracle.shapley_by_permutations(game, p)
    return lambda p: oracle.shapley_by_subsets(game, p)


def algorithms_for(game, n):
    """All algorithm names applicable to a game at instance size n."""
    from .oracle import PERMUTATION_LIMIT, SUBSET_LIMIT

    out = ["fast"]
    if game in _QUADRATIC:
        out.append("quadratic")
    if game in _NAIVE:
        out.append("naive")
    if n <= PERMUTATION_LIMIT:
        out.append("oracle-perm")
    if n <= SUBSET_LIMIT:
        out.append("oracle-subset")
    return out
