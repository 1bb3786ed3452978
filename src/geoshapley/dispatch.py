"""Resolve a (game, algorithm) pair to a solver, for the CLI and the
verification harness.

The rows of ``games.GAMES`` name each solver by module and function, and
``solver_for`` imports only the module that serves the requested pair, so
a process that solves one game loads no other game's engine.
"""

from __future__ import annotations

import importlib

from . import games
from .errors import DomainError

ALGORITHM_NAMES = ("auto", "fast", "quadratic", "naive", "oracle-perm", "oracle-subset")


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
    if algorithm.startswith("oracle-"):
        from . import oracle

        if algorithm == "oracle-perm":
            return lambda p: oracle.shapley_by_permutations(game, p)
        return lambda p: oracle.shapley_by_subsets(game, p)
    entry = getattr(games.GAMES[game], "fast" if algorithm == "auto" else algorithm)
    if entry is None:
        kind = "baseline" if algorithm == "quadratic" else "variant"
        raise DomainError(f"no {algorithm} {kind} for game {game!r}")
    return _load(entry)


def algorithms_for(game, n):
    """All algorithm names applicable to a game at instance size n."""
    from .oracle import PERMUTATION_LIMIT, SUBSET_LIMIT

    row = games.GAMES[game]
    out = ["fast"] + [a for a in ("quadratic", "naive") if getattr(row, a)]
    if n <= PERMUTATION_LIMIT:
        out.append("oracle-perm")
    if n <= SUBSET_LIMIT:
        out.append("oracle-subset")
    return out
