"""The random instances behind `verify`, pinned by digest.

The verify report shows a change in how a game's instances are drawn only
through its discrepancy figures; these digests show it directly.  Each is
the first 16 hex digits of a SHA-256 over every instance's shape and
float64 bytes, in draw order.
"""

import hashlib

import numpy as np
import pytest

from geoshapley import cli
from geoshapley.games import GAME_KINDS
from geoshapley.instances import verification_suite

SEEDS = (0, 7)

# verification_suite(game, rng, n, 5) for n = 3..8 from one
# default_rng(seed) per game, for each of SEEDS.
_SUITE = {
    "hull-area": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "hull-perimeter": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "disk-area": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "disk-perimeter": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "anchored-rects": ("dec277a31c672f2e", "d5170d201b4167d9"),
    "bbox-area": ("5b7c267c3932a9ea", "65225e8e2e71a647"),
    "anchored-bbox-area": ("dec277a31c672f2e", "d5170d201b4167d9"),
    "airport": ("3b777b56e06f5127", "641d62706b07c635"),
    "interval-length": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "area-band": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "bbox-perimeter": ("e6e92eac273dc857", "d4c41d06bd3dee3c"),
    "anchored-bbox-perimeter": ("ada14aa5086321f8", "1e4b89e993bf8bb5"),
}

# The instances `verify --chains --nmin 3 --nmax 8 --instances 5 --seed 7`
# checks, one game per run.
_CHAINS = {
    "hull-area": "d4c41d06bd3dee3c",
    "hull-perimeter": "d4c41d06bd3dee3c",
    "disk-area": "d4c41d06bd3dee3c",
    "disk-perimeter": "d4c41d06bd3dee3c",
    "anchored-rects": "d815b4fc20327028",
    "bbox-area": "d815b4fc20327028",
    "anchored-bbox-area": "d815b4fc20327028",
    "airport": "641d62706b07c635",
    "interval-length": "d4c41d06bd3dee3c",
    "area-band": "d4c41d06bd3dee3c",
    "bbox-perimeter": "d4c41d06bd3dee3c",
    "anchored-bbox-perimeter": "1e4b89e993bf8bb5",
}


def _digest(instances):
    h = hashlib.sha256()
    for pts in instances:
        h.update(repr(pts.shape).encode())
        h.update(np.ascontiguousarray(pts, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("game", GAME_KINDS)
def test_suite_draws(game):
    got = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        got.append(_digest(pts for n in range(3, 9) for pts in verification_suite(game, rng, n, 5)))
    assert tuple(got) == _SUITE[game]


@pytest.mark.parametrize("game", GAME_KINDS)
def test_chain_draws(game, capsys, monkeypatch):
    drawn = []

    def record(game, pts, ref_name, algos):
        drawn.append(pts)
        return np.zeros(len(pts)), {}

    monkeypatch.setattr(cli, "_verify_solutions", record)
    argv = ["verify", "--games", game, "--chains", "--nmin", "3", "--nmax", "8",
            "--instances", "5", "--seed", "7"]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(drawn) == 6 * 5
    assert _digest(drawn) == _CHAINS[game]
