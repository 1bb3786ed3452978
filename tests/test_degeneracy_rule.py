"""The one degeneracy rule of the hull and disk engines: a tested value is
degenerate when it is at most DEGENERACY_TOL times a scale built from its
own operands, so the units of the input never change a decision."""

import ast
import os

import numpy as np
import pytest

from geoshapley import geometry
from geoshapley.disk import shapley_disk
from geoshapley.errors import GeneralPositionError
from geoshapley.hull import shapley_hull_area, shapley_hull_perimeter
from geoshapley.oracle import shapley_by_subsets

from conftest import assert_close

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "geoshapley")

GAMES = {
    "hull-area": (shapley_hull_area, 2),
    "hull-perimeter": (shapley_hull_perimeter, 1),
    "disk-area": (lambda p: shapley_disk(p, "area"), 2),
    "disk-perimeter": (lambda p: shapley_disk(p, "perimeter"), 1),
}

BASE = np.random.default_rng(0).uniform(-5.0, 5.0, (40, 2))


@pytest.fixture(scope="module")
def at_unit_scale():
    return {game: solve(BASE) for game, (solve, _) in GAMES.items()}


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("exponent", [-30, -20, 20, 30])
def test_power_of_two_scaling_is_exact(at_unit_scale, game, exponent):
    # Scaling by 2^e is exact in floating point, so every value and the
    # total scale by exactly 2^(e * degree); an absolute constant anywhere
    # in the engine would show as a rejection or a changed bit.
    solve, degree = GAMES[game]
    factor = 2.0 ** (exponent * degree)
    got = solve(BASE * 2.0**exponent)
    want = at_unit_scale[game]
    assert np.array_equal(got.values, want.values * factor)
    assert got.game_total == want.game_total * factor


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e6])
def test_decimal_scaling(at_unit_scale, game, scale):
    solve, degree = GAMES[game]
    factor = scale**degree
    got = solve(BASE * scale)
    assert_close(got.values / factor, at_unit_scale[game].values, rel=1e-9)
    assert_close(got.game_total / factor, at_unit_scale[game].game_total, rel=1e-9)
    assert abs(got.efficiency_residual) <= 1e-9 * abs(got.game_total)


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("seed", range(20))
def test_mixed_scale_cluster_matches_subsets(game, seed):
    # Six points within 1e-6 of (3, 3) beside six spread over [-10, 10]^2:
    # the cluster's own differences set the scale of its predicates.
    rng = np.random.default_rng(seed)
    pts = np.vstack([3.0 + rng.uniform(-1e-6, 1e-6, (6, 2)), rng.uniform(-10.0, 10.0, (6, 2))])
    got = GAMES[game][0](pts)
    want = shapley_by_subsets(game, pts)
    assert_close(got.values, want.values, rel=1e-9)
    assert_close(got.game_total, want.game_total, rel=1e-9)


@pytest.mark.parametrize("measure", ["area", "perimeter"])
@pytest.mark.parametrize("minus_mode", ["pencil", "direct"])
def test_exact_translation_keeps_disk_values_bit_for_bit(measure, minus_mode):
    # Coordinates on a 2^-36 grid stay exact when shifted by 3 * 2^15, so the
    # shifted set has the same geometry; the midpoints of its pairs do not
    # stay exact, so any predicate or parameter formed from them shows.
    base = np.round(BASE * 2.0**36) / 2.0**36
    shifted = base + 3 * 2.0**15
    assert np.array_equal(shifted - 3 * 2.0**15, base)
    want = shapley_disk(base, measure, minus_mode)
    got = shapley_disk(shifted, measure, minus_mode)
    assert np.array_equal(got.values, want.values)
    assert got.game_total == want.game_total


def _offset_right_triangle(seed):
    """An axis-aligned right triangle near (1e5, 1e5), exactly right-angled
    in floating point, among five random points; returns the points and the
    triangle's indices."""
    rng = np.random.default_rng(seed)
    corner = 1e5 + 0.1 + rng.uniform(0.0, 1.0, 2)
    legs = rng.uniform(0.5, 2.0, 2)
    tri = [corner, corner + [legs[0], 0.0], corner + [0.0, legs[1]]]
    pts = np.vstack([tri, corner + rng.uniform(-2.0, 3.0, (5, 2))])
    perm = rng.permutation(len(pts))
    return pts[perm], tuple(sorted(int(k) for k in np.argsort(perm)[:3]))


@pytest.mark.parametrize("measure", ["area", "perimeter"])
@pytest.mark.parametrize("minus_mode", ["pencil", "direct"])
@pytest.mark.parametrize("seed", range(8))
def test_offset_right_triangle_rejected(seed, measure, minus_mode):
    # The right-angled corner lies on the diametral circle of the other two
    # points, and that pair check is all that rejects the triangle.  Its
    # power must not carry rounding on the scale of the coordinates (about
    # 1e-11 here): noise read as outside would make the triangle an acute
    # basis with no error.
    pts, triangle = _offset_right_triangle(seed)
    with pytest.raises(GeneralPositionError, match="diametral circle") as exc:
        shapley_disk(pts, measure, minus_mode)
    assert exc.value.offending == (triangle,)


def test_orientation_agrees_with_the_sweep():
    # Seen from (0, 0) the other two are 7.5e-13 rad apart, which the hull
    # sweep rejects as a near-collinear triple (test_hull).
    assert geometry.orientation((0, 0), (1000, 0), (2000, 1.5e-9)) == 0
    assert geometry.orientation((0, 0), (1000, 0), (2000, 1.5e-6)) == 1


def test_tiny_square_far_out_keeps_its_corners():
    pts = [(1e6, 1e6), (1e6 + 1e-9, 1e6), (1e6, 1e6 + 1e-9), (1e6 + 1e-9, 1e6 + 1e-9)]
    assert geometry.convex_hull(pts).shape == (4, 2)


def _tolerance_sites(source):
    """Lines holding an absolute floor, max(1.0, .) or np.maximum(1.0, .),
    or a float literal below 1e-6 other than DEGENERACY_TOL's definition."""
    tree = ast.parse(source)
    exempt = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["DEGENERACY_TOL"]
    }
    sites = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("max", "maximum") and any(
                isinstance(a, ast.Constant) and isinstance(a.value, float) and a.value == 1.0
                for a in node.args
            ):
                sites.add(node.lineno)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < 1e-6
            and id(node) not in exempt
        ):
            sites.add(node.lineno)
    return sites


def test_one_tolerance_in_the_engines():
    # The oracle keeps tolerances of its own, so that the reference stays
    # independent of the engines.
    found = []
    for module in ("geometry.py", "hull.py", "disk.py"):
        with open(os.path.join(SRC, module)) as fh:
            found += [f"{module}:{line}" for line in sorted(_tolerance_sites(fh.read()))]
    assert not found, "tolerances besides DEGENERACY_TOL: " + ", ".join(found)
