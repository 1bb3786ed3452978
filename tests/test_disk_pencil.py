"""The ends of the disk engine's pencil sweep: points on the line of a pair,
which never cross its circles and sit at t = +inf or -inf; the order in
which exactly equal parameters are named in an error; and the guard on
minus_mode."""

import itertools
import warnings

import pytest

from geoshapley.disk import shapley_disk
from geoshapley.errors import DomainError, GeneralPositionError
from geoshapley.oracle import shapley_by_subsets

from conftest import assert_close

# Integer sets that the engine accepts, each with two lines of three or
# five points: in the pencil of a pair on such a line, the points beyond
# the segment are outside every circle and those between are inside.
ON_TWO_LINES = {
    "two-lines-9": [
        (-17, -24), (-20, -29), (10, 21), (-14, 17), (-10, 25), (-8, 29), (-34, -38),
        (30, 21), (27, 3),
    ],
    "two-lines-10": [
        (-3, -2), (-3, -6), (-3, 6), (31, -20), (33, -22), (28, -17), (-4, -31),
        (10, -36), (31, 28), (28, -40),
    ],
}
ON_TWO_LINES_20 = [
    (-4, -23), (-40, -23), (-19, -23), (-22, -23), (-25, -23), (-18, -3), (-42, 15),
    (-38, 12), (-26, 3), (-34, 9), (40, -18), (29, -29), (-12, 23), (-20, 14), (-3, 1),
    (36, 26), (27, 4), (39, 39), (-30, -24), (-16, 4),
]


def _collinear_triples(pts):
    return sum(
        (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in itertools.combinations(pts, 3)
    )


@pytest.mark.parametrize("measure", ["area", "perimeter"])
@pytest.mark.parametrize("name", sorted(ON_TWO_LINES))
def test_points_on_two_pair_lines_match_subsets(measure, name):
    pts = ON_TWO_LINES[name]
    assert _collinear_triples(pts) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shapley_disk(pts, measure)
    want = shapley_by_subsets("disk-" + measure, pts)
    assert_close(got.values, want.values, rel=1e-9)


@pytest.mark.parametrize("measure", ["area", "perimeter"])
def test_points_on_two_pair_lines_match_direct(measure):
    assert _collinear_triples(ON_TWO_LINES_20) == 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shapley_disk(ON_TWO_LINES_20, measure)
        want = shapley_disk(ON_TWO_LINES_20, measure, minus_mode="direct")
    assert_close(got.values, want.values, rel=1e-10)


def test_equal_parameters_name_the_first_tie_by_index():
    # Points 0, 1, 2, 4 and 5 lie on x^2 + y^2 = 65.  In the pencil of
    # (0, 1) the parameters of 2, 4 and 5 are equal; the error names the
    # first tie with them in index order.
    pts = [(1, 8), (-4, 7), (1, -8), (2, -17), (4, 7), (-8, 1)]
    with pytest.raises(GeneralPositionError, match="four points are cocircular") as exc:
        shapley_disk(pts)
    assert exc.value.offending == ((0, 1, 2, 4),)


def test_bad_minus_mode():
    with pytest.raises(DomainError):
        shapley_disk([(0, 0), (1, 1)], minus_mode="x")
