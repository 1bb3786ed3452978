"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the per-criterion
summary lines (without -s pytest shows them only for failing criteria).

Criterion notes:
  * Efficiency (3) runs every algorithm that is feasible at the stated
    sizes: fast and quadratic engines for the axis games at 1e2/1e3/1e4,
    the fast hull engine at 5e3, and the fast disk engine at 3e2; the
    slower baselines are pinned to the same tolerances at their own scales
    in criterion 4.
  * The square-plus-center golden (7) asserts the oracle-confirmed values
    [29/120 x4, 1/30] (the center earns 1/30: it is not a null player),
    re-confirming them against both oracles in the test body.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from geoshapley import (
    GAME_KINDS,
    GridArrangement,
    coalition_table,
    shapley_airport,
    shapley_anchored_rects,
    shapley_by_permutations,
    shapley_by_subsets,
    shapley_disk,
    shapley_hull_area,
)
from geoshapley import axis
from geoshapley.axis import (
    _abb_cols_psi,
    shapley_anchored_bbox,
    shapley_anchored_bbox_quadratic,
    shapley_anchored_rects_quadratic,
    shapley_bbox,
    shapley_bbox_quadratic,
)
from geoshapley.cli import main as cli_main
from geoshapley.dispatch import algorithms_for, solver_for
from geoshapley.games import (
    shapley_anchored_bbox_perimeter,
    shapley_area_band,
    shapley_bbox_perimeter,
    shapley_interval_length,
)
from geoshapley.hull import shapley_hull_area_naive, shapley_hull_perimeter
from geoshapley.instances import random_chain, random_instance, verification_suite

from permcount import (
    TripleCounts,
    prob_first_of_A_before_B_or_C,
    prob_first_of_A_exact,
    prob_first_of_B_before_A_after_some_C,
    prob_first_of_B_exact,
    prob_sandwich,
    prob_sandwich_exact,
)
from rational_series import RationalStepSeries, direct_rational_eval, engine_multipoint_eval

REL = 1e-9
ABS = 1e-12


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)  # run with -s to stream the criterion lines
    assert ok, line


def rel_diff(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = np.maximum(np.abs(want), ABS / REL)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


def test_criterion_1_oracle_equivalence_all_games():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for game in GAME_KINDS:
        for n in range(2, 9):
            for pts in verification_suite(game, rng, n, 50):
                table = coalition_table(game, pts)
                ref = shapley_by_permutations(game, pts, table=table).values
                for algo in ("fast", "quadratic", "naive"):
                    try:
                        solver = solver_for(game, algo)
                    except Exception:
                        continue
                    worst = max(worst, rel_diff(solver(pts).values, ref))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle-equivalence-all-games",
        worst <= REL,
        f"max rel diff {worst:.2e}, 4200 instances in {elapsed:.0f}s",
    )
    assert elapsed < 300.0, "criterion-1 suite exceeded the 5 minute budget"


def test_criterion_2_cross_oracle_agreement():
    rng = np.random.default_rng(202)
    worst = 0.0
    for game in GAME_KINDS:
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pts = random_instance(game, rng, n)
            table = coalition_table(game, pts)
            a = shapley_by_permutations(game, pts, table=table).values
            b = shapley_by_subsets(game, pts, table=table).values
            worst = max(worst, rel_diff(a, b))
    report(2, "cross-oracle-agreement", worst <= 1e-12, f"max rel diff {worst:.2e}")


def test_criterion_3_efficiency_axiom():
    rng = np.random.default_rng(303)
    worst = 0.0

    def check(sv):
        nonlocal worst
        worst = max(worst, abs(sv.efficiency_residual) / max(abs(sv.game_total), ABS))

    axis_sizes = (100, 1000, 10_000)
    for n in axis_sizes:
        pos = rng.uniform(0.1, 100.0, (n, 2))
        plane = rng.uniform(-50.0, 50.0, (n, 2))
        check(shapley_anchored_rects(pos))
        check(shapley_anchored_rects_quadratic(pos))
        check(shapley_anchored_bbox(pos))
        check(shapley_anchored_bbox_quadratic(pos))
        check(shapley_bbox(plane))
        check(shapley_bbox_quadratic(plane))
        check(shapley_airport(rng.uniform(0.5, 100.0, n)))
        check(shapley_interval_length(plane[:, 0]))
        check(shapley_area_band(plane))
        check(shapley_bbox_perimeter(plane))
        check(shapley_anchored_bbox_perimeter(plane))
    hull_pts = rng.uniform(-50.0, 50.0, (5000, 2))
    check(shapley_hull_area(hull_pts))
    check(shapley_hull_perimeter(hull_pts))
    disk_pts = rng.uniform(-50.0, 50.0, (300, 2))
    check(shapley_disk(disk_pts, "area"))
    check(shapley_disk(disk_pts, "perimeter"))
    report(3, "efficiency-axiom", worst <= REL, f"max rel residual {worst:.2e}")


def test_criterion_4_fast_vs_baseline_equivalence():
    rng = np.random.default_rng(404)
    checks = []

    pts300 = rng.uniform(-50.0, 50.0, (300, 2))
    checks.append(
        (
            "hull fast=naive n=300",
            rel_diff(
                shapley_hull_area(pts300).values,
                shapley_hull_area_naive(pts300).values,
            ),
            1e-10,
        )
    )
    checks.append(
        (
            "hull-perimeter fast=naive n=300",
            rel_diff(
                shapley_hull_perimeter(pts300).values,
                shapley_hull_perimeter(pts300, naive=True).values,
            ),
            1e-10,
        )
    )

    pos2000 = rng.uniform(0.1, 100.0, (2000, 2))
    plane2000 = rng.uniform(-50.0, 50.0, (2000, 2))
    checks.append(
        (
            "ar fast=quadratic n=2000",
            rel_diff(
                shapley_anchored_rects(pos2000).values,
                shapley_anchored_rects_quadratic(pos2000).values,
            ),
            1e-9,
        )
    )
    checks.append(
        (
            "abb fast=quadratic n=2000",
            rel_diff(
                shapley_anchored_bbox(pos2000).values,
                shapley_anchored_bbox_quadratic(pos2000).values,
            ),
            1e-9,
        )
    )
    checks.append(
        (
            "bbox fast=quadratic n=2000",
            rel_diff(
                shapley_bbox(plane2000).values,
                shapley_bbox_quadratic(plane2000).values,
            ),
            1e-9,
        )
    )

    disk30 = rng.uniform(-50.0, 50.0, (30, 2))
    checks.append(
        (
            "disk pencil=direct phi-minus n=30",
            rel_diff(
                shapley_disk(disk30, "area", minus_mode="pencil").values,
                shapley_disk(disk30, "area", minus_mode="direct").values,
            ),
            1e-10,
        )
    )

    for inc in (True, False):
        ch = random_chain(rng, 2000, increasing=inc)
        label = "inc" if inc else "dec"
        checks.append(
            (
                f"ar chain({label})=general n=2000",
                rel_diff(
                    shapley_anchored_rects(ch).values,
                    axis._solve_regions(ch, axis._ar_general, both=True),
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"abb chain({label})=general n=2000",
                rel_diff(
                    shapley_anchored_bbox(ch).values,
                    axis._solve_regions(ch, axis._abb_general, both=False),
                ),
                1e-9,
            )
        )

    ok = all(diff <= tol for _, diff, tol in checks)
    worst = max(diff for _, diff, _ in checks)
    report(4, "fast-vs-baseline-equivalence", ok, f"worst rel diff {worst:.2e}")


def _enumerate_sandwich_exact(alpha, beta, extra=0):
    """Fraction of permutations of alpha + beta + 1 + extra labeled elements
    with all beta elements of B before x and all alpha elements of A after."""
    n = alpha + beta + 1 + extra
    good = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        pos = [0] * n
        for slot, e in enumerate(perm):
            pos[e] = slot
        px = pos[0]
        if all(pos[1 + k] > px for k in range(alpha)) and all(
            pos[1 + alpha + k] < px for k in range(beta)
        ):
            good += 1
    return Fraction(good, total)


def test_criterion_5_probability_validation():
    failures = []

    # Sandwich family: the engines' rho/rho' (games.rho, games.rho_prime:
    # hull at size 2, disk at sizes 2 and 3), the direct disk path's
    # rho(B)/rho'(B) and prob_sandwich are all before/after ordering
    # probabilities.
    sandwich_cases = [
        (0, 0, 0),
        (1, 1, 0),
        (2, 3, 2),  # 8 labeled elements
        (3, 2, 1),
        (0, 3, 2),
        (4, 1, 1),
    ]
    for alpha, beta, extra in sandwich_cases:
        exact = _enumerate_sandwich_exact(alpha, beta, extra)
        if prob_sandwich_exact(alpha, beta) != exact:
            failures.append(f"sandwich({alpha},{beta}) exact")
        if abs(prob_sandwich(alpha, beta) - float(exact)) > 1e-12:
            failures.append(f"sandwich({alpha},{beta}) float")

    from geoshapley.games import rho, rho_prime

    for size in (2, 3):
        for level in (1, 2, 3):
            if abs(rho(size, level) - float(prob_sandwich_exact(level - 1, size))) > 1e-12:
                failures.append(f"rho size={size} level={level}")
        for level in (0, 1, 2, 3):
            if abs(rho_prime(size, level) - float(prob_sandwich_exact(level, size - 1))) > 1e-12:
                failures.append(f"rho' size={size} level={level}")

    # First-of-set ordering probabilities, enumerated exactly over <= 8
    # labeled elements.
    def enum_first_A(a, b, g, extra):
        n = a + b + g + extra
        good = total = 0
        for perm in itertools.permutations(range(n)):
            total += 1
            pos = [0] * n
            for slot, e in enumerate(perm):
                pos[e] = slot
            if any(pos[k] < pos[0] for k in range(1, a)):
                continue
            if all(pos[0] < pos[a + k] for k in range(b)) or all(
                pos[0] < pos[a + b + k] for k in range(g)
            ):
                good += 1
        return Fraction(good, total)

    def enum_first_B(a, b, g, extra):
        n = a + b + g + extra
        good = total = 0
        for perm in itertools.permutations(range(n)):
            total += 1
            pos = [0] * n
            for slot, e in enumerate(perm):
                pos[e] = slot
            pb = pos[a]
            if any(pos[a + k] < pb for k in range(1, b)):
                continue
            if any(pos[k] < pb for k in range(a)):
                continue
            if any(pos[a + b + k] < pb for k in range(g)):
                good += 1
        return Fraction(good, total)

    for a, b, g, extra in [(1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 2), (3, 2, 1, 1)]:
        if prob_first_of_A_exact(TripleCounts(a, b, g)) != enum_first_A(a, b, g, extra):
            failures.append(f"first-of-A({a},{b},{g})")
        if (
            abs(
                prob_first_of_A_before_B_or_C(TripleCounts(a, b, g))
                - float(enum_first_A(a, b, g, extra))
            )
            > 1e-12
        ):
            failures.append(f"first-of-A({a},{b},{g}) float")
    for a, b, g, extra in [(1, 1, 1, 1), (1, 2, 3, 1), (2, 2, 2, 2), (0, 2, 3, 1)]:
        if prob_first_of_B_exact(TripleCounts(a, b, g)) != enum_first_B(a, b, g, extra):
            failures.append(f"first-of-B({a},{b},{g})")
        if (
            abs(
                prob_first_of_B_before_A_after_some_C(TripleCounts(a, b, g))
                - float(enum_first_B(a, b, g, extra))
            )
            > 1e-12
        ):
            failures.append(f"first-of-B({a},{b},{g}) float")

    # psi identity on every count combination with ne >= 1.
    for ne in range(1, 5):
        for nw in range(0, 4):
            for se in range(0, 4):
                psi_ne = prob_first_of_A_before_B_or_C(TripleCounts(ne, nw, se))
                psi_nw = (
                    prob_first_of_B_before_A_after_some_C(TripleCounts(ne, nw, se))
                    if nw
                    else 0.0
                )
                psi_se = (
                    prob_first_of_B_before_A_after_some_C(TripleCounts(ne, se, nw))
                    if se
                    else 0.0
                )
                if abs(ne * psi_ne + nw * psi_nw + se * psi_se - 1.0) > 1e-12:
                    failures.append(f"psi identity ({ne},{nw},{se})")

    # The anchored-bbox engines' psi columns on a small random grid, against
    # the exact first-of-set probabilities of each cell's brute-force
    # counts, wherever the quadrant class holds a point.
    grid = GridArrangement(np.random.default_rng(505).uniform(0.1, 10.0, (7, 2)))
    n = grid.n
    Y = grid.Y[1:]
    for i in range(1, n + 1):
        right = np.arange(1, n + 1) >= i  # by x rank
        ne = np.array([np.sum(right & (Y >= j)) for j in range(1, n + 1)])
        nw = np.array([np.sum(~right & (Y >= j)) for j in range(1, n + 1)])
        se = np.array([np.sum(right & (Y < j)) for j in range(1, n + 1)])
        psi = _abb_cols_psi(grid, i, ne)
        for j in range(n):
            a, b, g = int(ne[j]), int(nw[j]), int(se[j])
            exact = (
                prob_first_of_A_exact(TripleCounts(a, b, g)),
                prob_first_of_B_exact(TripleCounts(a, b, g)),
                prob_first_of_B_exact(TripleCounts(a, g, b)),
            )
            for name, got, want, members in zip(("ne", "nw", "se"), psi, exact, (a, b, g)):
                if members and abs(got[j] - float(want)) > 1e-12:
                    failures.append(f"engine psi_{name} cell ({i},{j + 1})")

    report(
        5,
        "closed-form-probability-validation",
        not failures,
        "all exact" if not failures else "; ".join(failures[:4]),
    )


def test_criterion_6_multipoint_evaluation():
    rng = np.random.default_rng(606)
    worst = 0.0
    # anchor: R(x) = 1/(1+x) at 0, 1, 2
    anchor = engine_multipoint_eval(RationalStepSeries([1.0], 1.0), 0, 2)
    worst = max(worst, rel_diff(anchor, [1.0, 0.5, 1.0 / 3.0]))
    # full comparison at moderate scale
    series = RationalStepSeries(rng.uniform(0.0, 2.0, 2000), 2.0)
    fast = engine_multipoint_eval(series, -1, 2000)
    direct = direct_rational_eval(series, np.arange(-1, 2000))
    worst = max(worst, rel_diff(fast, direct))
    # n, m = 1e5: probe the FFT output against direct evaluation
    series = RationalStepSeries(rng.uniform(0.0, 1.0, 100_001), 3.0)
    fast = engine_multipoint_eval(series, -2, 100_000)
    probes = np.arange(-2, 100_000 - 1, 997)
    direct = direct_rational_eval(series, probes)
    worst = max(worst, rel_diff(fast[probes + 2], direct))
    report(6, "multipoint-evaluation", worst <= REL, f"max rel diff {worst:.2e}")


def test_criterion_7_golden_values():
    failures = []

    airport = shapley_airport([1.0, 2.0, 3.0]).values
    if rel_diff(airport, [1 / 3, 5 / 6, 11 / 6]) > REL:
        failures.append("airport {1,2,3}")

    tri = np.array([(0.3, 0.1), (2.1, 0.4), (0.8, 1.7)])
    area = float(shapley_hull_area(tri).game_total)
    if rel_diff(shapley_hull_area(tri).values, [area / 3] * 3) > REL:
        failures.append("triangle hull-area")

    disk = shapley_disk([(-1.0, 0.0), (1.0, 0.0)], "area").values
    if rel_diff(disk, [math.pi / 2, math.pi / 2]) > REL:
        failures.append("diametral pair disk-area")

    # Square+center golden: the center is not a null player (two adjacent
    # corners plus the center span a triangle of area 1/4, worth 1/30 in
    # expectation), so the exact split is [29/120 x4, 1/30]; re-confirmed
    # against both oracles before asserting.
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    expected = [29 / 120] * 4 + [1 / 30]
    perm = shapley_by_permutations("hull-area", square).values
    sub = shapley_by_subsets("hull-area", square).values
    if rel_diff(perm, expected) > 1e-12 or rel_diff(sub, expected) > 1e-12:
        failures.append("square+center oracle confirmation")
    if abs(sum(expected) - 1.0) > 1e-12:
        failures.append("square+center efficiency")

    chain = shapley_anchored_rects([(1.0, 1.0), (2.0, 2.0)]).values
    chain_oracle = shapley_by_permutations("anchored-rects", [(1.0, 1.0), (2.0, 2.0)]).values
    if rel_diff(chain, [0.5, 3.5]) > REL or rel_diff(chain_oracle, [0.5, 3.5]) > 1e-12:
        failures.append("increasing chain anchored-rects")

    report(7, "golden-values", not failures, "; ".join(failures) or "all golden")


def _timed(fn, pts):
    t0 = time.perf_counter()
    fn(pts)
    return time.perf_counter() - t0


def _fit_slope(fn, sizes, gen, steadied=2):
    """Slope of log time against log n.  An untimed warm-up call comes
    first, and each of the `steadied` smallest sizes takes the least of
    three calls: a slow first call would otherwise flatten the fit, and a
    series of short calls is tipped by one slow call at any size.  The
    calls go in rounds over the sizes, so that a slow stretch of the host
    slows every size alike instead of tilting the fit."""
    inputs = [gen(n) for n in sizes]
    fn(inputs[0])
    ts = [math.inf] * len(sizes)
    for r in range(3):
        for k, pts in enumerate(inputs):
            if r == 0 or k < steadied:
                ts[k] = min(ts[k], _timed(fn, pts))
    return float(np.polyfit(np.log(sizes), np.log(ts), 1)[0]), ts


def test_criterion_8_empirical_complexity():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    hull_slope, _ = _fit_slope(
        shapley_hull_area,
        [1000, 2000, 4000, 8000],
        lambda n: rng.uniform(-50, 50, (n, 2)),
    )
    axis_slope, _ = _fit_slope(
        shapley_anchored_rects,
        [16384, 32768, 65536, 131072],
        lambda n: rng.uniform(0.1, 100.0, (n, 2)),
    )
    chain_slope, _ = _fit_slope(
        shapley_anchored_rects,
        [16384, 32768, 65536, 131072],
        lambda n: random_chain(rng, n, increasing=False),
        steadied=4,
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(hull_slope - 2.0) <= 0.25
        and abs(axis_slope - 1.5) <= 0.35
        and abs(chain_slope - 1.0) <= 0.3
    )
    report(
        8,
        "empirical-complexity",
        ok,
        f"hull {hull_slope:.2f} (2.0±0.25), axis {axis_slope:.2f} (1.5±0.35), "
        f"chain {chain_slope:.2f} (1.0±0.3), bench {elapsed:.0f}s",
    )
    assert elapsed < 600.0, "bench suite exceeded the 10 minute budget"


def test_criterion_9_determinism(tmp_path, capsys):
    rng = np.random.default_rng(909)
    instances = {
        "anchored-rects": rng.uniform(0.1, 100.0, (200, 2)),
        "hull-area": rng.uniform(-50.0, 50.0, (120, 2)),
        "bbox-area": rng.uniform(-50.0, 50.0, (150, 2)),
    }
    ok = True
    for game, pts in instances.items():
        src = tmp_path / f"{game}.csv"
        src.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts))
        outputs = []
        for run in ("a", "b", "c"):
            out = tmp_path / f"{game}-{run}.json"
            code = cli_main(
                [
                    "compute",
                    "--game",
                    game,
                    "--input",
                    str(src),
                    "--output",
                    str(out),
                    "--no-timing",
                ]
            )
            capsys.readouterr()
            assert code == 0
            outputs.append(out.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            ok = False
    report(9, "determinism", ok, "bit-identical across repeats")
