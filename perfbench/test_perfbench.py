"""Self-test of the benchmark: failure accounting, references and counters.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import os

import numpy as np
import pytest

import layers
import reference
import run
import workloads
from worker import Checker


@pytest.fixture
def env():
    return dict(os.environ, PYTHONPATH=run.SRC)


def _checked_jobs(tmp_path, specs, seed=7):
    """Compute jobs from (name, game, n, shape) specs, registered with a checker."""
    rng = np.random.default_rng(seed)
    checker = Checker()
    jobs = []
    for name, game, n, shape in specs:
        job, pts = workloads._compute_job(str(tmp_path), name, game, n, shape, "csv",
                                          "json" if len(jobs) % 2 else "csv", rng)
        checker.add(job, pts)
        jobs.append(job)
    return jobs, checker


def _check(checker):
    return lambda job, stdout_path: checker.check(job["id"], stdout_path)


def test_each_failure_kind_counts_in_fail_frac(tmp_path, env):
    jobs, checker = _checked_jobs(tmp_path, [
        ("good", "hull-area", 12, "plane"),
        ("wrong-values", "hull-area", 12, "plane"),
        ("bad-exit", "hull-area", 12, "plane"),
    ])
    # The CLI solves another game than the reference holds: every value is off.
    jobs[1]["argv"][jobs[1]["argv"].index("hull-area")] = "hull-perimeter"
    jobs[2]["argv"][jobs[2]["argv"].index("hull-area")] = "no-such-game"
    slow = {"id": "slow", "kind": "verify", "game": "disk-area", "timed": True,
            "argv": ["verify", "--games", "disk-area", "--instances", "100000"]}
    checker.add(slow)
    jobs.append(slow)
    loop = run.run_loop(jobs, 0.0, _check(checker), env, str(tmp_path), timeout=3.0)
    assert (loop.attempted, loop.failed) == (4, 3)
    assert run.end_to_end(loop, 1.0)["ok_frac"] == pytest.approx(0.25)


def test_one_corrupted_value_is_rejected(tmp_path, env):
    jobs, checker = _checked_jobs(tmp_path, [("ok", "disk-area", 10, "plane")])
    job = jobs[0]
    loop = run.run_loop(jobs, 0.0, _check(checker), env, str(tmp_path))
    assert loop.failed == 0
    with open(job["output"]) as fh:
        lines = fh.read().splitlines()
    k, x, y, value = lines[5].split(",")
    lines[5] = ",".join([k, x, y, repr(float(value) * (1 + 1e-7))])
    with open(job["output"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    # The checker passed the original bytes; the changed ones are checked afresh.
    assert "value 3" in checker.check(job["id"], None)


def test_job_p50_pools_every_execution():
    walls = {"a": [1.0, 3.0], "b": [2.0], "c": [5.0, 6.0]}
    loop = run.LoopResult(attempted=5, failed=0, walls=walls, traced={})
    figures = run.end_to_end(loop, 0.5)
    assert figures["job_p50_s"] == 3.0
    assert figures["wall_s"] == 2.0 + 2.0 + 5.5


@pytest.mark.parametrize("game", workloads.LINE_GAMES)
def test_line_closed_forms_match_oracle(game):
    rng = np.random.default_rng(3)
    shape = "line+" if game == "airport" else "plane"
    pts = workloads.as_plane(workloads.make_points(rng, shape, 9))
    oracle_values, total = reference.reference(game, pts)
    closed = reference._line_reference(game, pts)
    assert reference.compare_values(closed, oracle_values) is None


def test_work_counters_repeat_across_traced_runs(tmp_path, env):
    specs = [
        ("hull", "hull-area", 40, "plane"),
        ("disk", "disk-perimeter", 15, "plane"),
        ("abb", "anchored-bbox-area", 64, "plane"),
        ("chain", "anchored-rects", 64, "dec-chain"),
        ("line", "interval-length", 100, "line"),
    ]
    jobs, checker = _checked_jobs(tmp_path, specs)
    jobs.append({"id": "verify", "kind": "verify", "game": "hull-area", "timed": True,
                 "argv": ["verify", "--games", "hull-area", "--nmin", "3", "--nmax", "5",
                          "--instances", "2", "--seed", "5"]})
    checker.add(jobs[-1])
    counts = []
    for _ in range(2):
        loop = run.run_loop(jobs, 0.0, _check(checker), env, str(tmp_path), trace=True)
        assert loop.failed == 0
        counts.append({job_id: {name: figs[0][name] for name in layers.COUNTS}
                       for job_id, figs in loop.traced.items()})
    assert counts[0] == counts[1]
    assert counts[0]["verify"]["oracle.tables"] > 0
    assert counts[0]["disk"]["disk.acute_triples"] > 0
    assert counts[0]["chain"]["algebra.convolve_calls"] > 0
