"""Seeded job lists for the `planar`, `axis` and `verify` workloads.

Every job is one `geoshapley` CLI invocation that reads a generated input
file.  Sizes and shapes are fixed per workload; the seed only draws the
coordinates, so every seed asks for the same amount of work and runs with
different seeds are comparable.
"""

from __future__ import annotations

import json
import os

import numpy as np

# (game, n, input shape, input format, output format).  Formats alternate
# so both parsers and both writers of the CLI stay on the measured path.
PLANAR = [
    ("hull-area", 300, "plane", "csv", "json"),
    ("hull-perimeter", 250, "plane", "json", "csv"),
    ("hull-area", 600, "plane", "csv", "json"),
    ("disk-area", 40, "plane", "json", "csv"),
    ("disk-perimeter", 70, "plane", "csv", "json"),
    ("disk-area", 100, "plane", "json", "csv"),
]

# Rank-space games cover the band engine (positive and mixed quadrants)
# and the chain solvers that `auto` detects; the 1-D games are large so
# that parsing and writing dominate them.  Rank-space sizes are bounded by
# the quadratic references, which every run rebuilds for its seed.
AXIS = [
    ("anchored-rects", 16384, "positive", "csv", "json"),
    ("anchored-rects", 8192, "dec-chain", "json", "csv"),
    ("anchored-bbox-area", 3072, "positive", "csv", "json"),
    ("anchored-bbox-area", 3072, "plane", "json", "csv"),
    ("anchored-bbox-area", 2048, "dec-chain", "csv", "json"),
    ("bbox-area", 3072, "plane", "json", "csv"),
    ("airport", 1 << 18, "line+", "csv", "json"),
    ("interval-length", 1 << 17, "line", "json", "csv"),
    ("area-band", 1 << 17, "plane", "csv", "json"),
    ("bbox-perimeter", 1 << 18, "plane", "json", "csv"),
    ("anchored-bbox-perimeter", 1 << 17, "plane", "csv", "json"),
]

# 1-D games are also run once per run at a size the subset oracle can
# check; these jobs are checked and counted but not timed.
CROSS_CHECK_N = 9
LINE_GAMES = ("airport", "interval-length", "area-band", "bbox-perimeter",
              "anchored-bbox-perimeter")

VERIFY_GAMES = (
    "hull-area", "hull-perimeter", "disk-area", "disk-perimeter",
    "anchored-rects", "bbox-area", "anchored-bbox-area", "airport",
    "interval-length", "area-band", "bbox-perimeter", "anchored-bbox-perimeter",
)
VERIFY_ARGS = ["--nmin", "3", "--nmax", "8", "--instances", "5"]


def make_points(rng, shape, n):
    """Coordinates of one input; every shape is in general position almost
    surely and keeps clear of the coordinate axes."""
    if shape == "line+":
        return rng.uniform(0.5, 100.0, n)[:, None]
    if shape == "line":
        return rng.uniform(-50.0, 50.0, n)[:, None]
    if shape == "positive":
        return rng.uniform(0.1, 100.0, (n, 2))
    if shape == "plane":
        pts = rng.uniform(-50.0, 50.0, (n, 2))
        pts[np.abs(pts) < 1e-3] += 0.01
        return pts
    if shape == "dec-chain":
        x = np.sort(rng.uniform(0.1, 100.0, n))
        y = np.sort(rng.uniform(0.1, 100.0, n))
        return np.column_stack([x, y[::-1]])
    raise ValueError(f"unknown input shape {shape!r}")


def write_points(path, pts, fmt):
    """Write points so the CLI parses back exactly these doubles."""
    rows = pts.tolist()
    if fmt == "json":
        data = [r[0] for r in rows] if pts.shape[1] == 1 else rows
        text = json.dumps({"points": data})
    elif pts.shape[1] == 1:
        text = "x\n" + "\n".join(repr(r[0]) for r in rows) + "\n"
    else:
        text = "x,y\n" + "\n".join(f"{x!r},{y!r}" for x, y in rows) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def as_plane(pts):
    """The (n, 2) array the CLI builds from a one-column input."""
    if pts.shape[1] == 1:
        return np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    return pts


def _compute_job(workdir, name, game, n, shape, in_fmt, out_fmt, rng, timed=True):
    pts = make_points(rng, shape, n)
    inp = os.path.join(workdir, f"{name}.in.{in_fmt}")
    out = os.path.join(workdir, f"{name}.out.{out_fmt}")
    write_points(inp, pts, in_fmt)
    job = {
        "id": name, "kind": "compute", "game": game, "timed": timed, "input": inp, "output": out, "format": out_fmt,
        "argv": ["compute", "--game", game, "--input", inp, "--output", out,
                 "--format", out_fmt, "--no-timing"],
    }
    return job, as_plane(pts)


def build(workload, seed, workdir):
    """Generate the workload's inputs under `workdir`.

    Returns (jobs, points) where `points[job_id]` is the array the CLI
    will parse from the job's input file (compute jobs only).
    """
    rng = np.random.default_rng(seed)
    jobs, points = [], {}
    if workload == "verify":
        seeds = rng.integers(0, 2**31 - 1, size=len(VERIFY_GAMES))
        for k, (game, s) in enumerate(zip(VERIFY_GAMES, seeds)):
            jobs.append({
                "id": f"v{k:02d}-{game}", "kind": "verify", "game": game,
                "timed": True, "argv": ["verify", "--games", game, *VERIFY_ARGS,
                                        "--seed", str(int(s))],
            })
        return jobs, points
    if workload == "planar":
        specs = PLANAR
    elif workload == "axis":
        specs = AXIS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for k, (game, n, shape, in_fmt, out_fmt) in enumerate(specs):
        job, pts = _compute_job(workdir, f"{workload[0]}{k:02d}-{game}-{n}", game, n,
                                shape, in_fmt, out_fmt, rng)
        jobs.append(job)
        points[job["id"]] = pts
    if workload == "axis":
        for k, game in enumerate(LINE_GAMES):
            shape = "line+" if game == "airport" else "plane"
            job, pts = _compute_job(workdir, f"x{k:02d}-{game}-{CROSS_CHECK_N}", game,
                                    CROSS_CHECK_N, shape, "csv", "json", rng, timed=False)
            jobs.append(job)
            points[job["id"]] = pts
    return jobs, points
