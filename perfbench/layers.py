"""Per-layer metrics from the traces that `traced.py` writes.

A span's self time is its duration minus the time its child spans cover.
Each layer metric sums self times (or counts) over a workload's job list,
taking for every job the median over its traced executions.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Spans of the solvers the CLI calls; their inclusive time is cli.solve_s.
SOLVE_SPANS = ("hull.solve", "disk.solve", "axis.solve", "games.solve",
               "oracle.perm", "oracle.subset")

# Metric name -> span whose self time it sums.
SELF_TIME = {
    "cli.parse_s": "cli.parse",
    "cli.write_s": "cli.write",
    "geometry.validate_s": "geometry.validate",
    "geometry.hull_s": "geometry.hull",
    "geometry.disk_s": "geometry.disk",
    "hull.solve_s": "hull.solve",
    "disk.solve_s": "disk.solve",
    "axis.solve_s": "axis.solve",
    "axis.grid_s": "axis.grid",
    "algebra.multipoint_s": "algebra.multipoint",
    "algebra.convolve_s": "algebra.convolve",
    "games.solve_s": "games.solve",
    "games.eval_s": "games.eval",
    "oracle.table_s": "oracle.table",
    "oracle.perm_s": "oracle.perm",
    "oracle.subset_s": "oracle.subset",
    "instances.generate_s": "instances.generate",
}

COUNTS = (
    "cli.input_bytes", "cli.output_bytes",
    "geometry.validate_calls", "geometry.hull_calls", "geometry.disk_calls",
    "hull.calls", "hull.directed_pairs",
    "disk.calls", "disk.pencils", "disk.acute_triples",
    "axis.grids", "axis.grid_points", "axis.input_points",
    "algebra.multipoint_calls", "algebra.convolve_calls",
    "games.eval_calls", "oracle.tables", "verify.instances",
)

# Metric name -> unit, in the order the benchmark reports them.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.input_bytes": "bytes",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "cli.solve_s": "s",
    "cli.coverage": "ratio",
    "geometry.validate_s": "s",
    "geometry.validate_calls": "count",
    "geometry.hull_s": "s",
    "geometry.hull_calls": "count",
    "geometry.disk_s": "s",
    "geometry.disk_calls": "count",
    "hull.solve_s": "s",
    "hull.calls": "count",
    "hull.directed_pairs": "count",
    "disk.solve_s": "s",
    "disk.calls": "count",
    "disk.pencils": "count",
    "disk.acute_triples": "count",
    "axis.solve_s": "s",
    "axis.grid_s": "s",
    "axis.grids": "count",
    "axis.grid_points": "count",
    "axis.useful_ratio": "ratio",
    "algebra.multipoint_s": "s",
    "algebra.multipoint_calls": "count",
    "algebra.convolve_s": "s",
    "algebra.convolve_calls": "count",
    "games.solve_s": "s",
    "games.eval_s": "s",
    "games.eval_calls": "count",
    "oracle.table_s": "s",
    "oracle.tables": "count",
    "oracle.perm_s": "s",
    "oracle.subset_s": "s",
    "oracle.tables_per_instance": "ratio",
    "instances.generate_s": "s",
    "verify.instances": "count",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def job_figures(trace, t_spawn, t_exit, cpu_s):
    """Times and counts of one traced execution."""
    cols = trace["spans"]
    names = [trace["names"][k] for k in cols["name"]]
    durations = [(end - start) * 1e-9 for start, end in zip(cols["start"], cols["end"])]
    child = [0.0] * len(durations)
    for duration, parent in zip(durations, cols["parent"]):
        if parent >= 0:
            child[parent] += duration
    self_time = defaultdict(float)
    top = solve = 0.0
    for name, duration, covered, parent in zip(names, durations, child, cols["parent"]):
        self_time[name] += duration - covered
        if parent < 0:
            top += duration
            if name in SOLVE_SPANS:
                solve += duration
    import_s = trace["import_done"] * 1e-9 - t_spawn
    fig = {metric: self_time[span] for metric, span in SELF_TIME.items()}
    fig.update({
        "cli.import_s": import_s,
        "cli.solve_s": solve,
        "covered_s": import_s + top,
        "wall_s": t_exit - t_spawn,
        "process.cpu_s": cpu_s,
    })
    counts = trace["counts"]
    fig.update({name: counts.get(name, 0) for name in COUNTS})
    return fig


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(per_job, untraced_walls):
    """Per-layer metrics of a workload.

    per_job: job id -> list of job_figures of its traced executions.
    untraced_walls: job id -> list of its untraced wall times.
    """
    total = defaultdict(float)
    for job_id, figs in per_job.items():
        for key in figs[0]:
            total[key] += statistics.median(f[key] for f in figs)
        total["untraced_wall_s"] += statistics.median(untraced_walls[job_id])
    out = dict(total)
    out["cli.coverage"] = _ratio(total["covered_s"], total["wall_s"])
    out["axis.useful_ratio"] = _ratio(total["axis.input_points"], total["axis.grid_points"])
    out["oracle.tables_per_instance"] = _ratio(total["oracle.tables"], total["verify.instances"])
    out["process.cpu_util"] = _ratio(total["process.cpu_s"], total["wall_s"])
    out["trace.wall_s"] = total["wall_s"]
    out["trace.untraced_wall_s"] = total["untraced_wall_s"]
    out["trace.overhead_s"] = total["wall_s"] - total["untraced_wall_s"]
    return {name: out[name] for name in PER_LAYER}
