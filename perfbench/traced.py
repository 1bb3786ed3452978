"""Run one `geoshapley` CLI command with a span around each layer call.

Usage: python perfbench/traced.py TRACE_OUT -- <geoshapley CLI arguments>
(with the package's `src` on PYTHONPATH)

Wraps the module attributes that the CLI and the engines look up at call
time, calls `geoshapley.cli.main` and writes the spans (name, start, end,
parent index, one column each) and the work counts to TRACE_OUT as JSON.
Times are `time.perf_counter_ns` values: the system-wide monotonic clock
on Linux, so the caller can relate them to its own spawn and exit times.
"""

import sys
import time

import geoshapley.cli as cli

IMPORT_DONE = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from geoshapley import algebra, axis, geometry, oracle  # noqa: E402
from geoshapley import games as games_mod  # noqa: E402

# Engine layer of each game's non-oracle solvers.
ENGINE = {
    "hull-area": "hull", "hull-perimeter": "hull",
    "disk-area": "disk", "disk-perimeter": "disk",
    "anchored-rects": "axis", "bbox-area": "axis", "anchored-bbox-area": "axis",
}


class Tracer:
    """Spans kept in memory in call order, one column per field, plus
    named counters."""

    def __init__(self):
        self.names = {}
        self.spans = {"name": [], "start": [], "end": [], "parent": []}
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        cols = self.spans
        k = len(cols["name"])
        cols["name"].append(self.names.setdefault(name, len(self.names)))
        cols["parent"].append(self._stack[-1] if self._stack else -1)
        cols["end"].append(0)
        self._stack.append(k)
        cols["start"].append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            cols["end"][k] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced version; count(args, result)
        updates the counters after the span closes.  An attribute the
        package no longer has is left alone, so its layer reads 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, traced)


def acute_triples(pts):
    """Acute triangles among the points: the triple bases of the disk game.

    A triangle has at most one non-acute angle, so the count is C(n, 3)
    minus, over each apex, the pairs whose vectors from it meet at 90
    degrees or more.
    """
    n = pts.shape[0]
    blunt = 0
    for i in range(n):
        v = np.delete(pts, i, axis=0) - pts[i]
        blunt += int(np.count_nonzero(np.triu(v @ v.T <= 0.0, k=1)))
    return n * (n - 1) * (n - 2) // 6 - blunt


def install(tracer):
    c = tracer.counts

    def bump(key):
        def count(args, result):
            c[key] += 1
        return count

    tracer.wrap(cli, "read_points", "cli.parse",
                lambda a, r: c.update({"cli.input_bytes": os.path.getsize(a[0])}))
    for attr in ("record_to_json", "record_to_csv"):
        tracer.wrap(cli, attr, "cli.write",
                    lambda a, r: c.update({"cli.output_bytes": len(r.encode())}))
    tracer.wrap(cli, "validate_general_position", "geometry.validate",
                bump("geometry.validate_calls"))
    tracer.wrap(geometry, "convex_hull", "geometry.hull", bump("geometry.hull_calls"))
    tracer.wrap(geometry, "min_enclosing_disk", "geometry.disk", bump("geometry.disk_calls"))
    tracer.wrap(axis, "GridArrangement", "axis.grid",
                lambda a, r: c.update({"axis.grids": 1, "axis.grid_points": r.n}))
    tracer.wrap(axis, "multipoint_rational_eval", "algebra.multipoint",
                bump("algebra.multipoint_calls"))
    tracer.wrap(algebra, "convolve", "algebra.convolve", bump("algebra.convolve_calls"))
    tracer.wrap(games_mod, "eval_characteristic", "games.eval", bump("games.eval_calls"))
    tracer.wrap(oracle, "coalition_table", "oracle.table", bump("oracle.tables"))
    tracer.wrap(oracle, "shapley_by_permutations", "oracle.perm")
    tracer.wrap(oracle, "shapley_by_subsets", "oracle.subset")

    solver_for = cli.solver_for  # every CLI command resolves its engines here

    def traced_solver_for(game, algorithm, **kwargs):
        solver = solver_for(game, algorithm, **kwargs)
        if algorithm.startswith("oracle"):
            return solver  # the oracle.shapley_by_* wrappers carry the span
        layer = ENGINE.get(game, "games")

        def traced(pts):
            result = tracer.call(layer + ".solve", solver, pts)
            n = pts.shape[0]
            c[layer + ".calls"] += 1
            if layer == "hull":
                c["hull.directed_pairs"] += n * (n - 1)
            elif layer == "disk" and n >= 3:
                c["disk.pencils"] += n * (n - 1) // 2
                c["disk.acute_triples"] += acute_triples(pts)
            elif layer == "axis":
                c["axis.input_points"] += n
            return result

        return traced

    cli.solver_for = traced_solver_for

    suite = getattr(cli, "verification_suite", None)
    if suite is None:
        return

    def traced_suite(*args, **kwargs):
        it = suite(*args, **kwargs)
        while True:
            try:
                pts = tracer.call("instances.generate", next, it)
            except StopIteration:
                return
            c["verify.instances"] += 1
            yield pts

    cli.verification_suite = traced_suite


def main():
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced.py TRACE_OUT -- <cli arguments>")
    tracer = Tracer()
    install(tracer)
    main_start = time.perf_counter_ns()
    rc = cli.main(sys.argv[3:])
    main_end = time.perf_counter_ns()
    text = json.dumps({
        "import_done": IMPORT_DONE, "main_start": main_start, "main_end": main_end,
        "rc": rc, "counts": dict(tracer.counts), "names": list(tracer.names),
        "spans": tracer.spans,
    })
    with open(out_path, "w") as fh:
        fh.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
