"""Helper process of the benchmark: builds inputs and references, checks outputs.

Usage: python perfbench/worker.py  (with the package's `src` on PYTHONPATH)

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout.  The timing loop in `run.py` stays free of numpy and of
the references because on Linux a child's max-RSS includes its parent's
resident set at fork time; a small parent keeps `peak_rss_mb` a figure
of the job alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np

import reference
import workloads


class Checker:
    """Inputs and references of one workload run, and the output checks."""

    def __init__(self):
        self.jobs = {}
        self.points = {}
        self.refs = {}
        self.verdicts = {}  # job id -> (digest of the output checked, reason)

    def add(self, job, pts=None, cache_dir=None, digest=""):
        """Register a job; a compute job also gets its input and reference."""
        self.jobs[job["id"]] = job
        if job["kind"] == "compute":
            self.points[job["id"]] = pts
            self.refs[job["id"]] = reference.reference(job["game"], pts, cache_dir, digest)

    def prepare(self, workload, seed, workdir, cache_dir, src_dir):
        jobs, points = workloads.build(workload, seed, workdir)
        digest = reference.source_digest(src_dir)
        t0 = time.perf_counter()
        for job in jobs:
            self.add(job, points.get(job["id"]), cache_dir, digest)
        return {"jobs": jobs, "numpy": np.__version__, "reference_s": time.perf_counter() - t0}

    def check(self, job_id, stdout_path):
        """None when the output of a job that exited 0 is correct, else the reason."""
        job = self.jobs[job_id]
        if job["kind"] == "verify":
            with open(stdout_path) as fh:
                return reference.check_verify(fh.read())
        try:
            with open(job["output"], "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no output: {exc}"
        # The check is a function of the output bytes, so a rerun that
        # writes the same bytes gets the same verdict without a reparse.
        digest = hashlib.sha256(data).digest()
        last = self.verdicts.get(job_id)
        if last is not None and last[0] == digest:
            return last[1]
        values, total = self.refs[job_id]
        reason = reference.check_compute(data.decode(), job["format"], self.points[job_id],
                                         values, total)
        self.verdicts[job_id] = (digest, reason)
        return reason


def main():
    checker = Checker()
    for line in sys.stdin:
        req = json.loads(line)
        op = req.pop("op")
        if op == "prepare":
            reply = checker.prepare(**req)
        elif op == "check":
            reply = {"reason": checker.check(**req)}
        else:
            reply = {"error": f"unknown request {op!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
