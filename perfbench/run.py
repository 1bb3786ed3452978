"""End-to-end benchmark of the `geoshapley` command-line interface.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {planar,axis,verify} --seed N \
        --seconds S --trace {0,1}

Each job is one `python -m geoshapley.cli compute|verify` process that
reads a generated input file.  Jobs run in a closed loop with one client:
the job list in order, one job at a time, pass after pass, until S seconds
of job time have passed (the first pass always completes).  Every output
is checked against an independent reference by a helper process
(`worker.py`), outside the timed region.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 each job also runs once more under
`traced.py`, and the object carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("planar", "axis", "verify")
JOB_TIMEOUT_S = 120.0
SETUP_SAMPLES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Execution(NamedTuple):
    start: float
    end: float
    rc: int
    timed_out: bool
    cpu_s: float

    @property
    def wall(self):
        return self.end - self.start


def execute(argv, env, stdout_path, timeout):
    """Run one process to its exit; the wall time spans spawn to exit.

    CPU time is the change in the reaped children's rusage, which is the
    job's own because only one job runs at a time.
    """
    timed_out = []
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)

        def expire():
            timed_out.append(True)
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.daemon = True
        timer.start()
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return Execution(start, end, rc, bool(timed_out), cpu)


class Worker:
    """Client of the helper process that holds inputs and references."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def request(self, op, **fields):
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited")
        return json.loads(line)

    def check(self, job, stdout_path):
        return self.request("check", job_id=job["id"], stdout_path=stdout_path)["reason"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_job(job, env, workdir, tracing, timeout):
    """One execution of a job; returns (Execution, trace or None, stdout path)."""
    if job.get("output") and os.path.exists(job["output"]):
        os.remove(job["output"])
    stdout_path = os.path.join(workdir, job["id"] + ".stdout")
    if tracing:
        trace_path = os.path.join(workdir, job["id"] + ".trace.json")
        if os.path.exists(trace_path):
            os.remove(trace_path)
        argv = [sys.executable, os.path.join(HERE, "traced.py"), trace_path, "--", *job["argv"]]
    else:
        argv = [sys.executable, "-m", "geoshapley.cli", *job["argv"]]
    ex = execute(argv, env, stdout_path, timeout)
    trace = None
    if tracing and os.path.exists(trace_path):
        with open(trace_path) as fh:
            trace = json.load(fh)
    return ex, trace, stdout_path


class LoopResult(NamedTuple):
    attempted: int
    failed: int
    walls: dict  # job id -> untraced wall times
    traced: dict  # job id -> layers.job_figures of traced executions


def run_loop(jobs, seconds, check, env, workdir, trace=False, timeout=JOB_TIMEOUT_S,
             every=None):
    """Closed loop, one client.  Untimed jobs run once first; then the timed
    jobs run in order until `seconds` of job time have passed, completing
    at least one pass.  With `trace`, every timed execution is followed by
    a traced execution of the same job.  `every`, if given, is a pair
    (interval, callback): `callback()` runs after the first timed execution
    and then after each one that ends `interval` or more seconds of job
    time after its last call.  A failure is a timeout, a nonzero exit or an
    output that `check(job, stdout_path)` rejects."""
    timed = [job for job in jobs if job["timed"]]
    walls = {job["id"]: [] for job in timed}
    traced = {job["id"]: [] for job in timed}
    attempted = failed = 0

    def attempt(job, tracing):
        nonlocal attempted, failed
        ex, tr, stdout_path = run_job(job, env, workdir, tracing, timeout)
        if ex.timed_out:
            reason = f"timed out after {timeout:g} s"
        elif ex.rc != 0:
            reason = f"exit {ex.rc}"
        else:
            reason = check(job, stdout_path)
        attempted += 1
        if reason:
            failed += 1
            print(f"FAIL {job['id']}{' (traced)' if tracing else ''}: {reason}",
                  file=sys.stderr)
        return ex, (tr if not reason else None)

    for job in jobs:
        if not job["timed"]:
            attempt(job, False)
    spent = 0.0
    called = None
    k = 0
    while timed and (k < len(timed) or spent < seconds):
        job = timed[k % len(timed)]
        k += 1
        ex, _ = attempt(job, False)
        walls[job["id"]].append(ex.wall)
        spent += ex.wall
        if every is not None and (called is None or spent - called >= every[0]):
            called = spent
            every[1]()
        if trace:
            ex, tr = attempt(job, True)
            spent += ex.wall
            if tr is not None:
                traced[job["id"]].append(layers.job_figures(tr, ex.start, ex.end, ex.cpu_s))
    return LoopResult(attempted, failed, walls, traced)


def time_import(env, workdir):
    """Wall time of a fresh interpreter importing the CLI module."""
    argv = [sys.executable, "-c", "import geoshapley.cli"]
    ex = execute(argv, env, os.path.join(workdir, "setup.stdout"), JOB_TIMEOUT_S)
    if ex.rc != 0:
        raise RuntimeError("importing geoshapley.cli failed")
    return ex.wall


def machine(numpy_version):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def end_to_end(loop, setup_s):
    """`wall_s` is the job list's time, each job at its median; `job_p50_s`
    the median of every timed execution, which draws on all jobs near the
    middle rather than on the one or two per-job medians there."""
    medians = [statistics.median(w) for w in loop.walls.values()]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "job_p50_s": statistics.median([t for w in loop.walls.values() for t in w]),
        "ok_frac": 1.0 - loop.failed / loop.attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geoshapley", "cli.py")):
        print(f"error: no geoshapley package under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=SRC)
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    worker = Worker(env)
    try:
        prep = worker.request("prepare", workload=args.workload, seed=args.seed,
                              workdir=workdir, cache_dir=os.path.join(work_root, "refcache"),
                              src_dir=SRC)
        jobs = prep["jobs"]
        time_import(env, workdir)  # fills the bytecode and page caches
        # About SETUP_SAMPLES imports, spread evenly over the run's job
        # time, so the set-up samples see the same machine as the jobs do.
        imports = []

        def time_setup():
            imports.append(time_import(env, workdir))

        loop = run_loop(jobs, args.seconds, worker.check, env, workdir, trace=bool(args.trace),
                        every=None if args.trace else (args.seconds / SETUP_SAMPLES, time_setup))
        if args.trace:
            done = {k: v for k, v in loop.traced.items() if v}
            metrics = layers.aggregate(done, loop.walls)
            units = layers.PER_LAYER
        else:
            metrics = end_to_end(loop, statistics.median(imports))
            units = END_TO_END
    finally:
        worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [job for job in jobs if job["timed"]]
    runs = sum(len(w) for w in loop.walls.values())
    print("machine: " + json.dumps(machine(prep["numpy"])))
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client; "
          f"{len(timed)} timed jobs run {runs} times, {len(jobs) - len(timed)} untimed "
          f"cross-check jobs; references built in {prep['reference_s']:.1f} s")
    print(f"fail_frac {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} job executions failed)")
    if not args.trace:
        print(f"job_p50_s is the median of {runs} executions of {len(timed)} jobs; "
              f"setup_s the median of {len(imports)} imports")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
