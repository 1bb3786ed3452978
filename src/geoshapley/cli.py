"""Command-line interface: compute / verify / bench.

Exit codes: 1 I/O or parse failure, 2 input validation (domain or general
position), 3 brute-force size guard, 4 internal consistency or a failed
verification run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .dispatch import ALGORITHM_NAMES, algorithms_for, solver_for
from .errors import (
    ConsistencyError,
    DomainError,
    GeneralPositionError,
    SizeLimitError,
)
from .games import GAME_KINDS
from .instances import random_chain, random_instance, verification_suite
from .oracle import PERMUTATION_LIMIT

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4


class ParseError(Exception):
    pass


@dataclass
class RunConfig:
    game: str
    algorithm: str = "auto"
    input_path: str = "-"
    output_path: str = "-"
    output_format: str = "json"
    timing: bool = True
    direct_series: bool = False


@dataclass
class ResultRecord:
    game: str
    n: int
    algorithm: str
    points: np.ndarray
    values: np.ndarray
    total: float
    efficiency_residual: float
    wall_time_ms: float = 0.0


def _fmt(v):
    """17 significant digits: round-trip-exact for doubles."""
    return format(float(v), ".17g")


def read_points(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            pts = np.asarray(data["points"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON input: {exc}") from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1] == 1:
            pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ParseError("JSON 'points' must be a nonempty list of [x, y]")
        return pts
    rows = []
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = [c.strip() for c in s.split(",")]
        try:
            vals = [float(c) for c in parts if c != ""]
        except ValueError:
            if header is None and not rows:
                header = [c.lower() for c in parts]
                continue
            raise ParseError(f"line {lineno}: cannot parse {s!r}")
        if vals:
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows in input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("inconsistent number of columns")
    arr = np.asarray(rows, dtype=float)
    if header is not None and "x" in header:
        xi = header.index("x")
        yi = header.index("y") if "y" in header else None
        x = arr[:, xi]
        y = arr[:, yi] if yi is not None else np.zeros(arr.shape[0])
        return np.column_stack([x, y])
    if width == 1:
        return np.column_stack([arr[:, 0], np.zeros(arr.shape[0])])
    if width == 2:
        return arr
    raise ParseError("expected 1 or 2 unnamed columns (or a header naming x,y)")


def record_to_json(rec: ResultRecord):
    vals = ",".join(
        '{"index":%d,"point":[%s,%s],"shapley":%s}'
        % (i, _fmt(p[0]), _fmt(p[1]), _fmt(s))
        for i, (p, s) in enumerate(zip(rec.points, rec.values))
    )
    return (
        '{"game":"%s","n":%d,"algorithm":"%s","values":[%s],'
        '"total":%s,"efficiency_residual":%s,"wall_time_ms":%s}'
        % (
            rec.game,
            rec.n,
            rec.algorithm,
            vals,
            _fmt(rec.total),
            _fmt(rec.efficiency_residual),
            _fmt(rec.wall_time_ms),
        )
    )


def record_to_csv(rec: ResultRecord):
    lines = [
        "# game=%s algorithm=%s n=%d total=%s efficiency_residual=%s wall_time_ms=%s"
        % (
            rec.game,
            rec.algorithm,
            rec.n,
            _fmt(rec.total),
            _fmt(rec.efficiency_residual),
            _fmt(rec.wall_time_ms),
        ),
        "index,x,y,shapley",
    ]
    for i, (p, s) in enumerate(zip(rec.points, rec.values)):
        lines.append("%d,%s,%s,%s" % (i, _fmt(p[0]), _fmt(p[1]), _fmt(s)))
    return "\n".join(lines) + "\n"


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_compute(cfg: RunConfig):
    pts = read_points(cfg.input_path)
    solver = solver_for(cfg.game, cfg.algorithm, direct_series=cfg.direct_series)
    t0 = time.perf_counter()
    sv = solver(pts)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    rec = ResultRecord(
        game=cfg.game,
        n=pts.shape[0],
        algorithm=cfg.algorithm,
        points=pts,
        values=sv.values,
        total=sv.game_total,
        efficiency_residual=sv.efficiency_residual,
        wall_time_ms=elapsed_ms if cfg.timing else 0.0,
    )
    text = record_to_json(rec) if cfg.output_format == "json" else record_to_csv(rec)
    _write(cfg.output_path, text)
    return EXIT_OK


def _reference_algorithm(game, n):
    if n <= PERMUTATION_LIMIT:
        return "oracle-perm"
    for cand in ("quadratic", "naive"):
        try:
            solver_for(game, cand)
            return cand
        except DomainError:
            continue
    return None


def cmd_verify(args):
    games_list = _games_from_arg(args.games)
    rng = np.random.default_rng(args.seed)
    failed = []
    lines = []
    for game in games_list:
        worst = {}
        for n in range(args.nmin, args.nmax + 1):
            instances = verification_suite(game, rng, n, args.instances)
            if args.chains and game in ("anchored-rects", "bbox-area", "anchored-bbox-area"):
                instances = [
                    random_chain(rng, n, increasing=bool(k % 2))
                    for k in range(args.instances)
                ]
            for pts in instances:
                ref_name = _reference_algorithm(game, n)
                algos = [a for a in algorithms_for(game, n) if a != ref_name]
                if ref_name is None:
                    continue
                ref = solver_for(game, ref_name)(pts).values
                scale = np.maximum(np.abs(ref), 1e-3)
                for algo in algos:
                    got = solver_for(game, algo)(pts).values
                    diff = float(np.max(np.abs(got - ref) / scale))
                    key = (game, algo)
                    worst[key] = max(worst.get(key, 0.0), diff)
        for (g, algo), diff in sorted(worst.items()):
            status = "PASS" if diff <= args.tolerance else "FAIL"
            if status == "FAIL":
                failed.append((g, algo, diff))
            lines.append(f"{g} {algo} max_discrepancy={diff:.3e} {status}")
    report = "\n".join(lines)
    print(report)
    if failed:
        print("VERIFY FAILED: " + ", ".join(f"{g}/{a}" for g, a, _ in failed))
        return EXIT_INTERNAL
    print("VERIFY PASSED")
    return EXIT_OK


_DEFAULT_BENCH_SIZES = {
    "hull-area": "1000,2000,4000,8000",
    "hull-perimeter": "1000,2000,4000,8000",
    "disk-area": "40,80,160",
    "disk-perimeter": "40,80,160",
    "anchored-rects": "4096,8192,16384,32768,65536",
    "anchored-bbox-area": "4096,8192,16384,32768",
    "bbox-area": "4096,8192,16384,32768",
    "airport": "65536,131072,262144",
    "interval-length": "65536,131072,262144",
    "area-band": "65536,131072,262144",
    "bbox-perimeter": "65536,131072,262144",
    "anchored-bbox-perimeter": "65536,131072,262144",
}


def cmd_bench(args):
    games_list = _games_from_arg(args.games)
    rng = np.random.default_rng(args.seed)
    out_lines = ["game,algorithm,n,seconds"]
    slopes = []
    for game in games_list:
        sizes = [int(s) for s in (args.sizes or _DEFAULT_BENCH_SIZES[game]).split(",")]
        ns, ts = [], []
        for n in sizes:
            pts = (
                random_chain(rng, n, increasing=bool(len(ns) % 2))
                if args.chain
                else random_instance(game, rng, n)
            )
            solver = solver_for(game, args.algorithm)
            t0 = time.perf_counter()
            solver(pts)
            dt = time.perf_counter() - t0
            ns.append(n)
            ts.append(dt)
            out_lines.append(f"{game},{args.algorithm},{n},{dt:.6f}")
        if len(ns) >= 2:
            slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
            slopes.append((game, slope))
            out_lines.append(f"# slope,{game},{args.algorithm},{slope:.4f}")
    text = "\n".join(out_lines) + "\n"
    _write(args.output, text)
    return EXIT_OK


def _games_from_arg(arg):
    if arg in (None, "all"):
        return list(GAME_KINDS)
    out = []
    for g in arg.split(","):
        g = g.strip()
        if g not in GAME_KINDS:
            raise DomainError(f"unknown game {g!r}")
        out.append(g)
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoshapley",
        description="Exact Shapley values for geometric coalitional games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute Shapley values for one instance")
    pc.add_argument("--game", required=True, choices=GAME_KINDS)
    pc.add_argument("--algorithm", default="auto", choices=ALGORITHM_NAMES)
    pc.add_argument("--input", default="-", help="CSV or JSON point file ('-' = stdin)")
    pc.add_argument("--output", default="-", help="output path ('-' = stdout)")
    pc.add_argument("--format", default="json", choices=("json", "csv"))
    pc.add_argument(
        "--no-timing",
        action="store_true",
        help="serialize wall_time_ms as 0 for bit-identical output comparisons",
    )
    pc.add_argument(
        "--direct-eval",
        action="store_true",
        help="force direct rational evaluation instead of FFT multipoint",
    )

    pv = sub.add_parser("verify", help="cross-check all algorithms on random instances")
    pv.add_argument("--games", default="all")
    pv.add_argument("--nmin", type=int, default=3)
    pv.add_argument("--nmax", type=int, default=8)
    pv.add_argument("--instances", type=int, default=50)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tolerance", type=float, default=1e-9)
    pv.add_argument("--chains", action="store_true", help="chain instances only")

    pb = sub.add_parser("bench", help="timing table over a doubling series")
    pb.add_argument("--games", default="anchored-rects")
    pb.add_argument("--algorithm", default="fast", choices=ALGORITHM_NAMES)
    pb.add_argument("--sizes", default=None, help="comma-separated n values")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--chain", action="store_true", help="benchmark chain instances")
    pb.add_argument("--output", default="-")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            cfg = RunConfig(
                game=args.game,
                algorithm=args.algorithm,
                input_path=args.input,
                output_path=args.output,
                output_format=args.format,
                timing=not args.no_timing,
                direct_series=args.direct_eval,
            )
            return cmd_compute(cfg)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_bench(args)
    except SizeLimitError as exc:
        print(f"error (size guard): {exc}", file=sys.stderr)
        return EXIT_SIZE
    except GeneralPositionError as exc:
        off = f" offending={list(exc.offending)}" if exc.offending else ""
        print(f"error (general position): {exc}{off}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"error (internal consistency): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ParseError, OSError) as exc:
        print(f"error (I/O): {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
