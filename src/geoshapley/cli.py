"""Command-line interface: compute / verify / bench.

Exit codes: 1 I/O or parse failure, 2 input validation (domain or general
position), 3 brute-force size guard, 4 internal consistency or a failed
verification run.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
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
from .rowtext import row_texts

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


# Rows per bulk step of the CSV reader and of both writers.
_CHUNK = 4096

# The CSV reader splits its text in blocks of about this many characters,
# the JSON reader its "points" list in pieces of about this many.
_TEXT_BLOCK = 1 << 18
_JSON_PIECE = 1 << 16

# The text of a JSON document {"points": [...]} before its first element,
# and from the list's closing "]" on.  Only JSON's own whitespace counts.
_JSON_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"points"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_JSON_TAIL = re.compile(r"\][ \t\n\r]*\}[ \t\n\r]*")
# The separator after an [x, y] element, and after a number.
_NESTED_CUT = re.compile(r"\][ \t\n\r]*,")
_FLAT_CUT = re.compile(",")


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
    if text.startswith("\ufeff"):
        text = text[1:]
    if re.match(r"\s*\{", text):
        return _read_json(text)
    arr, header = _parse_csv(text)
    if header is not None and "x" in header:
        for name in ("x", "y"):
            if name in header and header.index(name) >= arr.shape[1]:
                raise ParseError(
                    f"header names column {name!r} at position {header.index(name) + 1}, "
                    f"but the rows have {arr.shape[1]} column(s)"
                )
        xi = header.index("x")
        yi = header.index("y") if "y" in header else None
        x = arr[:, xi]
        y = arr[:, yi] if yi is not None else np.zeros(arr.shape[0])
        return np.column_stack([x, y])
    if arr.shape[1] == 1:
        return np.column_stack([arr[:, 0], np.zeros(arr.shape[0])])
    if arr.shape[1] == 2:
        return arr
    raise ParseError("expected 1 or 2 unnamed columns (or a header naming x,y)")


def _read_json(text):
    pts = _json_pieces(text)
    if pts is None:
        try:
            pts = np.asarray(json.loads(text)["points"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON input: {exc}") from exc
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] not in (1, 2) or pts.shape[0] == 0:
        raise ParseError("JSON 'points' must be a nonempty list of [x, y]")
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    return pts


def _json_pieces(text):
    """The "points" array of a document whose only key is "points", parsed
    in pieces of about _JSON_PIECE characters; None when the document has
    another shape or a piece does not parse to a nonempty array of numbers
    or of rows of one width, 1 or 2.

    Each piece ends at a separator between two elements and is parsed as
    a list of its own.  When every piece parses, the pieces' elements are
    exactly the list's elements, so the result is that of the whole text.
    """
    head = _JSON_HEAD.match(text)
    end = text.rfind("]")
    if head is None or end <= head.end() or not _JSON_TAIL.fullmatch(text, end):
        return None
    lo = head.end()
    cut = _NESTED_CUT if text[lo] == "[" else _FLAT_CUT
    parts = []
    while True:
        m = cut.search(text, lo + _JSON_PIECE, end)
        hi = m.end() - 1 if m else end
        try:
            part = np.asarray(json.loads("[" + text[lo:hi] + "]"), dtype=float)
        except (ValueError, TypeError, OverflowError, RecursionError):
            return None
        if part.size == 0 or part.shape[1:] not in ((), (1,), (2,)):
            return None
        if parts and part.shape[1:] != parts[0].shape[1:]:
            return None
        parts.append(part)
        if m is None:
            return np.concatenate(parts)
        lo = m.end()


def _line_chunks(text):
    """(number of the first line, lines) for runs of at most _CHUNK lines.

    The text goes through str.splitlines in blocks of about _TEXT_BLOCK
    characters, each cut just after a "\n".  Such a cut ends a line and
    never splits a "\r\n", so the blocks' lines are those of the whole text.
    """
    lineno = 1
    lo = 0
    while lo < len(text):
        cut = text.find("\n", lo + _TEXT_BLOCK)
        hi = len(text) if cut < 0 else cut + 1
        lines = text[lo:hi].splitlines()
        for k in range(0, len(lines), _CHUNK):
            yield lineno + k, lines[k : k + _CHUNK]
        lineno += len(lines)
        lo = hi


def _parse_csv(text):
    """Data rows of a CSV text as an (n, width) array, and the lower-cased
    header cells (None without a header).

    Blank lines and '#' lines are skipped, empty cells are dropped, and a
    header is the first unparseable line before any data.  Once the row
    width is known, a chunk of lines in which every line has width - 1
    commas and every cell parses is converted in one pass; any other chunk
    goes through the line-by-line loop, which reports the line number.
    """
    blocks = []  # one flat float array per chunk
    header = None
    width = None
    ragged = False
    for first, chunk in _line_chunks(text):
        if width is not None:
            body = [s for s in map(str.strip, chunk) if s and s[0] != "#"]
            if all(s.count(",") == width - 1 for s in body):
                try:
                    blocks.append(np.array(list(map(float, ",".join(body).split(",")))))
                    continue
                except ValueError:
                    pass
        vals_of_chunk = []
        for lineno, line in enumerate(chunk, first):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            parts = [c.strip() for c in s.split(",")]
            try:
                vals = [float(c) for c in parts if c != ""]
            except ValueError:
                if header is None and width is None:
                    header = [c.lower() for c in parts]
                    continue
                raise ParseError(f"line {lineno}: cannot parse {s!r}")
            if vals:
                if width is None:
                    width = len(vals)
                ragged = ragged or len(vals) != width
                vals_of_chunk.extend(vals)
        blocks.append(np.array(vals_of_chunk))
    if width is None:
        raise ParseError("no data rows in input")
    if ragged:
        raise ParseError("inconsistent number of columns")
    return np.concatenate(blocks).reshape(-1, width), header


def record_pieces(rec: ResultRecord, fmt):
    """The text of a record in ``fmt`` ("json" or "csv"): the head, then
    one piece per _CHUNK rows, then the tail.

    Every number is written as "%.17g" writes it.  The rows go through
    rowtext.row_texts: a double d with 1e-6 <= |d| < 1e17 gets its 17
    digits from an exact product d * 10^p, and ±0 is "0" or "-0".  A row
    with a number outside that range (inf, nan, subnormals among them), or
    with one whose exponent at 17 digits is below -6 or above 16, is
    written by Python's "%.17g" instead.
    """
    nums = (_fmt(rec.total), _fmt(rec.efficiency_residual), _fmt(rec.wall_time_ms))
    if fmt == "json":
        yield '{"game":"%s","n":%d,"algorithm":"%s","values":[' % (rec.game, rec.n, rec.algorithm)
    else:
        yield (
            "# game=%s algorithm=%s n=%d total=%s efficiency_residual=%s wall_time_ms=%s\n"
            "index,x,y,shapley\n" % (rec.game, rec.algorithm, rec.n, *nums)
        )
    pts = np.asarray(rec.points, dtype=float)
    yield from row_texts(fmt, pts, np.asarray(rec.values, dtype=float), _CHUNK)
    if fmt == "json":
        yield '],"total":%s,"efficiency_residual":%s,"wall_time_ms":%s}' % nums


def write_text(path, pieces):
    """Write each piece of text as it comes, to the file or, for "-", to
    stdout, which also gets a newline when the last piece does not end in
    one."""
    if path == "-":
        last = ""
        for piece in pieces:
            sys.stdout.write(piece)
            last = piece
        if not last.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            for piece in pieces:
                fh.write(piece)


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
    write_text(cfg.output_path, record_pieces(rec, cfg.output_format))
    return EXIT_OK


def _reference_algorithm(game, n):
    """oracle-perm up to its guard, then the quadratic or naive engine,
    then oracle-subset up to its guard; None when none applies."""
    from . import oracle

    if n <= oracle.PERMUTATION_LIMIT:
        return "oracle-perm"
    for cand in ("quadratic", "naive"):
        try:
            solver_for(game, cand)
            return cand
        except DomainError:
            continue
    if n <= oracle.SUBSET_LIMIT:
        return "oracle-subset"
    return None


def _check_verify_args(args):
    if args.nmin < 1:
        raise DomainError(f"--nmin must be at least 1, got {args.nmin}")
    if args.nmax < args.nmin:
        raise DomainError(f"--nmax must be at least --nmin={args.nmin}, got {args.nmax}")
    if args.instances < 1:
        raise DomainError(f"--instances must be at least 1, got {args.instances}")


def _verify_solutions(game, pts, ref_name, algos):
    """The reference values and {algo: values} for one instance.

    With oracle-perm as the reference, one coalition table serves both
    oracles; each still computes its values from it by its own formula.
    """
    from . import oracle

    if ref_name == "oracle-perm":
        table = oracle.coalition_table(game, pts)
        ref = oracle.shapley_by_permutations(game, pts, table=table).values
    else:
        table = None
        ref = solver_for(game, ref_name)(pts).values
    got = {}
    for a in algos:
        if a == "oracle-subset" and table is not None:
            got[a] = oracle.shapley_by_subsets(game, pts, table=table).values
        else:
            got[a] = solver_for(game, a)(pts).values
    return ref, got


def cmd_verify(args):
    _check_verify_args(args)
    games_list = _games_from_arg(args.games)
    for game in games_list:
        for n in range(args.nmin, args.nmax + 1):
            if _reference_algorithm(game, n) is None:
                print(f"VERIFY FAILED: no reference for {game} at n={n}")
                return EXIT_INTERNAL
            # Load every engine before numpy.random and the instances, so
            # that compiling a module does not add to their memory peak.
            for algo in algorithms_for(game, n):
                solver_for(game, algo)
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
                ref, got = _verify_solutions(game, pts, ref_name, algos)
                scale = np.maximum(np.abs(ref), 1e-3)
                for algo, values in got.items():
                    diff = float(np.max(np.abs(values - ref) / scale))
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


def _bench_sizes(arg):
    sizes = []
    for s in arg.split(","):
        try:
            n = int(s)
        except ValueError:
            n = 0
        if n < 1:
            raise DomainError(f"--sizes entry {s!r} is not an integer >= 1")
        sizes.append(n)
    return sizes


def cmd_bench(args):
    games_list = _games_from_arg(args.games)
    sizes_of = {g: _bench_sizes(args.sizes or _DEFAULT_BENCH_SIZES[g]) for g in games_list}
    rng = np.random.default_rng(args.seed)
    out_lines = ["game,algorithm,n,seconds"]
    for game in games_list:
        sizes = sizes_of[game]
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
            out_lines.append(f"# slope,{game},{args.algorithm},{slope:.4f}")
    write_text(args.output, ["\n".join(out_lines) + "\n"])
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


def run():
    """Program entry, for `python -m geoshapley.cli` and the `geoshapley`
    script: main() after gc.freeze().

    Freezing moves every object alive after the imports out of the
    collector's reach, so neither the run's collections nor the one at
    exit walk them.  main() does not freeze, so a caller that runs it in
    process keeps its collector as it was.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
