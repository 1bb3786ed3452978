"""Command-line interface: compute / verify / bench.

Exit codes: 1 I/O or parse failure, 2 input validation (domain or general
position), 3 brute-force size guard, 4 internal consistency or a failed
verification run.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import itertools
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
from .games import GAME_KINDS, GAMES, check_game
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

# The input is read in blocks of this many bytes, and the JSON reader
# parses its "points" list in pieces of about this many characters.
_TEXT_BLOCK = 1 << 18
_JSON_PIECE = 1 << 16

# The readers gather parsed values into arrays of at least this many.
_SLAB = 1 << 17

# A JSON document starts with "{" after blanks.
_JSON_START = re.compile(r"\s*\{")
# The text of a JSON document {"points": [...]} before its first element,
# and from the list's closing "]" on.  Only JSON's own whitespace counts.
_JSON_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"points"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_JSON_TAIL = re.compile(r"\][ \t\n\r]*\}[ \t\n\r]*")
_JSON_BLANKS = re.compile(r"[ \t\n\r]*")
# The separator after an [x, y] element, and after a number.
_NESTED_CUT = re.compile(r"\][ \t\n\r]*,")
_FLAT_CUT = re.compile(",")


class _Gather:
    """Parsed arrays in input order, each run of them merged into one array
    once it holds _SLAB values.  An allocator maps an array this large on
    its own and gives it back to the system when it is freed, whereas a
    heap of small ones would stay resident after the points are built."""

    def __init__(self):
        self.merged = []
        self.run = []
        self.run_size = 0

    def add(self, part):
        self.run.append(part)
        self.run_size += part.size
        if self.run_size >= _SLAB:
            self.merged.append(np.concatenate(self.run))
            self.run = []
            self.run_size = 0

    def arrays(self):
        return self.merged + self.run


def _fmt(v):
    """17 significant digits: round-trip-exact for doubles."""
    return format(float(v), ".17g")


def read_points(path):
    """The (n, 2) points of a CSV or JSON file, or of stdin for "-".

    The text is read in blocks of _TEXT_BLOCK bytes and parsed as it
    arrives.  Only a JSON document that the piecewise reader cannot take
    needs the whole text: a file is then read again from the start, and
    stdin, which cannot be, is kept whole once it is known to be JSON.
    """
    if path == "-":
        return _read_text(_text_blocks(sys.stdin.buffer), None)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    with fh:
        return _read_text(_text_blocks(fh), path)


def _text_blocks(fh):
    """The text of the binary file fh, read in blocks of _TEXT_BLOCK bytes
    and decoded as strict UTF-8, a leading byte-order mark dropped; a
    failed read or decode is a ParseError."""
    decode = codecs.getincrementaldecoder("utf-8-sig")().decode
    while True:
        try:
            data = fh.read(_TEXT_BLOCK)
            block = decode(data, final=not data)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read input: {exc}") from exc
        if not data:
            return
        yield block


def _whole_file(path):
    with open(path, "rb") as fh:
        return "".join(_text_blocks(fh))


def _read_text(blocks, path):
    """Points from the text blocks of the file at path (None: stdin).

    The format is JSON when the first non-blank character is "{".
    """
    blocks = iter(blocks)
    head = []
    for block in blocks:
        head.append(block)
        if block and not block.isspace():
            break
    head = "".join(head)
    blocks = itertools.chain([head], blocks)
    if _JSON_START.match(head):
        if path is None:
            text = "".join(blocks)
            return _read_json([text], lambda: text)
        return _read_json(blocks, lambda: _whole_file(path))
    rows, header = _parse_csv(blocks)
    width = rows[0].shape[1]
    if header is not None and "x" in header:
        for name in ("x", "y"):
            if name in header and header.index(name) >= width:
                raise ParseError(
                    f"header names column {name!r} at position {header.index(name) + 1}, "
                    f"but the rows have {width} column(s)"
                )
        return _plane(rows, header.index("x"), header.index("y") if "y" in header else None)
    if width > 2:
        raise ParseError("expected 1 or 2 unnamed columns (or a header naming x,y)")
    return _plane(rows, 0, 1 if width == 2 else None)


def _plane(rows, xi, yi):
    """One (n, 2) array of columns xi and yi (0 for y when yi is None) of
    the row blocks `rows`, built in place."""
    pts = np.empty((sum(len(r) for r in rows), 2))
    lo = 0
    for r in rows:
        hi = lo + len(r)
        pts[lo:hi, 0] = r[:, xi]
        pts[lo:hi, 1] = 0.0 if yi is None else r[:, yi]
        lo = hi
    return pts


def _read_json(blocks, whole):
    """Points of a JSON document: piecewise from its text blocks, or, when
    that path declines, from json.loads of whole()."""
    rows = _json_pieces(blocks)
    if rows is None:
        try:
            pts = np.asarray(json.loads(whole())["points"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON input: {exc}") from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] not in (1, 2) or pts.shape[0] == 0:
            raise ParseError("JSON 'points' must be a nonempty list of [x, y]")
        rows = [pts]
    return _plane(rows, 0, 1 if rows[0].shape[1] == 2 else None)


def _json_pieces(blocks):
    """The "points" array of a document whose only key is "points", as
    (k, width) row blocks parsed in pieces of about _JSON_PIECE characters
    from the text blocks `blocks`; None when the document has another
    shape or a piece does not parse to a nonempty array of numbers or of
    rows of one width, 1 or 2.

    Each piece ends at a separator between two elements and is parsed as
    a list of its own.  When every piece parses, the pieces' elements are
    exactly the list's elements, so the result is that of the whole text.
    A separator found in the text read so far is the first one in the
    whole text, and none follows the list's closing "]", so the pieces do
    not depend on how the text arrives.  Text before the current piece is
    dropped as the blocks come in.
    """
    blocks = iter(blocks)
    text = ""
    lo = 0

    def more():
        nonlocal text, lo
        block = next(blocks, None)
        if block is None:
            return False
        text = text[lo:] + block
        lo = 0
        return True

    # The head is settled once a character other than blanks follows the
    # first "[" (the head's pattern matches no "[" before its own).
    while True:
        b = text.find("[") + 1
        if (b and _JSON_BLANKS.match(text, b).end() < len(text)) or not more():
            break
    head = _JSON_HEAD.match(text)
    if head is None or head.end() == len(text):
        return None
    lo = head.end()
    cut = _NESTED_CUT if text[lo] == "[" else _FLAT_CUT
    parts = _Gather()
    shape = None  # of an element
    while True:
        m = cut.search(text, lo + _JSON_PIECE)
        while m is None and more():
            m = cut.search(text, lo + _JSON_PIECE)
        if m is None:  # the last piece ends at the list's closing "]"
            hi = text.rfind("]", lo)
            if hi < 0 or not _JSON_TAIL.fullmatch(text, hi):
                return None
        else:
            hi = m.end() - 1
        try:
            part = np.asarray(json.loads("[" + text[lo:hi] + "]"), dtype=float)
        except (ValueError, TypeError, OverflowError, RecursionError):
            return None
        if part.size == 0 or part.shape[1:] not in ((), (1,), (2,)):
            return None
        if shape is not None and part.shape[1:] != shape:
            return None
        shape = part.shape[1:]
        parts.add(part.reshape(len(part), -1))
        if m is None:
            return parts.arrays()
        lo = m.end()


def _line_chunks(blocks):
    """(number of the first line, lines) for runs of at most _CHUNK lines
    of the text whose blocks are `blocks`.

    The text goes through str.splitlines cut just after the last "\n", or
    "\r" other than the last character, of each block, the rest carried
    into the next.  Such a cut ends a line and never splits a "\r\n", so
    the lines are those of the whole text.
    """
    lineno = 1
    rest = ""
    for block in itertools.chain(blocks, [None]):
        if block is None:
            lines = rest.splitlines()
        else:
            text = rest + block
            cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
            rest = text[cut:]
            lines = text[:cut].splitlines()
        for k in range(0, len(lines), _CHUNK):
            yield lineno + k, lines[k : k + _CHUNK]
        lineno += len(lines)


def _parse_csv(text_blocks):
    """Data rows of a CSV text, given as its text blocks, as (k, width) row
    blocks, and the lower-cased header cells (None without a header).

    Blank lines and '#' lines are skipped, empty cells are dropped, and a
    header is the first unparseable line before any data.  Once the row
    width is known, a chunk of lines in which every line has width - 1
    commas and every cell parses is converted in one pass; any other chunk
    goes through the line-by-line loop, which reports the line number.
    """
    values = _Gather()  # flat float arrays, one per chunk
    header = None
    width = None
    ragged = False
    for first, chunk in _line_chunks(text_blocks):
        if width is not None:
            body = [s for s in map(str.strip, chunk) if s and s[0] != "#"]
            if all(s.count(",") == width - 1 for s in body):
                try:
                    values.add(np.array(list(map(float, ",".join(body).split(",")))))
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
        values.add(np.array(vals_of_chunk))
    if width is None:
        raise ParseError("no data rows in input")
    if ragged:
        raise ParseError("inconsistent number of columns")
    return [v.reshape(-1, width) for v in values.arrays()], header


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


def cmd_compute(args):
    pts = read_points(args.input)
    solver = solver_for(args.game, args.algorithm)
    t0 = time.perf_counter()
    sv = solver(pts)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    rec = ResultRecord(
        game=args.game,
        n=pts.shape[0],
        algorithm=args.algorithm,
        points=pts,
        values=sv.values,
        total=sv.game_total,
        efficiency_residual=sv.efficiency_residual,
        wall_time_ms=0.0 if args.no_timing else elapsed_ms,
    )
    write_text(args.output, record_pieces(rec, args.format))
    return EXIT_OK


def _reference_algorithm(game, n):
    """oracle-perm up to its guard, then the quadratic or naive engine,
    then oracle-subset up to its guard; None when none applies."""
    applicable = algorithms_for(game, n)
    return next(
        (a for a in ("oracle-perm", "quadratic", "naive", "oracle-subset") if a in applicable), None
    )


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
            if args.chains and GAMES[game].chains:
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


# The oracles' series, inside their size guards, for any game.
_ORACLE_BENCH_SIZES = {"oracle-perm": "7,8,9,10", "oracle-subset": "16,18,20,22"}


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


def _timed(solver, pts):
    t0 = time.perf_counter()
    solver(pts)
    return time.perf_counter() - t0


def cmd_bench(args):
    """Per game, the least of three timed calls at each size after one
    untimed warm-up call, and the slope of log time against log n.  With
    --chain, increasing and decreasing chains, which take different
    solvers, are timed and fitted as two series."""
    games_list = _games_from_arg(args.games)
    default = _ORACLE_BENCH_SIZES.get(args.algorithm)
    sizes_of = {g: _bench_sizes(args.sizes or default or GAMES[g].bench_sizes) for g in games_list}
    kinds = [(None, None)]
    if args.chain:
        kinds = [("increasing-chain", True), ("decreasing-chain", False)]
    out_lines = ["game,algorithm,n,seconds"]
    for game in games_list:
        solver = solver_for(game, args.algorithm)
        ns = sizes_of[game]
        for kind, increasing in kinds:
            label = f"{game}:{kind}" if kind else game
            ts = []
            for n in ns:
                # a fresh generator per size, so that every size of a series
                # draws the same input shape (positive quadrant or plane)
                rng = np.random.default_rng(args.seed)
                if kind is None:
                    pts = random_instance(game, rng, n)
                else:
                    pts = random_chain(rng, n, increasing)
                if not ts:
                    solver(pts)
                ts.append(min(_timed(solver, pts) for _ in range(3)))
                out_lines.append(f"{label},{args.algorithm},{n},{ts[-1]:.6f}")
            if len(ns) >= 2:
                slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
                out_lines.append(f"# slope,{label},{args.algorithm},{slope:.4f}")
    write_text(args.output, ["\n".join(out_lines) + "\n"])
    return EXIT_OK


def _games_from_arg(arg):
    if arg in (None, "all"):
        return list(GAME_KINDS)
    out = [g.strip() for g in arg.split(",")]
    for g in out:
        check_game(g)
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
            return cmd_compute(args)
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
