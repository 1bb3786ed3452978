import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshapley import cli, games, hull, oracle, rowtext
from geoshapley.cli import ParseError, ResultRecord, main, read_points
from geoshapley.dispatch import algorithms_for
from geoshapley.games import GAME_KINDS

from conftest import assert_close, on_circle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_airport_golden(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("1\n2\n3\n")
        code, out, _ = run(
            capsys, "compute", "--game", "airport", "--input", str(path)
        )
        assert code == 0
        data = json.loads(out)
        values = [v["shapley"] for v in data["values"]]
        assert_close(values, [1 / 3, 5 / 6, 11 / 6])
        assert data["game"] == "airport" and data["n"] == 3

    def test_hull_area_triangle_equal_split(self, tmp_path, capsys):
        path = tmp_path / "tri.csv"
        path.write_text("0.1,0.2\n2.0,0.5\n0.7,1.9\n")
        code, out, _ = run(capsys, "compute", "--game", "hull-area", "--input", str(path))
        assert code == 0
        data = json.loads(out)
        values = [v["shapley"] for v in data["values"]]
        assert_close(values, [values[0]] * 3, rel=1e-9)
        assert_close(sum(values), data["total"], rel=1e-9)

    def test_hull_area_residual_at_micro_scale(self, tmp_path, capsys):
        # Forty points spread over 1e-5: the total must keep every hull
        # vertex however small the units.
        pts = np.random.default_rng(0).uniform(-5.0, 5.0, (40, 2)) * 1e-6
        path = _write_points(tmp_path / "micro.csv", pts)
        code, out, _ = run(capsys, "compute", "--game", "hull-area", "--input", path)
        assert code == 0
        data = json.loads(out)
        assert abs(data["efficiency_residual"]) <= 1e-9 * abs(data["total"])

    @pytest.mark.parametrize("game", ["hull-area", "disk-area", "bbox-area"])
    def test_subset_oracle_matches_fast_engine_at_16(self, tmp_path, capsys, game):
        pts = np.random.default_rng(16).uniform(-10.0, 10.0, size=(16, 2))
        path = _write_points(tmp_path / "pts.csv", pts)
        values = {}
        for algo in ("fast", "oracle-subset"):
            code, out, _ = run(
                capsys, "compute", "--game", game, "--algorithm", algo, "--input", path
            )
            assert code == 0
            values[algo] = [v["shapley"] for v in json.loads(out)["values"]]
        assert_close(values["oracle-subset"], values["fast"], rel=1e-9)

    def test_perm_oracle_size_guard_exit_3(self, tmp_path, capsys):
        pts = np.column_stack([np.arange(1.0, 12.0), np.arange(1.0, 12.0) ** 2])
        path = tmp_path / "big.csv"
        path.write_text("\n".join(f"{x},{y}" for x, y in pts))
        code, _, err = run(
            capsys,
            "compute",
            "--game",
            "anchored-rects",
            "--algorithm",
            "oracle-perm",
            "--input",
            str(path),
        )
        assert code == 3
        assert "size guard" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nfoo,bar\n")
        code, _, err = run(capsys, "compute", "--game", "hull-area", "--input", str(path))
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(
            capsys, "compute", "--game", "hull-area", "--input", "/nonexistent.csv"
        )
        assert code == 1

    def test_collinear_rejected_exit_2(self, tmp_path, capsys):
        path = tmp_path / "col.csv"
        path.write_text("0,0\n1,1\n2,2\n3,0.5\n")
        code, _, err = run(capsys, "compute", "--game", "hull-area", "--input", str(path))
        assert code == 2
        assert "general position" in err

    def test_algorithm_not_available_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("1,3\n2,5\n4,2\n")
        for game, algorithm, message in [
            ("airport", "quadratic", "no quadratic baseline for game 'airport'"),
            ("hull-area", "quadratic", "no quadratic baseline for game 'hull-area'"),
            ("airport", "naive", "no naive variant for game 'airport'"),
            ("bbox-area", "naive", "no naive variant for game 'bbox-area'"),
        ]:
            code, out, err = run(
                capsys, "compute", "--game", game, "--algorithm", algorithm, "--input", str(path)
            )
            assert code == 2
            assert out == ""
            assert err == f"error (validation): {message}\n"

    def test_json_input(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[1.0, 1.0], [2.0, 2.0]]}))
        code, out, _ = run(
            capsys, "compute", "--game", "anchored-rects", "--input", str(path)
        )
        assert code == 0
        values = [v["shapley"] for v in json.loads(out)["values"]]
        assert_close(values, [0.5, 3.5])

    def test_csv_roundtrip_exact(self, tmp_path, capsys, rng):
        pts = rng.uniform(-5, 5, (12, 2))
        src = tmp_path / "in.csv"
        src.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts))
        out_path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            "compute",
            "--game",
            "bbox-perimeter",
            "--input",
            str(src),
            "--format",
            "csv",
            "--output",
            str(out_path),
        )
        assert code == 0
        again = read_points(str(out_path))
        assert np.array_equal(again, pts)

    def test_deterministic_output_across_threads(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        rng = np.random.default_rng(5)
        src.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in rng.uniform(0.1, 9, (40, 2))))
        outs = []
        for run_id in range(3):
            out_path = tmp_path / f"out{run_id}.json"
            code, _, _ = run(
                capsys,
                "compute",
                "--game",
                "anchored-rects",
                "--input",
                str(src),
                "--no-timing",
                "--output",
                str(out_path),
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_comments_and_header(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("# a comment\nx,y\n1,2\n2,1\n")
        code, out, _ = run(capsys, "compute", "--game", "bbox-area", "--input", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 2


def _write_points(path, pts):
    path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts))
    return str(path)


# Degenerate inputs, each with the input-index tuple its game's engine names.
DEGENERATE = [
    ("hull-area", [(0, 0), (1, 1), (2, 2), (3, 0.5)], (0, 1, 2)),
    ("hull-perimeter", [(0, 0), (1000, 0), (2000, 1.5e-9), (500, 700)], (0, 1, 2)),
    ("disk-area", [(0, 0), (2, 0), (1, 1)], (0, 1, 2)),
    ("disk-perimeter", on_circle([0.3, 1.4, 2.9, 4.4]), (0, 1, 2, 3)),
]


class TestGeneralPosition:
    """Each engine's own check rejects degenerate input with exit 2 and the
    offending input-index tuples."""

    @pytest.mark.parametrize(
        "game, pts, offending", DEGENERATE, ids=[row[0] for row in DEGENERATE]
    )
    def test_degenerate_input_exit_2(self, tmp_path, capsys, game, pts, offending):
        path = _write_points(tmp_path / "in.csv", pts)
        code, _, err = run(capsys, "compute", "--game", game, "--input", path)
        assert code == 2
        assert "general position" in err
        assert f"offending=[{offending!r}]" in err

    def test_generic_triangle_passes_all(self, tmp_path, capsys):
        path = _write_points(tmp_path / "in.csv", [(0.1, 0.2), (1.3, 0.5), (0.4, 1.7)])
        for game in GAME_KINDS:
            code, _, err = run(capsys, "compute", "--game", game, "--input", path)
            assert code == 0, (game, err)

    def test_axis_aligned_right_triangle_flags(self, tmp_path, capsys):
        # Shares coordinates and (0, 0) lies on the diametral circle of the
        # other two, but no three points are collinear.
        path = _write_points(tmp_path / "in.csv", [(0, 0), (1, 0), (0, 1)])
        expected = {
            "hull-area": (0, ""),
            "disk-area": (2, "offending=[(0, 1, 2)]"),
            "bbox-area": (0, ""),
        }
        for game, (want_code, want_err) in expected.items():
            code, _, err = run(capsys, "compute", "--game", game, "--input", path)
            assert code == want_code and want_err in err, (game, err)

    @pytest.mark.parametrize(
        "game, pts",
        [
            # Four points on a short arc: every triple among them is obtuse,
            # so their cocircular ties never touch a basis.
            (
                "disk-area",
                on_circle([0.1, 0.2, 0.35, 0.5]) + [(-3.1, 0.7), (1.2, -4.4), (-0.6, -2.3)],
            ),
            # Points 0 and 1 share x = 1 but lie in different quadrants.
            ("anchored-rects", [(1, 2), (1, -3), (4, 5), (-2, 0.5)]),
            # Shared coordinates, which the rank-space games accept: a tie
            # inside the south-east quadrant, a shared x, a shared y.
            ("anchored-rects", [(-1, 2), (2, 1), (3, -4), (5, -4)]),
            ("anchored-bbox-area", [(1, 2), (1, 3), (2, 5)]),
            ("bbox-area", [(2, 1), (3, 4), (5, 1)]),
        ],
        ids=[
            "disk-area-short-arc",
            "anchored-rects-split-tie",
            "anchored-rects-tie",
            "anchored-bbox-area-tie",
            "bbox-area-tie",
        ],
    )
    def test_no_longer_rejected(self, tmp_path, capsys, game, pts):
        path = _write_points(tmp_path / "in.csv", pts)
        values = []
        for algorithm in ("auto", "oracle-perm"):
            code, out, err = run(
                capsys, "compute", "--game", game, "--algorithm", algorithm, "--input", path
            )
            assert code == 0, err
            values.append([v["shapley"] for v in json.loads(out)["values"]])
        assert_close(values[0], values[1], rel=1e-9)


def _numbered_rows(n, start=0):
    """CSV lines ``i,2i+0.5`` for i in [start, start + n)."""
    return [f"{i},{2 * i + 0.5}" for i in range(start, start + n)]


def _numbered_points(n, start=0):
    i = np.arange(start, start + n, dtype=float)
    return np.column_stack([i, 2 * i + 0.5])


def _interleaved(n):
    """n data rows with a comment line, a blank line and an indented
    comment woven between them at different periods."""
    lines = []
    for i, row in enumerate(_numbered_rows(n)):
        if i % 7 == 0:
            lines.append("# comment %d" % i)
        if i % 11 == 0:
            lines.append("")
        if i % 13 == 0:
            lines.append("   # indented")
        lines.append(row if i % 5 else "  " + row + "  ")
    return "\n".join(lines) + "\n"


def _error(text):
    return re.escape(text)


# Reader inputs, each with the array it parses to or a pattern for the full
# ParseError text (every pattern but one is an exact literal).
READER_CASES = [
    ("csv-crlf", "1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    ("csv-upper-header", "X,Y\n1,2\n3,4\n", [[1, 2], [3, 4]]),
    ("csv-swapped-header", "y,x\n1,2\n3,4\n", [[2, 1], [4, 3]]),
    ("csv-x-only-header", "x\n1\n2\n", [[1, 0], [2, 0]]),
    (
        "csv-header-column-missing",
        "y,x\n1\n2\n",
        _error("header names column 'x' at position 2, but the rows have 1 column(s)"),
    ),
    (
        "csv-header-y-column-missing",
        "x,a,y\n1,2\n3,4\n",
        _error("header names column 'y' at position 3, but the rows have 2 column(s)"),
    ),
    ("csv-empty-cell", "1,,2\n3,4\n", [[1, 2], [3, 4]]),
    ("csv-trailing-comma", "1,2,\n3,4,\n", [[1, 2], [3, 4]]),
    ("csv-all-empty-row", "1,2\n,,\n3,4\n", [[1, 2], [3, 4]]),
    ("csv-ragged", "1,2\n3\n", _error("inconsistent number of columns")),
    ("csv-bad-line", "1,2\nfoo,bar\n", _error("line 2: cannot parse 'foo,bar'")),
    ("csv-ragged-then-bad", "1,2\n3\nfoo,bar\n", _error("line 3: cannot parse 'foo,bar'")),
    (
        "csv-three-unnamed",
        "1,2,3\n4,5,6\n",
        _error("expected 1 or 2 unnamed columns (or a header naming x,y)"),
    ),
    ("csv-header-only", "x,y\n", _error("no data rows in input")),
    ("csv-empty-file", "", _error("no data rows in input")),
    ("csv-underscore-digits", "1_0,2\n", [[10, 2]]),
    ("csv-blank-and-comment-mid", "1,2\n\n# c\n  \n3,4\n", [[1, 2], [3, 4]]),
    ("csv-bom-header", "\ufeffy,x\n1,5\n2,6\n3,7\n", [[5, 1], [6, 2], [7, 3]]),
    # Past the first 4096-line chunk.
    (
        "csv-ragged-at-5001",
        "\n".join(_numbered_rows(5000) + ["7"] + _numbered_rows(100, 5000)),
        _error("inconsistent number of columns"),
    ),
    (
        "csv-bad-line-at-5001",
        "\n".join(_numbered_rows(5000) + ["a,b"] + _numbered_rows(100, 5000)),
        _error("line 5001: cannot parse 'a,b'"),
    ),
    (
        "csv-ragged-then-bad-late",
        "\n".join(_numbered_rows(4500) + ["7"] + _numbered_rows(4000, 4500) + ["a,b"]),
        _error("line 8502: cannot parse 'a,b'"),
    ),
    (
        "csv-empty-cell-past-4096",
        "\n".join(_numbered_rows(4999) + ["4999,,9998.5"] + _numbered_rows(100, 5000)),
        _numbered_points(5100),
    ),
    (
        "csv-header-after-5000-comments",
        "# note\n" * 5000 + "y,x\n" + "\n".join(_numbered_rows(3)),
        _numbered_points(3)[:, ::-1],
    ),
    ("csv-9000-rows-interleaved", _interleaved(9000), _numbered_points(9000)),
    ("json-one-column", '{"points": [[1],[2]]}', [[1, 0], [2, 0]]),
    ("json-bom", '\ufeff{"points": [[1,2],[3,4]]}', [[1, 2], [3, 4]]),
    (
        "json-ragged",
        '{"points": [[1,2],[3]]}',
        _error("bad JSON input: setting an array element with a sequence") + ".*",
    ),
    ("json-empty", '{"points": []}', _error("JSON 'points' must be a nonempty list of [x, y]")),
    ("json-scalar", '{"points": 5}', _error("JSON 'points' must be a nonempty list of [x, y]")),
]


class TestReadPoints:
    @pytest.mark.parametrize(
        "text, expected", [c[1:] for c in READER_CASES], ids=[c[0] for c in READER_CASES]
    )
    def test_table(self, tmp_path, text, expected):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ParseError) as exc:
                read_points(str(path))
            assert re.fullmatch(expected, str(exc.value), re.DOTALL), str(exc.value)
        else:
            got = read_points(str(path))
            want = np.asarray(expected, dtype=float)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_json_scalar_exit_1(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('{"points": 5}')
        code, _, err = run(capsys, "compute", "--game", "airport", "--input", str(path))
        assert code == 1
        assert "nonempty list" in err and "Traceback" not in err

    def test_header_column_missing_exit_1(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("y,x\n1\n2\n")
        code, _, err = run(capsys, "compute", "--game", "airport", "--input", str(path))
        assert code == 1
        assert "header names column 'x'" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_bom_before_header(self, tmp_path, capsys, monkeypatch, source):
        text = "\ufeffy,x\n1,5\n2,6\n3,7\n"
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", _stdin_of(text.encode()))
            path = "-"
        code, out, _ = run(capsys, "compute", "--game", "bbox-perimeter", "--input", str(path))
        assert code == 0
        assert [v["point"] for v in json.loads(out)["values"]] == [[5, 1], [6, 2], [7, 3]]


def _outcome(read):
    """What a reader call gives: the arrays' dtype, shape and bytes (and
    any other part of the result), or the ParseError text."""
    try:
        got = read()
    except ParseError as exc:
        return str(exc)
    return [
        (x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
        for x in (got if isinstance(got, tuple) else (got,))
    ]


def _blocks_of(text, size):
    """text in blocks of `size` characters, as the reader takes it in."""
    return [text[k : k + size] for k in range(0, len(text), size)]


def _json_streamed_and_whole(monkeypatch, text, piece, block=None):
    """The JSON reader's outcome in pieces of `piece` characters, from text
    blocks of `block` characters (one block when None), and with the
    piecewise path switched off."""
    blocks = [text] if block is None else _blocks_of(text, block)
    with monkeypatch.context() as m:
        m.setattr(cli, "_JSON_PIECE", piece)
        streamed = _outcome(lambda: cli._read_json(blocks, lambda: text))
        taken = cli._json_pieces(blocks) is not None
        m.setattr(cli, "_json_pieces", lambda blocks: None)
        whole = _outcome(lambda: cli._read_json(blocks, lambda: text))
    return streamed, whole, taken


def _csv_streamed_and_whole(text, block):
    """The reader's outcome on a CSV text in blocks of `block` characters,
    and on the whole text in one block (one str.splitlines over all of it)."""
    streamed = _outcome(lambda: cli._read_text(_blocks_of(text, block), None))
    whole = _outcome(lambda: cli._read_text([text], None))
    return streamed, whole


# Valid documents that the piecewise JSON path parses.
JSON_STREAMED = [
    ("non-finite", '{"points": [[NaN, 1], [Infinity, -Infinity], [-0.0, 2]]}'),
    ("whitespace-in-elements", '\n{ "points" :\r\n[ [ 1.5 ,\n\t-2 ] ,\n[3 , 4e2 ]\n ]\n}\n'),
    ("integers", '{"points": [[1, 2], [3, 9007199254740993], [-7, 0]]}'),
    ("one-column", '{"points": [[1],[2],[3.5]]}'),
    ("flat", '{"points": [1,2, 3.25 ,-4]}'),
    ("strings-of-numbers", '{"points": [["1.5", 2], [3, "4"]]}'),
]

# Documents that must go through the whole-document path.
JSON_FALLBACK = [
    ("string-holding-cut", '{"points": [["a],", 1], [2, 3], [4, 5]]}'),
    ("second-points-key", '{"points": [[1, 2], [3, 4]], "points": [[5, 6]]}'),
    ("extra-key-after", '{"points": [[1, 2], [3, 4]], "meta": [1]}'),
    ("extra-key-before", '{"meta": 1, "points": [[1, 2], [3, 4]]}'),
    ("empty-list", '{"points": []}'),
    ("ragged-element", '{"points": [[1, 2], [3, 4], [5], [6, 7]]}'),
    ("flat-then-row", '{"points": [1, 2, [3, 4]]}'),
    ("flat-then-one-wide-row", '{"points": [1, 2, [3], 4]}'),
    ("empty-rows", '{"points": [[], []]}'),
    ("three-columns", '{"points": [[1, 2, 3], [4, 5, 6]]}'),
    ("trailing-comma", '{"points": [[1, 2], [3, 4],]}'),
    ("object-element", '{"points": [[1, 2], {"x": 3}]}'),
    ("non-json-space", '{"points":\x0c[[1, 2], [3, 4]]}'),
]


# CSV texts with line ends of every kind, blank and comment lines, a
# header, a repeated header, ragged rows and a bad line.
CSV_BLOCK_TEXTS = [
    "1,2\r\n3,4\r\n5,6\n7,8\r\n",
    "1,2\x0c3,4\n5,6\u20287,8\n9,10\x0c",
    "1,\x0c2\n3,4\n",
    "x,y\n1,2\n\n# c\n3,4\n5,6\n",
    "x,y\n1,2\n3,4\nx,y\n5,6\n",
    "# c\n\n1,2\r\n3\r\n4,5\n",
    "1,2\r\n3,4\r\nfoo\r\n5,6\r\n",
    "\r\n\r\n\n\n1,2",
    "1,2\r3,4\r\n5,6\r\rfoo\r7,8\r",
]


class TestStreamedReaders:
    """The block-wise CSV and piecewise JSON readers give what one pass
    over the whole text gives: the same array bits or ParseError text."""

    @pytest.mark.parametrize(
        "text", [c[1] for c in JSON_STREAMED], ids=[c[0] for c in JSON_STREAMED]
    )
    def test_json_streamed(self, monkeypatch, text):
        for piece in range(1, len(text) + 1):
            streamed, whole, taken = _json_streamed_and_whole(monkeypatch, text, piece)
            assert taken, piece
            assert streamed == whole, piece

    @pytest.mark.parametrize(
        "text", [c[1] for c in JSON_FALLBACK], ids=[c[0] for c in JSON_FALLBACK]
    )
    def test_json_fallback(self, monkeypatch, text):
        for piece in (1, 2, 3, 5, 8, cli._JSON_PIECE):
            streamed, whole, taken = _json_streamed_and_whole(monkeypatch, text, piece)
            assert not taken, piece
            assert streamed == whole, piece

    @pytest.mark.parametrize("extra", [-1, 0, 1, 1000])
    def test_json_cut_at_default_piece(self, monkeypatch, extra):
        """Elements 25 characters apart, the first padded so that the "]"
        of element k sits exactly _JSON_PIECE characters into the list;
        the list ends one element before it, at it, one after, or later."""
        k, pad = divmod(cli._JSON_PIECE - 22, 25)
        rows = ["[%d.5, %d.25]" % (1000000 + i, 2000000 + i) for i in range(k + 2 + extra)]
        rows[0] = rows[0].replace(" ", " " * (pad + 1))
        assert len(", ".join(rows[: k + 1])) == cli._JSON_PIECE + 1
        text = '{"points": [' + ", ".join(rows[: k + 1 + extra]) + "]}"
        streamed, whole, taken = _json_streamed_and_whole(monkeypatch, text, cli._JSON_PIECE)
        assert taken and streamed == whole
        assert streamed[0][1] == (k + 1 + extra, 2)

    @pytest.mark.parametrize("text", CSV_BLOCK_TEXTS)
    def test_csv_blocks(self, text):
        for block in range(1, len(text) + 1):
            streamed, whole = _csv_streamed_and_whole(text, block)
            assert streamed == whole, block

    @pytest.mark.parametrize("bad", [True, False])
    def test_csv_line_numbers_across_blocks(self, bad):
        """CRLF rows past the first block, and a bad line 300000."""
        rows = _numbered_rows(299999)
        text = "\n".join(rows[:100000]) + "\n" + "\r\n".join(rows[100000:]) + "\r\n"
        text += "a,b\n1,2\n" if bad else "299999,599998.5\n"
        assert len(text) > 10 * cli._TEXT_BLOCK
        streamed, whole = _csv_streamed_and_whole(text, cli._TEXT_BLOCK)
        assert streamed == whole
        if bad:
            assert streamed == "line 300000: cannot parse 'a,b'"
        else:
            assert np.array_equal(cli._read_text([text], None), _numbered_points(300000))


def _stdin_of(data):
    """A stdin holding the bytes `data` as Python's stdin is on POSIX in
    UTF-8 mode: split at "\n" only, and decoding a byte that is not UTF-8
    to a lone surrogate instead of failing."""
    return io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"
    )


def _read_sources(monkeypatch, tmp_path, text, block):
    """read_points' outcome on `text` from a file and from stdin, read in
    blocks of `block` characters."""
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode())
    with monkeypatch.context() as m:
        m.setattr(cli, "_TEXT_BLOCK", block)
        from_file = _outcome(lambda: read_points(str(path)))
        m.setattr(sys, "stdin", _stdin_of(text.encode()))
        from_stdin = _outcome(lambda: read_points("-"))
    return from_file, from_stdin


def _block_sizes(text):
    """Every block size for a short text; for a long one, sizes that cut
    it in many, several and two blocks, and one block."""
    if len(text) <= 200:
        return range(1, len(text) + 1)
    return (7, 4096, len(text) // 3, len(text) - 1, len(text))


def _check_expected(outcome, expected):
    if isinstance(expected, str):
        assert isinstance(outcome, str) and re.fullmatch(expected, outcome, re.DOTALL), outcome
    else:
        want = np.asarray(expected, dtype=float)
        assert outcome == [(want.dtype.str, want.shape, want.tobytes())]


class TestBlockReader:
    """read_points on a file and on stdin gives, at every block size, the
    array bits or ParseError text of the whole text."""

    @pytest.mark.parametrize(
        "text, expected", [c[1:] for c in READER_CASES], ids=[c[0] for c in READER_CASES]
    )
    def test_reader_cases(self, monkeypatch, tmp_path, text, expected):
        for block in _block_sizes(text):
            for outcome in _read_sources(monkeypatch, tmp_path, text, block):
                _check_expected(outcome, expected)

    @pytest.mark.parametrize(
        "text, streamed",
        [(c[1], True) for c in JSON_STREAMED] + [(c[1], False) for c in JSON_FALLBACK],
        ids=[c[0] for c in JSON_STREAMED + JSON_FALLBACK],
    )
    def test_json(self, monkeypatch, tmp_path, text, streamed):
        whole = _json_streamed_and_whole(monkeypatch, text, cli._JSON_PIECE)[1]
        for block in range(1, len(text) + 1):
            for piece in (1, cli._JSON_PIECE):
                got = _json_streamed_and_whole(monkeypatch, text, piece, block)
                assert got == (whole, whole, streamed), (block, piece)
                monkeypatch.setattr(cli, "_JSON_PIECE", piece)
                assert _read_sources(monkeypatch, tmp_path, text, block) == (whole, whole), (
                    block,
                    piece,
                )

    @pytest.mark.parametrize("text", CSV_BLOCK_TEXTS)
    def test_csv(self, monkeypatch, tmp_path, text):
        whole = _csv_streamed_and_whole(text, len(text))[1]
        for block in range(1, len(text) + 1):
            assert _read_sources(monkeypatch, tmp_path, text, block) == (whole, whole), block

    @pytest.mark.parametrize(
        "text, block, expected",
        [
            # stdin's blocks "x,y\r", "\n1,2", "\r\n3,", "4\r\n": a "\r\n" cut twice.
            ("x,y\r\n1,2\r\n3,4\r\n", 4, [[1, 2], [3, 4]]),
            ("\ufeffy,x\n1,5\n", 1, [[5, 1]]),  # the first block is the mark alone
            ("\ufeff" + " \n\t\r" * 100 + '{"points": [[1, 2], [3, 4]]}', 64, [[1, 2], [3, 4]]),
            (" \n" * 200 + '{"meta": 1, "points": [[1, 2]]}', 16, [[1, 2]]),
            ("\n" * 300 + "1,2\nfoo\n", 64, _error("line 302: cannot parse 'foo'")),
            ("\n" * 300 + "\r\n" + "y,x\n1,2\n", 50, [[2, 1]]),
        ],
        ids=["crlf-cut", "bom-alone", "blanks-then-json", "blanks-then-fallback",
             "blanks-then-csv", "blanks-then-header"],
    )
    def test_block_edges(self, monkeypatch, tmp_path, text, block, expected):
        assert len(text) > block
        for outcome in _read_sources(monkeypatch, tmp_path, text, block):
            _check_expected(outcome, expected)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("rows", [0, 40000], ids=["first-block", "past-first-block"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undecodable_input_exit_1(self, monkeypatch, tmp_path, capsys, source, rows, fmt):
        good = _numbered_rows(rows)
        if fmt == "csv":
            data = ("x,y\n" + "".join(r + "\n" for r in good)).encode() + b"3,\xff4\n"
        else:
            data = ('{"points": [' + "".join("[%s], " % r for r in good)).encode() + b"[3, \xff4]]}"
        assert (len(data) > 2 * cli._TEXT_BLOCK) == (rows > 0)
        path = tmp_path / ("in." + fmt)
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", _stdin_of(data))
            path = "-"
        code, out, err = run(capsys, "compute", "--game", "bbox-perimeter", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error (I/O): cannot read input: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("rows", [0, 40000], ids=["first-block", "past-first-block"])
    def test_undecodable_comment_exit_1(self, monkeypatch, tmp_path, capsys, source, rows):
        good = _numbered_rows(rows)
        data = ("x,y\n" + "".join(r + "\n" for r in good)).encode() + b"# \xff\n3,4\n"
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", _stdin_of(data))
            path = "-"
        code, out, err = run(capsys, "compute", "--game", "airport", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error (I/O): cannot read input: 'utf-8' codec can't decode byte 0xff")

    def test_undecodable_stdin_of_the_program_exit_1(self):
        path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-m", "geoshapley.cli", "compute", "--game", "airport"],
            input=b"x,y\n# \xff\n1,2\n3,4\n", capture_output=True, env=env,
        )
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.startswith(b"error (I/O): cannot read input: 'utf-8' codec")


def record_to_json(rec):
    return "".join(cli.record_pieces(rec, "json"))


def record_to_csv(rec):
    return "".join(cli.record_pieces(rec, "csv"))


# The writer's rows as Python's "%.17g" formats them, one row at a time:
# the oracle of the vectorised row kernel in rowtext.row_texts.
_ORACLE_ROW = {
    "json": '{"index":%d,"point":[%.17g,%.17g],"shapley":%.17g}',
    "csv": "%d,%.17g,%.17g,%.17g\n",
}


def oracle_text(rec, fmt):
    nums = tuple(format(float(v), ".17g") for v in (rec.total, rec.efficiency_residual,
                                                    rec.wall_time_ms))
    cols = (np.asarray(rec.points, dtype=float).tolist(), np.asarray(rec.values).tolist())
    rows = [_ORACLE_ROW[fmt] % (i, x, y, v) for i, ((x, y), v) in enumerate(zip(*cols))]
    if fmt == "json":
        return (
            '{"game":"%s","n":%d,"algorithm":"%s","values":[' % (rec.game, rec.n, rec.algorithm)
            + ",".join(rows)
            + '],"total":%s,"efficiency_residual":%s,"wall_time_ms":%s}' % nums
        )
    return (
        "# game=%s algorithm=%s n=%d total=%s efficiency_residual=%s wall_time_ms=%s\n"
        "index,x,y,shapley\n" % (rec.game, rec.algorithm, rec.n, *nums)
    ) + "".join(rows)


def _record(values):
    """A record whose rows hold the given doubles, three to a row."""
    d = np.asarray(values, dtype=float).reshape(-1, 3)
    return ResultRecord("bbox-area", len(d), "auto", d[:, :2], d[:, 2], 1.5, -0.0, 2.5e-7)


def _random_doubles(rng, size):
    """Random float64 bit patterns: the first half raw, the second half with
    the exponent field drawn over 2^-22..2^58, around the row kernel's range."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64)
    tail = bits[size // 2 :]
    exps = rng.integers(1023 - 22, 1023 + 58, tail.size).astype(np.uint64)
    tail[:] = tail & np.uint64(0x800FFFFFFFFFFFFF) | exps << np.uint64(52)
    return bits.view(np.float64)


# Doubles at the row kernel's edges: ties at the 17th digit (18 digits,
# the last a 5), each power of ten with the doubles on either side of it,
# which also covers the ends of the range, and values outside it.
_TIES = [1234567890123456.25, 1234567890123456.75, 123456789012345.625, 123456789012345.875,
         12345678901234.5625, 12345678901234.6875]
_POWERS = [float(10.0**k) for k in range(-7, 18)] + [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.1]
_EDGES = sorted(
    {v for p in _POWERS for v in (p, float(np.nextafter(p, 0)), float(np.nextafter(p, np.inf)))}
    | set(_TIES)
    | {0.0, 5e-324, 2.2250738585072014e-308, float(np.nextafter(2.2250738585072014e-308, 0)),
       1e308, 1.7976931348623157e308, math.inf, 9999999999999998.0, 0.99999999999999989}
)


# Each row holds the same six awkward doubles in a different order.
_SPECIAL = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, 3.0]
_SPECIAL_RECORD = ResultRecord(
    game="bbox-area",
    n=6,
    algorithm="auto",
    points=np.column_stack([_SPECIAL, _SPECIAL[::-1]]),
    values=np.array(_SPECIAL[2:] + _SPECIAL[:2]),
    total=-2.5e-7,
    efficiency_residual=1.1102230246251565e-16,
    wall_time_ms=12.345,
)


class TestWriters:
    def test_json_golden(self):
        assert record_to_json(_SPECIAL_RECORD) == (
            '{"game":"bbox-area","n":6,"algorithm":"auto","values":['
            '{"index":0,"point":[-0,3],"shapley":1e+308},'
            '{"index":1,"point":[4.9406564584124654e-324,0.33333333333333331],'
            '"shapley":0.10000000000000001},'
            '{"index":2,"point":[1e+308,0.10000000000000001],"shapley":0.33333333333333331},'
            '{"index":3,"point":[0.10000000000000001,1e+308],"shapley":3},'
            '{"index":4,"point":[0.33333333333333331,4.9406564584124654e-324],"shapley":-0},'
            '{"index":5,"point":[3,-0],"shapley":4.9406564584124654e-324}],'
            '"total":-2.4999999999999999e-07,"efficiency_residual":1.1102230246251565e-16,'
            '"wall_time_ms":12.345000000000001}'
        )

    def test_csv_golden(self):
        assert record_to_csv(_SPECIAL_RECORD) == (
            "# game=bbox-area algorithm=auto n=6 total=-2.4999999999999999e-07 "
            "efficiency_residual=1.1102230246251565e-16 wall_time_ms=12.345000000000001\n"
            "index,x,y,shapley\n"
            "0,-0,3,1e+308\n"
            "1,4.9406564584124654e-324,0.33333333333333331,0.10000000000000001\n"
            "2,1e+308,0.10000000000000001,0.33333333333333331\n"
            "3,0.10000000000000001,1e+308,3\n"
            "4,0.33333333333333331,4.9406564584124654e-324,-0\n"
            "5,3,-0,4.9406564584124654e-324\n"
        )

    def test_chunk_boundaries(self):
        n = 2 * cli._CHUNK + 3
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1e3, 1e3, (n, 2))
        values = rng.standard_normal(n)
        rec = ResultRecord("bbox-area", n, "auto", pts, values, 1.5, 0.0, 0.0)
        f = lambda v: format(float(v), ".17g")
        rows = [(i, f(p[0]), f(p[1]), f(s)) for i, (p, s) in enumerate(zip(pts, values))]
        want_json = ",".join(
            '{"index":%d,"point":[%s,%s],"shapley":%s}' % row for row in rows
        )
        want_csv = "".join("%d,%s,%s,%s\n" % row for row in rows)
        assert record_to_json(rec) == (
            '{"game":"bbox-area","n":%d,"algorithm":"auto","values":[%s],'
            '"total":1.5,"efficiency_residual":0,"wall_time_ms":0}' % (n, want_json)
        )
        assert record_to_csv(rec) == (
            "# game=bbox-area algorithm=auto n=%d total=1.5 efficiency_residual=0 "
            "wall_time_ms=0\nindex,x,y,shapley\n%s" % (n, want_csv)
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_streamed_writer(self, tmp_path, capsys, fmt, extra):
        n = cli._CHUNK + extra
        rng = np.random.default_rng(12)
        rec = ResultRecord("airport", n, "auto", rng.uniform(-9, 9, (n, 2)),
                           rng.standard_normal(n), 2.5, 1e-17, 3.25)
        text = record_to_json(rec) if fmt == "json" else record_to_csv(rec)
        path = tmp_path / "out"
        cli.write_text(str(path), cli.record_pieces(rec, fmt))
        assert path.read_bytes() == text.encode()
        capsys.readouterr()
        cli.write_text("-", cli.record_pieces(rec, fmt))
        assert capsys.readouterr().out == (text if fmt == "csv" else text + "\n")


class TestRowKernel:
    """rowtext.row_texts writes each number as Python's "%.17g" does."""

    def test_random_bit_patterns(self):
        d = _random_doubles(np.random.default_rng(1201), 3 * 333334)
        rec = _record(d)
        assert record_to_csv(rec) == oracle_text(rec, "csv")
        # The kernel itself, not its fallback, wrote every double it claims.
        n, e, ok = rowtext._significands(d)
        a = np.abs(d)
        want = [format(v, ".16e") for v in a[ok].tolist()]
        got = [f"{q // 10**16}.{q % 10**16:016d}e{x:+03d}" for q, x in zip(n[ok].tolist(),
                                                                      e[ok].tolist())]
        assert got == want
        in_range = (a >= 1e-6) & (a < 1e17)
        assert ok.sum() > 400000
        assert not (ok & ~in_range).any()
        missed = [v for v in a[in_range & ~ok].tolist() if int(format(v, ".16e")[-3:]) >= -6]
        assert missed == []

    @pytest.mark.parametrize("v", _EDGES + [-v for v in _EDGES] + [math.nan])
    def test_edge_values(self, v):
        rec = _record([v, -v, v])
        for fmt in ("json", "csv"):
            assert "".join(cli.record_pieces(rec, fmt)) == oracle_text(rec, fmt)

    def test_edges_taken_by_kernel(self):
        d = np.array(_EDGES)
        ok = rowtext._significands(d)[2]
        want = [(1e-6 <= v < 1e17) and int(format(v, ".16e")[-3:]) >= -6 for v in _EDGES]
        assert ok.tolist() == want

    def test_no_carry_into_next_decade(self):
        """The largest double below each power of ten in range stays below
        it at 17 digits, so _significands may reject N = 10^17 outright."""
        for k in range(-6, 18):
            power = Fraction(10) ** k
            x = float(power)
            if Fraction(x) >= power:
                x = float(np.nextafter(x, 0))
            assert Fraction(format(x, ".17g")) < power
            assert record_to_csv(_record([x, -x, x])) == oracle_text(_record([x, -x, x]), "csv")

    @given(st.floats(), st.floats(), st.floats(min_value=-1e18, max_value=1e18) | st.floats())
    @settings(max_examples=300, deadline=None)
    def test_any_double(self, x, y, v):
        rec = _record([x, y, v])
        for fmt in ("json", "csv"):
            assert "".join(cli.record_pieces(rec, fmt)) == oracle_text(rec, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("kind", ["plane", "line", "fallback", "mixed"])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 2 * 4096 + 3])
    def test_records_to_file_and_stdout(self, tmp_path, capsys, fmt, kind, n):
        rng = np.random.default_rng(n)
        if kind == "fallback":  # every number is outside the kernel's range
            d = rng.choice([math.inf, -math.nan, 5e-324, 1e-300, 3e17, -1.5e300], 3 * n)
        elif kind == "mixed":
            d = _random_doubles(rng, 3 * n)
        else:
            d = rng.uniform(-50, 50, 3 * n) * 10.0 ** rng.integers(-7, 3, 3 * n)
            if kind == "line":
                d[1::3] = 0.0
        rec = _record(d)
        want = oracle_text(rec, fmt)
        path = tmp_path / "out"
        cli.write_text(str(path), cli.record_pieces(rec, fmt))
        assert path.read_bytes() == want.encode()
        capsys.readouterr()
        cli.write_text("-", cli.record_pieces(rec, fmt))
        assert capsys.readouterr().out == (want if fmt == "csv" else want + "\n")


@pytest.mark.parametrize("game", GAME_KINDS)
@pytest.mark.parametrize(
    "text", ["x,y\n1,2\nnan,3\n4,5\n", "x,y\n1,2\n3,4\ninf,5\n"], ids=["nan", "inf"]
)
def test_non_finite_coordinates_exit_2(tmp_path, capsys, game, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    code, _, err = run(capsys, "compute", "--game", game, "--input", str(path))
    assert code == 2, (game, err)
    assert "finite" in err


# `verify --games all --nmin 3 --nmax 6 --instances 2 --seed 7`.  The box
# and line lines are those of the per-subset coalition table, which the
# batched table matches bit for bit.  The hull, disk and anchored-rects lines
# are those of the batched table, whose sums run in another order; the hull
# lines are those of its edge terms scattered in order of free points, the
# hull-area terms taken from differences to the first point.  The disk
# naive lines are those of the direct path summed per block of bases.
_GOLDEN_VERIFY = """\
hull-area fast max_discrepancy=1.420e-15 PASS
hull-area naive max_discrepancy=1.420e-15 PASS
hull-area oracle-subset max_discrepancy=1.420e-15 PASS
hull-perimeter fast max_discrepancy=1.393e-15 PASS
hull-perimeter naive max_discrepancy=1.703e-15 PASS
hull-perimeter oracle-subset max_discrepancy=1.548e-15 PASS
disk-area fast max_discrepancy=1.330e-15 PASS
disk-area naive max_discrepancy=1.344e-15 PASS
disk-area oracle-subset max_discrepancy=1.286e-15 PASS
disk-perimeter fast max_discrepancy=1.660e-15 PASS
disk-perimeter naive max_discrepancy=1.952e-15 PASS
disk-perimeter oracle-subset max_discrepancy=1.291e-15 PASS
anchored-rects fast max_discrepancy=5.288e-15 PASS
anchored-rects oracle-subset max_discrepancy=2.875e-15 PASS
anchored-rects quadratic max_discrepancy=5.288e-15 PASS
bbox-area fast max_discrepancy=2.161e-15 PASS
bbox-area oracle-subset max_discrepancy=1.080e-15 PASS
bbox-area quadratic max_discrepancy=3.757e-15 PASS
anchored-bbox-area fast max_discrepancy=1.811e-15 PASS
anchored-bbox-area oracle-subset max_discrepancy=1.691e-15 PASS
anchored-bbox-area quadratic max_discrepancy=1.691e-15 PASS
airport fast max_discrepancy=2.657e-15 PASS
airport oracle-subset max_discrepancy=2.453e-15 PASS
interval-length fast max_discrepancy=2.578e-15 PASS
interval-length oracle-subset max_discrepancy=2.274e-15 PASS
area-band fast max_discrepancy=1.538e-15 PASS
area-band oracle-subset max_discrepancy=1.758e-15 PASS
bbox-perimeter fast max_discrepancy=1.263e-15 PASS
bbox-perimeter oracle-subset max_discrepancy=1.706e-15 PASS
anchored-bbox-perimeter fast max_discrepancy=2.893e-15 PASS
anchored-bbox-perimeter oracle-subset max_discrepancy=2.893e-15 PASS
VERIFY PASSED
"""


class TestVerify:
    def test_golden_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--games", "all", "--nmin", "3", "--nmax", "6",
            "--instances", "2", "--seed", "7",
        )
        assert code == 0
        assert out == _GOLDEN_VERIFY

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--nmin", "0"], "--nmin must be at least 1, got 0"),
            (["--nmin", "5", "--nmax", "3"], "--nmax must be at least --nmin=5, got 3"),
            (["--instances", "0"], "--instances must be at least 1, got 0"),
            (["--tolerance", "nan"], "--tolerance must be a finite number >= 0, got nan"),
            (["--tolerance", "-1"], "--tolerance must be a finite number >= 0, got -1.0"),
            (["--tolerance", "inf"], "--tolerance must be a finite number >= 0, got inf"),
        ],
        ids=["nmin-0", "nmax-below-nmin", "instances-0", "tolerance-nan", "tolerance-negative",
             "tolerance-inf"],
    )
    def test_empty_run_rejected(self, capsys, monkeypatch, args, message):
        def no_work(*args, **kwargs):
            raise AssertionError("verify did work before checking its arguments")

        monkeypatch.setattr(cli, "verification_suite", no_work)
        code, out, err = run(capsys, "verify", "--games", "airport", *args)
        assert code == 2
        assert out == ""
        assert err == f"error (validation): {message}\n"

    def test_one_coalition_table_per_instance(self, capsys, monkeypatch):
        calls = []
        table = oracle.coalition_table

        def counted(game, pts):
            calls.append((game, len(pts)))
            return table(game, pts)

        monkeypatch.setattr(oracle, "coalition_table", counted)
        code, out, _ = run(
            capsys, "verify", "--games", "hull-area,airport,bbox-area", "--nmin", "3",
            "--nmax", "5", "--instances", "2",
        )
        assert code == 0 and "VERIFY PASSED" in out
        want = [(g, n) for g in ("hull-area", "airport", "bbox-area") for n in (3, 4, 5)]
        assert calls == [c for c in want for _ in range(2)]

    def test_table_above_permutation_limit_built_by_subset_oracle(self, capsys, monkeypatch):
        calls = []
        table = oracle.coalition_table

        def counted(game, pts):
            calls.append(len(pts))
            return table(game, pts)

        monkeypatch.setattr(oracle, "coalition_table", counted)
        n = oracle.PERMUTATION_LIMIT + 1
        code, out, _ = run(
            capsys, "verify", "--games", "bbox-area", "--nmin", str(n), "--nmax", str(n),
            "--instances", "1",
        )
        assert code == 0 and "bbox-area oracle-subset" in out
        assert calls == [n]

    @pytest.mark.parametrize(
        "game, n, reference",
        [
            ("airport", 10, "oracle-perm"),
            ("bbox-area", 11, "quadratic"),
            ("hull-area", 11, "naive"),
            ("airport", 11, "oracle-subset"),
        ],
    )
    def test_reference_order(self, capsys, game, n, reference):
        assert cli._reference_algorithm(game, n) == reference
        code, out, _ = run(
            capsys, "verify", "--games", game, "--nmin", str(n), "--nmax", str(n),
            "--instances", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "VERIFY PASSED"
        checked = {line.split()[1] for line in lines[:-1]}
        assert checked == set(algorithms_for(game, n)) - {reference}

    def test_subset_reference_checks_line_games_past_permutation_limit(
        self, capsys, monkeypatch
    ):
        code, out, _ = run(
            capsys, "verify", "--games", "airport,bbox-perimeter", "--nmin", "11",
            "--nmax", "12", "--instances", "2",
        )
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["airport", "fast"], ["bbox-perimeter", "fast"], ["VERIFY", "PASSED"],
        ]

        airport = games.shapley_airport

        def faulty(coords):
            sv = airport(coords)
            sv.values = sv.values * (1.0 + 1e-6)
            return sv

        monkeypatch.setattr(games, "shapley_airport", faulty)
        code, out, _ = run(
            capsys, "verify", "--games", "airport", "--nmin", "11", "--nmax", "12",
            "--instances", "1",
        )
        assert code == 4
        assert out.splitlines()[-1] == "VERIFY FAILED: airport/fast"

    def test_no_reference_exits_4_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("verify did work before finding every reference")

        monkeypatch.setattr(cli, "verification_suite", no_work)
        n = oracle.SUBSET_LIMIT + 1
        code, out, err = run(
            capsys, "verify", "--games", "hull-area,bbox-perimeter", "--nmin", str(n - 1),
            "--nmax", str(n + 1), "--instances", "1",
        )
        assert code == 4
        assert out == f"VERIFY FAILED: no reference for bbox-perimeter at n={n}\n"
        assert err == ""

    def test_faulty_subset_oracle_caught_with_shared_table(self, capsys, monkeypatch):
        by_subsets = oracle.shapley_by_subsets
        shared = []

        def faulty(game, points, table=None):
            shared.append(table is not None)
            sv = by_subsets(game, points, table=table)
            sv.values = sv.values * (1.0 + 1e-6)
            return sv

        monkeypatch.setattr(oracle, "shapley_by_subsets", faulty)
        code, out, _ = run(
            capsys, "verify", "--games", "hull-area", "--nmin", "4", "--nmax", "5",
            "--instances", "2",
        )
        assert code == 4
        assert "hull-area oracle-subset" in out and "FAIL" in out
        assert shared and all(shared)
        assert "VERIFY FAILED: hull-area/oracle-subset" in out

    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--games",
            "airport,anchored-rects,hull-area",
            "--nmin",
            "3",
            "--nmax",
            "5",
            "--instances",
            "4",
        )
        assert code == 0
        assert "VERIFY PASSED" in out

    def test_injected_fault_fails_with_named_game(self, capsys, monkeypatch):
        rho = hull.rho
        monkeypatch.setattr(hull, "rho", lambda size, levels: rho(size, levels) * (1.0 + 1e-6))
        code, out, _ = run(
            capsys,
            "verify",
            "--games",
            "hull-area",
            "--nmin",
            "4",
            "--nmax",
            "5",
            "--instances",
            "3",
        )
        assert code == 4
        assert "VERIFY FAILED" in out and "hull-area" in out

    def test_chain_verify_largeish(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--games",
            "anchored-rects",
            "--nmin",
            "300",
            "--nmax",
            "300",
            "--instances",
            "2",
            "--chains",
        )
        assert code == 0
        assert "VERIFY PASSED" in out


class TestBench:
    def test_emits_times_and_slope(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--games",
            "airport",
            "--sizes",
            "1000,2000",
            "--output",
            str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("game,algorithm,n,seconds")
        assert "airport,fast,1000," in text
        assert "# slope,airport,fast," in text

    @pytest.mark.parametrize("chain", [False, True])
    def test_series_and_calls(self, capsys, monkeypatch, chain):
        """One untimed warm-up call, then three rounds of one timed call
        per size; chains of each orientation are timed over all sizes and
        fitted apart."""
        calls = []
        solver_for = cli.solver_for

        def counted(game, algorithm):
            solver = solver_for(game, algorithm)

            def solve(pts):
                calls.append((len(pts), bool(pts[-1, 1] > pts[0, 1])))
                return solver(pts)

            return solve

        monkeypatch.setattr(cli, "solver_for", counted)
        argv = ["bench", "--games", "anchored-rects", "--sizes", "64,128,256"]
        code, out, _ = run(capsys, *argv, *(["--chain"] if chain else []))
        assert code == 0
        sizes = [64] + [64, 128, 256] * 3
        if chain:
            labels = ["anchored-rects:increasing-chain", "anchored-rects:decreasing-chain"]
            assert calls == [(n, True) for n in sizes] + [(n, False) for n in sizes]
        else:
            labels = ["anchored-rects"]
            assert [n for n, _ in calls] == sizes
        lines = out.splitlines()
        for label in labels:
            rows = [line.split(",") for line in lines if line.startswith(label + ",")]
            assert [r[2] for r in rows] == ["64", "128", "256"]
            assert sum(line.startswith(f"# slope,{label},fast,") for line in lines) == 1
        assert len(lines) == 1 + 4 * len(labels)

    @pytest.mark.parametrize("game", ["anchored-rects", "anchored-bbox-area"])
    @pytest.mark.parametrize("seed, positive", [(0, True), (1, False)])
    def test_one_input_shape_per_series(self, capsys, monkeypatch, game, seed, positive):
        """The anchored games draw positive-quadrant or plane input; every
        size of a series draws the same one, so its slope fits one
        workload.  Seed 0 draws positive input and seed 1 plane input."""
        shapes = []
        solver_for = cli.solver_for

        def recorded(game, algorithm):
            solver = solver_for(game, algorithm)

            def solve(pts):
                shapes.append(bool(np.all(pts > 0)))
                return solver(pts)

            return solve

        monkeypatch.setattr(cli, "solver_for", recorded)
        argv = ["bench", "--games", game, "--sizes", "64,128,256", "--seed", str(seed)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert shapes == [positive] * 10

    def test_oracle_subset_exponential_family(self, capsys):
        code, out, _ = run(
            capsys,
            "bench",
            "--games",
            "interval-length",
            "--algorithm",
            "oracle-subset",
            "--sizes",
            "10,12",
        )
        assert code == 0
        assert "# slope,interval-length,oracle-subset," in out

    @pytest.mark.parametrize(
        "game, algorithm, sizes",
        [
            ("disk-area", "oracle-perm", [7, 8, 9, 10]),
            ("hull-area", "oracle-subset", [16, 18, 20, 22]),
        ],
        ids=["oracle-perm", "oracle-subset"],
    )
    def test_oracle_default_sizes(self, capsys, game, algorithm, sizes):
        """Each oracle has its own default series, inside its size guard."""
        code, out, err = run(capsys, "bench", "--games", game, "--algorithm", algorithm)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines() if line.startswith(game + ",")]
        assert [int(r[2]) for r in rows] == sizes
        assert f"# slope,{game},{algorithm}," in out

    @pytest.mark.parametrize("sizes", ["10,abc", "-5", "0", "10,2.5", "10,,20"])
    def test_bad_sizes_rejected(self, capsys, monkeypatch, sizes):
        def no_work(*args, **kwargs):
            raise AssertionError("bench did work before checking --sizes")

        monkeypatch.setattr(cli, "solver_for", no_work)
        monkeypatch.setattr(cli, "random_instance", no_work)
        code, out, err = run(capsys, "bench", "--games", "airport,hull-area", "--sizes", sizes)
        assert code == 2, err
        bad = next(s for s in sizes.split(",") if not s.isdigit() or int(s) < 1)
        assert f"--sizes entry {bad!r}" in err
        assert "Traceback" not in err and out == ""


class TestPeakMemory:
    """compute holds the input text, the points and the values, but not a
    Python object per line or per point, nor the whole output text."""

    @pytest.mark.parametrize(
        "game, in_fmt, out_fmt", [("bbox-perimeter", "json", "csv"), ("airport", "csv", "json")]
    )
    def test_traced_peak(self, tmp_path, game, in_fmt, out_fmt):
        n = 1 << 17
        rng = np.random.default_rng(17)
        src = tmp_path / ("in." + in_fmt)
        if in_fmt == "json":
            src.write_text(json.dumps({"points": rng.uniform(-50, 50, (n, 2)).tolist()}))
        else:
            src.write_text("".join("%r\n" % v for v in rng.uniform(0.5, 100, n).tolist()))
        dst = tmp_path / ("out." + out_fmt)
        argv = ["compute", "--game", game, "--input", str(src), "--output", str(dst),
                "--format", out_fmt]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        bound = src.stat().st_size + 64 * n
        assert peak < bound, (peak, bound)


def _one_d_input(path, game, fmt, n):
    """A seeded n-point input for a 1-D game: one column for airport and
    interval-length, two for the others."""
    rng = np.random.default_rng(n)
    one = game in ("airport", "interval-length")
    pts = rng.uniform(0.5, 100, n) if one else rng.uniform(-50, 50, (n, 2))
    if fmt == "json":
        path.write_text(json.dumps({"points": pts.tolist()}))
    elif one:
        path.write_text("".join("%r\n" % v for v in pts.tolist()))
    else:
        path.write_text("".join("%r,%r\n" % (x, y) for x, y in pts.tolist()))


def _compute_argv(tmp_path, game, in_fmt, n):
    src = tmp_path / ("in%d.%s" % (n, in_fmt))
    _one_d_input(src, game, in_fmt, n)
    out_fmt = "csv" if in_fmt == "json" else "json"
    return ["compute", "--game", game, "--input", str(src), "--output",
            str(tmp_path / ("out." + out_fmt)), "--format", out_fmt]


# The package's root, for a fresh interpreter's PYTHONPATH.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# Runs its arguments as a child and prints the child's ru_maxrss.  The
# launcher is small, so the pages a child shares with it before exec are
# few, and the pytest process's are none.
_LAUNCHER = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


class TestBoundedMemory:
    """A 1-D compute job holds its points, its values and a few n-length
    buffers from reading the input to writing the output, but not its input
    text.  Each bound is a figure per point over the same job on 4096
    points, which carries the fixed costs: the read block, the write chunk
    and, in a fresh process, the interpreter and NumPy."""

    @staticmethod
    def traced_peak(argv):
        main(argv)  # load the engine and warm the caches first
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    @pytest.mark.parametrize(
        "game, in_fmt, per_point",
        [
            ("interval-length", "csv", 36),
            ("area-band", "csv", 36),
            ("anchored-bbox-perimeter", "csv", 36),
            ("airport", "json", 36),
            ("bbox-perimeter", "json", 36),
        ],
    )
    def test_traced_peak_per_point(self, tmp_path, game, in_fmt, per_point):
        n = 1 << 17
        fixed = self.traced_peak(_compute_argv(tmp_path, game, in_fmt, 4096))
        peak = self.traced_peak(_compute_argv(tmp_path, game, in_fmt, n))
        assert (peak - fixed) / (n - 4096) < per_point, (peak, fixed)

    @staticmethod
    def fresh_max_rss(argv):
        """ru_maxrss in bytes of `python -m geoshapley.cli` run on argv."""
        path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "geoshapley.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        return int(done.stdout.split()[-1]) * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, as Linux gives it")
    @pytest.mark.parametrize(
        "game, in_fmt, per_point",
        [("airport", "csv", 45), ("anchored-bbox-perimeter", "csv", 60), ("bbox-perimeter", "json", 49)],
    )
    def test_fresh_process_peak_per_point(self, tmp_path, game, in_fmt, per_point):
        """Covers what tracemalloc does not see: whether the pages that
        reading freed serve the solve, or the solve takes fresh ones."""
        n = 1 << 18
        fixed = self.fresh_max_rss(_compute_argv(tmp_path, game, in_fmt, 4096))
        peak = self.fresh_max_rss(_compute_argv(tmp_path, game, in_fmt, n))
        assert (peak - fixed) / (n - 4096) < per_point, (peak, fixed)
