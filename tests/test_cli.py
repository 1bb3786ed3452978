import json

import numpy as np
import pytest

from geoshapley import hull
from geoshapley.cli import main, read_points
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
        path.write_text("1\n2\n")
        code, _, err = run(
            capsys,
            "compute",
            "--game",
            "airport",
            "--algorithm",
            "quadratic",
            "--input",
            str(path),
        )
        assert code == 2

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

    def test_direct_eval_flag_matches_fft(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        rng = np.random.default_rng(6)
        src.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in rng.uniform(0.1, 9, (50, 2))))
        results = []
        for flag in ((), ("--direct-eval",)):
            code, out, _ = run(
                capsys,
                "compute",
                "--game",
                "anchored-bbox-area",
                "--input",
                str(src),
                "--no-timing",
                *flag,
            )
            assert code == 0
            results.append([v["shapley"] for v in json.loads(out)["values"]])
        assert_close(results[0], results[1], rel=1e-10)

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
    # The tie sits in the south-east quadrant, solved after the others.
    ("anchored-rects", [(-1, 2), (2, 1), (3, -4), (5, -4)], (2, 3)),
    ("anchored-bbox-area", [(1, 2), (1, 3), (2, 5)], (0, 1)),
    ("bbox-area", [(2, 1), (3, 4), (5, 1)], (0, 2)),
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
        # Shares coordinates and its circumcircle has an input-pair diameter,
        # but no three points are collinear.
        path = _write_points(tmp_path / "in.csv", [(0, 0), (1, 0), (0, 1)])
        expected = {
            "hull-area": (0, ""),
            "disk-area": (2, "offending=[(0, 1, 2)]"),
            "bbox-area": (2, "offending=[(0, 2), (0, 1)]"),
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
        ],
        ids=["disk-area-short-arc", "anchored-rects-split-tie"],
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


class TestVerify:
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
        rho_array = hull._rho_array
        monkeypatch.setattr(hull, "_rho_array", lambda levels: rho_array(levels) * (1.0 + 1e-6))
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
