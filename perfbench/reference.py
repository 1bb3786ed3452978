"""Independent references for every compute job, and the output checker.

References come from the slow baselines the library keeps for
cross-checking (naive hull, direct disk, quadratic axis engines), from
the brute-force oracle at cross-check size, and for the large 1-D games
from the Littlechild-Owen closed form written out here.  The slow ones
are cached on disk, keyed by the source tree and the input bytes, so a
change to `src/` rebuilds them.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from geoshapley import axis, disk, games, hull, oracle

REL_TOL = 1e-9
# Per-value tolerance is relative to the value, floored at this share of
# the largest reference value, so values near zero are not held to a
# bound tighter than the summation error of their neighbours.
FLOOR_SHARE = 1e-3


def _airport(x):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    steps = np.diff(xs, prepend=0.0) / (x.size - np.arange(x.size))
    out = np.empty(x.size)
    out[order] = np.cumsum(steps)
    return out


def _interval(x):
    lo, hi = float(x.min()), float(x.max())
    return _airport(x - lo) + _airport(hi - x) + (lo - hi) / x.size


def _line_reference(game, pts):
    x, y = pts[:, 0], pts[:, 1]
    if game == "airport":
        return _airport(x)
    if game == "interval-length":
        return _interval(x)
    if game == "area-band":
        return float(y.max() - y.min()) * _interval(x)
    if game == "bbox-perimeter":
        return 2.0 * _interval(x) + 2.0 * _interval(y)
    if game == "anchored-bbox-perimeter":
        pos = np.maximum
        return 2.0 * (_airport(pos(x, 0.0)) + _airport(pos(-x, 0.0))) + 2.0 * (
            _airport(pos(y, 0.0)) + _airport(pos(-y, 0.0))
        )
    raise ValueError(f"no closed-form reference for {game!r}")


_SLOW = {
    "hull-area": hull.shapley_hull_area_naive,
    "hull-perimeter": lambda p: hull.shapley_hull_perimeter(p, naive=True),
    "disk-area": lambda p: disk.shapley_disk(p, "area", minus_mode="direct"),
    "disk-perimeter": lambda p: disk.shapley_disk(p, "perimeter", minus_mode="direct"),
    "anchored-rects": axis.shapley_anchored_rects_quadratic,
    "anchored-bbox-area": axis.shapley_anchored_bbox_quadratic,
    "bbox-area": axis.shapley_bbox_quadratic,
}


def source_digest(src_dir):
    """Digest of every Python file of the package, for cache keys."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src_dir)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def reference(game, pts, cache_dir=None, digest=""):
    """(values, total) of an independent computation for this input."""
    if pts.shape[0] <= oracle.SUBSET_LIMIT and game not in _SLOW:
        sv = oracle.shapley_by_subsets(game, pts)
        return sv.values, sv.game_total
    total = games.eval_characteristic(game, pts)
    if game not in _SLOW:
        return _line_reference(game, pts), total
    path = None
    if cache_dir is not None:
        data = np.ascontiguousarray(pts).tobytes()
        key = hashlib.sha256(f"{digest}|{game}|".encode() + data).hexdigest()
        path = os.path.join(cache_dir, key + ".npy")
        if os.path.exists(path):
            return np.load(path), total
    values = _SLOW[game](pts).values
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp.npy"
        np.save(tmp, values)
        os.replace(tmp, path)
    return values, total


def parse_output(text, fmt):
    """(points, values, total) from a `compute` output in JSON or CSV."""
    if fmt == "json":
        data = json.loads(text)
        rows = data["values"]
        if [r["index"] for r in rows] != list(range(len(rows))):
            raise ValueError("indices out of order")
        pts = np.array([r["point"] for r in rows], dtype=float).reshape(-1, 2)
        vals = np.array([r["shapley"] for r in rows], dtype=float)
        return pts, vals, float(data["total"])
    lines = text.splitlines()
    head = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
    if lines[1] != "index,x,y,shapley":
        raise ValueError("unexpected CSV header")
    cols = [ln.split(",") for ln in lines[2:]]
    if [int(c[0]) for c in cols] != list(range(len(cols))):
        raise ValueError("indices out of order")
    arr = np.array([c[1:] for c in cols], dtype=float).reshape(-1, 3)
    return arr[:, :2], arr[:, 2], float(head["total"])


def compare_values(got, ref_values):
    """None when every value is within REL_TOL of the reference, else the reason."""
    floor = FLOOR_SHARE * float(np.max(np.abs(ref_values)))
    excess = np.abs(got - ref_values) - REL_TOL * np.maximum(np.abs(ref_values), floor)
    if not np.all(excess <= 0):
        k = int(np.argmax(np.nan_to_num(excess, nan=np.inf)))
        return f"value {k}: {got[k]!r} against reference {ref_values[k]!r}"
    return None


def check_compute(text, fmt, pts, ref_values, ref_total):
    """None when the output matches the reference, else the reason."""
    try:
        got_pts, got, total = parse_output(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc}"
    if got.shape != ref_values.shape:
        return f"{got.size} values for {ref_values.size} points"
    if not np.array_equal(got_pts, pts):
        return "output points differ from the input"
    reason = compare_values(got, ref_values)
    if reason:
        return reason
    scale = max(abs(ref_total), 1e-300)
    if abs(total - ref_total) > REL_TOL * scale:
        return f"total {total!r} against reference {ref_total!r}"
    if abs(float(np.sum(got)) - ref_total) > REL_TOL * scale:
        return f"efficiency: sum {float(np.sum(got))!r} against v(P) {ref_total!r}"
    return None


def check_verify(stdout_text):
    lines = stdout_text.strip().splitlines()
    if not lines or lines[-1] != "VERIFY PASSED":
        return f"verify reported: {lines[-1] if lines else 'nothing'}"
    return None
