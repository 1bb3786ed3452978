"""Rational step series R(x) = sum_t b[t] / (delta + t + x) summed term by
term: the reference the engines' pooled FFT evaluator,
``axis._batched_consecutive_eval``, is checked against, and a drop-in
direct version of that evaluator."""

from dataclasses import dataclass

import numpy as np

from geoshapley import axis
from geoshapley.errors import ConsistencyError, DomainError


@dataclass(frozen=True)
class RationalStepSeries:
    """R(x) = sum_{t=0}^{n} b[t] / (delta + t + x)."""

    b: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.b.ndim != 1 or self.b.size == 0:
            raise DomainError("coefficient vector must be a nonempty 1-D array")


def direct_rational_eval(series, points):
    """Evaluate R at arbitrary integer points by direct summation."""
    pts = np.asarray(points, dtype=float)
    t = np.arange(series.b.size)
    denom = series.delta + t[None, :] + pts[..., None]
    if np.any(denom == 0.0):
        raise DomainError("zero denominator at an evaluation point")
    return (series.b[None, :] / denom).sum(axis=-1)


def engine_multipoint_eval(series, ell, m):
    """R at ell, ell + 1, ..., ell + m through the engines' evaluator: one
    task with l0 = delta + ell + m and dmin = -m reads R(ell + j) at
    x = j - m."""
    n = series.b.size - 1
    vals, slot = axis._batched_consecutive_eval(
        np.zeros(n + 1, dtype=np.int64),
        np.arange(n + 1),
        series.b,
        np.array([n]),
        np.array([series.delta + ell + m]),
        np.array([-m]),
    )
    return vals[slot[0] + n : slot[0] + n + m + 1][::-1].copy()


def direct_batched_eval(task, offset, weight, n_t, l0, dmin):
    """``axis._batched_consecutive_eval`` by direct summation of each
    task's grouped series, with the same (vals, slot) layout."""
    mn = n_t - dmin
    if np.any(l0 + dmin < 1):
        raise ConsistencyError("slab series would hit a nonpositive denominator")
    slot = np.cumsum(mn + 1) - (mn + 1)
    g = np.bincount(slot[task] + offset, weights=weight, minlength=int(np.sum(mn + 1)))
    vals = np.zeros(g.size)
    for t in range(slot.size):
        top = slot[t] + n_t[t]
        series = RationalStepSeries(g[slot[t] : top + 1], float(l0[t]))
        vals[top : slot[t] + mn[t] + 1] = direct_rational_eval(series, -np.arange(1 - dmin[t]))
    return vals, slot
