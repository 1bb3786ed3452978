"""FFT convolution and multipoint evaluation of rational step series.

The series R(x) = sum_t b_t / (delta + t + x) appears in every empty-block
computation: evaluating it at a run of consecutive integers reduces to a
single convolution with the reciprocal sequence 1/(delta + ell + m - i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def convolve(a, b, size=None):
    """Linear convolution c_k = sum_i a_i * b_{k-i} via real FFT.

    Inputs are padded to the next power of two covering len(a)+len(b)-1.
    Given `size`, a and b are 2-D arrays of at most `size` columns, and
    row r of the result is the cyclic convolution of their rows r,
    c_k = sum_i a_i * b_{(k-i) mod size}, k = 0 .. size-1: one batch of
    real FFTs covers every row.
    """
    if size is not None:
        fa = np.fft.rfft(a, size, axis=1)
        fa *= np.fft.rfft(b, size, axis=1)
        return np.fft.irfft(fa, size, axis=1)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise DomainError("convolve expects two nonempty 1-D arrays")
    out_len = a.size + b.size - 1
    if min(a.size, b.size) <= 32:
        return np.convolve(a, b)
    size = 1 << (out_len - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    return np.fft.irfft(fa * fb, size)[:out_len]


@dataclass(frozen=True)
class RationalStepSeries:
    """R(x) = sum_{t=0}^{n} b[t] / (delta + t + x)."""

    b: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.b.ndim != 1 or self.b.size == 0:
            raise DomainError("coefficient vector must be a nonempty 1-D array")


def multipoint_rational_eval(series: RationalStepSeries, ell: int, m: int):
    """Evaluate R at the consecutive integers ell, ell+1, ..., ell+m.

    Requires ell > -delta so every denominator delta + t + x stays positive.
    Runs in O((n + m) log (n + m)) via one convolution.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    delta = series.delta
    if not ell + delta > 0:
        raise DomainError(
            f"need ell > -delta (ell={ell}, delta={delta}); zero or negative "
            "denominators would occur"
        )
    n = series.b.size - 1
    # Reciprocals 1/(delta + ell + m + n - k) cover every denominator
    # delta + t + x with t in [0, n], x in [ell, ell + m].
    a = 1.0 / (delta + ell + m + n - np.arange(m + n + 1))
    c = convolve(a, series.b)
    # R(ell + j) = c_{m + n - j}
    return c[n : m + n + 1][::-1].copy()


def direct_rational_eval(series: RationalStepSeries, points):
    """Evaluate R at arbitrary integer points by direct summation."""
    pts = np.asarray(points, dtype=float)
    t = np.arange(series.b.size)
    denom = series.delta + t[None, :] + pts[..., None]
    if np.any(denom == 0.0):
        raise DomainError("zero denominator at an evaluation point")
    return (series.b[None, :] / denom).sum(axis=-1)
