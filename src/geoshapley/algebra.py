"""FFT convolution.

The axis engines read every rational step series
R(x) = sum_t b_t / (delta + t + x) at a run of consecutive integers as one
convolution with the reciprocal sequence 1/(delta + ell + m - i); see
axis._batched_consecutive_eval.
"""

from __future__ import annotations

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
