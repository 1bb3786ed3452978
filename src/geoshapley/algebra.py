"""FFT convolution.

The axis engines read every rational step series
R(x) = sum_t b_t / (delta + t + x) at a run of consecutive integers as one
convolution with the reciprocal sequence 1/(delta + ell + m - i); see
axis._batched_consecutive_eval.
"""

from __future__ import annotations

import numpy as np


def convolve(a, b, size):
    """Row-wise cyclic convolution via real FFT.

    a and b are 2-D arrays of at most `size` columns, and row r of the
    result is the cyclic convolution of their rows r,
    c_k = sum_i a_i * b_{(k-i) mod size}, k = 0 .. size-1: one batch of
    real FFTs covers every row.  At size >= len(a) + len(b) - 1 this is the
    linear convolution, zero-padded.
    """
    fa = np.fft.rfft(a, size, axis=1)
    fa *= np.fft.rfft(b, size, axis=1)
    return np.fft.irfft(fa, size, axis=1)
