"""Output rows as text, each number as Python's "%.17g" writes it.

A NumPy kernel writes the rows of a chunk at once: it finds each double's
17 significant digits from an exact product, lays every row out as one
line of a byte matrix with a keep-mask, and gathers the kept bytes.  A row
with a number outside the kernel's range goes through "%.17g" instead.
"""

from __future__ import annotations

import numpy as np

# The text of an output row around its index and its three numbers: the
# separator before every row but the first, then the text before the
# index, after it, between x and y, between y and the value, and after it.
_ROW_TEXT = {
    "json": (",", '{"index":', ',"point":[', ",", '],"shapley":', "}"),
    "csv": ("", "", ",", ",", ",", "\n"),
}

# The row kernel writes "%.17g" of a double d from its 17-digit decimal
# significand N (10^16 <= N < 10^17) and exponent e, |d| ~ N * 10^(e-16).
# 10^p is an exact double for 0 <= p <= 22, which bounds e to -6..16.
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# The four ASCII digits of each g < 10^4 as one 32-bit word, and the
# position (0..3) of g's last nonzero digit, -20 for g = 0.  N is written
# as five such groups, whose first digits sit at these positions of N's
# 17 digits (the first group's top three digits are zeros).
_GROUP_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_GROUP_WORD = np.ascontiguousarray(_GROUP_DIGITS.T + np.uint8(48)).view(np.uint32).ravel()
_GROUP_LAST = np.where(_GROUP_DIGITS > 0, np.arange(4, dtype=np.int8)[:, None], np.int8(-20))
_GROUP_LAST = _GROUP_LAST.max(axis=0)
_GROUP_AT = np.arange(-3, 17, 4, dtype=np.int8)[:, None]

# A number's field: sign, the "0" of "0.000ddd", the digits for an integer
# part, ".", the zeros after "0.", the digits again for a fraction, and
# "e-0" with the exponent's digit.  Which columns a number keeps depends
# only on its exponent e and on t, the position of its last nonzero digit.
_FIELD_TEXT = "-0" + "0" * 17 + ".000" + "0" * 17 + "e-00"
_FIELD = np.frombuffer(_FIELD_TEXT.encode(), np.uint8)
_INT, _DOT, _FRAC, _EXP_DIGIT = slice(2, 19), 19, slice(23, 40), 43


def _field_keep():
    """Keep-mask of a field, one row per (e, t) at row (e + 6) * 17 + t
    for e in -6..16 and t in 0..16, then one row for zero.

    "%.17g" writes d in fixed notation for -4 <= e < 17, with e + 1
    integer digits (or "0." and -1 - e zeros when e < 0), and as
    "d.ddde-0X" for e = -5 and -6; trailing zeros and a bare "." go.
    """
    e = np.repeat(np.arange(-6, 17), 17)[:, None]
    t = np.tile(np.arange(17), 23)[:, None]
    j = np.arange(17)
    fixed, small, sci = e >= 0, (e < 0) & (e >= -4), e <= -5
    keep = np.zeros((e.shape[0] + 1, _FIELD.size), bool)
    body = keep[:-1]
    body[:, 1] = small[:, 0]
    body[:, _INT] = fixed & (j <= e) | sci & (j == 0)
    body[:, _DOT] = (fixed & (t > e) | small | sci & (t > 0))[:, 0]
    body[:, _DOT + 1 : _FRAC.start] = small & (np.arange(3) < -1 - e)
    body[:, _FRAC] = (j <= t) & (fixed & (j > e) | small | sci & (j > 0))
    body[:, _EXP_DIGIT - 3 :] = sci
    keep[-1, 1] = True
    return keep


_FIELD_KEEP = _field_keep()
_ZERO_CODE = _FIELD_KEEP.shape[0] - 1


def _scaled(a, p):
    """(hi, lo, low, high): hi = fl(a * 10^p) and hi + lo = a * 10^p
    exactly, by Dekker's product of Veltkamp's splits, which neither
    overflows nor underflows for 1e-6 <= a < 1e17 and 0 <= p <= 22; low
    and high where a * 10^p lies below 10^16 or at or above 10^17."""
    hi = a * _POW10[p]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)
    low = (hi < 1e16) | (hi == 1e16) & (lo < 0)
    high = (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    return hi, lo, low, high


def _significands(d):
    """(N, e, ok) for an array of doubles: where ok, |d| rounded to 17
    significant digits, half to even, is N * 10^(e-16) with
    10^16 <= N < 10^17 and -6 <= e <= 16.

    With p = 16 - e, |d| * 10^p = hi + lo exactly.  When that lies in
    [10^16, 10^17), hi is an even integer, as every double above 2^53 is,
    so the nearest integer to |d| * 10^p, half to even, is hi + rint(lo).
    e is first taken from log10 and corrected once where |d| * 10^p falls
    outside that range.  Values outside [1e-6, 1e17), and any still
    outside the range, are not ok, and so is an N of 10^17: no double in
    range rounds up to a power of ten at 17 digits, since the largest
    double below each one lies more than half a unit of the 17th digit
    away from it.
    """
    a = np.abs(d)
    ok = (a >= 1e-6) & (a < 1e17)
    a[~ok] = 1.0
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    hi, lo, low, high = _scaled(a, p)
    fix = np.flatnonzero(low | high)
    if fix.size:
        p[fix] = np.clip(p[fix] + low[fix] - high[fix], 0, 22)
        hi[fix], lo[fix], low, high = _scaled(a[fix], p[fix])
        ok[fix[low | high]] = False
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= n < 10**17
    return n, 16 - p, ok


def _groups(v, k):
    """The low 4k decimal digits of the nonnegative integers v as k groups
    of four, most significant first: a (k, len(v)) array."""
    out = np.empty((k, len(v)), np.int64)
    for j in range(k - 1, 0, -1):
        q = v // 10000
        out[j] = v - q * 10000
        v = q
    out[0] = v
    return out


def _ascii(groups):
    """The ASCII digits of _groups' output, one row of 4k per number."""
    return np.ascontiguousarray(_GROUP_WORD[groups].T).view(np.uint8)


def _fields(d):
    """For an array of doubles: their 17 ASCII digits, the ASCII digit of
    their exponent (for "e-0X"), the row of _FIELD_KEEP that each keeps,
    and whether the kernel writes them (those _significands takes, and ±0).
    """
    n, e, ok = _significands(d)
    groups = _groups(n, 5)
    last = (_GROUP_LAST[groups] + _GROUP_AT).max(axis=0)
    code = np.where(ok, (e + 6) * 17 + last, _ZERO_CODE)
    return _ascii(groups)[:, 3:], (48 - e).astype(np.uint8), code, ok | (d == 0)


def row_texts(fmt, pts, values, chunk):
    """The text of the rows of a record in ``fmt`` ("json" or "csv"), one
    piece per ``chunk`` rows, each row with the separator before it that
    every row but row 0 gets.

    Every row is laid out as one line of a uint8 matrix, with a keep-mask
    beside it, so one gather per chunk yields its text.  The literal
    columns are set once per record; each chunk writes its index digits
    and its numbers' fields.  A row with a number that _significands does
    not take is formatted by Python's "%.17g" instead (_splice).
    """
    sep, pre, after_index, between_xy, before_value, end = _ROW_TEXT[fmt]
    width = len(str(max(len(values) - 1, 0)))
    texts = [sep, pre, "0" * width, after_index, _FIELD_TEXT, between_xy, _FIELD_TEXT,
             before_value, _FIELD_TEXT, end]
    starts = np.cumsum([0] + [len(s) for s in texts])
    line = np.frombuffer("".join(texts).encode(), np.uint8)
    rows = min(len(values), chunk)
    mat = np.empty((rows, line.size), np.uint8)
    mat[:] = line
    keep = np.ones((rows, line.size), bool)
    at_index, at_fields = starts[2], starts[4:9:2]
    for lo in range(0, len(values), chunk):
        hi = lo + chunk
        cols = np.stack([pts[lo:hi, 0], pts[lo:hi, 1], values[lo:hi]])
        m = cols.shape[1]
        d = cols.reshape(-1)
        digits, exp_digit, code, ok = _fields(d)
        index = np.arange(lo, lo + m)
        mat[:m, at_index : at_index + width] = _ascii(_groups(index, -(-width // 4)))[:, -width:]
        for j in range(width - 1):
            keep[:m, at_index + j] = index >= 10 ** (width - 1 - j)
        keep[0, : len(sep)] = lo > 0
        for k, at in enumerate(at_fields):
            part = slice(k * m, (k + 1) * m)
            mat[:m, at + _INT.start : at + _INT.stop] = digits[part]
            mat[:m, at + _FRAC.start : at + _FRAC.stop] = digits[part]
            mat[:m, at + _EXP_DIGIT] = exp_digit[part]
            field = keep[:m, at : at + _FIELD.size]
            np.take(_FIELD_KEEP, code[part], axis=0, out=field, mode="clip")
            field[:, 0] = np.signbit(d[part])
        text = str(mat[:m][keep[:m]], "ascii")
        bad = np.flatnonzero(~ok.reshape(3, m).all(axis=0))
        if bad.size:
            text = _splice(text, keep[:m], bad, lo, cols, fmt)
        yield text


def _splice(text, keep, bad, lo, cols, fmt):
    """text with the kernel's rows bad replaced by rows that Python's
    "%.17g" formats; the chunk starts at row lo, cols holds its x, y and
    value columns and keep is its keep-mask."""
    sep, pre, after_index, between_xy, before_value, end = _ROW_TEXT[fmt]
    lengths = np.count_nonzero(keep, axis=1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    parts, done = [], 0
    for i, a, b, (x, y, v) in zip(
        (bad + lo).tolist(), starts[bad].tolist(), ends[bad].tolist(), cols[:, bad].T.tolist()
    ):
        parts.append(text[done:a])
        parts.append(
            f"{sep if i else ''}{pre}{i}{after_index}{x:.17g}{between_xy}{y:.17g}"
            f"{before_value}{v:.17g}{end}"
        )
        done = b
    parts.append(text[done:])
    return "".join(parts)
