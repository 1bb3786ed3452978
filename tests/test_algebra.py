import numpy as np
import pytest

from geoshapley.algebra import convolve
from geoshapley.errors import ConsistencyError, DomainError

from conftest import assert_close
from rational_series import RationalStepSeries, direct_rational_eval, engine_multipoint_eval


def linear(a, b):
    """The linear convolution of two 1-D sequences, read from the cyclic
    form at the least power of two that covers its length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_len = a.size + b.size - 1
    return convolve(a[None], b[None], 1 << (out_len - 1).bit_length())[0, :out_len]


class TestConvolve:
    def test_binomial(self):
        assert_close(linear([1, 1], [1, 1]), [1, 2, 1], rel=1e-12)

    def test_identity(self, rng):
        a = rng.normal(size=137)
        assert_close(linear(a, [1.0]), a, rel=1e-12)

    def test_matches_naive_on_random_inputs(self, rng):
        a = rng.uniform(-1, 1, size=1000)
        b = rng.uniform(-1, 1, size=733)
        fast = linear(a, b)
        naive = np.convolve(a, b)
        scale = np.max(np.abs(naive))
        assert np.max(np.abs(fast - naive)) <= 1e-9 * scale

    def test_cyclic_rows(self, rng):
        a = rng.uniform(-1, 1, size=(3, 16))
        b = rng.uniform(-1, 1, size=(3, 11))
        lin = np.array([np.convolve(x, y) for x, y in zip(a, b)])
        folded = lin[:, :16].copy()
        folded[:, : lin.shape[1] - 16] += lin[:, 16:]
        assert_close(convolve(a, b, 16), folded, rel=1e-12, abs_floor=1e-13)

    def test_linearity(self, rng):
        a = rng.uniform(size=200)
        b = rng.uniform(size=150)
        c = rng.uniform(size=150)
        lhs = linear(a, b + c)
        rhs = linear(a, b) + linear(a, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestMultipointEval:
    """Consecutive-point evaluation through the engines' pooled evaluator,
    one task per series."""

    def test_single_reciprocal(self):
        series = RationalStepSeries([1.0], 1.0)
        assert_close(engine_multipoint_eval(series, 0, 2), [1, 1 / 2, 1 / 3])

    def test_two_terms_single_point(self):
        series = RationalStepSeries([1.0, 1.0], 1.0)
        assert_close(engine_multipoint_eval(series, 0, 0), [1.5])

    def test_matches_direct_on_random_series(self, rng):
        b = rng.uniform(0, 2, size=500)
        series = RationalStepSeries(b, 3.0)
        ell, m = -2, 800
        fast = engine_multipoint_eval(series, ell, m)
        direct = direct_rational_eval(series, np.arange(ell, ell + m + 1))
        assert np.max(np.abs(fast - direct) / np.abs(direct)) <= 1e-9

    def test_large_scale(self, rng):
        b = rng.uniform(0, 1, size=100_000)
        series = RationalStepSeries(b, 2.0)
        fast = engine_multipoint_eval(series, -1, 100_000)
        probe = np.arange(-1, 100_000, 9973)
        direct = direct_rational_eval(series, probe)
        assert np.max(np.abs(fast[probe + 1] - direct) / np.abs(direct)) <= 1e-9

    def test_precondition_enforced(self):
        # every caller builds l0 + dmin >= 1 from counts, so only a bug trips it
        series = RationalStepSeries([1.0], 1.0)
        with pytest.raises(ConsistencyError):
            engine_multipoint_eval(series, -1, 3)

    def test_direct_rejects_zero_denominator(self):
        series = RationalStepSeries([1.0], 1.0)
        with pytest.raises(DomainError):
            direct_rational_eval(series, [-1])

    def test_negative_ell_allowed_when_delta_large(self):
        series = RationalStepSeries([2.0, 0.5], 5.0)
        out = engine_multipoint_eval(series, -4, 3)
        direct = direct_rational_eval(series, np.arange(-4, 0))
        assert_close(out, direct, rel=1e-12)
