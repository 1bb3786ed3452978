import itertools
from fractions import Fraction

import pytest

from geoshapley.errors import DomainError

from conftest import assert_close
from permcount import (
    TripleCounts,
    prob_first_of_A_before_B_or_C,
    prob_first_of_A_exact,
    prob_first_of_B_before_A_after_some_C,
    prob_first_of_B_exact,
    prob_sandwich,
    prob_sandwich_exact,
)


def enumerate_sandwich(alpha, beta):
    """Exact fraction of permutations with all of B before x, all of A after."""
    n = alpha + beta + 1
    labels = ["x"] + ["a"] * alpha + ["b"] * beta
    good = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        pos = {i: k for k, i in enumerate(perm)}
        px = pos[0]
        if all(pos[1 + i] > px for i in range(alpha)) and all(
            pos[1 + alpha + i] < px for i in range(beta)
        ):
            good += 1
    assert labels  # silence linters
    return Fraction(good, total)


def enumerate_first_of_A(alpha, beta, gamma, extra=1):
    """Exact fraction for: a fixed a in A first in A, before all B or all C."""
    n = alpha + beta + gamma + extra
    A = list(range(alpha))
    B = list(range(alpha, alpha + beta))
    C = list(range(alpha + beta, alpha + beta + gamma))
    good = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        pos = {i: k for k, i in enumerate(perm)}
        if any(pos[a] < pos[0] for a in A[1:]):
            continue
        if all(pos[0] < pos[b] for b in B) or all(pos[0] < pos[c] for c in C):
            good += 1
    return Fraction(good, total)


def enumerate_first_of_B(alpha, beta, gamma, extra=1):
    """Exact fraction for: fixed b first in B, before all A, after some C."""
    n = alpha + beta + gamma + extra
    A = list(range(alpha))
    b0 = alpha
    B_rest = list(range(alpha + 1, alpha + beta))
    C = list(range(alpha + beta, alpha + beta + gamma))
    good = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        pos = {i: k for k, i in enumerate(perm)}
        if any(pos[b] < pos[b0] for b in B_rest):
            continue
        if any(pos[a] < pos[b0] for a in A):
            continue
        if any(pos[c] < pos[b0] for c in C):
            good += 1
    return Fraction(good, total)


class TestSandwich:
    def test_no_constraints(self):
        assert prob_sandwich(0, 0) == 1.0

    def test_one_one(self):
        assert_close(prob_sandwich(1, 1), 1 / 6, rel=1e-15)

    def test_two_three_matches_enumeration(self):
        exact = enumerate_sandwich(2, 3)
        assert prob_sandwich_exact(2, 3) == exact
        assert_close(prob_sandwich(2, 3), float(exact), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(a, b) for a in range(5) for b in range(5) if a + b <= 7],
    )
    def test_grid_matches_enumeration(self, alpha, beta):
        exact = enumerate_sandwich(alpha, beta)
        assert prob_sandwich_exact(alpha, beta) == exact
        assert_close(prob_sandwich(alpha, beta), float(exact), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            prob_sandwich(-1, 0)


class TestFirstOfA:
    def test_all_ones(self):
        assert_close(prob_first_of_A_before_B_or_C(TripleCounts(1, 1, 1)), 2 / 3)

    def test_empty_C_collapses(self):
        for a in range(1, 5):
            for b in range(4):
                assert_close(
                    prob_first_of_A_before_B_or_C(TripleCounts(a, b, 0)), 1 / a
                )

    def test_2_1_2_matches_enumeration(self):
        exact = enumerate_first_of_A(2, 1, 2, extra=0)
        assert prob_first_of_A_exact(TripleCounts(2, 1, 2)) == exact

    @pytest.mark.parametrize(
        "a,b,g", [(1, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 2), (2, 0, 3), (4, 2, 1)]
    )
    def test_grid(self, a, b, g):
        exact = enumerate_first_of_A(a, b, g, extra=1)
        assert prob_first_of_A_exact(TripleCounts(a, b, g)) == exact
        assert_close(
            prob_first_of_A_before_B_or_C(TripleCounts(a, b, g)),
            float(exact),
            rel=1e-12,
        )

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            prob_first_of_A_before_B_or_C(TripleCounts(0, 1, 1))


class TestFirstOfB:
    def test_gamma_zero_is_zero(self):
        assert prob_first_of_B_before_A_after_some_C(TripleCounts(2, 1, 0)) == 0.0

    def test_all_ones(self):
        assert_close(
            prob_first_of_B_before_A_after_some_C(TripleCounts(1, 1, 1)), 1 / 6
        )

    def test_proof_identity(self):
        for a in range(0, 4):
            for b in range(1, 4):
                for g in range(0, 4):
                    direct = prob_first_of_B_before_A_after_some_C(
                        TripleCounts(a, b, g)
                    )
                    assert_close(direct, g / ((a + b) * (a + b + g)), rel=1e-12)

    @pytest.mark.parametrize("a,b,g", [(1, 2, 3), (1, 1, 2), (2, 1, 1), (0, 2, 2)])
    def test_grid(self, a, b, g):
        exact = enumerate_first_of_B(a, b, g, extra=1)
        assert prob_first_of_B_exact(TripleCounts(a, b, g)) == exact
        assert_close(
            prob_first_of_B_before_A_after_some_C(TripleCounts(a, b, g)),
            float(exact),
            rel=1e-12,
        )


def test_quadrant_weight_identity():
    # ne*psi_ne + nw*psi_nw + se*psi_se = 1 whenever ne >= 1, expressed
    # through the two counting lemmas.
    for ne in range(1, 5):
        for nw in range(0, 5):
            for se in range(0, 5):
                psi_ne = prob_first_of_A_before_B_or_C(TripleCounts(ne, nw, se))
                psi_nw = (
                    prob_first_of_B_before_A_after_some_C(TripleCounts(ne, nw, se))
                    if nw
                    else 0.0
                )
                psi_se = (
                    prob_first_of_B_before_A_after_some_C(TripleCounts(ne, se, nw))
                    if se
                    else 0.0
                )
                assert_close(ne * psi_ne + nw * psi_nw + se * psi_se, 1.0, rel=1e-12)
