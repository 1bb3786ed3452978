"""Closed-form probabilities of ordering events in random permutations.

These are the combinatorial kernels behind the weights of the hull, disk
and bounding-box engines (``games.rho``, ``games.rho_prime`` and
``axis._abb_cols_psi``), stated on their own so that the tests can check
them against enumeration and the engines' weights against them.  The
float versions are products of ratios, so no factorial ever overflows;
the exact versions are Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction

from geoshapley.errors import DomainError


@dataclass(frozen=True)
class TripleCounts:
    """Sizes of the pairwise disjoint sets A, B, C."""

    alpha: int
    beta: int
    gamma: int


def prob_sandwich(alpha, beta):
    """Probability that, in a uniform permutation, all beta elements of B
    precede a marked element x and all alpha elements of A follow it.

    Equals alpha! * beta! / (alpha + beta + 1)!.
    """
    if alpha < 0 or beta < 0:
        raise DomainError("counts must be nonnegative")
    # alpha! beta! / (alpha+beta+1)! = prod_{k=1..beta} k/(alpha+k) / (alpha+beta+1)
    p = 1.0
    for k in range(1, beta + 1):
        p *= k / (alpha + k)
    return p / (alpha + beta + 1)


def prob_first_of_A_before_B_or_C(counts: TripleCounts):
    """Probability that a fixed a in A is first in A and precedes all of B
    or all of C: 1/(a+b) + 1/(a+g) - 1/(a+b+g)."""
    a, b, g = counts.alpha, counts.beta, counts.gamma
    if a < 1:
        raise DomainError("A must contain the marked element (alpha >= 1)")
    return 1.0 / (a + b) + 1.0 / (a + g) - 1.0 / (a + b + g)


def prob_first_of_B_before_A_after_some_C(counts: TripleCounts):
    """Probability that a fixed b in B is first in B, precedes all of A,
    and follows at least one element of C: 1/(a+b) - 1/(a+b+g)."""
    a, b, g = counts.alpha, counts.beta, counts.gamma
    if b < 1:
        raise DomainError("B must contain the marked element (beta >= 1)")
    return 1.0 / (a + b) - 1.0 / (a + b + g)


def prob_sandwich_exact(alpha, beta):
    """Exact-rational variant of prob_sandwich."""
    p = Fraction(1)
    for k in range(1, beta + 1):
        p *= Fraction(k, alpha + k)
    return p / (alpha + beta + 1)


def prob_first_of_A_exact(counts: TripleCounts):
    a, b, g = counts.alpha, counts.beta, counts.gamma
    return Fraction(1, a + b) + Fraction(1, a + g) - Fraction(1, a + b + g)


def prob_first_of_B_exact(counts: TripleCounts):
    a, b, g = counts.alpha, counts.beta, counts.gamma
    return Fraction(1, a + b) - Fraction(1, a + b + g)
