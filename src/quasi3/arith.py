"""Exact scalar arithmetic shared by every other module.

Python integers are arbitrary precision and fractions.Fraction is always
stored in lowest terms with a positive denominator, so the two built-in
types serve directly as the exact integer and rational scalars.  What this
module adds is the binomial-coefficient convention used throughout the
difference formulas and integer scaling; poly reads and writes
coefficient text itself.
"""

from __future__ import annotations

from math import comb, lcm


def binom(n: int, k: int) -> int:
    """Binomial coefficient with out-of-range arguments giving 0.

    Returns 0 whenever k < 0, k > n, or n < 0, so that expressions like
    binom(h, s) - binom(h, L - s) evaluate cleanly at edge indices.
    """
    if n < 0 or k < 0:
        return 0
    return comb(n, k)


def integer_scaled(values):
    """(den, ints): ints and Fractions as numerators over their lcm denominator."""
    # a list: unpacking a generator resizes a tuple, filling CPython's free lists
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return den, [x.numerator for x in values]
    return den, [x.numerator * (den // x.denominator) for x in values]
