"""Property tests for the Taylor-shift divisibility test on random polynomials."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasi3.poly import Polynomial
from quasi3.quasi import largest_dividing_power, taylor_coefficients

pairs = st.sampled_from(((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)))
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.dictionaries(exponents, coefficients, max_size=6).map(Polynomial)

# fixed examples and no per-example time limit keep the suite deterministic
checked = settings(max_examples=150, deadline=None, derandomize=True)


def at_diagonal(P, i, j):
    """P with x_i replaced by x_j, by direct substitution."""
    out = {}
    for exp, coeff in P.terms.items():
        moved = list(exp)
        moved[j - 1] += moved[i - 1]
        moved[i - 1] = 0
        out[tuple(moved)] = out.get(tuple(moved), 0) + coeff
    return Polynomial(out)


@checked
@given(polys, pairs)
def test_taylor_expansion_reconstructs(P, pair):
    i, j = pair
    coeffs = taylor_coefficients(P, i, j, P.var_degree(i) + 1)
    t = Polynomial.variable(i) - Polynomial.variable(j)
    assert all(c.var_degree(i) == 0 for c in coeffs)
    assert sum((c * t**r for r, c in enumerate(coeffs)), Polynomial.zero()) == P


@checked
@given(polys, pairs, st.integers(0, 5))
def test_largest_power_of_a_planted_factor(base, pair, k):
    i, j = pair
    assume(not at_diagonal(base, i, j).is_zero())
    t = Polynomial.variable(i) - Polynomial.variable(j)
    assert largest_dividing_power(base * t**k, i, j) == k
