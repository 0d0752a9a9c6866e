"""Property tests for the Taylor-shift divisibility test on random
polynomials, and for independence modulo the ideal part."""

from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasi3.linsys import rank
from quasi3.poly import Polynomial, elementary
from quasi3.quasi import (
    graded_qi_basis,
    independent_modulo_ideal,
    largest_dividing_power,
    monomials_of_degree,
    quotient_degrees,
    taylor_coefficients,
)

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


@lru_cache(maxsize=None)
def slice_basis(m, d):
    return tuple(graded_qi_basis(m, d)) if d >= 0 else ()


def ideal_generators(m, d):
    return [elementary(k) * Q for k in (1, 2, 3) for Q in slice_basis(m, d - k)]


def coefficient_rows(polys, d):
    monos = monomials_of_degree(d)
    return [[P.coefficient(mono) for mono in monos] for P in polys]


def test_independence_matches_two_rank_oracle():
    verdicts = set()

    # each example solves several graded slices, so fewer examples
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data(), st.integers(0, 2), st.integers(1, 3))
    def check(data, m, count):
        # the quotient is nonzero only in the degrees of the six basis
        # elements, so favour those to see both verdicts
        tops = [e for e in quotient_degrees(m) if e <= 9]
        d = data.draw(st.sampled_from(tops) | st.integers(0, 9))
        spanning = list(slice_basis(m, d)) + ideal_generators(m, d)
        weights = st.lists(
            st.integers(-2, 2), min_size=len(spanning), max_size=len(spanning)
        )
        polys = []
        for _ in range(count):
            P = sum(
                (c * b for c, b in zip(data.draw(weights), spanning)),
                Polynomial.zero(),
            )
            assume(not P.is_zero())
            polys.append(P)
        V = coefficient_rows(ideal_generators(m, d), d)
        X = coefficient_rows(polys, d)
        expected = rank(V + X) == rank(V) + len(X)
        assert independent_modulo_ideal(polys, m) == expected
        verdicts.add(expected)

    check()
    assert verdicts == {False, True}
