"""Quasiinvariance checks and the graded structure of the invariant ring.

A polynomial P is m-quasiinvariant when, for every transposition s_ij,
the difference (1 - s_ij) P is divisible by (x_i - x_j)^(2m+1).
Divisibility is decided exactly by a Taylor shift: substituting
x_i = x_j + t, (x_i - x_j)^p divides a polynomial when its coefficients
of t^0 .. t^(p-1) vanish.

The module also provides the degree-d slice of the m-quasiinvariant ring
(graded_qi_basis), membership in the part of the slice generated by the
elementary symmetric polynomials (in_ideal_part), the coinvariant normal
form used for the m = 0 independence certificate, and the dimension
series the graded slices must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import binom
from .linsys import nullspace_vectors, rank
from .poly import (
    TRANSPOSITIONS,
    Polynomial,
    elementary,
    term_key,
)


def _check_pair(i: int, j: int):
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("need two distinct variable indices in 1..3")


def _integer_terms(P: Polynomial):
    """(den, [(exponent, numerator)]): P's terms as integer numerators over
    one common denominator, since Fraction sums are slow."""
    den = lcm(*(c.denominator for c in P.terms.values()))
    return den, [
        (exp, c.numerator * (den // c.denominator)) for exp, c in P.terms.items()
    ]


def _shift_coefficient(terms, i: int, j: int, r: int):
    """Numerators of the t^r coefficient of P with x_i = x_j + t.

    x_i^a = sum_r binom(a, r) x_j^(a-r) t^r, so only terms with a >= r
    contribute; zero sums are kept.
    """
    out = {}
    for exp, num in terms:
        a = exp[i - 1]
        if a >= r:
            shifted = list(exp)
            shifted[i - 1] = 0
            shifted[j - 1] += a - r
            key = tuple(shifted)
            out[key] = out.get(key, 0) + num * binom(a, r)
    return out


def taylor_coefficients(P: Polynomial, i: int, j: int, count: int):
    """Coefficients c_0 .. c_(count-1) of P expanded in t = x_i - x_j.

    Substituting x_i = x_j + t writes P = sum_r c_r (x_i - x_j)^r with
    every c_r free of x_i, so (x_i - x_j)^p divides P exactly when
    c_0 .. c_(p-1) all vanish.  Each term expands by the binomial
    theorem; no polynomial products are formed.
    """
    _check_pair(i, j)
    if count < 0:
        raise ValueError("count must be nonnegative")
    den, terms = _integer_terms(P)
    return [
        Polynomial(
            {k: Fraction(v, den) for k, v in _shift_coefficient(terms, i, j, r).items()}
        )
        for r in range(count)
    ]


def largest_dividing_power(P: Polynomial, i: int, j: int):
    """Largest p with (x_i - x_j)^p | P, or None when P is zero.

    That is the lowest r with a nonzero Taylor coefficient c_r; the
    coefficients are computed one at a time and the search stops there.
    """
    if P.is_zero():
        return None
    _check_pair(i, j)
    _, terms = _integer_terms(P)
    # c_r for r = deg_{x_i} P is the leading x_i coefficient, never zero
    return next(
        r
        for r in range(P.var_degree(i) + 1)
        if any(_shift_coefficient(terms, i, j, r).values())
    )


@dataclass(frozen=True)
class TranspositionCheck:
    pair: tuple  # (i, j)
    difference_zero: bool
    largest_power: object  # int, or None when the difference vanishes
    required_power: int
    divisible: bool


@dataclass(frozen=True)
class QuasiReport:
    m: int
    checks: tuple  # three TranspositionCheck entries

    @property
    def is_quasiinvariant(self) -> bool:
        return all(c.divisible for c in self.checks)


def is_quasiinvariant(P: Polynomial, m: int) -> QuasiReport:
    """Check (1 - s_ij) P divisible by (x_i - x_j)^(2m+1) for all pairs."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    need = 2 * m + 1
    checks = []
    for (i, j), perm in TRANSPOSITIONS.items():
        diff = P - P.apply_perm(perm)
        if diff.is_zero():
            checks.append(
                TranspositionCheck(
                    pair=(i, j),
                    difference_zero=True,
                    largest_power=None,
                    required_power=need,
                    divisible=True,
                )
            )
            continue
        power = largest_dividing_power(diff, i, j)
        checks.append(
            TranspositionCheck(
                pair=(i, j),
                difference_zero=False,
                largest_power=power,
                required_power=need,
                divisible=power >= need,
            )
        )
    return QuasiReport(m=m, checks=tuple(checks))


# --- coinvariant normal form ------------------------------------------------

COINVARIANT_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
# exponents (b, c) of x2^b x3^c for the ordered basis 1, x2, x3, x2x3, x3^2, x2x3^2


def coinvariant_nf(P: Polynomial):
    """Coordinates of P in the quotient by (e1, e2, e3), m = 0 case.

    Rewrites x1 -> -(x2 + x3), then x2^2 -> -(x2x3 + x3^2), then
    x3^3 -> 0, to a fixed point; the result is the coordinate tuple with
    respect to (1, x2, x3, x2x3, x3^2, x2x3^2).
    """
    work = {}

    def _add(key, value):
        s = work.get(key, Fraction(0)) + value
        if s:
            work[key] = s
        else:
            work.pop(key, None)

    for (a, b, c), coeff in P.terms.items():
        # substitute x1^a = (-(x2 + x3))^a
        for t in range(a + 1):
            _add((b + t, c + a - t), coeff * (-1) ** a * binom(a, t))
    # eliminate x2 powers >= 2, then x3 powers >= 3
    while True:
        offender = next((key for key in work if key[0] >= 2), None)
        if offender is None:
            break
        b, c = offender
        coeff = work.pop(offender)
        _add((b - 1, c + 1), -coeff)
        _add((b - 2, c + 2), -coeff)
    for key in [k for k in work if k[1] >= 3]:
        del work[key]
    return tuple(work.get(key, Fraction(0)) for key in COINVARIANT_BASIS)


# --- graded slices ----------------------------------------------------------


def monomials_of_degree(d: int):
    """Degree-d exponent triples in canonical order (graded lex, descending)."""
    monos = [
        (a, b, d - a - b)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    ]
    return sorted(monos, key=term_key, reverse=True)


def graded_qi_basis(m: int, d: int):
    """Basis of the degree-d slice of the m-quasiinvariant ring.

    Assembles the linear constraints "the coefficients of t^0 .. t^(2m)
    in (1 - s_ij) P with x_i = x_j + t vanish" over the degree-d
    monomial coefficients, and returns the null space as polynomials,
    each scaled so its first nonzero coefficient in canonical monomial
    order is 1.
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    monos = monomials_of_degree(d)
    index = {mono: pos for pos, mono in enumerate(monos)}
    need = 2 * m + 1
    row_map = {}
    for (i, j), perm in TRANSPOSITIONS.items():
        for mono, pos in index.items():
            P = Polynomial.monomial(mono)
            diff = P - P.apply_perm(perm)
            coeffs = taylor_coefficients(diff, i, j, min(need, d + 1))
            for stage, r in enumerate(coeffs):
                for exp, coeff in r.terms.items():
                    key = ((i, j), stage, exp)
                    row = row_map.setdefault(key, [0] * len(monos))
                    # a monomial difference has integer Taylor coefficients
                    row[pos] += coeff.numerator
    matrix = [row_map[key] for key in sorted(row_map)]
    vectors = nullspace_vectors(matrix, len(monos))
    return [
        Polynomial({monos[pos]: c for pos, c in enumerate(v) if c})
        for v in vectors
    ]


def _coeff_vector(P: Polynomial, monos, index):
    v = [Fraction(0)] * len(monos)
    for exp, coeff in P.terms.items():
        if exp not in index:
            raise ValueError("polynomial leaves the expected graded slice")
        v[index[exp]] = coeff
    return v


def _homogeneous_degree(P: Polynomial) -> int:
    if P.is_zero() or not P.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial")
    return P.degree()


def ideal_part_vectors(m: int, d: int):
    """Coefficient vectors spanning e1 QI(d-1) + e2 QI(d-2) + e3 QI(d-3)."""
    monos = monomials_of_degree(d)
    index = {mono: pos for pos, mono in enumerate(monos)}
    vectors = []
    for k in (1, 2, 3):
        if d - k < 0:
            continue
        ek = elementary(k)
        for Q in graded_qi_basis(m, d - k):
            vectors.append(_coeff_vector(ek * Q, monos, index))
    return monos, index, vectors


def in_ideal_part(P: Polynomial, m: int) -> bool:
    """Is P inside the span of e_k times lower quasiinvariant slices?"""
    d = _homogeneous_degree(P)
    monos, index, vectors = ideal_part_vectors(m, d)
    base = rank(vectors) if vectors else 0
    return rank(vectors + [_coeff_vector(P, monos, index)]) == base


def independent_modulo_ideal(polys, m: int) -> bool:
    """No nonzero combination of polys lies in the ideal part.

    All inputs must be homogeneous of one degree; equivalent to the span
    of polys meeting the ideal part only in 0 and being full rank.
    """
    degrees = {_homogeneous_degree(P) for P in polys}
    if len(degrees) != 1:
        raise ValueError("polynomials must share one degree")
    d = degrees.pop()
    monos, index, vectors = ideal_part_vectors(m, d)
    base = rank(vectors) if vectors else 0
    extended = vectors + [_coeff_vector(P, monos, index) for P in polys]
    return rank(extended) == base + len(polys)


# --- dimension series -------------------------------------------------------


def quotient_degrees(m: int):
    """Degrees of the six quotient basis elements."""
    return (0, 3 * m + 1, 3 * m + 1, 3 * m + 2, 3 * m + 2, 6 * m + 3)


def qi_dimension_series(m: int, max_degree: int):
    """Dimensions of the graded slices of the m-quasiinvariant ring.

    Expansion of (1 + 2q^(3m+1) + 2q^(3m+2) + q^(6m+3)) divided by
    (1-q)(1-q^2)(1-q^3), through degree max_degree.
    """
    if m < 0 or max_degree < 0:
        raise ValueError("m and max_degree must be nonnegative")
    n = max_degree + 1
    series = [0] * n
    for e in quotient_degrees(m):
        if e < n:
            series[e] += 1
    for step in (1, 2, 3):
        for d in range(step, n):
            series[d] += series[d - step]
    return series
