"""Quasiinvariance checks and the graded structure of the invariant ring.

A polynomial P is m-quasiinvariant when, for every transposition s_ij,
the difference (1 - s_ij) P is divisible by (x_i - x_j)^(2m+1).
Divisibility is decided exactly by a Taylor shift: substituting
x_i = x_j + t, (x_i - x_j)^p divides a polynomial when its coefficients
of t^0 .. t^(p-1) vanish.  A term x_i^a x_j^b x_k^c feeds only the
monomials x_j^(a+b-r) x_k^c t^r, with weight binom(a, r).  So the integer
numerators are grouped by (a + b, c) into lists q indexed by a, the t^r
coefficient of a group is the r-th Taylor coefficient of q at y = 1, and
the largest dividing power is the least multiplicity of the root y = 1
over the nonzero groups.  s_ij reverses each group, so (1 - s_ij) P is
D = q - reversed(q), group by group, and D is antisymmetric, so that
multiplicity is odd.  One pass over the terms groups them for all three
pairs; a pair's D lie end to end in one list, and two running sums
(Knuth, TAOCP vol. 2, 4.6.4) divide every group by (y - 1)^2 at once,
one odd order per step, until a group's end is nonzero.
is_quasiinvariant is the one public divisibility search; each
TranspositionCheck.largest_power it reports is the largest dividing
power of (1 - s_ij) P.

The graded-slice rows (_taylor_rows) come from one closed form.  With
x_i = x_j + t, a term num x_i^p x_j^q x_k^e of an unknown P adds
num (binom(p, r) - binom(q, r)) to the t^r coefficient of (1 - s_ij) P,
at the monomial x_j^(p+q-r) x_k^e.  s_ij sends t to -t and negates
(1 - s_ij) P, so its lowest nonzero order is odd: only the odd orders
r < 2m + 1 are built, as the constraint rows (k, l) of
linsys.system_rows keep only odd l, and none above the degree: no
exponent exceeds it, and past the largest exponent every binomial is 0.

The module also provides the degree-d slice of the m-quasiinvariant ring
(graded_qi_basis), independence modulo the part of the slice generated
by the elementary symmetric polynomials (independent_modulo_ideal), the
coinvariant normal form used for the m = 0 independence certificate,
the dimension of a slice counted by isotype (qi_dimension), the
dimension series the slices must reproduce, and the free-module
certificate that decides independence of the six quotient elements
from those counts (free_module_certificate).

qi_dimension counts a slice from its s23-fixed and antisymmetric parts
alone, by integer rank; the full slices stay the independent check on
it, and independent_modulo_ideal on the certificate.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb
from operator import itemgetter, sub

from .linsys import det_exact, nullspace_vectors, rank
from .poly import (
    ALL_PERMS,
    S12,
    S23,
    TRANSPOSITIONS,
    Polynomial,
    elementary,
)


# The most dense group entries _dividing_powers allocates for one polynomial,
# over all three pairs; a group of x_i^a x_j^b holds a + b + 1.  At 1,048,010
# entries (x1^524000*x2 + x3) `check` peaks 32 MB higher (Python 3.11, x86-64);
# Delta^57, the largest element at linsys.MAX_ORDER, needs 39,675.
MAX_GROUP_ENTRIES = 2**20


def _dividing_powers(nums):
    """Largest p with (x_i - x_j)^p | (1 - s_ij) P for the pairs in
    TRANSPOSITIONS order, None where the difference is zero, from P.nums.

    Every group's D = q - reversed(q) is antisymmetric, D[a] = -D[s - a],
    so its root y = 1 has odd multiplicity and only odd orders need a
    test.  A running sum of the flat list divides each group by y - 1 and
    leaves the group's total at its end.  Before every odd-numbered sum
    the totals are 0, so no sum leaks into the next group; after every
    even-numbered sum the ends are partial sums of the totals, and one is
    nonzero exactly when some group has that odd order.
    """
    # per pair (i, j): (a_i + a_j, a_k) -> the group's list, indexed by a_i
    g12, g13, g23 = groups = {}, {}, {}
    size = 0

    def new_group(g, key, s):  # checks the running size before allocating
        nonlocal size
        size += s + 1
        if size > MAX_GROUP_ENTRIES:
            raise ValueError(
                f"divisibility search needs at least {size} dense entries,"
                f" more than the limit of {MAX_GROUP_ENTRIES}"
            )
        g[key] = q = [0] * (s + 1)
        return q

    for (a, b, c), num in nums.items():
        s = a + b
        q = g12.get((s, c)) or new_group(g12, (s, c), s)
        q[a] = num
        s = a + c
        q = g13.get((s, b)) or new_group(g13, (s, b), s)
        q[a] = num
        s = b + c
        q = g23.get((s, a)) or new_group(g23, (s, a), s)
        q[b] = num
    powers = []
    for g in groups:
        flat, ends = [], []
        for q in g.values():
            flat += map(sub, q, reversed(q))  # s_ij reverses each group
            ends.append(len(flat) - 1)
        power = None
        if any(flat):
            read_ends = itemgetter(ends[0], *ends)  # a tuple even for one group
            power = 1
            while not any(read_ends(flat := list(accumulate(accumulate(flat))))):
                power += 2
        powers.append(power)
    return powers


class TranspositionCheck(namedtuple(
    "TranspositionCheck", "pair difference_zero largest_power required_power divisible"
)):
    """One pair's verdict: pair is (i, j); largest_power is an int, or
    None when the difference vanishes."""

    __slots__ = ()


class QuasiReport(namedtuple("QuasiReport", "m checks")):
    """checks holds three TranspositionCheck entries, TRANSPOSITIONS order."""

    __slots__ = ()

    @property
    def is_quasiinvariant(self) -> bool:
        return all(c.divisible for c in self.checks)


def is_quasiinvariant(P: Polynomial, m: int) -> QuasiReport:
    """Check (1 - s_ij) P divisible by (x_i - x_j)^(2m+1) for all pairs:
    the one public divisibility search, each check's largest_power being
    the largest dividing power of (1 - s_ij) P (None when it is zero).

    Every group of a pair is divided in lock-step, and only at odd orders:
    the difference is antisymmetric in each group, so its order is odd."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    need = 2 * m + 1
    checks = tuple(
        TranspositionCheck(
            pair=pair,
            difference_zero=power is None,
            largest_power=power,
            required_power=need,
            divisible=power is None or power >= need,
        )
        for pair, power in zip(TRANSPOSITIONS, _dividing_powers(P.nums))
    )
    return QuasiReport(m=m, checks=checks)


# --- coinvariant normal form ------------------------------------------------

COINVARIANT_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
# exponents (b, c) of x2^b x3^c for the ordered basis 1, x2, x3, x2x3, x3^2, x2x3^2


def coinvariant_nf(P: Polynomial):
    """Coordinates of P in the quotient by (e1, e2, e3), m = 0 case.

    Rewrites x1 -> -(x2 + x3), then x2^2 -> -(x2x3 + x3^2), then
    x3^3 -> 0, to a fixed point; the result is the coordinate tuple with
    respect to (1, x2, x3, x2x3, x3^2, x2x3^2).
    """
    work = defaultdict(int)  # P.den times the coefficients
    for (a, b, c), num in P.nums.items():
        # substitute x1^a = (-(x2 + x3))^a
        for t in range(a + 1):
            work[b + t, c + a - t] += num * (-1) ** a * comb(a, t)
    # eliminate x2 powers >= 2; x3 powers >= 3 are 0, and reading only the
    # basis keys drops them
    while (offender := next((key for key in work if key[0] >= 2), None)) is not None:
        b, c = offender
        num = work.pop(offender)
        work[b - 1, c + 1] -= num
        work[b - 2, c + 2] -= num
    return tuple(Fraction(work.get(key, 0), P.den) for key in COINVARIANT_BASIS)


# --- graded slices ----------------------------------------------------------


def monomials_of_degree(d: int):
    """Degree-d exponent triples in canonical order (graded lex, descending)."""
    return [
        (a, b, d - a - b)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    ]


def _taylor_rows(pairs, unknowns, m: int):
    """Integer rows saying that a combination of the unknowns passes the
    m-quasiinvariance test of every pair (i, j) in pairs.

    unknowns holds one integer-term list per unknown coefficient, all of
    one degree, so a row is fixed by (pair, r, e): the t^r coefficient, at
    x_j^(p+q-r) x_k^e, of (1 - s_ij) applied to the combination, with
    x_i = x_j + t.  A term num x_i^p x_j^q x_k^e adds
    num (binom(p, r) - binom(q, r)) to it, read from this call's binomial
    table; a term with p = q, which s_ij fixes, adds to no row.  r runs
    over the odd orders below 2m + 1 (see the module docstring), capped
    at the degree: no exponent is larger, and past the largest exponent
    every binomial is 0, so the table stays small however large m is.
    Rows come by pair, then r ascending, then x3 exponent descending: e
    descending for the pair (1, 2) and ascending for the others, whose x3
    exponent is p + q - r.
    """
    degree = sum(unknowns[0][0][0]) if unknowns else 0
    orders = range(1, min(2 * m, degree + 1), 2)
    C = [[comb(n, r) for r in orders] for n in range(degree + 1)]
    ncols = len(unknowns)
    row_map = defaultdict(lambda: [0] * ncols)
    for i, j in pairs:
        k = 6 - i - j
        sign = -1 if k == 3 else 1  # x3 exponent descending
        for pos, terms in enumerate(unknowns):
            for exp, num in terms:
                e = sign * exp[k - 1]
                for r, cp, cq in zip(orders, C[exp[i - 1]], C[exp[j - 1]]):
                    if cp != cq:
                        row_map[i, j, r, e][pos] += num * (cp - cq)
    return [row_map[key] for key in sorted(row_map)]


def _solution_count(unknowns, m: int) -> int:
    """Unknowns minus the integer rank of their rows for the pair (1, 2)."""
    return len(unknowns) - rank(_taylor_rows(((1, 2),), unknowns, m))


def graded_qi_basis(m: int, d: int):
    """Basis of the degree-d slice of the m-quasiinvariant ring.

    Assembles the linear constraints "the coefficients of t^0 .. t^(2m)
    in (1 - s_ij) P with x_i = x_j + t vanish" over the degree-d
    monomial coefficients, and returns the null space as polynomials,
    each scaled so its first nonzero coefficient in canonical monomial
    order is 1.  Each unknown is one monomial, so every row entry is an
    integer, and only the odd orders r < 2m + 1 are built (see
    _taylor_rows).
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    monos = monomials_of_degree(d)
    rows = _taylor_rows(TRANSPOSITIONS, [[(mono, 1)] for mono in monos], m)
    return [
        Polynomial({monos[pos]: c for pos, c in enumerate(v) if c})
        for v in nullspace_vectors(rows, len(monos))
    ]


def independent_modulo_ideal(polys, m: int) -> bool:
    """No nonzero combination of polys lies in the ideal part.

    The ideal part of degree d is e1 QI(d-1) + e2 QI(d-2) + e3 QI(d-3).
    All inputs must be nonzero and homogeneous of one degree.  Adding
    polys to the ideal part's spanning vectors must raise the rank by
    len(polys).
    """
    if any(P.is_zero() or not P.is_homogeneous() for P in polys):
        raise ValueError("need a nonzero homogeneous polynomial")
    degrees = {P.degree() for P in polys}
    if len(degrees) != 1:
        raise ValueError("polynomials must share one degree")
    d = degrees.pop()
    monos = monomials_of_degree(d)

    def coordinates(Q):
        # Q.den times Q's coefficients: scaling a row keeps the rank
        return [Q.nums.get(mono, 0) for mono in monos]

    vectors = [
        coordinates(elementary(k) * Q)
        for k in (1, 2, 3)
        if k <= d
        for Q in graded_qi_basis(m, d - k)
    ]
    new = [coordinates(P) for P in polys]
    return rank(vectors + new) == rank(vectors) + len(new)


# --- dimension series -------------------------------------------------------


def _partitions3(n: int):
    """Partitions of n into at most three parts, (a, b, c) with
    a >= b >= c >= 0, in descending lex order."""
    return [
        (a, b, n - a - b)
        for a in range(n, -1, -1)
        for b in range(min(a, n - a), -1, -1)
        if n - a - b <= b
    ]


def _s23_fixed_count(m: int, d: int) -> int:
    """dim QI_m(d)^s23, solved on the degree-d orbit sums
    x1^a (x2^b x3^c + x2^c x3^b), b >= c (x1^a x2^b x3^b once when b = c).

    For s23-fixed P, (1 - s23) P = 0 and (1 - s13) P = s23 (1 - s12) P,
    so the pair (1, 2) gives every condition.  x1^a x2^a x3^a, which s12
    fixes, adds to no row.
    """
    unknowns = [
        [(exp, 1) for exp in {(a, b, c), (a, c, b)}]
        for a, b, c in monomials_of_degree(d)
        if b >= c
    ]
    return _solution_count(unknowns, m)


def qi_dimension(m: int, d: int) -> int:
    """dim QI_m(d), counted by isotype from two small slices.

    QI_m(d) is S3-stable.  As an S3-module it is a copies of the trivial
    representation, b of the sign and c of the two-dimensional one, so
    its dimension is a + b + 2c, while its s23-fixed part has dimension
    a + c.  Hence

        dim QI_m(d) = 2 dim QI_m(d)^s23 - a + b,

    the standard isotypic decomposition (Serre, Linear Representations
    of Finite Groups, 2.6).  Every symmetric polynomial is
    quasiinvariant, so a = dim Sym(d), the number of partitions of d into
    at most three parts, and b is the number of antisymmetric
    quasiinvariants of degree d.  Each slice is counted as its unknowns
    minus the integer rank of its rows (_s23_fixed_count and
    _alternating_count); no null vector is formed.  graded_qi_basis is the
    independent check.
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    return 2 * _s23_fixed_count(m, d) - len(_partitions3(d)) + _alternating_count(m, d)


def _alternating_count(m: int, d: int) -> int:
    """dim Alt QI_m(d), the antisymmetric m-quasiinvariants of degree d,
    counted by integer rank.

    An antisymmetric polynomial vanishes on every x_i = x_j, so it is
    Delta f with f symmetric.  (1 - s12)(Delta f) = 2 Delta f, and the
    factors (x1 - x3)(x2 - x3) of Delta are coprime to x1 - x2, so Delta f
    passes the s12 test exactly when (x1 - x2)^(2m) divides f; since f is
    symmetric, that one pair gives every pair.  That these are
    Delta^(2m+1) Sym (Feigin-Veselov) is never assumed.

    f is written in the monomial symmetric functions m_lambda, lambda a
    partition of d - 3 into at most three parts.  The unknowns are the
    (x1 - x2) m_lambda, so that _taylor_rows serves this slice too: f is
    s12-fixed, so (1 - s12)((x1 - x2) f) = 2 (x1 - x2) f, and with
    x1 = x2 + t, where x1 - x2 = t, its t^r coefficient is twice the
    t^(r-1) coefficient of f.  The rows at the odd orders r < 2m + 1 are
    thus twice those of f at the orders 0, 2, .., 2m - 2; f's odd orders
    add nothing, since f is s12-fixed and its lowest order is even.
    Below degree 3 there is no partition of d - 3, so no unknown.
    """
    unknowns = []
    for lam in _partitions3(d - 3):
        orbit = set(permutations(lam))
        unknowns.append(
            [((a + 1, b, c), 1) for a, b, c in orbit]
            + [((a, b + 1, c), -1) for a, b, c in orbit]
        )
    return _solution_count(unknowns, m)


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


# --- independence modulo the ideal by freeness ------------------------------

# Distinct coordinates: the determinant is antisymmetric, so it vanishes
# wherever two coordinates meet.
CERTIFICATE_POINT = (0, 1, 3)


def _values_at(P: Polynomial, points):
    """P times its common denominator, at each integer point."""
    return [
        sum(num * x**a * y**b * z**c for (a, b, c), num in P.nums.items())
        for x, y, z in points
    ]


def free_module_certificate(elements, m: int):
    """(pairs, delta): independence modulo the ideal part of the six
    quotient elements b_1..b_6, certified without solving the ideal part.

    pairs covers the two pairs of degree 3m+1 and 3m+2, delta covers
    Delta^(2m+1).  Each reads True when its certificate closes and None
    when a step does not; a step that does not close proves nothing, so
    neither ever reads False.

    Let N = sum_k Sym b_k.  pairs needs every b_k quasiinvariant, so that
    N lies in QI_m, and homogeneous of its degree in quotient_degrees(m),
    and then:

    (a) det[sigma(b_k)], sigma in S3, is nonzero at CERTIFICATE_POINT,
        so it is a nonzero polynomial.  A relation sum_k f_k b_k = 0 with
        f_k symmetric gives sum_k f_k sigma(b_k) = 0 for every sigma, so
        (f_k) lies in the kernel of that matrix and is zero.  Hence N is
        free over Sym with Hilbert series qi_dimension_series(m, .).
    (b) dim QI_m(e) <= [q^e] of that series for every e <= 3m+1.  N lies
        in QI_m, so QI_m(e) = N_e there, and the ideal part of each pair's
        degree d, sum_k e_k QI_m(d - k), is (Sym_+ N)_d.  N is free, so no
        nonzero combination of the degree-d b_k lies in it.

    delta needs b_6 nonzero, antisymmetric and homogeneous of degree
    d = 6m+3, and then:

    (c) Alt QI_m(e) = 0 for e = d-3, d-2, d-1 (_alternating_count).  The
        ideal part I_d = sum_k e_k QI_m(d - k) is S3-stable, and the
        antisymmetriser Alt = (1/6) sum sgn(sigma) sigma commutes with
        multiplication by the symmetric e_k, so Alt(I_d) is
        sum_k e_k Alt QI_m(d - k), which is zero.  If b_6 lay in I_d, then
        b_6 = Alt(b_6) would lie in Alt(I_d); it is nonzero, so it does
        not.

    Every rank is exact (linsys.rank).  That QI_m is free over Sym
    (Feigin-Veselov, IMRN 2002; Berest-Etingof-Ginzburg, Duke 2003) is
    never assumed.  independent_modulo_ideal, which solves the full
    slices and shares no system with (b) or (c), is the one independent
    check.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(elements) != 6:
        raise ValueError("need the six quotient elements")
    degrees = quotient_degrees(m)
    placed = [
        P.is_homogeneous() and P.degree() == d for P, d in zip(elements, degrees)
    ]
    points = [tuple(CERTIFICATE_POINT[s - 1] for s in sigma) for sigma in ALL_PERMS]
    top = 3 * m + 1
    series = qi_dimension_series(m, top)
    pairs = (
        all(placed)
        and all(is_quasiinvariant(P, m).is_quasiinvariant for P in elements)
        and det_exact([_values_at(P, points) for P in elements]) != 0
        and all(qi_dimension(m, e) <= series[e] for e in range(top + 1))
    )
    delta_power = elements[-1]
    delta = (
        placed[-1]
        and delta_power.apply_perm(S12) == -delta_power
        and delta_power.apply_perm(S23) == -delta_power
        and not any(_alternating_count(m, e) for e in range(6 * m, 6 * m + 3))
    )
    return (True if pairs else None, True if delta else None)
