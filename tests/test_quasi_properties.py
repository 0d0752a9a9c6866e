"""Property tests for the Taylor-shift divisibility test on random
polynomials, for the ring and S3 structure of the quasiinvariants, and
for independence modulo the ideal part against a two-rank oracle."""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasi3.arith import integer_scaled
from quasi3.linsys import nullspace_vectors, rank
from quasi3.poly import (
    ALL_PERMS,
    TRANSPOSITIONS,
    Polynomial,
    elementary,
    vandermonde_power,
)
from quasi3.quasi import (
    graded_qi_basis,
    independent_modulo_ideal,
    is_quasiinvariant,
    monomials_of_degree,
    qi_dimension,
    quotient_degrees,
)
from quasi3 import quasi
from quasi3.quasi import (
    _alternating_count,
    _dividing_powers,
    _partitions3,
    _s23_fixed_count,
    _taylor_rows,
)

ORDERED_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))
pairs = st.sampled_from(ORDERED_PAIRS)
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


def integer_terms(P: Polynomial):
    """(den, [(exponent, numerator)]): P's Fraction coefficients over their
    lcm denominator, rebuilt from the terms view (the kernels read P.nums
    instead)."""
    terms = P.terms
    den, nums = integer_scaled(terms.values())
    return den, list(zip(terms, nums))


def check_pair(i: int, j: int):
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("need two distinct variable indices in 1..3")


def groups(terms, i: int, j: int):
    """P's integer terms grouped for x_i = x_j + t: one list q per
    (a + b, c), indexed by a, for the terms x_i^a x_j^b x_k^c.

    Such a term gives binom(a, r) x_j^(a+b-r) x_k^c t^r, so the t^r
    coefficient of a group is sum_a q[a] binom(a, r), the r-th Taylor
    coefficient of q(y) = sum_a q[a] y^a at y = 1, and no two groups share
    a monomial.
    """
    k = 6 - i - j
    out = {}
    for exp, num in terms:
        a = exp[i - 1]
        s = a + exp[j - 1]
        key = (s, exp[k - 1])
        q = out.get(key)
        if q is None:
            q = out[key] = [0] * (s + 1)
        q[a] = num
    return out.values()


def lowest_order(grouped):
    """The lowest r with a nonzero t^r coefficient, else None.

    That is the least multiplicity of the root y = 1 over the nonzero
    groups, each found by repeated synthetic division, one step at a time
    and one group at a time: the running sums of q end in q(1), and when
    q(1) = 0 the others are, up to sign, the quotient by y - 1.  No group
    is divided past the least found so far.  Unlike is_quasiinvariant's
    kernel it tests every order, even ones too.
    """
    least = None
    for q in grouped:
        if not any(q):
            continue
        r = 0
        while least is None or r < least:
            q = list(accumulate(q))
            if q.pop():
                break
            r += 1
        least = r
    return least


def largest_dividing_power(P: Polynomial, i: int, j: int):
    """Largest p with (x_i - x_j)^p | P, or None when P is zero, for any
    P (its order may be even): the oracle for is_quasiinvariant's kernel,
    which runs on (1 - s_ij) P only."""
    check_pair(i, j)
    return lowest_order(groups(integer_terms(P)[1], i, j))


def shift_coefficient(terms, i: int, j: int, r: int):
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
            out[key] = out.get(key, 0) + num * comb(a, r)
    return out


def taylor_coefficients(P: Polynomial, i: int, j: int, count: int):
    """Coefficients c_0 .. c_(count-1) of P expanded in t = x_i - x_j.

    Substituting x_i = x_j + t writes P = sum_r c_r (x_i - x_j)^r with
    every c_r free of x_i, so (x_i - x_j)^p divides P exactly when
    c_0 .. c_(p-1) all vanish.  Built on shift_coefficient, the
    per-order shift behind the oracle slice rows (per_order_rows); the
    tests rebuild P from the c_r by Polynomial arithmetic, which checks
    that kernel independently.
    """
    check_pair(i, j)
    if count < 0:
        raise ValueError("count must be nonnegative")
    den, terms = integer_terms(P)
    return [
        Polynomial(
            {k: Fraction(v, den) for k, v in shift_coefficient(terms, i, j, r).items()}
        )
        for r in range(count)
    ]


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


def planted(base, pair, k):
    i, j = pair
    return base * (Polynomial.variable(i) - Polynomial.variable(j)) ** k


def delta_product(base, k, e):
    return base * vandermonde_power(k) * elementary(e)


# random P, P (x_i - x_j)^k and P Delta^k e_j: high powers of every pair
divisible_polys = (
    polys
    | st.builds(planted, polys, pairs, st.integers(0, 9))
    | st.builds(delta_product, polys, st.integers(0, 7), st.integers(1, 3))
)


def lowest_shift_order(P, i, j):
    """The lowest r with a nonzero t^r coefficient, searched order by order
    on the per-order shift kernel, else None: the oracle for the grouped
    searches."""
    _, terms = integer_terms(P)
    return next(
        (
            r
            for r in range(P.var_degree(i) + 1)
            if any(shift_coefficient(terms, i, j, r).values())
        ),
        None,
    )


@checked
@given(divisible_polys)
def test_grouped_search_matches_shift_coefficients(P):
    for pair in ORDERED_PAIRS:
        assert largest_dividing_power(P, *pair) == lowest_shift_order(P, *pair)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(divisible_polys, st.integers(0, 4))
def test_odd_order_search_matches_all_orders(P, m):
    """is_quasiinvariant's grouped search on (1 - s_ij) P against every
    order of the per-order shift kernel; the lowest order is odd."""
    report = is_quasiinvariant(P, m)
    for check, (pair, perm) in zip(report.checks, TRANSPOSITIONS.items()):
        power = lowest_shift_order(P - P.apply_perm(perm), *pair)
        assert check.pair == pair
        assert check.largest_power == power
        assert check.difference_zero == (power is None)
        assert power is None or power % 2 == 1
        assert check.divisible == (power is None or power >= 2 * m + 1)


@checked
@given(polys, st.integers(0, 4))
def test_symmetric_under_the_pair_has_zero_difference(P, m):
    """P + s_ij P is fixed by s_ij, so every group of its difference is
    zero: no division runs and the check reads zero, not a power."""
    for pair, perm in TRANSPOSITIONS.items():
        fixed = P + P.apply_perm(perm)
        check = is_quasiinvariant(fixed, m).checks[list(TRANSPOSITIONS).index(pair)]
        assert check.pair == pair
        assert check.difference_zero is True
        assert check.largest_power is None
        assert check.divisible is True


@checked
@given(divisible_polys, st.integers(0, 4))
def test_lock_step_kernel_matches_single_step_oracle(P, m):
    """Every largest_power equals the one-group-at-a-time search on the
    difference (1 - s_ij) P."""
    for check, (pair, perm) in zip(is_quasiinvariant(P, m).checks, TRANSPOSITIONS.items()):
        assert check.largest_power == largest_dividing_power(P - P.apply_perm(perm), *pair)


x1, x2, x3 = (Polynomial.variable(i) for i in (1, 2, 3))


def oracle_powers(P):
    return [
        largest_dividing_power(P - P.apply_perm(perm), *pair)
        for pair, perm in TRANSPOSITIONS.items()
    ]


def group_12(k, e, c):
    """x1^e (x1 - x2)^k x3^c: one group (k + e, c) for the pair (1, 2);
    for odd k, (1 - s12) of it is (x1 - x2)^k (x1^e + x2^e) x3^c, whose
    order is exactly k."""
    return x1**e * (x1 - x2) ** k * x3**c


def kernel_powers(*parts):
    """The kernel on the parts' terms, the groups of the pair (1, 2)
    laid out in the parts' order."""
    nums = {}
    for part in parts:
        nums.update(part.nums)
    return _dividing_powers(nums)


def test_lowest_order_group_first_middle_or_last():
    # lengths 6, 5 and 8; the order-1 group in each position
    low, mid, high = group_12(1, 4, 0), group_12(3, 1, 1), group_12(5, 2, 2)
    for parts in ((low, mid, high), (mid, low, high), (mid, high, low)):
        powers = kernel_powers(*parts)
        assert powers[0] == 1
        assert powers == oracle_powers(sum(parts, Polynomial.zero()))
    # two order-1 groups whose totals cancel: the last end reads 0
    # after the first two sums, the other ends do not
    parts = (group_12(1, 4, 0), mid, -group_12(1, 1, 1))
    assert kernel_powers(*parts)[0] == 1
    assert kernel_powers(mid, high)[0] == 3


def test_non_homogeneous_degrees_of_different_orders():
    # degree 5 has order 5, degree 7 order 1, degree 4 order 3
    P = (x1 - x2) ** 5 + group_12(1, 4, 2) + group_12(3, 1, 0)
    report = is_quasiinvariant(P, 0)
    assert report.checks[0].largest_power == 1
    assert [c.largest_power for c in report.checks] == oracle_powers(P)
    Q = (x1 - x2) ** 5 + group_12(3, 1, 0)
    assert is_quasiinvariant(Q, 1).checks[0].largest_power == 3
    assert [c.largest_power for c in is_quasiinvariant(Q, 1).checks] == oracle_powers(Q)


def test_single_group():
    for P, power in ((group_12(3, 2, 0), 3), (x1**3 * x2, 1)):
        powers = [c.largest_power for c in is_quasiinvariant(P, 0).checks]
        assert powers[0] == power
        assert powers == oracle_powers(P)
    # one term: one group for every pair
    assert _dividing_powers({(3, 1, 0): 5}) == oracle_powers(x1**3 * x2)


def test_fixed_by_the_pair_reads_zero_difference():
    P = x1**2 * x2**2 * x3 + x1 * x2 + 3 * x3**4
    check = is_quasiinvariant(P, 2).checks[0]
    assert (check.difference_zero, check.largest_power, check.divisible) == (True, None, True)
    assert _dividing_powers({}) == [None, None, None]


def test_planted_order_above_the_required_power():
    # need = 3 at m = 1; the loop runs on to orders 7 and 9
    for P, power in ((group_12(7, 2, 1), 7), ((x1 - x2) ** 9, 9)):
        check = is_quasiinvariant(P, 1).checks[0]
        assert (check.largest_power, check.required_power) == (power, 3)
        assert check.divisible is True
        assert check.largest_power == oracle_powers(P)[0]


def all_orders_kernel(unknowns, count):
    """Null space of "the t^0 .. t^(count-1) coefficients vanish" for
    every pair and every order; unknowns maps a pair to one polynomial
    per unknown coefficient."""
    ncols = len(next(iter(unknowns.values())))
    rows = {}
    for (i, j), column_polys in unknowns.items():
        for pos, Q in enumerate(column_polys):
            for r, c in enumerate(taylor_coefficients(Q, i, j, count)):
                for exp, coeff in c.terms.items():
                    rows.setdefault((i, j, r, exp), [0] * ncols)[pos] += coeff
    return nullspace_vectors(list(rows.values()), ncols)


def test_slices_match_all_order_rows():
    for m, d in product(range(4), range(14)):
        monos = monomials_of_degree(d)
        unknowns = {
            pair: [Polynomial({mono: 1}) for mono in monos] for pair in TRANSPOSITIONS
        }
        for pair, perm in TRANSPOSITIONS.items():
            unknowns[pair] = [Q - Q.apply_perm(perm) for Q in unknowns[pair]]
        expected = [
            Polynomial({mono: c for mono, c in zip(monos, v)})
            for v in all_orders_kernel(unknowns, 2 * m + 1)
        ]
        assert graded_qi_basis(m, d) == expected, (m, d)

        # for symmetric f, Delta f is quasiinvariant exactly when
        # (x1 - x2)^(2m) divides f; f in the monomial symmetric functions
        # of the partitions of d - 3
        n = d - 3
        sym = [
            Polynomial({exp: 1 for exp in permutations(lam)})
            for lam in product(range(n + 1), repeat=3)
            if sum(lam) == n and lam[0] >= lam[1] >= lam[2]
        ]
        expected = len(all_orders_kernel({(1, 2): sym}, 2 * m)) if sym else 0
        assert _alternating_count(m, d) == expected, (m, d)


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


def combination(data, spanning):
    """A random integer combination of the spanning polynomials."""
    weights = data.draw(
        st.lists(st.integers(-2, 2), min_size=len(spanning), max_size=len(spanning))
    )
    return sum((c * b for c, b in zip(weights, spanning)), Polynomial.zero())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 1), st.integers(0, 6), st.integers(0, 6))
def test_quasiinvariance_survives_products_and_relabelling(data, m, d1, d2):
    P = combination(data, slice_basis(m, d1))
    Q = combination(data, slice_basis(m, d2))
    sigma = data.draw(st.sampled_from(ALL_PERMS))
    assert is_quasiinvariant(P, m).is_quasiinvariant
    assert is_quasiinvariant(P * Q, m).is_quasiinvariant
    assert is_quasiinvariant(P.apply_perm(sigma), m).is_quasiinvariant


def test_isotype_count_matches_full_slices():
    for m in range(4):
        for d in range(6 * m + 6):
            assert qi_dimension(m, d) == len(slice_basis(m, d)), (m, d)


def test_s23_fixed_count_matches_symmetrised_full_slices():
    """The s23-fixed part of a slice is spanned by (P + s23 P) / 2 over
    the full slice's basis."""
    s23 = TRANSPOSITIONS[(2, 3)]
    for m in range(3):
        for d in range(6 * m + 6):
            fixed = [(P + P.apply_perm(s23)) * Fraction(1, 2) for P in slice_basis(m, d)]
            assert _s23_fixed_count(m, d) == rank(coefficient_rows(fixed, d)), (m, d)


def difference(terms, i: int, j: int):
    """(1 - s_ij) P on integer terms, with the cancelled terms dropped."""
    diff = {}
    for exp, num in terms:
        swapped = list(exp)
        swapped[i - 1], swapped[j - 1] = exp[j - 1], exp[i - 1]
        swapped = tuple(swapped)
        diff[exp] = diff.get(exp, 0) + num
        diff[swapped] = diff.get(swapped, 0) - num
    return [(exp, num) for exp, num in diff.items() if num]


def per_order_rows(columns, orders):
    """The slice rows built one order at a time: columns maps a pair to one
    term list per unknown, with (1 - s_ij) already applied where the
    system needs it; one row per (pair, r, shifted monomial), sorted."""
    ncols = len(next(iter(columns.values())))
    row_map = {}
    for (i, j), unknowns in columns.items():
        for pos, terms in enumerate(unknowns):
            for r in orders:
                for exp, num in shift_coefficient(terms, i, j, r).items():
                    if num:
                        row_map.setdefault(((i, j), r, exp), [0] * ncols)[pos] += num
    return [row_map[key] for key in sorted(row_map)]


def per_order_systems(m, d):
    """(rows, ncols) of the full, s23-fixed and alternating slices, the
    first two on (1 - s_ij) of their unknowns at odd orders below 2m + 1,
    the last on the m_lambda themselves at even orders below 2m."""
    monos = monomials_of_degree(d)
    odd = range(1, 2 * m + 1, 2)
    full = {pair: [difference([(mono, 1)], *pair) for mono in monos] for pair in TRANSPOSITIONS}
    fixed = [
        difference([(exp, 1) for exp in {(a, b, c), (a, c, b)}], 1, 2)
        for a, b, c in monos
        if b >= c
    ]
    sym = [[(exp, 1) for exp in set(permutations(lam))] for lam in _partitions3(d - 3)]
    return [
        (per_order_rows(full, odd), len(monos)),
        (per_order_rows({(1, 2): fixed}, odd), len(fixed)),
        (per_order_rows({(1, 2): sym}, range(0, 2 * m, 2)), len(sym)),
    ]


def test_closed_form_rows_match_per_order_rows(monkeypatch):
    """The systems graded_qi_basis, _s23_fixed_count and
    _alternating_count solve, caught at _taylor_rows, against the
    per-order route: the same rows in the same order (twice the rows of
    the m_lambda for the alternating slice), so the same rank and null
    space."""
    built = []

    def spy(pairs, unknowns, m):
        rows = _taylor_rows(pairs, unknowns, m)
        built.append((rows, len(unknowns)))
        return rows

    monkeypatch.setattr(quasi, "_taylor_rows", spy)
    for m in range(5):
        for d in range(3 * m + 5):
            built.clear()
            quasi.graded_qi_basis(m, d)
            quasi._s23_fixed_count(m, d)
            quasi._alternating_count(m, d)
            assert len(built) == 3
            for scale, (rows, ncols), (old, old_ncols) in zip(
                (1, 1, 2), built, per_order_systems(m, d)
            ):
                assert ncols == old_ncols, (m, d)
                assert rows == [[scale * x for x in row] for row in old], (m, d)
                assert rank(rows) == rank(old), (m, d)
                assert nullspace_vectors(rows, ncols) == nullspace_vectors(old, ncols), (m, d)


def test_row_orders_stop_at_the_degree():
    """(1 - s12) x1^6 with x1 = x2 + t has t^r coefficient binom(6, r) at
    x2^(6-r); past order 5 there is none, however large m is, and no
    table of m orders is built."""
    unknowns = [[((6, 0, 0), 1)]]
    assert _taylor_rows(((1, 2),), unknowns, 2) == [[6], [20]]
    assert _taylor_rows(((1, 2),), unknowns, 3) == [[6], [20], [6]]
    assert _taylor_rows(((1, 2),), unknowns, 10**9) == [[6], [20], [6]]
    assert qi_dimension(10**9, 6) == len(_partitions3(6))
