import random
from fractions import Fraction

import pytest

from quasi3 import quasi
from quasi3.basis import build_basis
from quasi3.group_ops import make_element
from quasi3.linsys import det_exact, rank
from quasi3.poly import (
    Polynomial,
    elementary,
    parse_poly,
    term_key,
    vandermonde_power,
)
from quasi3.quasi import (
    COINVARIANT_BASIS,
    coinvariant_nf,
    free_module_certificate,
    graded_qi_basis,
    independent_modulo_ideal,
    is_quasiinvariant,
    monomials_of_degree,
    qi_dimension,
    qi_dimension_series,
    quotient_degrees,
)
from test_poly import random_poly
from test_quasi_properties import largest_dividing_power, taylor_coefficients

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)


PAIRS = ((1, 2), (1, 3), (2, 3))


def test_taylor_coefficients_reconstruct_exactly():
    # P = sum_r c_r (x_i - x_j)^r with every c_r free of x_i
    rng = random.Random(0)
    for _ in range(25):
        p = random_poly(rng, max_terms=6)
        for i, j in PAIRS:
            coeffs = taylor_coefficients(p, i, j, p.var_degree(i) + 1)
            t = Polynomial.variable(i) - Polynomial.variable(j)
            assert sum((c * t**r for r, c in enumerate(coeffs)), Polynomial.zero()) == p
            assert all(c.var_degree(i) == 0 for c in coeffs)


def test_taylor_coefficients_simple():
    # with t = x1 - x2: x1^2 - x2^2 = 2 x2 t + t^2 and x1^2 = x2^2 + 2 x2 t + t^2
    assert taylor_coefficients(x1**2 - x2**2, 1, 2, 3) == [0, 2 * x2, 1]
    assert taylor_coefficients(x1**2, 1, 2, 3) == [x2**2, 2 * x2, 1]
    with pytest.raises(ValueError):
        taylor_coefficients(x1, 1, 1, 1)


def test_taylor_coefficients_count():
    # (x1 - x2)^3 (x1 + x3) = (x2 + x3) t^3 + t^4 with t = x1 - x2
    p = (x1 - x2) ** 3 * (x1 + x3)
    coeffs = taylor_coefficients(p, 1, 2, 6)
    assert [c.is_zero() for c in coeffs] == [True, True, True, False, False, True]
    assert coeffs[3] == x2 + x3
    assert coeffs[4] == 1
    assert taylor_coefficients(p, 1, 2, 2) == [0, 0]
    assert taylor_coefficients(p, 1, 2, 0) == []


def test_largest_dividing_power():
    # the base does not vanish at x_i = x_j for any pair, so the power is k
    base = x1 + 2 * x2 + 4 * x3 + 1
    for i, j in PAIRS:
        t = Polynomial.variable(i) - Polynomial.variable(j)
        for k in range(6):
            assert largest_dividing_power(base * t**k, i, j) == k
            assert largest_dividing_power(base * t**k, j, i) == k
    p = (x1 - x3) ** 4 * (x2 + 1)
    assert largest_dividing_power(p, 1, 3) == 4
    assert largest_dividing_power(p, 1, 2) == 0
    assert largest_dividing_power(Polynomial.zero(), 1, 2) is None
    # the pair is checked for the zero polynomial too
    for P in (Polynomial.zero(), p):
        with pytest.raises(ValueError):
            largest_dividing_power(P, 1, 1)


def test_symmetric_polynomials_are_quasiinvariant_for_all_m():
    for k in (1, 2, 3):
        for m in range(4):
            report = is_quasiinvariant(elementary(k), m)
            assert report.is_quasiinvariant
            assert all(c.difference_zero for c in report.checks)


def test_delta_odd_powers_are_quasiinvariant():
    for m in range(3):
        delta = vandermonde_power(2 * m + 1)
        assert is_quasiinvariant(delta, m).is_quasiinvariant
        if m:
            assert not is_quasiinvariant(delta, m + 1).is_quasiinvariant


def test_power_sums_are_quasiinvariant():
    for p in range(1, 6):
        s = x1**p + x2**p + x3**p
        assert is_quasiinvariant(s, 5).is_quasiinvariant


def test_non_quasiinvariant_detected():
    report = is_quasiinvariant(x1, 1)
    assert not report.is_quasiinvariant
    # (1 - s12) x1 = x1 - x2 carries exactly one factor; s23 fixes x1
    bad = [c for c in report.checks if not c.divisible]
    assert [c.pair for c in bad] == [(1, 2), (1, 3)]
    assert all(c.largest_power == 1 and c.required_power == 3 for c in bad)


def test_difference_fixed_by_the_pair_reads_zero():
    # s12 fixes P, so every group of (1 - s12) P is zero; the other two
    # differences carry the planted factors (x1 - x3)^5 and (x2 - x3)^5
    P = (x1 - x3) ** 5 * (x2 - x3) ** 5 * (x1 + x2)
    by_pair = {c.pair: c for c in is_quasiinvariant(P, 3).checks}
    assert by_pair[(1, 2)].difference_zero is True
    assert by_pair[(1, 2)].largest_power is None
    assert by_pair[(1, 2)].divisible is True
    for pair in ((1, 3), (2, 3)):
        assert by_pair[pair].difference_zero is False
        assert by_pair[pair].largest_power == 5
        assert by_pair[pair].divisible is False


def test_group_entry_limit_is_checked_as_groups_are_made(monkeypatch):
    # x1^3*x2 + x3: groups of 5, 4 and 2 entries for x1^3*x2, then 1, 2
    # and 2 for x3, 16 in all
    P = parse_poly("x1^3*x2 + x3")
    monkeypatch.setattr(quasi, "MAX_GROUP_ENTRIES", 16)
    assert not is_quasiinvariant(P, 1).is_quasiinvariant
    monkeypatch.setattr(quasi, "MAX_GROUP_ENTRIES", 15)
    with pytest.raises(ValueError) as exc:
        is_quasiinvariant(P, 1)
    assert str(exc.value) == (
        "divisibility search needs at least 16 dense entries, more than the limit of 15"
    )


def test_quasiinvariants_form_a_ring():
    rng = random.Random(13)
    m = 1
    basis4 = graded_qi_basis(m, 4)
    basis5 = graded_qi_basis(m, 5)
    for _ in range(5):
        p = sum(
            (b * Fraction(rng.randint(-3, 3)) for b in basis4),
            Polynomial.zero(),
        )
        q = sum(
            (b * Fraction(rng.randint(-3, 3)) for b in basis5),
            Polynomial.zero(),
        )
        assert is_quasiinvariant(p + q * q, m).is_quasiinvariant
        assert is_quasiinvariant(p * q, m).is_quasiinvariant


def test_monomials_of_degree():
    mons = monomials_of_degree(2)
    assert len(mons) == 6
    assert mons[0] == (2, 0, 0)
    assert all(sum(e) == 2 for e in mons)
    assert len(monomials_of_degree(0)) == 1
    # graded_qi_basis normalises in this order, so it must be canonical
    for d in range(13):
        mons = monomials_of_degree(d)
        assert mons == sorted(mons, key=term_key, reverse=True)


def test_graded_basis_dimensions_match_series():
    for m in (0, 1, 2):
        series = qi_dimension_series(m, 3 * m + 3)
        for d, expected in enumerate(series):
            got = graded_qi_basis(m, d)
            assert len(got) == expected
            for b in got:
                assert is_quasiinvariant(b, m).is_quasiinvariant


def test_graded_basis_m1_low_degrees():
    assert [str(b) for b in graded_qi_basis(1, 0)] == ["1"]
    assert [str(b) for b in graded_qi_basis(1, 1)] == ["x1 + x2 + x3"]
    assert len(graded_qi_basis(1, 2)) == 2
    assert len(graded_qi_basis(1, 3)) == 3


def test_quotient_degrees():
    assert quotient_degrees(0) == (0, 1, 1, 2, 2, 3)
    assert quotient_degrees(1) == (0, 4, 4, 5, 5, 9)
    assert quotient_degrees(2) == (0, 7, 7, 8, 8, 15)


def test_qi_dimension_series_m0_is_full_polynomial_ring_graded_count():
    # m = 0: all polynomials; dim of degree d slice is binom(d+2, 2)
    series = qi_dimension_series(0, 8)
    assert series == [(d + 2) * (d + 1) // 2 for d in range(9)]


def test_coinvariant_nf_basics():
    assert list(coinvariant_nf(elementary(1))) == [0] * 6
    assert list(coinvariant_nf(elementary(2))) == [0] * 6
    assert list(coinvariant_nf(elementary(3))) == [0] * 6
    assert list(coinvariant_nf(Polynomial.constant(1))) == [1, 0, 0, 0, 0, 0]
    assert list(coinvariant_nf(vandermonde_power(1))) == [0, 0, 0, 0, 0, -6]


def test_coinvariant_nf_is_linear_and_kills_the_ideal():
    rng = random.Random(4)
    for _ in range(10):
        p = random_poly(rng, max_terms=6, max_exp=3)
        q = random_poly(rng, max_terms=6, max_exp=3)
        lhs = list(coinvariant_nf(p + q))
        rhs = [a + b for a, b in zip(coinvariant_nf(p), coinvariant_nf(q))]
        assert lhs == rhs
        # adding an ideal element never changes the normal form
        shifted = p + elementary(1) * q
        assert coinvariant_nf(shifted) == coinvariant_nf(p)


def test_coinvariant_basis_normal_forms_are_unit_vectors():
    for idx, (b, c) in enumerate(COINVARIANT_BASIS):
        mono = Polynomial.monomial((0, b, c))
        nf = list(coinvariant_nf(mono))
        expected = [0] * 6
        expected[idx] = 1
        assert nf == expected


def test_ideal_membership_m1():
    m = 1
    qi4 = graded_qi_basis(m, 4)
    e1 = elementary(1)
    # e1 * (degree-3 quasiinvariant) lies in the ideal part
    for b in graded_qi_basis(m, 3):
        assert not independent_modulo_ideal([e1 * b], m)
    # the two ansatz-degree elements are not all in the ideal
    assert any(independent_modulo_ideal([b], m) for b in qi4)


def test_independent_modulo_ideal_m1():
    m = 1
    a1 = parse_poly("x1^4 - 2*x1^3*x2 - 2*x1^3*x3 + 6*x1^2*x2*x3")
    from quasi3.poly import S12

    b1 = a1.apply_perm(S12)
    assert independent_modulo_ideal([a1, b1], m)
    # a pair with a dependency modulo the ideal is rejected
    e1 = elementary(1)
    dep = a1 + e1 * graded_qi_basis(m, 3)[0]
    assert not independent_modulo_ideal([a1, dep], m)


@pytest.mark.parametrize(
    "polys",
    [[], [Polynomial.zero()], [x1 + x2 * x3], [x1, x2 * x3]],
    ids=["empty", "zero", "not-homogeneous", "mixed-degree"],
)
def test_independent_modulo_ideal_rejects_bad_input(polys):
    with pytest.raises(ValueError):
        independent_modulo_ideal(polys, 1)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_antisymmetric_basis_spans_the_alternated_graded_slice(m):
    alt = make_element("S3alt")
    for d in range(6 * m + 5):
        monos = monomials_of_degree(d)

        def rows(polys):
            return [[P.coefficient(mono) for mono in monos] for P in polys]

        alternated = rows(alt.apply(Q) for Q in graded_qi_basis(m, d))
        assert quasi._alternating_count(m, d) == rank(alternated), (m, d)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_antisymmetric_route_matches_full_route_on_delta_power(m):
    # the antisymmetric route is step (c) of the certificate: no
    # antisymmetric quasiinvariant in the three degrees below 6m+3
    assert not any(quasi._alternating_count(m, e) for e in range(6 * m, 6 * m + 3))
    assert independent_modulo_ideal([vandermonde_power(2 * m + 1)], m)


@pytest.mark.parametrize("m", [0, 1])
def test_e1_times_delta_power_lies_in_the_ideal_part(m):
    P = elementary(1) * vandermonde_power(2 * m + 1)
    assert not independent_modulo_ideal([P], m)


def test_alternating_count_small_degrees():
    # none below degree 3; Delta at m = 0; Delta^3 first at m = 1
    cases = ((1, 2), (0, 3), (1, 8), (1, 9))
    assert [quasi._alternating_count(m, d) for m, d in cases] == [0, 1, 0, 1]


def test_is_quasiinvariant_rejects_negative_m():
    with pytest.raises(ValueError):
        is_quasiinvariant(x1, -1)


def quotient_elements(m):
    return [e.poly for e in build_basis(m, verify="degrees").elements]


@pytest.mark.parametrize("m", range(5))
def test_free_module_certificate_closes(m):
    assert free_module_certificate(quotient_elements(m), m) == (True, True)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_free_module_certificate_agrees_with_exact_routes(m):
    b = quotient_elements(m)
    exact = (
        independent_modulo_ideal(b[1:3], m) and independent_modulo_ideal(b[3:5], m),
        independent_modulo_ideal([b[5]], m),
    )
    assert exact == free_module_certificate(b, m) == (True, True)


@pytest.mark.parametrize("m", [1, 2])
def test_free_module_certificate_open_on_a_repeated_element(m, monkeypatch):
    # s12(A1) replaced by A1: the rows of the S3 matrix repeat
    b = quotient_elements(m)
    b[2] = b[1]
    dets = []

    def recorded(matrix):
        dets.append(det_exact(matrix))
        return dets[-1]

    monkeypatch.setattr(quasi, "det_exact", recorded)
    assert free_module_certificate(b, m) == (None, True)
    assert dets == [0]


@pytest.mark.parametrize("m", [1, 2])
def test_free_module_certificate_open_off_the_quasiinvariants(m):
    b = quotient_elements(m)
    b[1] = b[1] + x1 ** (3 * m + 1)
    assert not is_quasiinvariant(b[1], m).is_quasiinvariant
    assert free_module_certificate(b, m) == (None, True)
    # Delta^(2m+1) made not antisymmetric, and so not quasiinvariant either
    b = quotient_elements(m)
    b[5] = b[5] + x1 ** (6 * m + 3)
    assert free_module_certificate(b, m) == (None, None)


def test_free_module_certificate_open_on_a_smaller_series(monkeypatch):
    # the m = 3 series is below dim QI_2 from degree 7 = 3m + 1 on
    series, counted = quasi.qi_dimension_series, []

    def recorded(m, d):
        counted.append(d)
        return qi_dimension(m, d)

    monkeypatch.setattr(quasi, "qi_dimension_series", lambda m, top: series(m + 1, top))
    monkeypatch.setattr(quasi, "qi_dimension", recorded)
    assert free_module_certificate(quotient_elements(2), 2) == (None, True)
    assert counted == list(range(8))
    assert qi_dimension(2, 7) > series(3, 7)[7]


@pytest.mark.parametrize("count, m", [(5, 1), (6, -1)])
def test_free_module_certificate_rejects_bad_input(count, m):
    with pytest.raises(ValueError):
        free_module_certificate(quotient_elements(1)[:count], m)
