from fractions import Fraction

import pytest

from quasi3.acceptance import GOLDEN_A1_M2, GOLDEN_A2_M2
from quasi3.basis import (
    ELEMENT_NAMES,
    BasisReport,
    ansatz_coefficients,
    assemble_ansatz,
    build_basis,
    is_scalar_multiple,
    poly_to_latex,
)
from quasi3.linsys import rank
from quasi3.poly import S12, S23, Polynomial, elementary, parse_poly
from quasi3.quasi import is_quasiinvariant

GOLDEN_A1_M1 = "x1^4 - 2*x1^3*x2 - 2*x1^3*x3 + 6*x1^2*x2*x3"
GOLDEN_A2_M1 = "x1^5 - 5/3*x1^4*x2 - 5/3*x1^4*x3 + 10/3*x1^3*x2*x3"


def built(m):
    """The six element polynomials of build_basis(m), by name."""
    return {e.name: e.poly for e in build_basis(m, verify="degrees").elements}


def test_element_names_order():
    assert ELEMENT_NAMES == ("1", "A1", "s12(A1)", "A2", "s12(A2)", "Delta^(2m+1)")


def test_build_A1_m1_golden():
    assert built(1)["A1"] == parse_poly(GOLDEN_A1_M1)


def test_build_A2_m1_golden():
    assert built(1)["A2"] == parse_poly(GOLDEN_A2_M1)


def test_build_A1_m0_is_x1():
    by_name = built(0)
    assert by_name["A1"] == Polynomial.variable(1)
    assert by_name["A2"] == Polynomial.variable(1) ** 2


def test_ansatz_coefficients_golden_m1():
    labels, vec = ansatz_coefficients(1, 4)
    assert labels == ((0, 0), (1, 0), (1, 1))
    assert vec == (Fraction(1), Fraction(-2), Fraction(6))


def test_assemble_ansatz_matches_labels():
    labels, vec = ansatz_coefficients(1, 4)
    P = assemble_ansatz(4, labels, vec)
    assert P.coefficient((4, 0, 0)) == 1
    assert P.coefficient((3, 1, 0)) == -2
    assert P.coefficient((3, 0, 1)) == -2
    assert P.coefficient((2, 1, 1)) == 6


def test_ansatz_exponent_shape():
    # every term is x1^(d-i-j) x2^a x3^b with a, b <= m and a + b = i + j
    for m in (1, 2, 3):
        by_name = built(m)
        for name, d in (("A1", 3 * m + 1), ("A2", 3 * m + 2)):
            P = by_name[name]
            for (e1, e2, e3), _ in P.sorted_terms():
                assert e1 + e2 + e3 == d
                assert e2 <= m and e3 <= m
                assert e1 >= d - 2 * m


def test_is_scalar_multiple():
    p = parse_poly("2*x1 - 4*x2")
    assert is_scalar_multiple(p * Fraction(3, 7), p)
    assert is_scalar_multiple(Polynomial.zero(), p)
    assert not is_scalar_multiple(p, Polynomial.zero())
    assert not is_scalar_multiple(p, parse_poly("2*x1 - 3*x2"))
    assert not is_scalar_multiple(p, parse_poly("2*x1"))


def test_A2_is_not_a_multiple_of_e1_A1():
    for m in (0, 1, 2, 3):
        by_name = built(m)
        A1, A2 = by_name["A1"], by_name["A2"]
        prod = elementary(1) * A1
        assert not is_scalar_multiple(A2, prod)
        # and the structural reason: e1*A1 carries an x2 power above m
        if m:
            assert prod.coefficient((m + 1, m + 1, m)) != 0
            assert A2.coefficient((m + 1, m + 1, m)) == 0


def test_pair_spans_two_dimensions():
    for m in (1, 2):
        A1 = built(m)["A1"]
        B1 = A1.apply_perm(S12)
        exps = sorted(set(A1.terms) | set(B1.terms))
        rows = [
            [P.coefficient(e) for e in exps]
            for P in (A1, B1)
        ]
        assert rank(rows) == 2


def test_build_basis_m1_full():
    report = build_basis(1, verify="full")
    assert isinstance(report, BasisReport)
    assert report.passed
    assert [e.name for e in report.elements] == list(ELEMENT_NAMES)
    assert [e.degree for e in report.elements] == [0, 4, 4, 5, 5, 9]
    by_name = {e.name: e.poly for e in report.elements}
    assert by_name["A1"] == parse_poly(GOLDEN_A1_M1)
    assert by_name["s12(A1)"] == parse_poly(GOLDEN_A1_M1).apply_perm(S12)
    assert report.independence == {
        "pair_degree_3m+1": True,
        "pair_degree_3m+2": True,
        "delta_power": True,
    }
    assert report.coinvariant_det is None


def test_build_basis_m2_full_checks_independence():
    report = build_basis(2, verify="full")
    assert report.passed
    assert report.independence == {
        "pair_degree_3m+1": True,
        "pair_degree_3m+2": True,
        "delta_power": True,
    }
    by_name = {e.name: e.poly for e in report.elements}
    assert by_name["A1"] == parse_poly(GOLDEN_A1_M2)
    assert by_name["A2"] == parse_poly(GOLDEN_A2_M2)


def test_build_basis_m0_full_has_coinvariant_certificate():
    report = build_basis(0, verify="full")
    assert report.passed
    assert report.coinvariant_det == 6
    assert report.independence["coinvariant_det_nonzero"] is True
    assert [e.degree for e in report.elements] == [0, 1, 1, 2, 2, 3]


def test_build_basis_degrees_level_skips_quasi():
    report = build_basis(2, verify="degrees")
    assert report.degrees_ok
    assert all(e.quasi is None for e in report.elements)
    assert all(e.s23_invariant is None for e in report.elements)
    # the skipped checks still read as passing aggregates
    assert report.quasi_ok and report.s23_ok


def test_build_basis_skips_independence_beyond_budget():
    report = build_basis(3, verify="full", ideal_budget=2)
    assert report.independence["pair_degree_3m+1"] is None
    assert report.passed  # skipped checks do not fail the report


def test_build_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        build_basis(-1)
    with pytest.raises(ValueError):
        build_basis(1, verify="everything")


def test_elements_are_quasiinvariant_m2():
    report = build_basis(2, verify="quasi")
    for e in report.elements:
        assert is_quasiinvariant(e.poly, 2).is_quasiinvariant
    a1 = next(e.poly for e in report.elements if e.name == "A1")
    assert a1.apply_perm(S23) == a1


def test_latex_m1_golden():
    report = build_basis(1, verify="degrees")
    by_name = {e.name: e.poly for e in report.elements}
    assert poly_to_latex(by_name["1"]) == "1"
    assert (
        poly_to_latex(by_name["A1"])
        == "x_1^4 - 2x_1^3(x_2 + x_3) + 6x_1^2(x_2x_3)"
    )
    assert (
        poly_to_latex(by_name["A2"])
        == "x_1^5 - {5 \\over 3}x_1^4(x_2 + x_3) + {10 \\over 3}x_1^3(x_2x_3)"
    )


def test_latex_m2_groups_header():
    # m = 2 ansatz opens with the pure power and the grouped pair terms
    text = poly_to_latex(built(2)["A1"])
    assert text.startswith("x_1^7 - ")
    assert "(x_2 + x_3)" in text
    assert "(x_2x_3)" in text
    assert "(x_2^2x_3 + x_2x_3^2)" in text or "(x_2x_3^2 + x_2^2x_3)" in text
    assert "x_2^2x_3^2" in text


def test_latex_fallback_plain_monomials():
    p = parse_poly("x1^2*x2 - 3*x3")
    assert poly_to_latex(p) == "x_1^2x_2 - 3x_3"
