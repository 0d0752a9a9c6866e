from fractions import Fraction

import pytest

from quasi3 import acceptance, basis, linsys, quasi
from quasi3.acceptance import GOLDEN_A1_M2, GOLDEN_A2_M2
from quasi3.basis import (
    ELEMENT_NAMES,
    IDEAL_BUDGET,
    BasisReport,
    DegenerateSystemError,
    ansatz_coefficients,
    assemble_ansatz,
    build_basis,
    poly_to_latex,
)
from quasi3.linsys import MAX_ORDER, build_system, rank
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
            for e1, e2, e3 in P.nums:
                assert e1 + e2 + e3 == d
                assert e2 <= m and e3 <= m
                assert e1 >= d - 2 * m


def test_A2_is_not_a_multiple_of_e1_A1():
    # why build_basis needs no guard against A2 == c e1*A1
    for m in range(9):
        by_name = built(m)
        A1, A2 = by_name["A1"], by_name["A2"]
        assert all(e2 <= m and e3 <= m for _, e2, e3 in A2.nums)
        # at m = 0 the x1*x2 term
        assert (elementary(1) * A1).coefficient((m + 1, m + 1, m)) != 0
        # the premise: back-substitution keeps C[m, m] nonzero
        for d in (3 * m + 1, 3 * m + 2):
            labels, vec = ansatz_coefficients(m, d)
            assert vec[labels.index((m, m))] != 0


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
    report = build_basis(IDEAL_BUDGET + 1, verify="full")
    assert set(report.independence.values()) == {None}
    assert report.passed  # skipped checks do not fail the report


def test_build_basis_m3_full_certifies_independence():
    report = build_basis(3, verify="full")
    assert report.passed
    assert report.independence == {
        "pair_degree_3m+1": True,
        "pair_degree_3m+2": True,
        "delta_power": True,
    }


def counted_quasi_checks(monkeypatch):
    calls = []

    def counting(P, m):
        calls.append(m)
        return is_quasiinvariant(P, m)

    for module in (basis, quasi):
        monkeypatch.setattr(module, "is_quasiinvariant", counting)
    return calls


@pytest.mark.parametrize("m", [0, 1, 2])
def test_build_basis_full_checks_each_element_once(monkeypatch, m):
    calls = counted_quasi_checks(monkeypatch)
    assert build_basis(m, verify="full").passed
    assert calls == [m] * 6


def test_free_module_certificate_checks_its_own_premise(monkeypatch):
    b = [e.poly for e in build_basis(1, verify="degrees").elements]
    calls = counted_quasi_checks(monkeypatch)
    assert quasi.free_module_certificate(b, 1) == (True, True)
    assert calls == [1] * 6
    # a misplaced element ends the check before any divisibility search
    calls.clear()
    b[0] = b[1]
    assert quasi.free_module_certificate(b, 1) == (None, True)
    assert calls == []


def test_build_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        build_basis(-1)
    with pytest.raises(ValueError):
        build_basis(1, verify="everything")


def _patched_rows(edit):
    """build_system with edit(m, rows) applied to a copy of its rows."""

    def patched(m, d):
        sys = build_system(m, d)
        rows = [list(row) for row in sys.entries]
        edit(m, rows)
        return sys._replace(entries=tuple(map(tuple, rows)))

    return patched


def _zero_last_row(m, rows):
    # row (m, 1) lies in the final diagonal block f = m+1
    if rows:
        rows[-1] = [0] * len(rows[-1])


def _pin_leading_row(m, rows):
    # row (0, 2m-1) is block f = 1 alone: it now forces C[0, 0] = 0
    if rows:
        rows[0] = [1] + [0] * (len(rows[0]) - 1)


def _mark_left_of_final_block(m, rows):
    # column [0, 0] lies left of the final block in row (m, 1)
    if rows:
        rows[-1][0] = 1


def _perturb_unrestricted_row(m, rows):
    # row (0, 2m-3) is outside restrict_Bm for m >= 2
    if m >= 2:
        rows[1][0] += 1


@pytest.mark.parametrize(
    "edit, m, d, message",
    [
        pytest.param(
            # the zeroed row leaves a two-dimensional null space, which
            # the block route meets as a singular final block
            _zero_last_row, 1, 4,
            "diagonal block f=2 of system (m=1, d=4) is singular",
            id="nullity-two",
        ),
        pytest.param(
            _pin_leading_row, 1, 4,
            "null vector of system (m=1, d=4) could not be normalized "
            "to leading coordinate 1",
            id="zero-leading-coordinate",
        ),
        pytest.param(
            _mark_left_of_final_block, 1, 4,
            "row (k, l) = (1, 1) of system (m=1, d=4) is nonzero left of "
            "diagonal block f=2",
            id="nonzero-left-of-block",
        ),
        pytest.param(
            _perturb_unrestricted_row, 2, 7,
            "null vector of system (m=2, d=7) fails row (k, l) = (0, 1)",
            id="failed-row",
        ),
    ],
)
def test_ansatz_coefficients_is_the_one_refusal(monkeypatch, edit, m, d, message):
    monkeypatch.setattr(basis, "build_system", _patched_rows(edit))
    with pytest.raises(DegenerateSystemError) as refusal:
        ansatz_coefficients(m, d)
    assert str(refusal.value) == message
    # (m, d) is the first system criterion 3 reaches that the edit breaks,
    # so the criterion fails there with the same refusal
    result = acceptance.criterion_3()
    assert result.passed is False
    assert result.detail == message


def test_criterion_3_fails_when_the_nullspace_oracle_differs(monkeypatch):
    exact = linsys.nullspace
    monkeypatch.setattr(
        linsys, "nullspace", lambda sys: [] if sys.m == 4 else exact(sys)
    )
    result = acceptance.criterion_3()
    assert result.passed is False
    assert result.detail == "nullspace oracle differs at (m=4, d=13)"


def test_criterion_3_passes_unpatched():
    result = acceptance.criterion_3()
    assert result.passed is True
    assert result.detail == (
        "unique ansatz for m <= 16, equal to the nullspace oracle for m <= 6"
    )


def test_ansatz_coefficients_m0_and_max_order():
    # m = 0 has no rows: the vector is C[0, 0] = 1 alone
    assert ansatz_coefficients(0, 1) == (((0, 0),), (Fraction(1),))
    for d in (3 * MAX_ORDER + 1, 3 * MAX_ORDER + 2):
        labels, vec = ansatz_coefficients(MAX_ORDER, d)
        assert len(labels) == len(vec) == (MAX_ORDER + 1) * (MAX_ORDER + 2) // 2
        assert vec[0] == 1 and vec[-1] != 0


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
