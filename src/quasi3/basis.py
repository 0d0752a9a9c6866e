"""Construction of the six-element quotient basis and its verification.

For order m the basis is (1, A1, s12 A1, A2, s12 A2, Delta^(2m+1)) where
A1, A2 are the degree 3m+1 and 3m+2 quasiinvariants assembled from the
null vectors of the coefficient systems and Delta is the Vandermonde
determinant.  ansatz_coefficients solves each system the paper's way,
by back-substitution through the diagonal blocks of restrict_Bm, and is
the one place that refuses a system that does not determine the ansatz;
linsys.nullspace (Gauss-Jordan on the full system) is the oracle that
selftest criterion 3 compares it with.  build_basis returns a
report carrying every element, the raw null vectors, and the
verification verdicts that were requested:

* "degrees": element degrees match (0, 3m+1, 3m+1, 3m+2, 3m+2, 6m+3).
* "quasi": plus quasiinvariance of every element and s23-invariance of
  A1 and A2.
* "full": plus linear independence modulo the ideal part (only for
  m <= IDEAL_BUDGET), and for m = 0 the coinvariant determinant
  certificate.  All three verdicts come from quasi.certify_free_module,
  given the element reports: the six elements span a free module over
  the symmetric polynomials, which fills QI_m below degree 3m+2, and no
  antisymmetric quasiinvariant lies in the three degrees below 6m+3.
  It solves no ideal part; quasi.independent_modulo_ideal, which solves
  the ideal part on the full graded slices, stays as the cross-check in
  selftest criterion 6 for all three.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from .arith import integer_scaled
from .linsys import _eliminate, build_system, det_exact
from .poly import Polynomial, S12, S23, vandermonde_power
from .quasi import (
    certify_free_module,
    coinvariant_nf,
    is_quasiinvariant,
    quotient_degrees,
)

ELEMENT_NAMES = ("1", "A1", "s12(A1)", "A2", "s12(A2)", "Delta^(2m+1)")

# Largest m whose independence modulo the ideal part is certified: the
# exact ranks behind the certificate grow quickly with m, mostly the
# antisymmetric slices of degree 6m..6m+2.  On a 2-vCPU host with
# Python 3.11.7, `basis --m 8 --verify full` took 3.6-4.2 s and m = 9,
# with the budget raised to 9, took 8.9-12.4 s (six fresh processes
# each; the host's speed drifted between them).  Above it the verdicts
# read None (skipped); changing it changes the CLI verdicts.
IDEAL_BUDGET = 8


class DegenerateSystemError(RuntimeError):
    """The coefficient system failed to determine a unique ansatz."""


def ansatz_coefficients(m: int, d: int):
    """Labels and normalized null vector of the degree-d system, solved
    by block back-substitution on restrict_Bm.

    C[m, m] = 1, and its column is the right-hand side.  The diagonal
    blocks f = m+1 down to 1 (block f: rows k = f-1, the first min(f, m)
    of them, and the columns from f(f-1)/2 on, the same in the full and
    the restricted system) are each solved by one exact _eliminate of
    the block beside its right-hand side, after subtracting the columns
    already solved.  The coordinates are kept as integers over a common
    denominator.  Every block having full rank makes the square
    restricted matrix, block upper triangular, nonsingular: a null
    vector with C[m, m] = 0 is 0, so the nullity is at most 1, and the
    vector found, checked against every row of the full system, makes it
    exactly 1.  m = 0 has no rows and gives (1,).

    The one refusal of a degenerate ansatz: raises DegenerateSystemError
    for a singular block, a nonzero entry left of a block in its rows, a
    row of the full system the vector fails, or a zero leading ([0, 0])
    coordinate.  No vector is returned in those cases.
    """
    sys = build_system(m, d)
    entries = sys.entries
    x = [0] * (len(sys.cols) - 1) + [1]
    for f in range(m + 1, 0, -1):
        size, start, first = min(f, m), f * (f - 1) // 2, (f - 1) * m
        augmented = []
        for r in range(first, first + size):
            row = entries[r]
            if any(row[:start]):
                raise DegenerateSystemError(
                    f"row (k, l) = {sys.rows[r]} of system (m={m}, d={d}) "
                    f"is nonzero left of diagonal block f={f}"
                )
            # x is still 0 left of the solved columns
            augmented.append(row[start:start + size] + (-sum(map(mul, row, x)),))
        rows, pivots = _eliminate(augmented, reduced=True)[:2]
        if pivots != list(range(size)):
            raise DegenerateSystemError(
                f"diagonal block f={f} of system (m={m}, d={d}) is singular"
            )
        # row p of the reduced rows reads row[p] * x[start + p] = row[size]
        scale = lcm(*[row[p] for p, row in enumerate(rows)])
        if scale > 1:
            x = [v * scale for v in x]
        for p, row in enumerate(rows):
            x[start + p] = row[size] * (scale // row[p])
    for label, row in zip(sys.rows, entries):
        if sum(map(mul, row, x)):
            raise DegenerateSystemError(
                f"null vector of system (m={m}, d={d}) fails row (k, l) = {label}"
            )
    if not x[0]:
        raise DegenerateSystemError(
            f"null vector of system (m={m}, d={d}) could not be normalized "
            "to leading coordinate 1"
        )
    return sys.cols, tuple([Fraction(v, x[0]) for v in x])


def assemble_ansatz(d: int, labels, vec) -> Polynomial:
    """Sum of C_[i,j] x1^(d-i-j) m_[i,j](x2, x3), m_[i,j] = x2^i x3^j +
    x2^j x3^i (one term when i == j)."""
    den, nums = integer_scaled(vec)
    terms = {}
    for (i, j), num in zip(labels, nums):
        terms[(d - i - j, i, j)] = terms[(d - i - j, j, i)] = num
    return Polynomial._reduced(den, terms)


class BasisElement(namedtuple(
    "BasisElement", "name poly degree expected_degree quasi s23_invariant"
)):
    """quasi is a QuasiReport, or None when not requested; s23_invariant a
    bool, or None when not applicable or not requested."""

    __slots__ = ()


class BasisReport(namedtuple(
    "BasisReport", "m verify elements null_vector_a1 null_vector_a2 independence coinvariant_det"
)):
    """Six BasisElement entries in ELEMENT_NAMES order; null vectors as
    (labels, coefficients); independence: check name -> bool, None if skipped;
    coinvariant_det: a Fraction for m == 0 full checks, else None."""

    __slots__ = ()

    @property
    def degrees_ok(self) -> bool:
        return all(e.degree == e.expected_degree for e in self.elements)

    @property
    def quasi_ok(self) -> bool:
        return all(
            e.quasi.is_quasiinvariant
            for e in self.elements
            if e.quasi is not None
        )

    @property
    def s23_ok(self) -> bool:
        return all(
            e.s23_invariant
            for e in self.elements
            if e.s23_invariant is not None
        )

    @property
    def passed(self) -> bool:
        independence_ok = all(
            v for v in self.independence.values() if v is not None
        )
        return self.degrees_ok and self.quasi_ok and self.s23_ok and independence_ok


VERIFY_LEVELS = ("degrees", "quasi", "full")


def build_basis(m: int, verify: str = "full") -> BasisReport:
    """Construct the six elements and verify them at the requested level.

    Independence is certified only for m <= IDEAL_BUDGET; above that the
    verdicts are recorded as None (skipped), never silently passed, and a
    certificate step that does not close reads None too, never False.
    """
    if verify not in VERIFY_LEVELS:
        raise ValueError(f"verify must be one of {VERIFY_LEVELS}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    labels1, vec1 = ansatz_coefficients(m, 3 * m + 1)
    labels2, vec2 = ansatz_coefficients(m, 3 * m + 2)
    A1 = assemble_ansatz(3 * m + 1, labels1, vec1)
    A2 = assemble_ansatz(3 * m + 2, labels2, vec2)
    # A2 is never a multiple of e1*A1: A2's x2, x3 exponents are <= m, and
    # e1*A1 has x1^(m+1) x2^(m+1) x3^m with coefficient C1[m, m] != 0
    delta_power = vandermonde_power(2 * m + 1)
    polys = (
        Polynomial.constant(1),
        A1,
        A1.apply_perm(S12),
        A2,
        A2.apply_perm(S12),
        delta_power,
    )
    expected = quotient_degrees(m)
    elements = []
    for name, P, want in zip(ELEMENT_NAMES, polys, expected):
        quasi = is_quasiinvariant(P, m) if verify in ("quasi", "full") else None
        s23 = None
        if verify in ("quasi", "full") and name in ("A1", "A2"):
            s23 = P.apply_perm(S23) == P
        deg = P.degree()
        elements.append(
            BasisElement(
                name=name,
                poly=P,
                degree=0 if deg is None else deg,
                expected_degree=want,
                quasi=quasi,
                s23_invariant=s23,
            )
        )

    independence = {
        "pair_degree_3m+1": None,
        "pair_degree_3m+2": None,
        "delta_power": None,
    }
    coinv_det = None
    if verify == "full" and m <= IDEAL_BUDGET:
        pairs, delta = certify_free_module(polys, m, [e.quasi for e in elements])
        independence["pair_degree_3m+1"] = independence["pair_degree_3m+2"] = pairs
        independence["delta_power"] = delta
        if m == 0:
            rows = [coinvariant_nf(P) for P in polys]
            coinv_det = det_exact(rows)
            independence["coinvariant_det_nonzero"] = coinv_det != 0

    return BasisReport(
        m=m,
        verify=verify,
        elements=tuple(elements),
        null_vector_a1=(labels1, vec1),
        null_vector_a2=(labels2, vec2),
        independence=independence,
        coinvariant_det=coinv_det,
    )


# --- display ---------------------------------------------------------------


def _latex_monomial(exp) -> str:
    parts = []
    for idx, e in enumerate(exp):
        if e == 1:
            parts.append(f"x_{idx + 1}")
        elif e > 1:
            parts.append(f"x_{idx + 1}^{e}" if e < 10 else f"x_{idx + 1}^{{{e}}}")
    return "".join(parts)


def _latex_coeff_prefix(coeff: str, leading: bool) -> str:
    """A json_terms coefficient text's sign, then its magnitude unless 1."""
    mag = coeff.lstrip("-")
    sign = "-" if mag != coeff else ("" if leading else "+")
    num, slash, den = mag.partition("/")
    body = "" if mag == "1" else ("{%s \\over %s}" % (num, den) if slash else num)
    return sign + (" " if sign and not leading else "") + body


def _sym_groups(P: Polynomial):
    """Split an s23-invariant polynomial into x1-power times m_[i,j] pieces.

    Returns (x1 power, i, j, coefficient text) tuples, by descending x1
    power then ascending (i, j); None when P is not s23-invariant.
    """
    if P.apply_perm(S23) != P:
        return None
    # one exponent per s23 orbit {(a, b, c), (a, c, b)}: the one with b >= c
    groups = [(a, b, c, coeff) for (a, b, c), coeff in P.json_terms() if b >= c]
    groups.sort(key=lambda g: (-g[0], g[1], g[2]))
    return groups


def poly_to_latex(P: Polynomial) -> str:
    """LaTeX form: grouped ansatz style when s23-invariant, else monomials."""
    if P.is_zero():
        return "0"
    groups = _sym_groups(P)
    parts = []
    if groups is not None:
        for pos, (a, i, j, coeff) in enumerate(groups):
            prefix = _latex_coeff_prefix(coeff, pos == 0)
            x1 = _latex_monomial((a, 0, 0))
            if i == j == 0:
                body = x1 or "1"
            elif i == j == 1:
                body = f"{x1}(x_2x_3)"
            elif i == j:
                body = x1 + _latex_monomial((0, i, i))
            else:
                body = f"{x1}({_latex_monomial((0, i, j))} + {_latex_monomial((0, j, i))})"
            parts.append(prefix + body)
        return " ".join(parts)
    for pos, (exp, coeff) in enumerate(P.json_terms()):
        prefix = _latex_coeff_prefix(coeff, pos == 0)
        body = _latex_monomial(exp) or "1"
        parts.append(prefix + body)
    return " ".join(parts)
