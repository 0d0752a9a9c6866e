"""Sparse exact polynomials in x1, x2, x3 and the S3 action on them.

A polynomial is a mapping from exponent triples (a, b, c) to nonzero
Fraction coefficients.  The canonical term order used for serialization
and normalization is graded lexicographic, highest first.

The sparse rational arithmetic lives in the base class Combination,
shared with group_ops.GroupAlgebraElement; each subclass checks its own
keys and defines its own product.

Permutations are image tuples (sigma(1), sigma(2), sigma(3)).  A
permutation acts on polynomials by substituting x_i -> x_{sigma(i)}, so
the operator product is composition: (compose(s, t))(P) = s(t(P)).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .arith import integer_scaled, rational_from_str, rational_to_str

Exponent = tuple  # (a, b, c), nonnegative ints
Permutation = tuple  # (sigma(1), sigma(2), sigma(3))

IDENTITY: Permutation = (1, 2, 3)
S12: Permutation = (2, 1, 3)
S13: Permutation = (3, 2, 1)
S23: Permutation = (1, 3, 2)
ALL_PERMS: tuple = ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2))
TRANSPOSITIONS = {(1, 2): S12, (1, 3): S13, (2, 3): S23}


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Operator product: apply tau first, then sigma."""
    return tuple(sigma[tau[i] - 1] for i in range(3))


def sign(sigma: Permutation) -> int:
    inv = sum(
        1
        for a in range(3)
        for b in range(a + 1, 3)
        if sigma[a] > sigma[b]
    )
    return -1 if inv % 2 else 1


def term_key(exp: Exponent):
    """Sort key for graded lex order (ascending; reverse for canonical)."""
    return (sum(exp), exp)


def _check_exponent(exp) -> Exponent:
    # fast path: a tuple of three non-negative ints, as products and parsing make
    if type(exp) is tuple and len(exp) == 3:
        a, b, c = exp
        if type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 0:
            return exp
    exp = tuple(exp)
    if len(exp) != 3 or any(type(e) is not int or e < 0 for e in exp):
        raise ValueError(f"bad exponent triple: {exp!r}")
    return exp


class Combination:
    """Immutable sparse rational combination: a dict from keys to nonzero
    Fractions.  Subclasses define _check_key and their own product; zero
    coefficients are dropped here, in the constructor, only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in dict(terms).items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    clean[self._check_key(key)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _coerce(cls, value):
        return value if isinstance(value, cls) else NotImplemented

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + -self

    def __mul__(self, other):
        """Scaling by an int or Fraction; subclasses add their product."""
        if isinstance(other, (int, Fraction)):
            return type(self)({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Polynomial(Combination):
    """Immutable sparse polynomial over the rationals in x1, x2, x3."""

    __slots__ = ()

    _check_key = staticmethod(_check_exponent)

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, (int, Fraction)):
            return cls.constant(value)
        return super()._coerce(value)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(0, 0, 0): Fraction(c)})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2, or 3")
        exp = [0, 0, 0]
        exp[i - 1] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def monomial(cls, exp) -> "Polynomial":
        return cls({tuple(exp): 1})

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def var_degree(self, i: int) -> int:
        """Largest exponent of x_i appearing (0 for the zero polynomial)."""
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2, or 3")
        return max((e[i - 1] for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def sorted_terms(self):
        """Terms in canonical order: graded lex, highest first."""
        return sorted(self.terms.items(), key=lambda t: term_key(t[0]), reverse=True)

    def apply_perm(self, sigma: Permutation) -> "Polynomial":
        """Substitute x_i -> x_{sigma(i)} in every monomial."""
        out = {}
        for exp, coeff in self.terms.items():
            moved = [0, 0, 0]
            for pos in range(3):
                moved[sigma[pos] - 1] = exp[pos]
            out[tuple(moved)] = coeff
        return Polynomial(out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return super().__mul__(other)
        # convolve integer numerators; one Fraction per output term
        den1, nums1 = integer_scaled(self.terms.values())
        den2, nums2 = integer_scaled(other.terms.values())
        right = list(zip(other.terms, nums2))
        out = {}
        for (a1, b1, c1), n1 in zip(self.terms, nums1):
            for (a2, b2, c2), n2 in right:
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0) + n1 * n2
        den = den1 * den2
        return Polynomial({key: Fraction(v, den) for key, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"

    def to_json_obj(self):
        """List of {"e": [a, b, c], "c": "num/den"} in canonical order."""
        # str of a Fraction is "num" or "num/den", as rational_to_str writes
        return [{"e": list(exp), "c": str(coeff)} for exp, coeff in self.sorted_terms()]

    @classmethod
    def from_json_obj(cls, obj) -> "Polynomial":
        if not isinstance(obj, list):
            raise ValueError("polynomial JSON must be a list of terms")
        out = {}
        for item in obj:
            # the common case in exact type tests; _check_json_term raises
            if not (type(item) is dict and item.keys() == _TERM_KEYS):
                _check_json_term(item)
            e, c = item["e"], item["c"]
            if not (
                type(e) is list
                and len(e) == 3
                and type(e[0]) is type(e[1]) is type(e[2]) is int
                and type(c) is str
            ):
                _check_json_term(item)
            exp = tuple(e)  # the constructor checks the signs
            coeff = rational_from_str(c)
            if exp in out:
                raise ValueError(f"duplicate exponent {exp} in polynomial JSON")
            out[exp] = coeff
        return cls(out)


_TERM_KEYS = frozenset(("e", "c"))


def _check_json_term(item):
    """Raise the error a bad JSON term object deserves; pass a good one."""
    if not isinstance(item, dict) or set(item) != _TERM_KEYS:
        raise ValueError(f"bad term object: {item!r}")
    e, c = item["e"], item["c"]
    # JSON true/false load as bool, a subclass of int
    if not (
        isinstance(e, list)
        and len(e) == 3
        and all(type(k) is int for k in e)
        and isinstance(c, str)
    ):
        raise ValueError(f'term needs three integers "e" and a string "c": {item!r}')


def elementary(k: int) -> Polynomial:
    """Elementary symmetric polynomial e_k in x1, x2, x3."""
    if k == 1:
        return Polynomial({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    if k == 2:
        return Polynomial({(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    if k == 3:
        return Polynomial.monomial((1, 1, 1))
    raise ValueError("k must be 1, 2, or 3")


def vandermonde() -> Polynomial:
    """(x1 - x2)(x1 - x3)(x2 - x3)."""
    x1, x2, x3 = (Polynomial.variable(i) for i in (1, 2, 3))
    return (x1 - x2) * (x1 - x3) * (x2 - x3)


def vandermonde_power(p: int) -> Polynomial:
    """Delta^p as the product of the binomial expansions of (x_i - x_j)^p."""
    if not isinstance(p, int) or p < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Polynomial.constant(1)
    for i, j in TRANSPOSITIONS:
        terms = {}
        for k in range(p + 1):
            exp = [0, 0, 0]
            exp[i - 1], exp[j - 1] = p - k, k
            terms[tuple(exp)] = (-1) ** k * comb(p, k)
        result = result * Polynomial(terms)
    return result


# --- plain-text format ----------------------------------------------------
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := coeff | coeff '*'? factors | factors
# coeff  := int | int '/' int
# factor := 'x' ('1'|'2'|'3') ['^' int]
#
# Whitespace is ignored; '*' between factors is optional.

# One anchored match reads a term: sign, numerator, denominator, the
# factors x1, x2, x3 in that order (each a name group and an exponent
# group), and last any further factors, which only repeated or
# out-of-order factors such as x3*x1^2*x1 need.
_TERM_RE = re.compile(
    r"([+-]?)(?:(\d+)(?:/(\d+))?)?"
    r"(?:\*?(x1)(?:\^(\d+))?)?(?:\*?(x2)(?:\^(\d+))?)?(?:\*?(x3)(?:\^(\d+))?)?"
    r"((?:\*?x[123](?:\^\d+)?)*)\Z"
)
_FACTOR_RE = re.compile(r"x([123])(?:\^(\d+))?")


def parse_poly(text: str) -> Polynomial:
    """Parse the plain-text polynomial grammar (see module docstring)."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty polynomial expression")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot tokenize polynomial: {text!r}")
    out = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"bad term {chunk!r} in polynomial: {text!r}")
        # a chunk holds more than its sign, so a match has a number or a factor
        sign, num, den, x1, e1, x2, e2, x3, e3, rest = m.groups()
        if den is None:
            coeff = int(sign + (num or "1"))  # the constructor makes the Fraction
        else:
            try:
                coeff = Fraction(int(sign + num), int(den))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: '{num}/{den}'") from None
        key = (
            int(e1) if e1 else 1 if x1 else 0,
            int(e2) if e2 else 1 if x2 else 0,
            int(e3) if e3 else 1 if x3 else 0,
        )
        if rest:
            exp = list(key)
            for fm in _FACTOR_RE.finditer(rest):
                exp[int(fm.group(1)) - 1] += int(fm.group(2) or 1)
            key = tuple(exp)
        out[key] = out[key] + coeff if key in out else coeff
    return Polynomial(out)


def _format_term(exp: Exponent, coeff: Fraction) -> str:
    factors = []
    for idx, e in enumerate(exp):
        if e == 1:
            factors.append(f"x{idx + 1}")
        elif e > 1:
            factors.append(f"x{idx + 1}^{e}")
    mag = abs(coeff)
    if not factors:
        return rational_to_str(mag)
    body = "*".join(factors)
    if mag == 1:
        return body
    return f"{rational_to_str(mag)}*{body}"


def format_poly(P: Polynomial) -> str:
    """Canonical plain-text form; parse_poly(format_poly(P)) == P."""
    if P.is_zero():
        return "0"
    parts = []
    for pos, (exp, coeff) in enumerate(P.sorted_terms()):
        text = _format_term(exp, coeff)
        if pos == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)
