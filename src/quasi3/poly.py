"""Sparse exact polynomials in x1, x2, x3 and the S3 action on them.

A polynomial is integer-native: a positive common denominator den and a
dict nums from exponent triples (a, b, c) to nonzero int numerators, the
coefficient of x1^a x2^b x3^c being nums[(a, b, c)] / den, in the
canonical form gcd(den, every numerator) = 1.  terms is the public
Fraction view of the same coefficients.  Every writer (text, LaTeX, JSON)
reads json_terms: the terms in canonical order, graded lexicographic,
highest first, each with its coefficient text in lowest terms.

The sparse rational arithmetic lives in the base class Combination,
shared with group_ops.GroupAlgebraElement; each subclass checks its own
keys and defines its own product.  The readers (parse_poly,
Polynomial.from_json_obj) and the kernels work on the numerators and
hand them to the trusted constructor _reduced, which checks no key;
the public constructor takes only int and Fraction coefficients.

Permutations are image tuples (sigma(1), sigma(2), sigma(3)).  A
permutation acts on polynomials by substituting x_i -> x_{sigma(i)}, so
the operator product is composition: (compose(s, t))(P) = s(t(P)).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm

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
    return (-1) ** sum(sigma[a] > sigma[b] for a in range(3) for b in range(a + 1, 3))


def term_key(exp: Exponent):
    """Sort key for graded lex order (ascending; reverse for canonical)."""
    return (sum(exp), exp)


def _check_exponent(exp) -> Exponent:
    exp = tuple(exp)
    if len(exp) != 3 or any(type(e) is not int or e < 0 for e in exp):
        raise ValueError(f"bad exponent triple: {exp!r}")
    return exp


def _is_exact(value) -> bool:
    """An int but not a bool, or a Fraction: what a coefficient may be."""
    return type(value) is int or isinstance(value, Fraction)


class Combination:
    """Immutable sparse rational combination, integer-native: a positive
    common denominator den and a dict nums from keys to nonzero int
    numerators, the coefficient of a key being nums[key] / den.  The form
    is canonical, gcd(den, every numerator) = 1, so equal combinations
    have equal (den, nums) and == and hash compare those.  Subclasses
    define _check_key and their own product.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms=None):
        """From a mapping of keys to int or Fraction coefficients; zero
        coefficients are dropped, the other keys checked.  Any other
        coefficient, a float, str, Decimal or bool among them, is refused."""
        clean = {}
        for key, coeff in dict(terms or ()).items():
            if not _is_exact(coeff):
                raise ValueError(f"coefficient {coeff!r} of {key!r} is not an int or Fraction")
            if coeff:
                clean[self._check_key(key)] = coeff
        # over the lcm of lowest-terms denominators the gcd is already 1
        den = lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "den", den)
        object.__setattr__(
            self, "nums", {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        )

    @classmethod
    def _reduced(cls, den, nums):
        """The trusted constructor, from int numerators of checked keys over
        den > 0: drops the zeros and divides out gcd(den, numerators)."""
        if not all(nums.values()):
            nums = {k: v for k, v in nums.items() if v}
        if den > 1:
            g = gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict:
        """A new dict from each key to its nonzero Fraction coefficient."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.nums.items()}

    @classmethod
    def _coerce(cls, value):
        return value if isinstance(value, cls) else NotImplemented

    @classmethod
    def zero(cls):
        return cls._reduced(1, {})

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        scale = den // other.den
        out = {k: v * (den // self.den) for k, v in self.nums.items()}
        for key, num in other.nums.items():
            out[key] = out.get(key, 0) + num * scale
        return self._reduced(den, out)

    __radd__ = __add__

    def __neg__(self):
        return self._reduced(self.den, {k: -v for k, v in self.nums.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + -self

    def __mul__(self, other):
        """Scaling by an int or Fraction; subclasses add their product."""
        if _is_exact(other):
            num = other.numerator
            return self._reduced(
                self.den * other.denominator, {k: v * num for k, v in self.nums.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))


class Polynomial(Combination):
    """Immutable sparse polynomial over the rationals in x1, x2, x3."""

    __slots__ = ()

    _check_key = staticmethod(_check_exponent)

    @classmethod
    def _coerce(cls, value):
        if _is_exact(value):
            return cls.constant(value)
        return super()._coerce(value)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2, or 3")
        return cls.monomial([int(i == k) for k in (1, 2, 3)])

    @classmethod
    def monomial(cls, exp) -> "Polynomial":
        return cls({tuple(exp): 1})

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(map(sum, self.nums), default=None)

    def var_degree(self, i: int) -> int:
        """Largest exponent of x_i appearing (0 for the zero polynomial)."""
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2, or 3")
        return max((e[i - 1] for e in self.nums), default=0)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.nums))) <= 1

    def coefficient(self, exp) -> Fraction:
        return Fraction(self.nums.get(tuple(exp), 0), self.den)

    def apply_perm(self, sigma: Permutation) -> "Polynomial":
        """Substitute x_i -> x_{sigma(i)} in every monomial."""
        # the exponent at position p moves to sigma(p): q reads it from sigma.index(q)
        i, j, k = (sigma.index(q) for q in (1, 2, 3))
        return Polynomial._reduced(
            self.den, {(e[i], e[j], e[k]): v for e, v in self.nums.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return super().__mul__(other)
        # convolve the numerators; the denominators multiply
        right = list(other.nums.items())
        out = {}
        for (a1, b1, c1), n1 in self.nums.items():
            for (a2, b2, c2), n2 in right:
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0) + n1 * n2
        return Polynomial._reduced(self.den * other.den, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = Polynomial.constant(1), self
        while n:
            if n & 1:
                result = result * base
            base, n = base * base, n >> 1
        return result

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"

    def json_terms(self):
        """(exponent, coefficient text) in canonical order, the text "num"
        or "num/den" in lowest terms as str(Fraction) writes it."""
        den, nums = self.den, self.nums
        for exp in sorted(nums, key=term_key, reverse=True):
            num = nums[exp]
            g = gcd(num, den)
            yield exp, str(num // g) if g == den else f"{num // g}/{den // g}"

    def to_json_obj(self):
        """List of {"e": [a, b, c], "c": "num/den"} in canonical order."""
        return [{"e": list(exp), "c": c} for exp, c in self.json_terms()]

    @classmethod
    def from_json_obj(cls, obj) -> "Polynomial":
        if not isinstance(obj, list):
            raise ValueError("polynomial JSON must be a list of terms")
        den, out, negative = 1, {}, False
        for index, item in enumerate(obj):
            if not isinstance(item, dict) or item.keys() != _TERM_KEYS:
                raise ValueError(f"bad term object: {_term_repr(index, item)}")
            e, c = item["e"], item["c"]
            # JSON true/false load as bool, a subclass of int
            if not (
                isinstance(e, list)
                and len(e) == 3
                and type(e[0]) is type(e[1]) is type(e[2]) is int
                and isinstance(c, str)
            ):
                raise ValueError(
                    f'term needs three integers "e" and a string "c": {_term_repr(index, item)}'
                )
            m = _RATIONAL_RE.match(c)
            if m is None:
                raise ValueError(f"not an exact rational: {c.strip()!r}")
            num, d = m.groups()
            num = int(num)
            if d is None:
                num *= den
            else:
                d = int(d)
                if not d:
                    raise ValueError(f"zero denominator: {c.strip()!r}")
                if den % d:
                    den, out = _widened(den, d, out)
                num *= den // d
            exp = (e[0], e[1], e[2])
            if exp in out:
                raise ValueError(f"duplicate exponent {exp} in polynomial JSON")
            out[exp] = num
            negative = negative or e[0] < 0 or e[1] < 0 or e[2] < 0
        P = cls._reduced(den, out)
        if negative:  # named after every other error, on nonzero terms only
            for exp in P.nums:
                _check_exponent(exp)
        return P


_TERM_KEYS = frozenset(("e", "c"))
# Longest repr of a bad JSON term an error message shows in full
TERM_REPR_CAP = 100
# "num" or "num/den" between whitespace; no underscores, floats or signed den
_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*\Z")


def _term_repr(index, item) -> str:
    """repr(item), or its first TERM_REPR_CAP characters and the term's index."""
    text = repr(item)
    if len(text) > TERM_REPR_CAP:
        text = f"{text[:TERM_REPR_CAP]}... (term {index}, {len(text)} characters)"
    return text


def _widened(den: int, d: int, nums: dict):
    """(lcm(den, d), nums rescaled to it), for a reader's term over d."""
    wide = lcm(den, d)
    scale = wide // den
    return wide, {k: v * scale for k, v in nums.items()}


def elementary(k: int) -> Polynomial:
    """Elementary symmetric polynomial e_k in x1, x2, x3."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    return Polynomial(dict.fromkeys(permutations((1,) * k + (0,) * (3 - k)), 1))


def vandermonde() -> Polynomial:
    """(x1 - x2)(x1 - x3)(x2 - x3)."""
    return vandermonde_power(1)


def vandermonde_power(p: int) -> Polynomial:
    """Delta^p as the product of the binomial expansions of (x_i - x_j)^p."""
    if not isinstance(p, int) or p < 0:
        raise ValueError("exponent must be a nonnegative integer")
    terms = {(p - k, k, 0): (-1) ** k * comb(p, k) for k in range(p + 1)}
    x12 = Polynomial._reduced(1, terms)
    # x2 -> x3 makes (x1 - x3)^p of it, and x1 -> x2, x2 -> x3 makes (x2 - x3)^p
    return x12 * x12.apply_perm(S23) * x12.apply_perm((2, 3, 1))


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
    den, out = 1, {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"bad term {chunk!r} in polynomial: {text!r}")
        # a chunk holds more than its sign, so a match has a number or a factor
        sign, num, d, x1, e1, x2, e2, x3, e3, rest = m.groups()
        coeff = int(sign + (num or "1"))
        if d is None:
            coeff *= den
        else:
            over = int(d)
            if not over:
                raise ValueError(f"zero denominator: '{num}/{d}'")
            if den % over:
                den, out = _widened(den, over, out)
            coeff *= den // over
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
    return Polynomial._reduced(den, out)


def format_poly(P: Polynomial) -> str:
    """Canonical plain-text form; parse_poly(format_poly(P)) == P."""
    parts = []
    for exp, coeff in P.json_terms():
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exp, 1) if e]
        lead, mag = ("- ", coeff[1:]) if coeff[0] == "-" else ("+ ", coeff)
        if mag != "1" or not factors:
            factors.insert(0, mag)
        parts.append(lead + "*".join(factors))
    text = " ".join(parts)  # "+ x1 - 2*x2": the first sign loses its space
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]
