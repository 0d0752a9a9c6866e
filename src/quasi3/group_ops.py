"""The group algebra of S3 acting on polynomials.

Elements are formal rational combinations of the six permutations: a
poly.Combination keyed by permutation, int numerators over one common
denominator, so sums, scaling, equality and hashing are the ones
Polynomial uses.  The product is convolution of the numerators, matching
operator composition on polynomials: (g * h)(P) = g(h(P)).
The four named elements are

    S3sym = (1/6) sum_sigma sigma
    S3alt = (1/6) sum_sigma sgn(sigma) sigma
    pi1   = (1/3) (1 + s23)(1 - s12)
    pi2   = (1/3) (1 + s12)(1 - s23)

and the identities they satisfy (idempotence, mutual annihilation, the
resolution of the identity, s23 pi1 = pi1, pi2 s12 pi1 = -s13 pi1) are
verified both at the element level and on sample polynomials.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .poly import (
    ALL_PERMS,
    IDENTITY,
    S12,
    S13,
    S23,
    Combination,
    Polynomial,
    compose,
    sign,
)


def _check_perm(perm):
    perm = tuple(perm)
    if sorted(perm) != [1, 2, 3]:
        raise ValueError(f"not a permutation of (1,2,3): {perm!r}")
    return perm


class GroupAlgebraElement(Combination):
    """A rational combination of the six permutations of S3."""

    __slots__ = ()

    _check_key = staticmethod(_check_perm)

    @classmethod
    def from_perm(cls, perm, coeff=1) -> "GroupAlgebraElement":
        return cls({tuple(perm): coeff})

    @classmethod
    def one(cls) -> "GroupAlgebraElement":
        return cls({IDENTITY: 1})

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return super().__mul__(other)
        out = {}
        for p1, n1 in self.nums.items():
            for p2, n2 in other.nums.items():
                key = compose(p1, p2)
                out[key] = out.get(key, 0) + n1 * n2
        return GroupAlgebraElement._reduced(self.den * other.den, out)

    def __repr__(self):
        if not self.terms:
            return "GroupAlgebraElement(0)"
        parts = [f"{c}*{p}" for p, c in sorted(self.terms.items())]
        return f"GroupAlgebraElement({' + '.join(parts)})"

    def apply(self, P: Polynomial) -> Polynomial:
        """Act on a polynomial: sum of coeff * (permuted P), as numerators
        over self.den * P.den."""
        out = {}
        for perm, c in self.nums.items():
            for key, num in P.apply_perm(perm).nums.items():
                out[key] = out.get(key, 0) + c * num
        return Polynomial._reduced(self.den * P.den, out)


def make_element(name: str) -> GroupAlgebraElement:
    """Build one of the four named elements: S3sym, S3alt, pi1, pi2."""
    one = GroupAlgebraElement.one()
    s12 = GroupAlgebraElement.from_perm(S12)
    s23 = GroupAlgebraElement.from_perm(S23)
    if name == "S3sym":
        return GroupAlgebraElement({p: Fraction(1, 6) for p in ALL_PERMS})
    if name == "S3alt":
        return GroupAlgebraElement(
            {p: Fraction(sign(p), 6) for p in ALL_PERMS}
        )
    if name == "pi1":
        return (one + s23) * (one - s12) * Fraction(1, 3)
    if name == "pi2":
        return (one + s12) * (one - s23) * Fraction(1, 3)
    raise ValueError(f"unknown element name: {name!r}")


ELEMENT_NAMES = ("S3sym", "S3alt", "pi1", "pi2")


# Each identity is (label, lhs, rhs).  A side is a signed sum of words; a
# word names its factors left to right and acts right to left, "" is 1
# and an empty side is 0.
IDENTITIES = (
    ("pi1 idempotent", ((1, "pi1 pi1"),), ((1, "pi1"),)),
    ("pi2 idempotent", ((1, "pi2 pi2"),), ((1, "pi2"),)),
    ("S3alt pi1 = 0", ((1, "S3alt pi1"),), ()),
    ("pi1 pi2 = 0", ((1, "pi1 pi2"),), ()),
    ("pi2 pi1 = 0", ((1, "pi2 pi1"),), ()),
    (
        "S3sym + pi1 + pi2 + S3alt = 1",
        ((1, "S3sym"), (1, "pi1"), (1, "pi2"), (1, "S3alt")),
        ((1, ""),),
    ),
    ("s23 pi1 = pi1", ((1, "s23 pi1"),), ((1, "pi1"),)),
    ("pi2 s12 pi1 = -s13 pi1", ((1, "pi2 s12 pi1"),), ((-1, "s13 pi1"),)),
)

IDENTITY_LABELS = tuple(label for label, _, _ in IDENTITIES)


def _factors():
    """The named elements and the three transpositions, by name."""
    factors = {name: make_element(name) for name in ELEMENT_NAMES}
    for name, perm in (("s12", S12), ("s13", S13), ("s23", S23)):
        factors[name] = GroupAlgebraElement.from_perm(perm)
    return factors


def _value(names, step, memo):
    """memo[()] acted on by the word names one factor at a time, right to
    left; memo keeps every suffix, so pi1(P) is computed once."""
    if names not in memo:
        memo[names] = step(names[0], _value(names[1:], step, memo))
    return memo[names]


def _verdicts(step, start, zero) -> dict:
    """Each identity's verdict, with every word evaluated from start."""
    memo = {(): start}

    def side(terms):
        total = zero
        for sgn, word in terms:
            total = total + _value(tuple(word.split()), step, memo) * sgn
        return total

    return {label: side(lhs) == side(rhs) for label, lhs, rhs in IDENTITIES}


class IdentityReport(namedtuple("IdentityReport", "element_level sample_level passed")):
    """Element-level verdicts, label -> bool, plus one such dict per sample."""

    __slots__ = ()


def random_samples(seed: int, count: int) -> list:
    """count seeded sample polynomials: 1 to 10 terms, each exponent at
    most 4, coefficients p/q with |p| <= 9 and 1 <= q <= 9."""
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            exp = tuple(rng.randint(0, 4) for _ in range(3))
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        samples.append(Polynomial(terms))
    return samples


def verify_identities(samples) -> IdentityReport:
    """Check every named identity exactly, in the algebra and on samples.

    The element level multiplies the factors out; the sample level acts
    on each sample one factor at a time, so a faulty action shows there
    even where the multiplied-out elements agree.
    """
    factors = _factors()
    element_level = _verdicts(
        lambda name, g: factors[name] * g,
        GroupAlgebraElement.one(),
        GroupAlgebraElement.zero(),
    )
    sample_level = tuple(
        _verdicts(lambda name, Q: factors[name].apply(Q), P, Polynomial.zero())
        for P in samples
    )
    passed = all(element_level.values()) and all(
        all(v.values()) for v in sample_level
    )
    return IdentityReport(
        element_level=element_level,
        sample_level=sample_level,
        passed=passed,
    )
