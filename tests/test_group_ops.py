import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from quasi3.group_ops import (
    IDENTITY_LABELS,
    GroupAlgebraElement,
    make_element,
    verify_identities,
)
from quasi3.poly import ALL_PERMS, IDENTITY, S12, S13, S23, Polynomial, compose


def random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exp = tuple(rng.randint(0, 5) for _ in range(3))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(terms)


def test_symmetrizer_fixes_everything():
    sym = make_element("S3sym")
    rng = random.Random(0)
    for _ in range(10):
        p = random_poly(rng)
        q = sym.apply(p)
        for s in ALL_PERMS:
            assert q.apply_perm(s) == q


def test_antisymmetrizer_alternates():
    alt = make_element("S3alt")
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(rng)
        q = alt.apply(p)
        assert q.apply_perm(S12) == -q
        assert q.apply_perm(S23) == -q


def test_projector_images():
    pi1 = make_element("pi1")
    pi2 = make_element("pi2")
    rng = random.Random(2)
    for _ in range(10):
        p = random_poly(rng)
        # range of pi1: s23-invariant, killed by symmetrization over s12 coset
        q1 = pi1.apply(p)
        assert q1.apply_perm(S23) == q1
        q2 = pi2.apply(p)
        assert q2.apply_perm(S12) == q2


def test_element_algebra():
    one = GroupAlgebraElement({IDENTITY: Fraction(1)})
    pi1 = make_element("pi1")
    assert pi1 * one == pi1
    assert one * pi1 == pi1
    assert (pi1 + pi1) - pi1 == pi1
    assert pi1 * Fraction(1) == pi1


def test_all_identities_element_level():
    report = verify_identities(samples=())
    assert set(report.element_level) == set(IDENTITY_LABELS)
    assert all(report.element_level.values())
    assert report.passed


def test_identities_on_random_samples():
    rng = random.Random(11)
    samples = [random_poly(rng) for _ in range(15)]
    report = verify_identities(samples)
    assert report.passed
    assert len(report.sample_level) == 15
    for verdicts in report.sample_level:
        assert set(verdicts) == set(IDENTITY_LABELS)
        assert all(verdicts.values())


def test_faulty_action_fails_on_samples():
    # s13 doubling its input leaves every multiplied-out element intact,
    # so only acting one factor at a time can see it
    apply_perm = Polynomial.apply_perm

    def doubling_s13(self, perm):
        image = apply_perm(self, perm)
        return image * 2 if perm == S13 else image

    rng = random.Random(11)
    samples = [random_poly(rng) for _ in range(5)]
    with mock.patch.object(Polynomial, "apply_perm", doubling_s13):
        report = verify_identities(samples)
    assert all(report.element_level.values())
    assert not report.passed
    failed = {label for v in report.sample_level for label, ok in v.items() if not ok}
    assert failed == {"S3alt pi1 = 0", "pi2 s12 pi1 = -s13 pi1"}


def test_apply_is_linear():
    pi2 = make_element("pi2")
    rng = random.Random(3)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert pi2.apply(p + q) == pi2.apply(p) + pi2.apply(q)
        assert pi2.apply(p * c) == pi2.apply(p) * c


def test_element_is_immutable():
    with pytest.raises(AttributeError, match="GroupAlgebraElement is immutable"):
        make_element("pi1").terms = {}


def test_bad_permutation_raises():
    with pytest.raises(ValueError, match="not a permutation"):
        GroupAlgebraElement({(1, 1, 2): 1})
    with pytest.raises(ValueError, match="not a permutation"):
        GroupAlgebraElement.from_perm((1, 2))


def test_difference_with_itself_is_zero():
    pi1 = make_element("pi1")
    diff = pi1 - pi1
    assert diff.terms == {}
    assert diff == GroupAlgebraElement.zero()
    assert not diff
    assert not GroupAlgebraElement.zero()
    assert pi1


def test_equal_elements_hash_equal():
    built = make_element("pi2")
    expanded = GroupAlgebraElement(
        {IDENTITY: Fraction(1, 3), S12: Fraction(1, 3), S23: Fraction(-1, 3),
         (2, 3, 1): Fraction(-1, 3)}
    )
    assert built == expanded
    assert hash(built) == hash(expanded)
    assert len({built, expanded, make_element("pi2") * 1}) == 1


def test_products_keep_the_canonical_form():
    """Every product of two named elements or transpositions is int
    numerators over a positive denominator with gcd 1, and equals the
    Fraction convolution of its factors."""
    factors = [make_element(name) for name in ("S3sym", "S3alt", "pi1", "pi2")]
    factors += [GroupAlgebraElement.from_perm(p, Fraction(-2, 3)) for p in (S12, S13, S23)]
    for g in factors:
        for h in factors:
            product = g * h
            want = {}
            for p1, c1 in g.terms.items():
                for p2, c2 in h.terms.items():
                    key = compose(p1, p2)
                    want[key] = want.get(key, Fraction(0)) + c1 * c2
            assert product.terms == {k: c for k, c in want.items() if c}
            assert product.den > 0 and all(type(v) is int and v for v in product.nums.values())
            assert gcd(product.den, *product.nums.values()) == 1
