import operator
import random
import re
from collections import OrderedDict
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasi3.group_ops import GroupAlgebraElement
from quasi3.poly import (
    ALL_PERMS,
    IDENTITY,
    S12,
    S13,
    S23,
    Polynomial,
    compose,
    elementary,
    format_poly,
    parse_poly,
    sign,
    vandermonde,
    vandermonde_power,
)

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)


def random_poly(rng, max_terms=8, max_exp=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(3))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(terms)


exponents = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.dictionaries(exponents, coefficients, max_size=8).map(Polynomial)

# fixed examples and no per-example time limit keep the suite deterministic
checked = settings(max_examples=100, deadline=None, derandomize=True)


def test_zero_and_constant():
    z = Polynomial.zero()
    assert z.is_zero()
    assert z.degree() is None
    assert Polynomial.constant(3) - Polynomial.constant(3) == z
    assert Polynomial.constant(0) == z


def test_arithmetic_basics():
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert p.degree() == 2
    assert (p - p).is_zero()
    assert -p == p * Polynomial.constant(-1)
    assert p * 0 == Polynomial.zero()


def test_pow_by_squaring():
    p = x1 + 2 * x2 - x3
    direct = Polynomial.constant(1)
    for _ in range(5):
        direct = direct * p
    assert p**5 == direct
    assert p**0 == Polynomial.constant(1)


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(25):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def fraction_product(p, q):
    """p * q term by term on Fractions: the oracle for the integer product."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


@checked
@given(polys, polys)
def test_integer_product_matches_fraction_product(p, q):
    assert (p * q).terms == fraction_product(p, q)


def test_integer_product_with_unlike_denominators_and_cancellation():
    p = Fraction(1, 2) * x1 + Fraction(1, 3) * x2
    q = Fraction(1, 2) * x1 - Fraction(1, 3) * x2
    # the x1 x2 terms cancel: 1/6 - 1/6
    assert (p * q).terms == fraction_product(p, q)
    assert (p * q).terms == {(2, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(-1, 9)}
    r = Fraction(3, 4) * x1 * x3 - Fraction(5, 6) * x2**2 + Fraction(7, 10)
    assert (p * r).terms == fraction_product(p, r)
    assert (p * (q - q)).is_zero()


def assert_canonical(P):
    """Every coefficient is a nonzero Fraction in lowest terms, so that
    dividing two coefficients stays exact."""
    for c in P.terms.values():
        assert isinstance(c, Fraction)
        assert c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@checked
@given(polys, polys)
def test_coefficients_stay_canonical(p, q):
    for P in (
        p * q,
        p.apply_perm((2, 3, 1)),
        parse_poly(format_poly(p)),
        Polynomial.from_json_obj(p.to_json_obj()),
        Polynomial({(1, 0, 0): 4, (0, 1, 0): 0, (0, 0, 1): Fraction(6, 4)}),
    ):
        assert_canonical(P)


def test_coefficients_stay_canonical_on_fixed_inputs():
    for P in (
        vandermonde_power(5),
        parse_poly("2/4*x1 + 3/6*x1 - 6/3 x2^2 + x2^2 + 7"),
        Polynomial.from_json_obj([{"e": [0, 1, 2], "c": "-4/6"}]),
        (x1 * Fraction(2, 3)) * (x2 * Fraction(3, 2)),
    ):
        assert_canonical(P)
        assert all(type(c) is Fraction for c in P.terms.values())


# --- the integer-native form against a Fraction-dict oracle -----------------


def oracle_sum(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in out.items() if c}


def oracle_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


def oracle_permuted(a, sigma):
    """x_i -> x_sigma(i): the exponent at position i moves to sigma(i)."""
    out = {}
    for exp, c in a.items():
        moved = [0, 0, 0]
        for pos in range(3):
            moved[sigma[pos] - 1] = exp[pos]
        out[tuple(moved)] = c
    return out


def oracle_text(a, widen):
    """a in the text grammar, each coefficient written over widen times its
    denominator, and a constant 1 added and taken away again."""
    parts = ["1"]
    for (e1, e2, e3), c in a.items():
        num, den = abs(c.numerator) * widen, c.denominator * widen
        parts.append(f"{'-' if c < 0 else '+'} {num}/{den}*x1^{e1}*x2^{e2}*x3^{e3}")
    return " ".join(parts + ["- 1"])


def assert_canonical_form(P, oracle):
    """den > 0 and nonzero int numerators with gcd 1, equal to the oracle."""
    assert type(P.den) is int and P.den > 0
    assert all(type(v) is int and v for v in P.nums.values())
    assert gcd(P.den, *P.nums.values()) == 1
    assert P.terms == oracle


fraction_dicts = st.dictionaries(exponents, coefficients, max_size=6).map(
    lambda raw: {key: c for key, c in raw.items() if c}
)
scalars = st.integers(-6, 6) | st.fractions(min_value=-3, max_value=3, max_denominator=8)


@checked
@given(
    fraction_dicts,
    fraction_dicts,
    scalars,
    st.sampled_from(ALL_PERMS),
    st.integers(0, 3),
    st.integers(1, 4),
)
def test_every_operation_keeps_the_canonical_form(a, b, scale, sigma, n, widen):
    p, q = Polynomial(a), Polynomial(b)
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        power = oracle_product(power, a)
    json_a = [
        {"e": list(e), "c": f"{c.numerator * widen}/{c.denominator * widen}"}
        for e, c in a.items()
    ]
    scaled = {key: c * scale for key, c in a.items() if scale}
    results = [
        (p, a),
        (parse_poly(oracle_text(a, widen)), a),
        (Polynomial.from_json_obj(json_a), a),
        (p + q, oracle_sum(a, b)),
        (p - q, oracle_sum(a, b, -1)),
        (q - p + p, b),
        (-p, {key: -c for key, c in a.items()}),
        (p * q, oracle_product(a, b)),
        (p * scale, scaled),
        (scale * p, scaled),
        (p.apply_perm(sigma), oracle_permuted(a, sigma)),
        (p**n, power),
    ]
    for P, oracle in results:
        assert_canonical_form(P, oracle)
    # == and hash agree with the oracles, pair by pair
    for P, oracle in results:
        for Q, other in results:
            assert (P == Q) == (oracle == other)
            if oracle == other:
                assert hash(P) == hash(Q)


@pytest.mark.parametrize(
    "exp", [(-1, 0, 0), (1.5, 0, 0), (1, 0), (1, 0, 0, 0), (True, 0, 0)]
)
def test_constructor_rejects_bad_exponent(exp):
    with pytest.raises(ValueError, match="bad exponent triple"):
        Polynomial({exp: 1})


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match=r"^zero denominator: '3/0'$"):
        parse_poly("3/0*x1")
    with pytest.raises(ValueError, match=r"^zero denominator: '1/00'$"):
        parse_poly("x2 - 1/00")


def test_degree_and_homogeneity():
    p = x1**2 * x2 + x3**3
    assert p.degree() == 3
    assert p.is_homogeneous()
    assert not (p + x1).is_homogeneous()
    assert p.var_degree(1) == 2
    assert p.var_degree(3) == 3


def test_coefficient_lookup():
    p = 3 * x1**2 * x2 - Fraction(1, 2) * x3
    assert p.coefficient((2, 1, 0)) == 3
    assert p.coefficient((0, 0, 1)) == Fraction(-1, 2)
    assert p.coefficient((5, 5, 5)) == 0


def test_json_terms_graded_lex_descending():
    p = x3 + x1 + x2**2 + Polynomial.constant(7)
    exps = [e for e, _ in p.json_terms()]
    assert exps == [(0, 2, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0)]


@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.5"), True])
@pytest.mark.parametrize(
    "build",
    [
        lambda c: Polynomial({(1, 0, 0): c}),
        lambda c: GroupAlgebraElement({(1, 2, 3): c}),
        Polynomial.constant,
    ],
    ids=["Polynomial", "GroupAlgebraElement", "constant"],
)
def test_constructor_refuses_inexact_coefficients(build, value):
    with pytest.raises(ValueError, match="is not an int or Fraction") as exc:
        build(value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize(
    "op", [operator.mul, operator.add, operator.sub], ids=["mul", "add", "sub"]
)
@pytest.mark.parametrize(
    "element", [x1, GroupAlgebraElement.one()], ids=["Polynomial", "GroupAlgebraElement"]
)
def test_bool_is_not_a_scalar(op, element):
    for left, right in ((element, True), (False, element)):
        with pytest.raises(TypeError):
            op(left, right)
    assert (element == True) is False  # noqa: E712
    assert (Polynomial.constant(1) == True) is False  # noqa: E712
    assert Polynomial.constant(1) == 1


def test_compose_convention():
    # compose(sigma, tau) acts as sigma after tau on positions
    assert compose(S12, S23) == (2, 3, 1)
    assert compose(S23, S12) == (3, 1, 2)
    for p in ALL_PERMS:
        assert compose(p, IDENTITY) == p
        assert compose(IDENTITY, p) == p


def test_sign_values():
    assert sign(IDENTITY) == 1
    assert sign(S12) == sign(S13) == sign(S23) == -1
    assert sign((2, 3, 1)) == 1


def test_apply_perm_on_variables():
    assert x1.apply_perm(S12) == x2
    assert x2.apply_perm(S12) == x1
    assert x3.apply_perm(S12) == x3
    p = x1**3 * x2
    assert p.apply_perm(S13) == x3**3 * x2


@checked
@given(polys)
def test_apply_perm_is_group_action(p):
    for s in ALL_PERMS:
        for t in ALL_PERMS:
            assert p.apply_perm(t).apply_perm(s) == p.apply_perm(compose(s, t))


def test_elementary_symmetric():
    assert elementary(1) == x1 + x2 + x3
    assert elementary(2) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary(3) == x1 * x2 * x3
    for k in (1, 2, 3):
        for s in ALL_PERMS:
            assert elementary(k).apply_perm(s) == elementary(k)
    with pytest.raises(ValueError):
        elementary(0)
    with pytest.raises(ValueError):
        elementary(4)


def test_vandermonde():
    v = vandermonde()
    assert v == (x1 - x2) * (x1 - x3) * (x2 - x3)
    for s in (S12, S13, S23):
        assert v.apply_perm(s) == -v
    assert vandermonde_power(3) == v * v * v
    assert vandermonde_power(0) == Polynomial.constant(1)


def test_vandermonde_power_matches_repeated_products():
    for p in range(9):
        assert vandermonde_power(p) == vandermonde() ** p
    with pytest.raises(ValueError):
        vandermonde_power(-1)


@checked
@given(polys)
@example(Polynomial.zero())
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def test_parse_grammar_forms():
    assert parse_poly("x1") == x1
    assert parse_poly("-x1") == -x1
    assert parse_poly("2*x1*x2") == 2 * x1 * x2
    assert parse_poly("2 x1 x2") == 2 * x1 * x2
    assert parse_poly("x1^3") == x1**3
    assert parse_poly("3/4*x2") == Fraction(3, 4) * x2
    assert parse_poly("-7") == Polynomial.constant(-7)
    assert parse_poly("x1 + x1") == 2 * x1
    assert parse_poly("x1 - x1").is_zero()
    assert parse_poly("0").is_zero()


@pytest.mark.parametrize("bad", ["", "x4", "x1^", "1//2*x1", "x1 +", "y1", "x1^-2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


@checked
@given(polys)
@example(Polynomial.zero())
def test_json_round_trip(p):
    assert Polynomial.from_json_obj(p.to_json_obj()) == p


@pytest.mark.parametrize(
    "term",
    [
        {"e": [1, 0, 0], "c": 1},
        {"e": 5, "c": "1"},
        {"e": [True, 0, 0], "c": "1"},
        {"e": [1, 0, 0], "c": None},
        {"e": [1, 0], "c": "1"},
    ],
)
def test_json_rejects_malformed_term(term):
    with pytest.raises(ValueError, match="term needs"):
        Polynomial.from_json_obj([term])


@pytest.mark.parametrize(
    "item, message",
    [
        pytest.param(
            {"e": [True, 0, 0], "c": "1"},
            "term needs three integers \"e\" and a string \"c\": {'e': [True, 0, 0], 'c': '1'}",
            id="true-exponent",
        ),
        pytest.param(
            {"e": [1, 0], "c": "1"},
            "term needs three integers \"e\" and a string \"c\": {'e': [1, 0], 'c': '1'}",
            id="two-element-e",
        ),
        pytest.param(
            {"e": [1, 0, 0], "c": "1", "x": 0},
            "bad term object: {'e': [1, 0, 0], 'c': '1', 'x': 0}",
            id="extra-key",
        ),
        pytest.param([1, 0, 0], "bad term object: [1, 0, 0]", id="non-dict-item"),
        pytest.param(
            {"e": [1, 0, 0], "c": 1},
            "term needs three integers \"e\" and a string \"c\": {'e': [1, 0, 0], 'c': 1}",
            id="int-c",
        ),
    ],
)
def test_json_error_texts(item, message):
    with pytest.raises(ValueError) as exc:
        Polynomial.from_json_obj([{"e": [0, 0, 0], "c": "2"}, item])
    assert str(exc.value) == message


def test_json_duplicate_exponent_text():
    obj = [{"e": [1, 0, 0], "c": "1"}, {"e": [1, 0, 0], "c": "2"}]
    with pytest.raises(ValueError) as exc:
        Polynomial.from_json_obj(obj)
    assert str(exc.value) == "duplicate exponent (1, 0, 0) in polynomial JSON"


def test_json_accepts_dict_and_list_subclasses():
    item = OrderedDict([("c", "-1/2"), ("e", type("Row", (list,), {})([0, 2, 1]))])
    assert Polynomial.from_json_obj([item]) == Fraction(-1, 2) * x2**2 * x3


def test_json_rejects_negative_exponent():
    with pytest.raises(ValueError, match=r"^bad exponent triple: \(-1, 0, 0\)$"):
        Polynomial.from_json_obj([{"e": [-1, 0, 0], "c": "1"}])


def json_coefficient(text):
    """The constant polynomial from_json_obj reads from one "c" text."""
    return Polynomial.from_json_obj([{"e": [0, 0, 0], "c": text}])


def test_json_coefficient_texts_accepted():
    assert json_coefficient(" \t3/4\n ") == Polynomial.constant(Fraction(3, 4))
    assert json_coefficient("+6") == Polynomial.constant(6)
    assert json_coefficient("4/8") == Polynomial.constant(Fraction(1, 2))
    assert json_coefficient("-0/5").is_zero()
    assert json_coefficient("007/014") == Polynomial.constant(Fraction(1, 2))
    big = "12345678901234567890/3"
    assert json_coefficient(big) == Polynomial.constant(Fraction(big))


@pytest.mark.parametrize(
    "text", ["1_0", "1.5", "1e3", "inf", "", " ", "a/b", "1/2/3", "2 /3", "1/-2", "0x10"]
)
def test_json_coefficient_texts_rejected(text):
    with pytest.raises(ValueError) as exc:
        json_coefficient(text)
    assert str(exc.value) == f"not an exact rational: {text.strip()!r}"


@pytest.mark.parametrize("text", ["1/0", "-7/00", " +3/0 "])
def test_json_zero_denominator_text(text):
    with pytest.raises(ValueError) as exc:
        json_coefficient(text)
    assert str(exc.value) == f"zero denominator: {text.strip()!r}"


def test_text_zero_denominator_names_the_digits():
    with pytest.raises(ValueError) as exc:
        parse_poly("x1 - 2/1 - 7/00*x2 + y")
    assert str(exc.value) == "zero denominator: '7/00'"


def test_bool_exponents_rejected_by_every_reader():
    with pytest.raises(ValueError, match="^bad exponent triple"):
        Polynomial({(0, False, 1): 1})
    with pytest.raises(ValueError, match='^term needs three integers "e"'):
        Polynomial.from_json_obj([{"e": [0, 1, False], "c": "1"}])


def test_json_error_order():
    """A term's own errors first, in list order; its coefficient before the
    duplicate test; negative exponents last, and only on nonzero terms."""
    def message(obj):
        with pytest.raises(ValueError) as exc:
            Polynomial.from_json_obj(obj)
        return str(exc.value)

    one, bad_c = {"e": [1, 0, 0], "c": "1"}, {"e": [1, 0, 0], "c": "x"}
    assert message([one, bad_c]) == "not an exact rational: 'x'"
    zero = {"e": [1, 0, 0], "c": "0"}
    assert message([zero, one]) == "duplicate exponent (1, 0, 0) in polynomial JSON"
    negative = {"e": [0, -2, 0], "c": "-1/2"}
    assert message([negative, bad_c]) == "not an exact rational: 'x'"
    assert message([negative, one, zero]) == "duplicate exponent (1, 0, 0) in polynomial JSON"
    assert message([one, negative]) == "bad exponent triple: (0, -2, 0)"
    # the terms cancel nowhere, so the first negative nonzero term is named
    later = {"e": [-3, 0, 0], "c": "5"}
    assert message([negative, later]) == "bad exponent triple: (0, -2, 0)"
    # a zero term is dropped before its exponent is checked
    assert Polynomial.from_json_obj([{"e": [-1, 0, 0], "c": "0/3"}]).is_zero()


def test_text_repeated_terms_cancel_to_zero():
    assert parse_poly("x1 + 1/2 x1 - 3/2*x1").is_zero()
    assert parse_poly("2/4x1x2 - 1/2*x2x1 + 3 - 3").is_zero()
    assert parse_poly("1/3 - 1/3 + 2/6*x3") == Fraction(1, 3) * x3
    assert parse_poly("x1^2 - x1*x1 + 4/8") == Polynomial.constant(Fraction(1, 2))


def test_str_is_parseable():
    p = x1**2 - Fraction(5, 3) * x2 * x3 + Polynomial.constant(1)
    assert parse_poly(str(p)) == p


# --- the term-by-term parser, kept as an oracle ------------------------------

_ORACLE_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?"
    r"(?P<factors>(?:\*?x[123](?:\^\d+)?)*)\Z"
)
_ORACLE_FACTOR_RE = re.compile(r"x([123])(?:\^(\d+))?")


def oracle_parse_poly(text: str) -> Polynomial:
    """parse_poly as it read terms before its one-match-per-term form:
    a named-group match per term, then a finditer over its factors."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty polynomial expression")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot tokenize polynomial: {text!r}")
    out = {}
    for chunk in chunks:
        m = _ORACLE_TERM_RE.match(chunk)
        if not m or not (m["num"] or m["factors"]):
            raise ValueError(f"bad term {chunk!r} in polynomial: {text!r}")
        num, den, factors = m["num"], m["den"], m["factors"]
        try:
            coeff = Fraction(int(m["sign"] + (num or "1")), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: '{num}/{den}'") from None
        exp = [0, 0, 0]
        for fm in _ORACLE_FACTOR_RE.finditer(factors):
            exp[int(fm.group(1)) - 1] += int(fm.group(2) or 1)
        key = tuple(exp)
        out[key] = out[key] + coeff if key in out else coeff
    return Polynomial(out)


def parse_outcome(parse, text):
    """The polynomial parse makes of text, or the text of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "x3*x1^2*x1",
        "x2x1",
        "*x1",
        "x1^0",
        "-x1",
        "2 x1 x2",
        "3/0*x1",
        "x1^2*x2^3*x3^4",
        "-3/4x1x2^0*x3^10 + x2*x2 - 5",
        "x1^",
        "x15",
        "2*",
        "+",
        "x1++x2",
        "1/0 + 1//2",
        "0/0",
        "x4",
        " ",
    ],
)
def test_parse_matches_oracle_on_fixed_inputs(text):
    assert parse_outcome(parse_poly, text) == parse_outcome(oracle_parse_poly, text)


def test_parse_matches_oracle_on_random_strings():
    tokens = ["x1", "x2", "x3", "x4", "^", "^0", "0", "2", "10", "/", "/0", "*", "+", "-", " "]
    rng = random.Random(25)
    accepted = 0
    for _ in range(12_000):
        text = "".join(rng.choices(tokens, k=rng.randint(1, 9)))
        got = parse_outcome(parse_poly, text)
        assert got == parse_outcome(oracle_parse_poly, text), text
        accepted += isinstance(got, Polynomial)
    assert accepted > 1000  # both branches are exercised
