import math
import random
import re
from fractions import Fraction

import pytest

from quasi3.arith import binom, integer_scaled
from quasi3.poly import Polynomial

_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


def rational_from_str(text: str) -> Fraction:
    """Parse "num" or "num/den".  Rejects anything else, including floats.

    The coefficient reader Polynomial.from_json_obj used before it built
    int numerators itself, kept as its oracle.
    """
    text = text.strip()
    match = _RAT_RE.match(text)
    if not match:
        raise ValueError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def test_binom_matches_math_comb_on_valid_range():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert binom(n, k) == math.comb(n, k)


def test_binom_is_zero_outside_the_triangle():
    assert binom(5, 6) == 0
    assert binom(5, -1) == 0
    assert binom(-1, 0) == 0
    assert binom(-3, 2) == 0
    assert binom(-3, -2) == 0


def test_binom_edge_values():
    assert binom(0, 0) == 1
    assert binom(7, 0) == 1
    assert binom(7, 7) == 1


def test_rational_from_str_normalizes():
    assert rational_from_str("4/8") == Fraction(1, 2)
    assert rational_from_str("+6") == Fraction(6)


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a/b", "1/2/3", "2 /3"])
def test_rational_from_str_rejects_garbage(bad):
    with pytest.raises(ValueError):
        rational_from_str(bad)


def test_rational_from_str_names_a_zero_denominator():
    for text in ("1/0", "-7/00"):
        with pytest.raises(ValueError) as exc:
            rational_from_str(text)
        assert str(exc.value) == f"zero denominator: {text!r}"


def test_rational_from_str_matches_fraction_on_valid_text():
    for text in ("0", "-0/5", "+6/8", "-22/7", "12345678901234567890/3", "007/014"):
        assert rational_from_str(f" {text} ") == Fraction(text)


def test_integer_scaled_mixed_ints_and_fractions():
    den, ints = integer_scaled([2, Fraction(1, 3), Fraction(-5, 4), 0])
    assert den == 12
    assert ints == [24, 4, -15, 0]
    assert [Fraction(n, den) for n in ints] == [2, Fraction(1, 3), Fraction(-5, 4), 0]


def test_integer_scaled_empty_row():
    assert integer_scaled([]) == (1, [])


def json_reader_outcome(text):
    """The coefficient from_json_obj reads from one "c" text, or the text
    of its ValueError."""
    try:
        return Polynomial.from_json_obj([{"e": [0, 0, 0], "c": text}]).coefficient((0, 0, 0))
    except ValueError as exc:
        return str(exc)


def oracle_outcome(text):
    try:
        return rational_from_str(text)
    except ValueError as exc:
        return str(exc)


def test_json_reader_matches_oracle_on_random_texts():
    tokens = ["0", "1", "7", "12", "/", "/0", "+", "-", " ", "\t", "_", ".", "e", "x", "\u0663"]
    rng = random.Random(26)
    accepted = 0
    for _ in range(10_000):
        text = "".join(rng.choices(tokens, k=rng.randint(0, 7)))
        got = json_reader_outcome(text)
        assert got == oracle_outcome(text), repr(text)
        accepted += isinstance(got, Fraction)
    assert accepted > 1000  # both branches are exercised
