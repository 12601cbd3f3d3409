"""Extended nonnegative rationals: ordering, arithmetic, and parsing."""

import random
import sys
from fractions import Fraction

import pytest

from topmonads import INF, ONE, ZERO, ExtRat, ext, monus, ratio, sgn
from topmonads.errors import (
    InfinityIndeterminate,
    InvalidValue,
    InvalidValueType,
    MalformedValue,
    ZeroDenominator,
)


def test_construction_and_parsing():
    assert ext("1/2").frac == Fraction(1, 2)
    assert ext("3") == ExtRat(3)
    assert ext("inf") is INF or ext("inf") == INF
    assert ext(Fraction(7, 3)) == ExtRat(Fraction(7, 3))
    assert str(ext("2/4")) == "1/2"
    assert str(ZERO) == "0"
    assert str(INF) == "inf"


# The grammar: after whitespace is stripped at both ends, 'inf', 'p' or
# 'p/q' in ASCII decimal digits, q not 0.  Each string with its value, or
# with the error it raises.
GRAMMAR = [
    ("0", Fraction(0)),
    ("7", Fraction(7)),
    ("007", Fraction(7)),
    ("2/4", Fraction(1, 2)),
    ("0/5", Fraction(0)),
    ("6/3", Fraction(2)),
    (" 1/3\n", Fraction(1, 3)),
    ("\t12 ", Fraction(12)),
    ("123456789012345678901234567890/3", Fraction(41152263004115226300411522630)),
    ("inf", None),
    (" inf ", None),
    ("1/0", ZeroDenominator),
    ("0/0", ZeroDenominator),
    ("", InvalidValue),
    ("  ", InvalidValue),
    ("Inf", InvalidValue),
    ("infinity", InvalidValue),
    ("-inf", InvalidValue),
    ("-1", InvalidValue),
    ("-1/2", InvalidValue),
    ("+1", InvalidValue),
    ("1/-2", InvalidValue),
    ("0.5", InvalidValue),
    (".5", InvalidValue),
    ("1e3", InvalidValue),
    ("1_000", InvalidValue),
    ("1 / 2", InvalidValue),
    ("1/", InvalidValue),
    ("/2", InvalidValue),
    ("1/2/3", InvalidValue),
    ("1 2", InvalidValue),
    ("\u0661", InvalidValue),  # ARABIC-INDIC DIGIT ONE: a digit, not ASCII
    ("\uff11/2", InvalidValue),  # FULLWIDTH DIGIT ONE
    ("\u00b2", InvalidValue),  # SUPERSCRIPT TWO
    ("x", InvalidValue),
]


@pytest.mark.parametrize("text, want", GRAMMAR, ids=[repr(t) for t, _ in GRAMMAR])
def test_string_grammar(text, want):
    if isinstance(want, type):
        with pytest.raises(want):
            ext(text)
        with pytest.raises(want):
            ExtRat(text)
        return
    for value in (ext(text), ExtRat(text)):
        if want is None:
            assert value.is_infinite and value == INF
        else:
            assert value.frac == want and str(value) == str(want)
            assert hash(value) == hash(want)


def test_malformed_values_are_library_errors_and_builtins():
    for call, error, builtin in (
        (lambda: ext("0.5"), InvalidValue, ValueError),
        (lambda: ExtRat(-1), InvalidValue, ValueError),
        (lambda: ext("1/0"), ZeroDenominator, ZeroDivisionError),
        (lambda: ext(0.5), InvalidValueType, TypeError),
        (lambda: ext(None), InvalidValueType, TypeError),
        (lambda: ext(object()), InvalidValueType, TypeError),
    ):
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, MalformedValue) and isinstance(info.value, builtin)


def test_rejects_negative_and_floats():
    with pytest.raises(ValueError):
        ext("-1/2")
    with pytest.raises((TypeError, ValueError)):
        ext(0.5)
    with pytest.raises(TypeError):
        ExtRat(0.5)


def test_total_order():
    values = [ZERO, ext("1/3"), ext("1/2"), ONE, ExtRat(2), INF]
    assert values == sorted(values)
    assert INF > ExtRat(10**9)
    assert not INF < INF
    assert INF <= INF


def test_addition():
    assert ext("1/2") + ext("1/3") == ext("5/6")
    assert INF + ONE == INF
    assert ONE + INF == INF
    assert INF + INF == INF
    assert ZERO + ZERO == ZERO


def test_multiplication_with_infinity_times_zero():
    assert INF * ZERO == ZERO
    assert ZERO * INF == ZERO
    assert INF * ext("1/2") == INF
    assert ext("2") * ext("3/4") == ext("3/2")
    assert INF * INF == INF


def test_fast_path_with_infinity_and_zero():
    half = ext("1/2")
    assert type(half + half) is ExtRat and (half + half).frac == 1
    assert hash(half + half) == hash(ONE)
    assert ZERO + ZERO == ZERO and ZERO * half == ZERO
    assert INF + ZERO is INF and ZERO + INF is INF
    assert INF * ZERO == ZERO and ZERO * INF == ZERO
    assert INF * half is INF and half * INF is INF
    assert ZERO < half < INF and not INF < INF and not half < ZERO
    # mixed operands still pass the public checks
    assert half + 1 == ext("3/2") and 1 + half == ext("3/2") and 2 * half == ONE
    with pytest.raises(TypeError):
        half + 0.5
    with pytest.raises(ValueError):
        half * -1


def test_partial_subtraction():
    assert ONE - ext("1/3") == ext("2/3")
    assert INF - ONE == INF
    with pytest.raises(ValueError):
        ext("1/3") - ONE
    with pytest.raises(InfinityIndeterminate):
        INF - INF


def test_monus():
    assert monus(ONE, ext("1/3")) == ext("2/3")
    assert monus(ext("1/3"), ONE) == ZERO
    assert monus(INF, ONE) == INF
    assert monus(INF, INF) == ZERO
    assert monus(ONE, INF) == ZERO


def test_division():
    assert ONE / ExtRat(2) == ext("1/2")
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_sgn():
    assert sgn(ZERO) is False
    assert sgn(ext("1/7")) is True
    assert sgn(INF) is True


def test_ratio_is_the_fraction_route():
    rng = random.Random(5)
    pairs = [(0, 1), (0, 7), (6, 4), (7, 1), (-3, -6), (10**12, 10**12 - 1)]
    pairs += [(rng.randint(0, 40), rng.randint(1, 40)) for _ in range(200)]
    for p, q in pairs:
        value = ratio(p, q)
        assert value == ExtRat(Fraction(p, q))
        assert (value.frac.numerator, value.frac.denominator) == (
            Fraction(p, q).numerator, Fraction(p, q).denominator
        )


def test_ratio_raises_the_errors_of_the_fraction_route():
    for p, q in ((-1, 2), (1, -2), (-4, 6)):
        with pytest.raises(InvalidValue) as got:
            ratio(p, q)
        with pytest.raises(InvalidValue) as want:
            ExtRat(Fraction(p, q))
        assert str(got.value) == str(want.value)
    for p in (0, 1, -1):
        with pytest.raises(ZeroDenominator):
            ratio(p, 0)
        with pytest.raises(ZeroDivisionError):
            ExtRat(Fraction(p, 0))
    for p, q in ((Fraction(1, 2), 1), (1, 2.0), (True, 2)):
        with pytest.raises(InvalidValueType):
            ratio(p, q)


def test_hash_consistency():
    assert hash(ext("1/2")) == hash(ext("2/4"))
    assert len({ZERO, ext("0"), ONE, ext("1")}) == 2


def test_equality_agrees_with_the_hash():
    # a string names a value but hashes apart from it, so is never equal
    for value, text in ((ONE, "1"), (INF, "inf"), (ext("1/2"), "1/2")):
        assert value != text and not value == text
        assert text not in {value}
    # ints and Fractions hash like their values, so stay equal
    assert ONE == 1 and ext("1/2") == Fraction(1, 2)
    assert 1 in {ONE} and Fraction(1, 2) in {ext("1/2")}


def _model_operand(rng):
    """A Fraction, or None for oo: 0, 1, oo, small integers, and ratios with
    numerator and denominator up to 10**12."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(1)
    if kind == 2:
        return None
    if kind == 3:
        return Fraction(rng.randint(0, 50))
    if kind == 4:
        return Fraction(rng.randint(0, 20), rng.randint(1, 20))
    return Fraction(rng.randint(0, 10**12), rng.randint(1, 10**12))


def _of(model):
    return INF if model is None else ExtRat(model)


def test_arithmetic_agrees_with_fraction():
    """Every operation on the integer pairs matches plain Fraction
    arithmetic, with oo above every rational, oo + x = oo and oo * 0 = 0."""
    rng = random.Random(6)
    for _ in range(3000):
        p, q = _model_operand(rng), _model_operand(rng)
        a, b = _of(p), _of(q)
        total = None if p is None or q is None else p + q
        if p is None or q is None:
            product = Fraction(0) if p == 0 or q == 0 else None
        else:
            product = p * q
        below = p is not None and (q is None or p < q)
        at_most = q is None or (p is not None and p <= q)
        assert a + b == _of(total) and b + a == _of(total)
        assert a * b == _of(product) and b * a == _of(product)
        assert (a < b) is below
        assert (a <= b) is at_most
        assert (a > b) is (b < a) and (a >= b) is (b <= a)
        assert (a == b) is (p == q)
        assert monus(a, b) == (
            ZERO if at_most else INF if p is None else ExtRat(p - q)
        )
        for model, value in ((p, a), (total, a + b), (product, a * b)):
            if model is None:
                assert value.is_infinite and str(value) == "inf"
                continue
            assert value.frac == model and type(value.frac) is Fraction
            assert str(value) == str(model)
            assert hash(value) == hash(model)
            assert bool(value) is bool(model)


def test_results_are_in_lowest_terms():
    third, sixth = ext("1/3"), ext("1/6")
    assert str(third + sixth) == "1/2" and third + sixth == ext("1/2")
    assert str(ext("2/3") * ext("3/4")) == "1/2"
    assert str(ext("5/6") - ext("1/3")) == "1/2"
    assert str(ext("3/4") / ext("3/2")) == "1/2"
    assert str(ext("1/2") + ext("1/2")) == "1"
    assert str(ZERO * ext("7/9")) == "0" and ZERO * ext("7/9") == ZERO
    big = ExtRat(Fraction(10**12 - 1, 10**12))
    assert hash(big + big) == hash(Fraction(10**12 - 1, 10**12) * 2)
    # a denominator divisible by the hash modulus still hashes like Fraction
    modulus = sys.hash_info.modulus
    assert hash(ExtRat(Fraction(1, modulus))) == hash(Fraction(1, modulus))
