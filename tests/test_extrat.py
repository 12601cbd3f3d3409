"""Extended nonnegative rationals: ordering, arithmetic, and parsing."""

from fractions import Fraction

import pytest

from topmonads import INF, ONE, ZERO, ExtRat, ext, monus, sgn
from topmonads.lawcheck import signed_sum
from topmonads.errors import InfinityIndeterminate


def test_construction_and_parsing():
    assert ext("1/2").frac == Fraction(1, 2)
    assert ext("3") == ExtRat(3)
    assert ext("inf") is INF or ext("inf") == INF
    assert ext(Fraction(7, 3)) == ExtRat(Fraction(7, 3))
    assert str(ext("2/4")) == "1/2"
    assert str(ZERO) == "0"
    assert str(INF) == "inf"


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


def test_signed_sum():
    assert signed_sum([(1, ONE), (-1, ext("1/2")), (1, ext("1/4"))]) == ext("3/4")
    assert signed_sum([]) == ZERO
    with pytest.raises(InfinityIndeterminate):
        signed_sum([(1, INF), (-1, INF)])
    with pytest.raises(InfinityIndeterminate):
        signed_sum([(1, ONE), (-1, ExtRat(2))])


def test_hash_consistency():
    assert hash(ext("1/2")) == hash(ext("2/4"))
    assert len({ZERO, ext("0"), ONE, ext("1")}) == 2
