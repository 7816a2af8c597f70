import random
from fractions import Fraction

import pytest

from soergelkit.laurent import LaurentPoly


def test_zero_and_one():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert not LaurentPoly.zero()
    assert LaurentPoly.one()


def test_bar_monomial():
    assert LaurentPoly.v().bar() == LaurentPoly.v(-1)


def test_bar_symmetric():
    p = LaurentPoly.v() + LaurentPoly.v(-1)
    assert p.bar() == p
    assert p.is_symmetric()


def test_bar_exponent_negation():
    p = LaurentPoly({3: 2, 0: 1})
    assert p.bar() == LaurentPoly({-3: 2, 0: 1})


def test_bar_involutive_random():
    rng = random.Random(11)
    for _ in range(50):
        p = LaurentPoly({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(5)})
        assert p.bar().bar() == p


def test_arithmetic():
    v = LaurentPoly.v()
    p = (v + 1) * (v.bar() + 1)
    assert p == LaurentPoly({-1: 1, 0: 2, 1: 1})
    assert p - p == LaurentPoly.zero()
    assert p * 0 == LaurentPoly.zero()
    assert (v * Fraction(1, 2)).coeff(1) == Fraction(1, 2)


def test_shift_and_at_one():
    p = LaurentPoly({0: 1, 2: 3})
    assert p.shift(-1) == LaurentPoly({-1: 1, 1: 3})
    assert p.at_one() == 4


@pytest.mark.parametrize(
    "text,expected",
    [
        ("v^-1+2v^3", {-1: 1, 3: 2}),
        ("v^3+v", {3: 1, 1: 1}),
        ("1", {0: 1}),
        ("0", {}),
        ("-v+1/2", {1: -1, 0: Fraction(1, 2)}),
        ("v^-2", {-2: 1}),
    ],
)
def test_parse(text, expected):
    assert LaurentPoly.parse(text) == LaurentPoly(expected)


def test_str_ascending_order():
    p = LaurentPoly({3: 2, -1: 1})
    assert str(p) == "v^-1+2v^3"


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        p = LaurentPoly(
            {rng.randint(-5, 5): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)}
        )
        assert LaurentPoly.parse(str(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        LaurentPoly.parse("v^^2")
    with pytest.raises(ValueError):
        LaurentPoly.parse("w+1")
    for zero_denominator in ("1/0v", "3/00", "v^2+1/0"):
        with pytest.raises(ValueError, match="bad term"):
            LaurentPoly.parse(zero_denominator)


def _stored_coefficients(p):
    """The coefficients of p, after asserting that each is a nonzero int or
    a Fraction that is not integral (never a float or a bool)."""
    values = [x for _, x in p.items()]
    assert all(type(x) is int and x != 0 or type(x) is Fraction and x.denominator != 1 for x in values)
    return values


def test_coefficients_are_ints_when_integral():
    half = LaurentPoly({0: Fraction(1, 2), 1: Fraction(4, 2), 2: True})
    assert _stored_coefficients(half) == [Fraction(1, 2), 2, 1]
    assert [type(x) for x in _stored_coefficients(half)] == [Fraction, int, int]
    whole = half + half
    assert _stored_coefficients(whole) == [1, 4, 2]
    assert type(whole.coeff(0)) is int and type(whole.coeff(7)) is int and whole.coeff(7) == 0
    assert half.at_one() == Fraction(7, 2) and type(whole.at_one()) is int and whole.at_one() == 7
    assert _stored_coefficients(half * 2) == [1, 4, 2]
    assert _stored_coefficients(LaurentPoly.parse("1/2v+1/2v")) == [1]
    assert whole.is_nonneg_integral() and not half.is_nonneg_integral()
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    rng = random.Random(11)
    for _ in range(200):
        p, q = (
            LaurentPoly({rng.randint(-3, 3): Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)})
            for _ in range(2)
        )
        for r in (p + q, p - q, p * q, p * Fraction(2, 3), 3 * p, p.bar(), p.shift(2), p**2, LaurentPoly.parse(str(p))):
            _stored_coefficients(r)
            assert type(r.at_one()) is int or r.at_one().denominator != 1
            assert all(type(r.coeff(k)) is int or r.coeff(k).denominator != 1 for k in range(-8, 9))
