import random
from fractions import Fraction

import pytest

from soergelkit.multipoly import MultiPoly, divided_difference

from reference import homogeneous_parts


def random_poly(rng, n, max_deg=4, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        a = tuple(rng.randint(0, max_deg) for _ in range(n))
        if sum(a) <= max_deg:
            terms[a] = rng.randint(-5, 5)
    return MultiPoly(n, terms)


def test_variable_and_monomial():
    x1 = MultiPoly.variable(1, 3)
    assert x1.coeff((1, 0, 0)) == 1
    assert (x1 * x1).coeff((2, 0, 0)) == 1


def test_elementary():
    e2 = MultiPoly.elementary(2, 3)
    assert e2.coeff((1, 1, 0)) == 1
    assert e2.coeff((1, 0, 1)) == 1
    assert e2.coeff((0, 1, 1)) == 1
    assert len(e2.terms()) == 3
    assert MultiPoly.elementary(0, 3) == MultiPoly.one(3)


def test_perm_act_identity():
    p = random_poly(random.Random(1), 3)
    assert p.perm_act((0, 1, 2)) == p


def test_perm_act_transposition():
    x1 = MultiPoly.variable(1, 2)
    x2 = MultiPoly.variable(2, 2)
    s1 = (1, 0)
    assert x1.perm_act(s1) == x2
    assert (x1 * x2).perm_act(s1) == x1 * x2


def test_perm_act_is_action():
    rng = random.Random(2)
    u = (1, 2, 0)
    v = (2, 0, 1)
    uv = tuple(u[v[i]] for i in range(3))
    for _ in range(20):
        p = random_poly(rng, 3)
        assert p.perm_act(uv) == p.perm_act(v).perm_act(u)


def test_mul_commutative_associative_random():
    rng = random.Random(4)
    for _ in range(15):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        r = random_poly(rng, 3)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_divided_difference_basics():
    one = MultiPoly.one(2)
    x1 = MultiPoly.variable(1, 2)
    x2 = MultiPoly.variable(2, 2)
    assert divided_difference(one, 1) == MultiPoly.zero(2)
    assert divided_difference(x1, 1) == MultiPoly.one(2)
    assert divided_difference(x2, 1) == -MultiPoly.one(2)


def test_divided_difference_matches_division():
    # cross-check the closed form against the definition on random inputs
    rng = random.Random(6)
    for _ in range(20):
        p = random_poly(rng, 3)
        for i in (1, 2):
            s = [0, 1, 2]
            s[i - 1], s[i] = s[i], s[i - 1]
            numerator = p - p.perm_act(tuple(s))
            d = divided_difference(p, i)
            diff = MultiPoly.variable(i, 3) - MultiPoly.variable(i + 1, 3)
            assert d * diff == numerator


def test_homogeneous_parts():
    p = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    parts = homogeneous_parts(p)
    assert set(parts) == {0, 1, 2}
    assert parts[2].coeff((1, 1)) == 3


def test_str():
    p = MultiPoly(2, {(2, 1): 3, (1, 0): Fraction(-1, 2)})
    assert str(p) == "3*x1^2*x2 - 1/2*x1"


def test_bad_exponents():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})


def _stored_coefficients(p):
    """The coefficients of p, after asserting that each is a nonzero int or
    a Fraction that is not integral (never a float or a bool)."""
    values = [x for _, x in p.terms()]
    assert all(type(x) is int and x != 0 or type(x) is Fraction and x.denominator != 1 for x in values)
    return values


def test_coefficients_are_ints_when_integral():
    half = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(4, 2), (0, 0): True})
    assert _stored_coefficients(half) == [1, 2, Fraction(1, 2)]
    assert [type(x) for x in _stored_coefficients(half)] == [int, int, Fraction]
    assert _stored_coefficients(half + half) == [2, 4, 1]
    assert type((half + half).coeff((1, 0))) is int and type(half.coeff((5, 5))) is int
    assert _stored_coefficients(half * 2) == [2, 4, 1]
    # the divided difference of x1^2 / 2 is (x1 + x2) / 2; twice it is x1 + x2
    sq = MultiPoly(2, {(2, 0): Fraction(1, 2)})
    assert _stored_coefficients(divided_difference(sq, 1)) == [Fraction(1, 2), Fraction(1, 2)]
    assert _stored_coefficients(divided_difference(sq * 2, 1)) == [1, 1]
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0): 0.5})
    rng = random.Random(13)
    for _ in range(200):
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        p = p * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        i = rng.randint(1, 2)
        for r in (p + q, p - q, p * q, p * Fraction(3, 2), divided_difference(p * q, i), p.perm_act((2, 0, 1))):
            _stored_coefficients(r)
            for part in homogeneous_parts(r).values():
                _stored_coefficients(part)
