import random
from itertools import product

import pytest

from soergelkit.hecke import HeckeElement, hecke_algebra
from soergelkit.laurent import LaurentPoly
from soergelkit.weyl import evaluate_word, inverse, length, parse_perm

from reference import bruhat_interval_below, is_nonneg_integral, mult


def random_element(rng, alg, max_terms=3):
    els = alg.group.elements()
    coeffs = {}
    for _ in range(max_terms):
        w = rng.choice(els)
        coeffs[w] = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
    return HeckeElement(alg.n, coeffs)


def antipode(alg, h):
    """a(H_w) = H_{w^-1} with a(v) = v."""
    return HeckeElement(alg.n, {inverse(w): p for w, p in h.terms()})


def product_pairing(alg, h1, h2):
    """The reference route for the pairing: the H_e coefficient of the
    full product a(h1) h2."""
    return mult(alg, antipode(alg, h1), h2).coeff(alg.group.identity)


def barred_pairing(alg, h1, h2):
    """The other candidate form: a composed with the bar involution."""
    return mult(alg, alg.bar(antipode(alg, h1)), h2).coeff(alg.group.identity)


def test_unit_multiplication():
    alg = hecke_algebra(3)
    h = alg.product_bs((1, 2))
    assert mult(alg, alg.unit(), h) == h
    assert mult(alg, h, alg.unit()) == h


def test_quadratic_relation():
    alg = hecke_algebra(2)
    s = alg.group.simple(1)
    hs = alg.std(s)
    prod = mult(alg, hs, hs)
    expected = alg.unit() + hs.scale(LaurentPoly({-1: 1, 1: -1}))
    assert prod == expected


def test_length_additive_product():
    alg = hecke_algebra(3)
    h1 = alg.std(alg.group.simple(1))
    h2 = alg.std(alg.group.simple(2))
    assert mult(alg, h1, h2) == alg.std(evaluate_word((1, 2), 3))


@pytest.mark.parametrize("n", [3, 4])
def test_mult_associative_random(n):
    alg = hecke_algebra(n)
    rng = random.Random(17 + n)
    for _ in range(8):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        c = random_element(rng, alg)
        assert mult(alg, mult(alg, a, b), c) == mult(alg, a, mult(alg, b, c))


def test_bar_unit_and_generator():
    alg = hecke_algebra(2)
    s = alg.group.simple(1)
    assert alg.bar(alg.unit()) == alg.unit()
    # bar(H_s) = H_s + (v - v^-1) H_e, the inverse of H_s
    bs = alg.bar(alg.std(s))
    assert bs == alg.std(s) + alg.unit().scale(LaurentPoly({1: 1, -1: -1}))
    assert mult(alg, bs, alg.std(s)) == alg.unit()
    # b_s = H_s + v H_e is bar-invariant
    b = alg.std(s) + alg.unit().scale(LaurentPoly.v())
    assert alg.bar(b) == b


@pytest.mark.parametrize("n", [3, 4])
def test_bar_involutive_and_fixes_kl(n):
    alg = hecke_algebra(n)
    rng = random.Random(23)
    for _ in range(6):
        h = random_element(rng, alg)
        assert alg.bar(alg.bar(h)) == h
    for w in alg.group.elements():
        assert alg.bar(alg.kl_basis(w)) == alg.kl_basis(w)


def test_kl_basis_small():
    alg = hecke_algebra(3)
    g = alg.group
    assert alg.kl_basis(g.identity) == alg.unit()
    s = g.simple(1)
    assert alg.kl_basis(s) == alg.std(s) + alg.unit().scale(LaurentPoly.v())
    # in S_3 every canonical coefficient is the monomial v^(length difference)
    w0 = g.longest_element()
    b = alg.kl_basis(w0)
    for x in g.elements():
        assert b.coeff(x) == LaurentPoly.v(3 - length(x))


@pytest.mark.parametrize("n", [3, 4])
def test_kl_support_is_bruhat_interval(n):
    # nonvanishing: the canonical element of w is supported exactly on the
    # elements Bruhat-below w
    alg = hecke_algebra(n)
    g = alg.group
    for w in g.elements():
        assert alg.kl_basis(w).support() == bruhat_interval_below(g, w)


def test_kl_poly_triviality_s3():
    alg = hecke_algebra(3)
    g = alg.group
    for w in g.elements():
        for x in g.elements():
            p = alg.kl_poly(x, w)
            if x == w:
                assert p == LaurentPoly.one()
            elif g.bruhat_leq(x, w):
                assert p == LaurentPoly.v(length(w) - length(x))
            else:
                assert not p


def test_kl_poly_s4_nontrivial():
    # the first nontrivial Kazhdan-Lusztig polynomial: x = 1324, w = 3412
    # gives P = 1 + q, i.e. v^(l(w)-l(x)) P(v^-2) = v^3 + v here
    alg = hecke_algebra(4)
    x = parse_perm("1324")
    w = parse_perm("3412")
    diff = length(w) - length(x)
    assert alg.kl_poly(x, w) == LaurentPoly({diff: 1, diff - 2: 1})
    # and the coefficient at the identity is v^4 + v^2
    assert alg.kl_poly(parse_perm("1234"), w) == LaurentPoly({4: 1, 2: 1})


def test_product_bs_single_and_square():
    alg = hecke_algebra(2)
    s = alg.group.simple(1)
    b_s = alg.kl_basis(s)
    assert alg.product_bs((1,)) == b_s
    assert alg.product_bs((1, 1)) == b_s.scale(LaurentPoly({1: 1, -1: 1}))


def test_product_bs_braid_expansion():
    alg = hecke_algebra(3)
    g = alg.group
    h = alg.product_bs((1, 2, 1))
    expansion = alg.kl_expand(h)
    w0 = g.longest_element()
    s1 = g.simple(1)
    assert expansion == {w0: LaurentPoly.one(), s1: LaurentPoly.one()}


def test_kl_expand_inverse_of_reconstruction():
    alg = hecke_algebra(3)
    rng = random.Random(31)
    for _ in range(8):
        h = random_element(rng, alg)
        expansion = alg.kl_expand(h)
        rebuilt = alg.zero()
        for x, m in expansion.items():
            rebuilt = rebuilt + alg.kl_basis(x).scale(m)
        assert rebuilt == h
    assert alg.kl_expand(alg.kl_basis(alg.group.longest_element())) == {
        alg.group.longest_element(): LaurentPoly.one()
    }


@pytest.mark.parametrize("n", [3, 4])
def test_product_bs_positivity_and_symmetry(n):
    # every word of length up to 5
    alg = hecke_algebra(n)
    letters = list(range(1, n))
    for l in range(0, 6):
        for word in product(letters, repeat=l):
            expansion = alg.kl_expand(alg.product_bs(word))
            for _, m in expansion.items():
                assert is_nonneg_integral(m)
                assert m.is_symmetric()


def test_pairing_normalization():
    alg = hecke_algebra(2)
    assert alg.pairing(alg.unit(), alg.unit()) == LaurentPoly.one()


def test_pairing_values_s2():
    alg = hecke_algebra(2)
    g = alg.group
    b_e = alg.kl_basis(g.identity)
    b_s = alg.kl_basis(g.simple(1))
    assert alg.pairing(b_s, b_s) == LaurentPoly({0: 1, 2: 1})
    assert alg.pairing(b_e, b_s) == LaurentPoly.v()
    assert alg.pairing(b_s, b_e) == LaurentPoly.v()


def test_pairing_b_e_vs_longest_s3():
    alg = hecke_algebra(3)
    g = alg.group
    val = alg.pairing(alg.kl_basis(g.identity), alg.kl_basis(g.longest_element()))
    assert val == LaurentPoly.v(3)


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        hecke_algebra(2).pairing(hecke_algebra(2).unit(), hecke_algebra(3).unit())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairing_matches_product_route_random(n):
    alg = hecke_algebra(n)
    rng = random.Random(41 + n)
    for _ in range(30):
        h1 = random_element(rng, alg, max_terms=4)
        h2 = random_element(rng, alg, max_terms=4)
        assert alg.pairing(h1, h2) == product_pairing(alg, h1, h2)


@pytest.mark.parametrize("n", [2, 3])
def test_pairing_conventions_agree_on_canonical_pairs(n):
    alg = hecke_algebra(n)
    for x in alg.group.elements():
        for y in alg.group.elements():
            bx, by = alg.kl_basis(x), alg.kl_basis(y)
            value = alg.pairing(bx, by)
            assert value == product_pairing(alg, bx, by)
            assert value == barred_pairing(alg, bx, by)


def test_pairing_conventions_differ_as_forms():
    alg = hecke_algebra(2)
    h = alg.unit().scale(LaurentPoly.v())
    assert alg.pairing(h, alg.unit()) == LaurentPoly.v()
    assert barred_pairing(alg, h, alg.unit()) == LaurentPoly.v(-1)


def test_json_roundtrip():
    alg = hecke_algebra(3)
    rng = random.Random(37)
    for _ in range(10):
        h = random_element(rng, alg)
        data = h.to_json_dict()
        assert HeckeElement.from_json_dict(data, 3) == h
    b = alg.kl_basis(alg.group.longest_element())
    payload = b.to_json_dict()
    assert payload["terms"][-1] == {"w": "321", "coeff": "1"}
    assert HeckeElement.from_json_dict(payload, 3) == b
