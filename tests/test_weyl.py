from itertools import product

import pytest

from soergelkit.linalg import SizeCapError
from soergelkit.weyl import (
    WeylGroup,
    demazure_product,
    evaluate_word,
    format_perm,
    format_word,
    identity_perm,
    inverse,
    left_descents,
    length,
    mult_right_simple,
    multiply,
    parse_perm,
    parse_word,
    right_descents,
    simple_reflection,
    weyl_group,
)


def subword_oracle(group, x, w):
    """Direct subword-property check: some subword of a reduced word of w
    evaluates to x.  Independent of the lifting recursion."""
    word = group.a_reduced_word(w)
    l = len(word)
    for mask in range(1 << l):
        sub = tuple(word[i] for i in range(l) if mask >> i & 1)
        if evaluate_word(sub, group.n) == x:
            return True
    return False


def test_length_basics():
    assert length(identity_perm(3)) == 0
    assert length(simple_reflection(1, 3)) == 1
    assert length((2, 1, 0)) == 3


def test_evaluate_word():
    assert evaluate_word((), 3) == identity_perm(3)
    assert evaluate_word((1, 1), 3) == identity_perm(3)
    assert evaluate_word((1, 2, 1), 3) == parse_perm("321")


def test_length_vs_word_length():
    g = weyl_group(3)
    for word in product([1, 2], repeat=4):
        w = evaluate_word(word, 3)
        assert length(w) <= len(word)
        if length(w) == len(word):
            assert word in g.reduced_words(w)


def test_serialization_roundtrip():
    assert format_perm(parse_perm("321")) == "321"
    assert parse_word("1,2,1") == (1, 2, 1)
    assert format_word((1, 2, 1)) == "1,2,1"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_perm("331")
    with pytest.raises(ValueError):
        parse_word("0,1", 3)


def test_bruhat_basics():
    g = weyl_group(3)
    e = identity_perm(3)
    w0 = g.longest_element()
    s1 = g.simple(1)
    for w in g.elements():
        assert g.bruhat_leq(e, w)
    assert g.bruhat_leq(s1, w0)
    s1s2 = multiply(g.simple(1), g.simple(2))
    s2s1 = multiply(g.simple(2), g.simple(1))
    assert not g.bruhat_leq(s1s2, s2s1)
    assert not g.bruhat_leq(s2s1, s1s2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_subword_oracle(n):
    g = weyl_group(n)
    for x in g.elements():
        for w in g.elements():
            assert g.bruhat_leq(x, w) == subword_oracle(g, x, w)


@pytest.mark.parametrize("n", [3, 4])
def test_bruhat_partial_order(n):
    g = weyl_group(n)
    els = g.elements()
    for x in els:
        assert g.bruhat_leq(x, x)
    for x in els:
        for y in els:
            if g.bruhat_leq(x, y) and g.bruhat_leq(y, x):
                assert x == y
    for x in els:
        below_x = [y for y in els if g.bruhat_leq(y, x)]
        for y in below_x:
            for z in els:
                if g.bruhat_leq(z, y):
                    assert g.bruhat_leq(z, x)


def test_reduced_words():
    g = weyl_group(3)
    assert g.reduced_words(identity_perm(3)) == ((),)
    assert g.reduced_words(g.simple(1)) == ((1,),)
    assert g.reduced_words(g.longest_element()) == ((1, 2, 1), (2, 1, 2))


def test_reduced_words_all_evaluate(n=4):
    g = weyl_group(n)
    for w in g.elements():
        words = g.reduced_words(w)
        assert len(set(words)) == len(words)
        for word in words:
            assert len(word) == length(w)
            assert evaluate_word(word, n) == w


def test_a_reduced_word_is_the_smallest_reduced_word():
    # the greedy smallest-left-descent word against the full enumeration
    for n in range(1, 6):
        g = WeylGroup(n)
        for w in g.elements():
            assert g.a_reduced_word(w) == g.reduced_words(w)[0]


def test_a_reduced_word_prefixes_are_canonical():
    # indecomposable(w) inducts D_u, u = w s_i for the last letter i, and
    # keeps to the Bott-Samelson inductions only if u's word is the prefix
    for n in range(1, 6):
        g = WeylGroup(n)
        for w in g.elements():
            if length(w):
                word = g.a_reduced_word(w)
                assert word[:-1] == g.a_reduced_word(mult_right_simple(w, word[-1]))


def test_demazure_product():
    assert demazure_product((1, 1), 2) == simple_reflection(1, 2)
    assert demazure_product((1, 2, 1, 2), 3) == (2, 1, 0)


def test_demazure_of_reduced_word_is_identity_map(n=4):
    g = weyl_group(n)
    for w in g.elements():
        for word in g.reduced_words(w)[:3]:
            assert g.demazure_product(word) == w


def test_all_elements_counts():
    assert len(weyl_group(1).elements()) == 1
    assert len(weyl_group(3).elements()) == 6
    assert len(weyl_group(4).elements()) == 24


def test_rank_cap():
    with pytest.raises(SizeCapError):
        WeylGroup(6)


def test_descents():
    w0 = weyl_group(3).longest_element()
    assert right_descents(w0) == {1, 2}
    assert left_descents(w0) == {1, 2}
    s1 = simple_reflection(1, 3)
    assert right_descents(s1) == {1}


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, {0: 1, 1: 1}),
        (3, {0: 1, 1: 2, 2: 2, 3: 1}),
        (4, {0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1}),
    ],
)
def test_poincare_polynomial_gaussian(n, expected):
    # coefficients of the Gaussian factorial [n]_q! = prod (1+q+...+q^{k-1})
    assert weyl_group(n).poincare_polynomial() == expected


def test_inverse_and_descs_consistency():
    g = weyl_group(4)
    for w in g.elements():
        assert multiply(w, inverse(w)) == g.identity
        for i in right_descents(w):
            assert length(evaluate_word((i,), 4)) == 1
            assert length(multiply(w, g.simple(i))) == length(w) - 1
