import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from soergelkit import coinvariant
from soergelkit.coinvariant import CoinvariantRing, _monomials_of_degree, coinvariant_ring, ideal_slice
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, SizeCapError, SpanSolver, rref
from soergelkit.multipoly import MultiPoly
from soergelkit.selftest import demazure_calculus
from soergelkit.weyl import length, simple_reflection, weyl_group

from frontier import mixed_element, polynomial_route
from reference import (
    action_matrix,
    coord_vector,
    homogeneous_parts,
    invariant_generators,
    invariants_basis,
    multiply_by_variable_matrix,
    split_invariant,
)


def random_element(rng, ring, homogeneous=None):
    coords = {}
    for _ in range(4):
        i = rng.randrange(ring.dim)
        if homogeneous is not None and ring.basis_degree(i) != homogeneous:
            continue
        coords[i] = Fraction(rng.randint(-4, 4))
    from soergelkit.coinvariant import CoinvariantElement

    return CoinvariantElement(ring, coords)


def test_dimensions():
    assert coinvariant_ring(1).dim == 1
    assert coinvariant_ring(2).dim == 2
    assert coinvariant_ring(3).dim == 6
    assert coinvariant_ring(4).dim == 24


def test_graded_dims_n2():
    assert coinvariant_ring(2).graded_dims() == {0: 1, 2: 1}


def test_poincare_n3():
    # (1+q^2)(1+q^2+q^4) with q = v
    assert coinvariant_ring(3).poincare() == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poincare_palindromic(n):
    dims = coinvariant_ring(n).graded_dims()
    top = max(dims)
    assert all(dims[d] == dims[top - d] for d in dims)
    assert sum(dims.values()) == coinvariant_ring(n).dim


def test_rank_cap():
    with pytest.raises(SizeCapError):
        coinvariant_ring.__wrapped__(6)


def test_normal_form_unit_and_ideal():
    ring = coinvariant_ring(3)
    assert ring.normal_form(MultiPoly.one(3)) == ring.one()
    for k in (1, 2, 3):
        assert not ring.normal_form(MultiPoly.elementary(k, 3))


def test_normal_form_x1_squared_n2():
    ring = coinvariant_ring(2)
    x1 = MultiPoly.variable(1, 2)
    assert not ring.normal_form(x1 * x1)


def test_normal_form_is_ring_homomorphism():
    ring = coinvariant_ring(3)
    rng = random.Random(5)
    for _ in range(10):
        terms_p = {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3) for _ in range(3)}
        terms_q = {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3) for _ in range(3)}
        p, q = MultiPoly(3, terms_p), MultiPoly(3, terms_q)
        assert ring.normal_form(p + q) == ring.normal_form(p) + ring.normal_form(q)
        assert ring.normal_form(p * q) == ring.normal_form(p) * ring.normal_form(q)


def test_weyl_act_basics():
    ring = coinvariant_ring(2)
    x1 = ring.variable(1)
    s1 = simple_reflection(1, 2)
    # x_2 = -x_1 in the quotient
    assert ring.weyl_act(s1, x1) == -x1
    assert ring.weyl_act((0, 1), x1) == x1


def test_weyl_act_is_algebra_automorphism():
    ring = coinvariant_ring(3)
    rng = random.Random(9)
    s2 = simple_reflection(2, 3)
    for _ in range(8):
        a = random_element(rng, ring)
        b = random_element(rng, ring)
        assert ring.weyl_act(s2, a * b) == ring.weyl_act(s2, a) * ring.weyl_act(s2, b)


def test_weyl_act_is_group_action():
    from soergelkit.weyl import multiply, weyl_group

    ring = coinvariant_ring(3)
    rng = random.Random(10)
    group = weyl_group(3)
    for _ in range(10):
        u = rng.choice(group.elements())
        v = rng.choice(group.elements())
        c = random_element(rng, ring)
        assert ring.weyl_act(multiply(u, v), c) == ring.weyl_act(u, ring.weyl_act(v, c))


def test_demazure_basics():
    ring = coinvariant_ring(2)
    assert not ring.demazure(1, ring.one())
    assert ring.demazure(1, ring.variable(1)) == ring.one()
    assert ring.demazure(1, ring.variable(2)) == -ring.one()


def test_demazure_calculus_evaluates_every_case_and_names_the_first_failure(monkeypatch):
    # negative control: ∂_i is the identity on one basis element, so the
    # first square that fails is ∂_1∂_1 there; the run still evaluates
    # every later case, with as many divided differences as a clean run
    ring = coinvariant_ring(3)
    bad = ring.basis_element(1)
    demazure, calls = CoinvariantRing.demazure, []
    monkeypatch.setattr(CoinvariantRing, "demazure", lambda self, i, c: calls.append(i) or demazure(self, i, c))
    full = {"squares": 12, "braids": 6, "leibniz": 72}
    assert demazure_calculus(3) == (full, None)
    clean, calls[:] = len(calls), []
    wrong = lambda self, i, c: calls.append(i) or (c if c == bad else demazure(self, i, c))
    monkeypatch.setattr(CoinvariantRing, "demazure", wrong)
    assert demazure_calculus(3) == (full, ("squares", 1, bad))
    assert len(calls) == clean


def test_demazure_commuting_relations():
    ring = coinvariant_ring(4)
    for b in range(ring.dim):
        c = ring.basis_element(b)
        lhs = ring.demazure(1, ring.demazure(3, c))
        assert lhs == ring.demazure(3, ring.demazure(1, c))


def test_demazure_invariant_linearity():
    ring = coinvariant_ring(3)
    rng = random.Random(15)
    for i in (1, 2):
        invs = invariants_basis(ring, i)
        for _ in range(6):
            f = rng.choice(invs)
            c = random_element(rng, ring)
            assert ring.demazure(i, f * c) == f * ring.demazure(i, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariants_dimension(n):
    ring = coinvariant_ring(n)
    import math

    for i in range(1, n):
        invs = invariants_basis(ring, i)
        assert len(invs) == math.factorial(n) // 2
        s = simple_reflection(i, n)
        for f in invs:
            assert ring.weyl_act(s, f) == f
    # degree zero always contains the unit
    assert any(f == ring.one() or f.coords == ring.one().coords for f in invariants_basis(ring, 1))


def test_invariants_s2():
    ring = coinvariant_ring(2)
    invs = invariants_basis(ring, 1)
    assert len(invs) == 1
    assert invs[0].degree() == 0


def test_invariant_generators_are_invariant():
    for n in (2, 3, 4):
        ring = coinvariant_ring(n)
        for i in range(1, n):
            s = simple_reflection(i, n)
            for g in invariant_generators(ring, i):
                assert ring.weyl_act(s, g) == g
                assert g.degree() in (2, 4)


def test_split_invariant_basics():
    ring = coinvariant_ring(2)
    a, b = split_invariant(ring, 1, ring.one())
    assert a == ring.one() and not b
    a, b = split_invariant(ring, 1, ring.variable(1))
    assert not a and b == ring.one()
    a, b = split_invariant(ring, 1, ring.variable(2))
    assert not a and b == -ring.one()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_invariant_every_basis_element(n):
    ring = coinvariant_ring(n)
    for i in range(1, n):
        for bidx in range(ring.dim):
            c = ring.basis_element(bidx)
            a, b = split_invariant(ring, i, c)
            assert a + ring.variable(i) * b == c


def test_top_degree_line_sign_n2():
    ring = coinvariant_ring(2)
    w0 = simple_reflection(1, 2)
    x1 = ring.variable(1)
    assert ring.weyl_act(w0, x1) == -x1


def test_element_str():
    ring = coinvariant_ring(3)
    e = ring.basis_element(ring.basis_index[(1, 1, 0)]).scale(3) - ring.variable(1).scale(
        Fraction(1, 2)
    )
    assert str(e) == "3*x1*x2 - 1/2*x1"


def exponents(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def staircase(a):
    return all(e <= len(a) - 1 - i for i, e in enumerate(a))


def reference_slice(n, d):
    """Staircase coordinates in degree d by a change of basis: columns in
    descending lex order with x_1 largest, whose free columns are not the
    staircase, then the residuals of the staircase monomials as a basis of
    the free-column space."""
    monos = sorted(exponents(n, d), reverse=True)
    index = {a: j for j, a in enumerate(monos)}
    rows = []
    for k in range(1, min(n, d) + 1):
        for m in exponents(n, d - k):
            row = [Fraction(0)] * len(monos)
            for a, x in (MultiPoly.monomial(m) * MultiPoly.elementary(k, n)).terms():
                row[index[a]] = x
            rows.append(row)
    res = rref(QMatrix(len(rows), len(monos), rows))
    free = [j for j in range(len(monos)) if j not in res.pivots]

    def residual(vec):
        v = list(vec)
        for row, pc in zip(res.matrix.data, res.pivots):
            if v[pc]:
                v = [vj - v[pc] * rj for vj, rj in zip(v, row)]
        return [v[j] for j in free]

    stair = [a for a in monos if staircase(a)]
    assert len(stair) == len(free)
    units = [[Fraction(int(j == index[a])) for j in range(len(monos))] for a in stair]
    solver = SpanSolver([residual(u) for u in units], len(free))

    def coords(part):
        vec = [Fraction(0)] * len(monos)
        for a, x in part.terms():
            vec[index[a]] = x
        return dict(zip(stair, solver.coords(residual(vec))))

    return coords


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_form_matches_change_of_basis_reference(n):
    ring = coinvariant_ring(n)
    slices = {d: reference_slice(n, d) for d in range(ring.top_poly_degree + 2)}

    def reference(p):
        out = {}
        for d, part in homogeneous_parts(p).items():
            for a, c in slices[d](part).items():
                if c:
                    out[ring.basis_index[a]] = c
        return out

    for d in slices:
        for a in exponents(n, d):
            p = MultiPoly.monomial(a)
            assert ring.normal_form(p).coords == reference(p), a
    rng = random.Random(60 + n)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randint(0, ring.top_poly_degree + 1)
            terms[rng.choice(exponents(n, d))] = rng.randint(-5, 5)
        p = MultiPoly(n, terms)
        assert ring.normal_form(p).coords == reference(p), terms


def test_rank5_slice_free_columns_are_the_staircase():
    # the graded dimensions of the coinvariant algebra count permutations by length
    lengths = Counter(length(w) for w in weyl_group(5).elements())
    for d in range(8):
        monos = _monomials_of_degree(5, d)
        data = ideal_slice(5, d)
        free = [monos[j] for j in data.free_cols]
        assert free == [a for a in monos if staircase(a)] == data.staircase
        assert len(free) == lengths[d]


def test_ring_build_rejects_free_columns_off_the_staircase(monkeypatch):
    # descending lex with x_1 largest makes a_i <= i - 1 the free columns
    def old_order(n, d):
        return sorted(exponents(n, d), reverse=True)

    monkeypatch.setattr(coinvariant, "_monomials_of_degree", old_order)
    with pytest.raises(AssertionError, match="not the staircase"):
        CoinvariantRing(3)


def test_coordinates_are_ints_when_integral():
    from soergelkit.coinvariant import CoinvariantElement

    def stored(c):
        assert all(
            type(x) is int and x != 0 or type(x) is Fraction and x.denominator != 1 for x in c.coords.values()
        )
        return c

    ring = coinvariant_ring(3)
    half = stored(CoinvariantElement(ring, {0: Fraction(1, 2), 1: Fraction(4, 2), 2: True}))
    assert [type(half.coords[i]) for i in range(3)] == [Fraction, int, int]
    assert stored(half + half).coords == {0: 1, 1: 4, 2: 2}
    assert all(type(x) is int for x in (half + half).coords.values())
    assert type(coord_vector(half, 0)[0]) is Fraction and type(coord_vector(half + half, 2)[0]) is int
    with pytest.raises(TypeError):
        CoinvariantElement(ring, {0: 0.5})
    rng = random.Random(17)
    for _ in range(100):
        a = random_element(rng, ring).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        b = random_element(rng, ring)
        i = rng.randint(1, 2)
        for c in (a + b, a - b, a * b, a.scale(2), ring.demazure(i, a), ring.weyl_act(simple_reflection(i, 3), a)):
            stored(c)
        stored(ring.normal_form(a.lift() * MultiPoly.variable(3, 3)))
    for i in range(1, 3):
        for d in ring.degrees():
            for m in (multiply_by_variable_matrix(ring, i, d), action_matrix(ring, simple_reflection(i, 3), d)):
                assert all(type(x) is int for row in m.nonzeros for x in row.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_forms_are_the_normal_forms_of_their_monomials(n):
    ring = coinvariant_ring(n)
    monomials = [a for d in range(ring.top_poly_degree + 1) for a in exponents(n, d)]
    assert sorted(ring._forms) == sorted(monomials)
    for a in monomials:
        assert ring._forms[a] == ring.normal_form(MultiPoly.monomial(a)).coords, a
    for a in exponents(n, ring.top_poly_degree + 1):
        assert not ring.normal_form(MultiPoly.monomial(a))
    for i, a in enumerate(ring.basis):
        assert ring._forms[a] == {i: 1}
    # the forms vanish on the ideal: each monomial multiple of each e_k
    for k in range(1, n + 1):
        for d in range(ring.top_poly_degree - k + 1):
            for m in exponents(n, d):
                assert not ring.normal_form(MultiPoly.monomial(m) * MultiPoly.elementary(k, n)), (k, m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_match_the_polynomial_route(n):
    # products, ∂_i and the Weyl action of seeded pairs; then scalar multiples
    assert polynomial_route(n) == {"sampled_pairs": 200}
    ring = coinvariant_ring(n)
    rng = random.Random(70 + n)
    for _ in range(40):
        c = mixed_element(rng, ring)
        for k in (3, Fraction(-2, 3)):
            assert c * k == k * c == c.scale(k) == ring.normal_form(c.lift() * k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_above_the_top_degree_vanish(n):
    ring = coinvariant_ring(n)
    top = 2 * ring.top_poly_degree
    for i in range(ring.dim):
        for j in range(ring.dim):
            if ring.basis_degree(i) + ring.basis_degree(j) > top:
                assert not ring.basis_element(i) * ring.basis_element(j)
    assert ring.basis_element(ring.dim - 1) * ring.one() == ring.basis_element(ring.dim - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_demazure_matches_the_polynomial_route(n):
    from soergelkit.multipoly import divided_difference

    ring = coinvariant_ring(n)
    for i in range(1, n):
        for b in range(ring.dim):
            c = ring.basis_element(b)
            assert ring.demazure(i, c) == ring.normal_form(divided_difference(c.lift(), i))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_act_matches_the_polynomial_route(n):
    ring = coinvariant_ring(n)
    for w in weyl_group(n).elements():
        for b in range(ring.dim):
            c = ring.basis_element(b)
            assert ring.weyl_act(w, c) == ring.normal_form(c.lift().perm_act(w))


def test_operations_refuse_elements_of_another_rank():
    ring3, ring4 = coinvariant_ring(3), coinvariant_ring(4)
    c = ring4.variable(1)
    with pytest.raises(ValueError, match="rank-4 ring fed to rank-3"):
        ring3.demazure(1, c)
    with pytest.raises(ValueError, match="rank-4 ring fed to rank-3"):
        ring3.weyl_act(simple_reflection(1, 3), c)
    for i in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            ring3.demazure(i, ring3.variable(1))
    with pytest.raises(ValueError, match="different coinvariant rings"):
        ring3.variable(1) * c
