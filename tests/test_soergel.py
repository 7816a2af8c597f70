from fractions import Fraction
from itertools import product

import pytest

from soergelkit import soergel
from soergelkit.formal import FormalCategory, Gen
from soergelkit.gradedmod import (
    GradedModule,
    ModuleMap,
    graded_hom_poly,
    hom_degree_range,
    hom_graded,
    hom_ungraded_dim,
    kernel_module,
)
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, SizeCapError, SpanSolver, flatten, rank, rref
from soergelkit.soergel import DecompositionError, EndoAlgebra, SoergelCategory, soergel_category
from soergelkit.weyl import format_perm, length, parse_perm

from dense_views import dense_flatten
from reference import check_commutes, idempotent_index, invariant_generators, poly_action


def s3_words(max_len):
    return [w for l in range(max_len + 1) for w in product((1, 2), repeat=l)]


def test_bott_samelson_dimension_powers():
    cat = soergel_category(3)
    for word in s3_words(5):
        assert cat.bott_samelson(word).total_dim() == 2 ** len(word)


def test_bott_samelson_characters_symmetric():
    cat = soergel_category(3)
    for word in s3_words(5):
        assert cat.bott_samelson(word).character().is_symmetric()


def test_bott_samelson_character_closed_form():
    # each induction multiplies the character by (v + v^-1) exactly
    cat = soergel_category(3)
    vvinv = LaurentPoly({1: 1, -1: 1})
    for word in s3_words(4):
        assert cat.bott_samelson(word).character() == vvinv ** len(word)


def tensor_quotient_induct(ring, i, M):
    """Reference route for induction, without the free basis {1, x_i}.

    C (x)_{C^s} M is built as the quotient of the full tensor space C (x) M
    by the span of (c f) (x) m - c (x) (f m), over basis elements c of C,
    basis elements m of M and the generators f of the positive-degree
    s_i-invariants.  Returns the unshifted quotient module and a function
    ``image(c, dm, mi, d)`` giving the quotient coordinates of c (x) m for a
    homogeneous ring element c and the basis vector mi of M in degree dm;
    the target degree d defaults to dm + deg c and is needed when c is zero.
    """
    basis = {}  # degree -> [(module degree, module index, ring index)]
    for dm in M.degrees():
        for mi in range(M.dim_at(dm)):
            for ci in range(ring.dim):
                basis.setdefault(dm + ring.basis_degree(ci), []).append((dm, mi, ci))
    pos = {d: {key: p for p, key in enumerate(keys)} for d, keys in basis.items()}

    def tensor(d, entries):
        vec = [Fraction(0)] * len(basis[d])
        for key, x in entries:
            vec[pos[d][key]] += x
        return vec

    relations = {}
    for g in invariant_generators(ring, i):
        dg = g.degree()
        g_on_m = poly_action(M, g.lift())
        for dm in M.degrees():
            for ci in range(ring.dim):
                d = dm + ring.basis_degree(ci) + dg
                if d not in basis:
                    continue
                gc = (g * ring.basis_element(ci)).coords
                for mi in range(M.dim_at(dm)):
                    entries = [((dm, mi, cj), x) for cj, x in gc.items()]
                    fm = g_on_m[dm].col(mi)
                    entries += [((dm + dg, mj, ci), -x) for mj, x in enumerate(fm) if x]
                    relations.setdefault(d, []).append(tensor(d, entries))

    reducers = {}
    for d, keys in basis.items():
        rows = relations.get(d, [])
        res = rref(QMatrix(len(rows), len(keys), rows))
        reducers[d] = (res, [j for j in range(len(keys)) if j not in res.pivots])

    def project(d, vec):
        res, free = reducers[d]
        for r, pc in enumerate(res.pivots):
            x = vec[pc]
            if x:
                vec = [a - x * b for a, b in zip(vec, res.matrix.data[r])]
        return [vec[j] for j in free]

    def image(c, dm, mi, d=None):
        d = dm + c.degree() if d is None else d
        return project(d, tensor(d, [((dm, mi, cj), x) for cj, x in c.coords.items()]))

    dims = {d: len(free) for d, (_, free) in reducers.items()}
    actions = {}
    for l in range(1, ring.n + 1):
        for d, (_, free) in reducers.items():
            if dims.get(d + 2, 0) == 0:
                continue
            cols = []
            for j in free:
                dm, mi, ci = basis[d][j]
                cols.append(image(ring.variable(l) * ring.basis_element(ci), dm, mi, d + 2))
            actions[(l, d)] = QMatrix.from_columns(dims[d + 2], cols)
    return GradedModule(ring, dims, actions, validate=True), image


ORACLE_WORDS = [
    (n, word)
    for n, max_len in ((2, 4), (3, 4), (4, 3))
    for k in range(1, max_len + 1)
    for word in product(range(1, n), repeat=k)
]


@pytest.mark.parametrize(
    "n,word", ORACLE_WORDS, ids=[f"{n}-{''.join(map(str, w))}" for n, w in ORACLE_WORDS]
)
def test_induct_isomorphic_to_tensor_quotient(n, word):
    # 1 (x) m and x_i (x) m go to their classes in the quotient; the map must
    # be invertible in every degree and commute with every x_j
    cat = soergel_category(n)
    *prefix, i = word
    M = cat.bott_samelson(tuple(prefix))
    quotient, image = tensor_quotient_induct(cat.ring, i, M)
    induced = cat.induct(i, M).shift(-1)
    assert induced.dims == quotient.dims
    one, xi = cat.ring.one(), cat.ring.variable(i)
    blocks = {}
    for d in induced.degrees():
        cols = [image(one, d, k) for k in range(M.dim_at(d))]
        cols += [image(xi, d - 2, k) for k in range(M.dim_at(d - 2))]
        blocks[d] = QMatrix.from_columns(quotient.dim_at(d), cols)
        assert rank(blocks[d]) == quotient.dim_at(d) == len(cols)
    check_commutes(ModuleMap(induced, quotient, 0, blocks))


def test_induct_cap_bounds_the_induced_module(monkeypatch):
    cat = SoergelCategory(3)  # builds the ring before the cap is lowered
    monkeypatch.setenv("SOERGEL_MAX_DIM", "16")
    # inducting once more would give a module of dimension 2 * 16
    m = cat.bott_samelson((1, 2, 1, 2))
    assert m.total_dim() == 16
    with pytest.raises(SizeCapError):
        cat.induct(1, m)


def test_indecomposable_verifies_before_publishing(monkeypatch):
    cat = SoergelCategory(2)
    checked = []

    def spy(M, N, degree):
        if M is N and degree == 0:
            assert all(v is not M for v in cat._indec.values()), "published before the check"
            checked.append(M)
        return hom_graded(M, N, degree)

    monkeypatch.setattr(soergel, "hom_graded", spy)
    for w in cat.group.elements():
        cat.indecomposable(w)
    assert len(checked) == 2


def test_indecomposable_refuses_a_negative_oracle_multiplicity(monkeypatch):
    cat = SoergelCategory(3)
    w0 = cat.group.longest_element()
    for w in cat.group.elements():
        cat.hecke.kl_basis(w)
        if w != w0:
            cat.indecomposable(w)
    # b_u b_s comes out as b_u, so b_u b_s - b_w0 has multiplicity -1 at w0;
    # dropping the negative multiplicity would instead fail the peel of D_u
    monkeypatch.setattr(cat.hecke, "mult_gen_plus", lambda h, i, c: h)
    with pytest.raises(DecompositionError, match="not a nonnegative integer"):
        cat.indecomposable(w0)
    assert w0 not in cat._indec


def bott_samelson_route(cat, w):
    """D_w peeled from the Bott-Samelson module of the canonical word of w,
    the reference route for the Hecke recursion of ``indecomposable``."""
    word = cat.group.a_reduced_word(w)
    rest = cat.expected_summands(word)
    rest.remove((w, 0))
    module = cat.bott_samelson(word)
    for _, _, res in cat._peel_expected(module, rest):
        module = res[0]
    return module


@pytest.mark.parametrize("n, max_length", [(2, 1), (3, 3), (4, 6), (5, 5)])
def test_indecomposable_isomorphic_to_bott_samelson_route(n, max_length):
    # degree-0 maps both ways composing to a nonzero scalar make the
    # equal-dimensional modules isomorphic, not just equal in character
    cat = soergel_category(n)
    for w in cat.group.elements():
        if not 0 < length(w) <= max_length:
            continue
        new, old = cat.indecomposable(w), bott_samelson_route(cat, w)
        assert new.character() == old.character()
        assert any(
            soergel._scalar_of_endo(p.compose(j), new)
            for j in hom_graded(new, old, 0)
            for p in hom_graded(old, new, 0)
        ), format_perm(w)


def character_oracle(cat, w):
    """Independent character prediction: the canonical-basis element under
    the functional sending the standard basis of x to v^-length(x).  That
    functional turns multiplication by a canonical generator into
    multiplication by (v + v^-1), so it matches characters of summands."""
    out = LaurentPoly.zero()
    for x, p in cat.hecke.kl_basis(w).terms():
        out = out + p.shift(-length(x))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_indecomposable_characters_match_oracle(n):
    cat = soergel_category(n)
    for w in cat.group.elements():
        assert cat.indecomposable(w).character() == character_oracle(cat, w)


def test_indecomposable_characters_match_oracle_rank4():
    # all 24 elements, including the 24-dimensional module at the top
    cat = soergel_category(4)
    for w in cat.group.elements():
        assert cat.indecomposable(w).character() == character_oracle(cat, w)
    w0 = cat.group.longest_element()
    assert cat.indecomposable(w0).total_dim() == 24


def test_bs_121_graded_dims():
    cat = soergel_category(3)
    m = cat.bott_samelson((1, 2, 1))
    assert m.dims == {-3: 1, -1: 3, 1: 3, 3: 1}


def test_indecomposable_identity_and_simple():
    cat = soergel_category(2)
    d_e = cat.indecomposable(parse_perm("12"))
    assert d_e.dims == {0: 1}
    d_s = cat.indecomposable(parse_perm("21"))
    assert d_s.dims == {-1: 1, 1: 1}
    assert d_s.character() == LaurentPoly({-1: 1, 1: 1})


def test_indecomposable_longest_s3():
    cat = soergel_category(3)
    d = cat.indecomposable(parse_perm("321"))
    assert d.total_dim() == 6
    assert d.character() == LaurentPoly({-3: 1, -1: 2, 1: 2, 3: 1})


def test_decompose_single_letter():
    cat = soergel_category(2)
    dec = cat.decompose(cat.bott_samelson((1,)))
    assert dec.multiset() == ((parse_perm("21"), 0),)


def test_decompose_bs_ss():
    cat = soergel_category(2)
    dec = cat.decompose(cat.bott_samelson((1, 1)))
    s = parse_perm("21")
    assert dec.multiset() == ((s, -1), (s, 1))


def test_decompose_bs_121():
    cat = soergel_category(3)
    dec = cat.decompose(cat.bott_samelson((1, 2, 1)))
    assert dec.multiset() == ((parse_perm("213"), 0), (parse_perm("321"), 0))


@pytest.mark.parametrize("word", s3_words(4))
def test_oracle_multiplicity_agreement_s3(word):
    cat = soergel_category(3)
    expected = cat.expected_summands(word)
    dec = cat.decompose(cat.bott_samelson(word), expected=expected)
    assert dec.multiset() == tuple(sorted(expected, key=lambda t: (length(t[0]), t[0], t[1])))
    # and the generic search finds the same multiset
    if len(word) <= 3:
        dec2 = cat.decompose(cat.bott_samelson(word))
        assert dec2.multiset() == dec.multiset()


def test_hecke_class_matches_product_s3():
    cat = soergel_category(3)
    for word in s3_words(4):
        h = cat.hecke_class(cat.bott_samelson(word), expected=cat.expected_summands(word))
        assert h == cat.hecke.product_bs(word)


def test_hecke_class_matches_product_s4_curated():
    from soergelkit.selftest import CURATED_RANK4_WORDS

    cat = soergel_category(4)
    for word in CURATED_RANK4_WORDS:
        h = cat.hecke_class(cat.bott_samelson(word), expected=cat.expected_summands(word))
        assert h == cat.hecke.product_bs(word)


def test_rank5_frontier():
    # builds the rank-5 ring (120-dimensional) once for both checks
    cat = soergel_category(5)
    vvinv = LaurentPoly({1: 1, -1: 1})
    m = cat.bott_samelson((1, 2, 1, 3, 2, 1, 4))
    assert m.total_dim() == 128
    assert m.character() == vvinv**7
    word = (1, 2, 1, 3, 2)
    expected = cat.expected_summands(word)
    dec = cat.decompose(cat.bott_samelson(word), expected=expected)
    assert dec.multiset() == tuple(sorted(expected, key=lambda t: (length(t[0]), t[0], t[1])))
    total = LaurentPoly.zero()
    for x, k in dec.summands:
        total = total + character_oracle(cat, x).shift(-k)
    assert total == vvinv**5


def test_end_degree_zero_is_scalar():
    for n in (2, 3):
        cat = soergel_category(n)
        for w in cat.group.elements():
            d = cat.indecomposable(w)
            assert len(hom_graded(d, d, 0)) == 1


def test_end_of_longest_matches_coinvariant_ring():
    for n in (2, 3):
        cat = soergel_category(n)
        d = cat.indecomposable(cat.group.longest_element())
        poly = graded_hom_poly(d, d)
        assert poly == cat.ring.poincare()


def test_hom_formula_pairing_agreement_s2_s3():
    for n in (2, 3):
        cat = soergel_category(n)
        for x in cat.group.elements():
            for y in cat.group.elements():
                lhs = cat.hom_poly(x, y)
                rhs = cat.hecke.pairing(cat.hecke.kl_basis(x), cat.hecke.kl_basis(y))
                assert lhs == rhs, (format_perm(x), format_perm(y))


def test_degrading_ungraded_equals_graded_sum():
    cat = soergel_category(3)
    modules = [
        cat.indecomposable(parse_perm("123")),
        cat.indecomposable(parse_perm("213")),
        cat.indecomposable(parse_perm("321")),
        cat.bott_samelson((1, 2)),
        cat.bott_samelson((1, 1)),
    ]
    for m in modules:
        for nmod in modules:
            assert hom_ungraded_dim(m, nmod) == graded_hom_poly(m, nmod).at_one()


def test_decompose_rejects_non_summand():
    cat = soergel_category(3)
    m = cat.bott_samelson((1,))
    with pytest.raises(DecompositionError):
        cat.decompose(m, expected=[(parse_perm("132"), 0)])


def test_endo_algebra_s1():
    cat = soergel_category(1)
    alg = cat.endo_algebra([(cat.group.identity, 0)])
    assert alg.dim == 1


def test_endo_algebra_s2():
    cat = soergel_category(2)
    alg = cat.endo_algebra([(parse_perm("12"), 0), (parse_perm("21"), 0)])
    assert alg.dim == 5
    assert alg.block_poly(0, 0) == LaurentPoly.one()
    assert alg.block_poly(1, 1) == LaurentPoly({0: 1, 2: 1})
    assert alg.block_poly(0, 1) == LaurentPoly.v()
    assert alg.block_poly(1, 0) == LaurentPoly.v()
    # identity elements compose correctly
    i0 = idempotent_index(alg, 0)
    i1 = idempotent_index(alg, 1)
    assert alg.compose_indices(i0, i0) == ((i0, 1),)
    assert alg.compose_indices(i1, i1) == ((i1, 1),)
    assert alg.compose_indices(i0, i1) == ()


def test_endo_algebra_cap_refuses_before_any_module_is_built(monkeypatch):
    # the shifts move degrees, not the count the cap reads off the pairing
    w0, s1, e = parse_perm("321"), parse_perm("213"), parse_perm("123")
    summands = [(w0, 0), (s1, -1), (s1, 1), (e, 2)]
    size = soergel_category(3).endo_algebra(summands).dim
    cat = SoergelCategory(3)
    built = []
    monkeypatch.setattr(cat, "indecomposable", built.append)
    monkeypatch.setenv("SOERGEL_MAX_DIM", str(size - 1))
    refusal = f"endomorphism algebra of dimension {size} exceeds the dimension cap {size - 1} "
    with pytest.raises(SizeCapError, match=refusal):
        EndoAlgebra(cat, summands)
    assert built == []
    monkeypatch.setenv("SOERGEL_MAX_DIM", str(size))
    assert EndoAlgebra(soergel_category(3), summands).dim == size


def test_endo_algebra_longest_s3():
    cat = soergel_category(3)
    alg = cat.endo_algebra([(parse_perm("321"), 0)])
    assert alg.graded_dims() == {0: 1, 2: 2, 4: 2, 6: 1}


def test_endo_algebra_table_matches_span_solver_rank3():
    cat = soergel_category(3)
    alg = cat.endo_algebra([(w, 0) for w in sorted(cat.group.elements())])
    blocks = {}
    for i, (a, b, _, _) in enumerate(alg.basis):
        blocks.setdefault((a, b), []).append(i)
    solvers = {}
    for key, idxs in blocks.items():
        vecs = [dense_flatten(alg.basis[i][3].to_total()) for i in idxs]
        solvers[key] = (idxs, SpanSolver(vecs, len(vecs[0])))
    assert alg.dim == 77
    for i, (a1, b1, _, m1) in enumerate(alg.basis):
        for j, (a2, b2, _, m2) in enumerate(alg.basis):
            if a1 != b2:
                assert alg.compose_indices(i, j) == ()
                continue
            idxs, solver = solvers[(a2, b1)]
            coords = solver.coords(dense_flatten(m1.compose(m2).to_total()))
            expected = tuple((idxs[t], c) for t, c in enumerate(coords) if c)
            assert alg.compose_indices(i, j) == expected


def test_endo_algebra_with_shifts_matches_direct_solves_rank3():
    # reference: hom_graded on the shifted modules themselves, and SpanSolver
    # coordinates of every composite in those bases
    cat = soergel_category(3)
    w0, s1, e = parse_perm("321"), parse_perm("213"), parse_perm("123")
    alg = cat.endo_algebra([(w0, 0), (s1, -1), (s1, 1), (e, 2)])
    basis = [
        (a, b, d, m)
        for a, ma in enumerate(alg.modules)
        for b, mb in enumerate(alg.modules)
        for d in hom_degree_range(ma, mb)
        for m in hom_graded(ma, mb, d)
    ]
    assert alg.basis == basis
    blocks = {}
    for i, (a, b, _, _) in enumerate(basis):
        blocks.setdefault((a, b), []).append(i)
    solvers = {}
    for key, idxs in blocks.items():
        vecs = [dense_flatten(basis[i][3].to_total()) for i in idxs]
        solvers[key] = (idxs, SpanSolver(vecs, len(vecs[0])))
    for i, (a1, b1, _, m1) in enumerate(basis):
        for j, (a2, b2, _, m2) in enumerate(basis):
            if a1 != b2:
                assert alg.compose_indices(i, j) == ()
                continue
            idxs, solver = solvers[(a2, b1)]
            coords = solver.coords(dense_flatten(m1.compose(m2).to_total()))
            assert alg.compose_indices(i, j) == tuple((idxs[t], c) for t, c in enumerate(coords) if c)


def test_endo_algebra_and_formal_spaces_solve_no_hom_system_twice(monkeypatch):
    cat = SoergelCategory(3)
    els = sorted(cat.group.elements())
    for x in els:
        for y in els:
            cat.hom_poly(x, y)
    calls = []
    original = soergel.hom_graded
    monkeypatch.setattr(soergel, "hom_graded", lambda *args: calls.append(args) or original(*args))
    w0, s1, e = parse_perm("321"), parse_perm("213"), parse_perm("123")
    alg = EndoAlgebra(cat, [(w0, 0), (s1, -1), (s1, 1), (e, 2), (s1, 1)])
    assert alg.dim > 0
    fc = FormalCategory(cat)
    for x in els:
        for y in els:
            fc.hom_space("K", Gen(x), Gen(y))
            for t in range(-4, 5):
                fc.hom_space("MIX", Gen(x, 0), Gen(y, t))
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degree_zero_endomorphisms_are_the_identity(n):
    # the one kernel vector of End^0(D_w) is 1 at its free column, so the
    # basis EndoAlgebra reads is the identity itself
    cat = soergel_category(n)
    for w in cat.group.elements():
        for k in (-2, 0, 3):
            d = cat.indecomposable(w).shift(k)
            assert hom_graded(d, d, 0) == [ModuleMap.identity(d)]


def record_kernel_modules(monkeypatch):
    """The (f, kernel_module(f)) pairs of every kernel the peel reads, in
    order; a peel step reads its complement off its projection p last."""
    calls = []

    def recording_kernel_module(f):
        out = kernel_module(f)
        calls.append((f, out))
        return out

    monkeypatch.setattr(soergel, "kernel_module", recording_kernel_module)
    return calls


def peel_idempotent(cat, cur, x, k, p):
    """e = j∘p/c for the peel step that split (x, k) off ``cur`` with the
    projection p.  The peel tries the inclusions j in its outer loop, so its
    j is the first map of hom_graded(D_x, cur, -k) for which p∘j is a
    nonzero scalar c."""
    dx = cat.indecomposable(x)
    for j in hom_graded(dx, cur, -k):
        comp = p.compose(j)
        if not comp.is_zero():
            c = comp.block(dx.degrees()[0]).entry(0, 0)
            assert comp == ModuleMap.identity(dx).scale(c)
            return j.compose(p).scale(Fraction(1) / c)
    raise AssertionError(f"no inclusion of D[{format_perm(x)}] pairs with the projection")


@pytest.mark.parametrize("route", ["expected", "search"])
@pytest.mark.parametrize("word", [(1, 2, 1), (1, 2, 1, 2), (2, 1, 1)])
def test_each_peel_step_splits_off_the_image_of_its_idempotent(word, route, monkeypatch):
    # e is an idempotent module map, so the current module is im(e) + ker(e);
    # the inclusion is injective into ker(e), and the characters show that it
    # fills ker(e), since im(e) is the copy of D_x
    calls = record_kernel_modules(monkeypatch)
    cat = soergel_category(3)
    cur = cat.bott_samelson(word)
    if route == "expected":
        steps = cat._peel_expected(cur, cat.expected_summands(word))
    else:
        steps = cat._peel_search(cur)
    for x, k, (complement, inclusion) in steps:
        p, (kernel, _) = calls[-1]
        assert kernel is complement
        idem = peel_idempotent(cat, cur, x, k, p)
        assert idem.source is cur and idem.target is cur and idem.degree == 0
        assert idem.compose(idem) == idem
        check_commutes(idem)
        assert inclusion.source is complement and inclusion.target is cur
        assert idem.compose(inclusion).is_zero()
        check_commutes(inclusion)
        assert sorted(inclusion.blocks) == list(complement.degrees())
        assert all(rank(blk) == blk.cols for blk in inclusion.blocks.values())
        assert complement.character() + cat.indecomposable(x).character().shift(-k) == cur.character()
        cur = complement
    assert cur.total_dim() == 0


def test_decompose_shifted_sum_generic():
    cat = soergel_category(2)
    s = parse_perm("21")
    m = cat.indecomposable(s).shift(3).direct_sum(cat.trivial())
    dec = cat.decompose(m)
    assert dec.multiset() == ((parse_perm("12"), 0), (s, 3))


def test_composites_flatten_like_their_total_matrices():
    # the direct flattening that EndoAlgebra reads coordinates from, against
    # the reference route through the total matrix
    cat = soergel_category(3)
    w0, s1, e = parse_perm("321"), parse_perm("213"), parse_perm("123")
    alg = cat.endo_algebra([(w0, 0), (s1, -1), (s1, 1), (e, 2)])
    composites = 0
    for a1, _, _, m1 in alg.basis:
        for _, b2, _, m2 in alg.basis:
            if b2 == a1:
                comp = m1.compose(m2)
                assert comp.flatten() == flatten(comp.to_total())
                composites += not comp.is_zero()
    assert composites > 100
    for _, _, _, m in alg.basis:
        assert m.flatten() == flatten(m.to_total())
        half = m.scale(Fraction(1, 2))
        assert half.flatten() == flatten(half.to_total())



@pytest.mark.parametrize("route", ["expected", "search"])
@pytest.mark.parametrize("n", [3, 4])
def test_each_peel_step_reads_the_kernel_of_its_idempotent_off_the_projection(n, route, monkeypatch):
    # ker(j p / c) = ker p, since p j = c is a nonzero scalar: the complement
    # read off p equals the one read off the idempotent, block for block
    from soergelkit.selftest import CURATED_RANK4_WORDS

    calls = record_kernel_modules(monkeypatch)
    cat = soergel_category(n)
    words = [(1, 2, 1), (1, 2, 1, 2), (2, 1, 1)] if n == 3 else CURATED_RANK4_WORDS
    steps_seen = 0
    for word in words:
        cur = cat.bott_samelson(word)
        if route == "expected":
            steps = cat._peel_expected(cur, cat.expected_summands(word))
        else:
            steps = cat._peel_search(cur)
        for x, k, (complement, inclusion) in steps:
            p, (kernel, kernel_inclusion) = calls[-1]
            assert p.source is cur and p.target is cat.indecomposable(x) and p.degree == k
            assert (complement, inclusion) == (kernel, kernel_inclusion)
            by_idem, idem_inclusion = kernel_module(peel_idempotent(cat, cur, x, k, p))
            assert complement.dims == by_idem.dims
            assert complement.actions == by_idem.actions
            assert inclusion.blocks == idem_inclusion.blocks
            cur = complement
            steps_seen += 1
        assert cur.total_dim() == 0
    assert steps_seen > len(words)
