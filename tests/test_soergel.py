import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from soergelkit import gradedmod, soergel
from soergelkit.formal import FormalCategory, Gen
from soergelkit.gradedmod import (
    GradedModule,
    ModuleMap,
    graded_hom_poly,
    hom_degree_range,
    hom_dim,
    hom_graded,
    hom_ungraded_dim,
    kernel_module,
)
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, SizeCapError, SpanSolver, flatten, rank, rref
from soergelkit.selftest import hom_formula
from soergelkit.soergel import DecompositionError, EndoAlgebra, SoergelCategory, soergel_category
from soergelkit.weyl import format_perm, length, parse_perm

from dense_views import col, dense_flatten
from frontier import certified_words, character_of_b, indecomposables, predicted_words, refuses
from reference import (
    certify_by_full_images,
    check_commutes,
    endo_dimension_by_pairings,
    idempotent_index,
    invariant_generators,
    lower_summands,
    peel_along,
    peel_search,
    poly_action,
)


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
                    fm = col(g_on_m[dm], mi)
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
        return hom_dim(M, N, degree)

    monkeypatch.setattr(soergel, "hom_dim", spy)
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
    # dropping the negative multiplicity would instead fail the certificate
    # of the kernel
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
    for _, _, res in peel_along(cat, module, rest):
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_indecomposable_equals_the_peel_recursion(n):
    # the common kernel and the peel find the same subspace of the induced
    # module, and the reduced echelon kernel bases of the peel's steps
    # compose to the one of the common kernel, so the modules agree entry
    # for entry, not only up to isomorphism
    count = math.factorial(n)
    entries = {2: 2, 3: 36, 4: 842}[n]
    assert indecomposables(n) == {"modules": count, "int_entries": entries, "equal_to_peel": count}
    cat = soergel_category(n)
    assert cat.indecomposable(cat.group.longest_element()).total_dim() == count


@pytest.mark.parametrize("n", [3, 4])
def test_each_indecomposable_is_the_one_copy_killed_by_the_maps_to_the_lower_summands(n, monkeypatch):
    calls = record_kernel_modules(monkeypatch)
    cat = SoergelCategory(n)
    for w in cat.group.elements():
        cat.indecomposable(w)
    assert len(calls) == {3: 1, 4: 7}[n]
    published = {id(module): w for w, module in cat._indec.items()}
    for maps, (kernel, inclusion) in calls:
        w, M = published[id(kernel)], inclusion.target
        rest = lower_summands(cat, w)[2]
        assert rest and all(k == 0 and y != w for y, k in rest)
        projections = [p for y in sorted({y for y, _ in rest}) for p in hom_graded(M, cat.indecomposable(y), 0)]
        assert len(maps) == len(projections) == len(rest)
        # the inclusion of D_w into M is unique up to a scalar, and every
        # degree-0 map to a lower summand kills it
        (j,) = hom_graded(kernel, M, 0)
        for p in projections:
            assert p.compose(inclusion).is_zero() and p.compose(j).is_zero()


def substitute_a_summand(cat, rest):
    """``rest`` with its first summand that has a same-character
    substitute among the cached D_z replaced by it."""
    for t, (y, k) in enumerate(rest):
        for z in sorted(cat._indec):
            if z != y and cat._indec[z].character() == cat._indec[y].character():
                return rest[:t] + [(z, k)] + rest[t + 1 :]
    raise AssertionError("no summand has a same-character substitute")


REFUSALS = {
    "drop": "are not scalars",
    "substitute": "do not add up",
    "no inclusions": "could not be split off",
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fault", list(REFUSALS))
def test_a_faulty_split_of_the_induced_module_is_refused_before_anything_is_cached(n, fault, monkeypatch):
    # a dropped summand leaves a kernel with more than the scalars in End^0;
    # a substitute D_z of the character of D_y takes no map from M, since
    # D_z and D_y differ as modules, and the characters do not add up; with
    # no inclusions of the D_y the stack cannot fill M
    cat = SoergelCategory(n)
    refused = 0
    for w in sorted(cat.group.elements(), key=lambda w: (length(w), w)):
        rest = lower_summands(cat, w)[2] if length(w) else []
        if rest:
            fake = {"drop": rest[:-1], "substitute": substitute_a_summand(cat, rest)}.get(fault, rest)
            with monkeypatch.context() as patch:
                patch.setattr(cat, "_summands_of", lambda h: fake)
                if fault == "no inclusions":
                    patch.setattr(soergel, "hom_generator_images", lambda *args: [])
                with pytest.raises(DecompositionError, match=re.escape(f"D[{format_perm(w)}]")) as refusal:
                    cat.indecomposable(w)
            assert REFUSALS[fault] in str(refusal.value)
            assert w not in cat._indec and (w, w, 0) not in cat._hom
            refused += 1
        cat.indecomposable(w)
    assert refused == {3: 1, 4: 7}[n]


def test_building_an_indecomposable_takes_no_peel(monkeypatch):
    import reference

    cat = SoergelCategory(4)

    def refuse(*args):
        raise AssertionError("an indecomposable was built by a peel")

    monkeypatch.setattr(cat, "_try_peel", refuse)
    monkeypatch.setattr(reference, "peel_along", refuse)
    for w in cat.group.elements():
        cat.indecomposable(w)
    assert len(cat._indec) == 24


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
    # and the prediction read off Hom counts is the same multiset
    assert cat.decompose(cat.bott_samelson(word)).multiset() == dec.multiset()


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
        total = total + character_of_b(cat, x).shift(-k)
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
    assert hom_formula(2) == ({"pairs": 4}, None)
    assert hom_formula(3) == ({"pairs": 36}, None)


def test_hom_formula_pairing_agreement_s4():
    assert hom_formula(4) == ({"pairs": 576}, None)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_endo_dimension_equals_the_pairing_sum(n):
    # seeded summand lists with repeats and shifts: the sum-of-squares
    # identity the size check reads against the sum over all pairs
    hecke = soergel_category(n).hecke
    rng = random.Random(61 + n)
    elements = hecke.group.elements()
    for size in (1, 2, 5, 9):
        summands = [(rng.choice(elements), rng.randint(-3, 3)) for _ in range(size)]
        summands += summands[: size // 2]
        assert soergel.endo_dimension(hecke, [w for w, _ in summands]) == endo_dimension_by_pairings(hecke, summands)


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


def test_hom_poly_counts_by_rank_and_caches_no_map(monkeypatch):
    cat = SoergelCategory(3)
    els = sorted(cat.group.elements())
    for w in els:
        cat.indecomposable(w)
    assert cat._hom == {}  # the builds count endomorphisms and cache no map
    solved, ranked = [], []
    kernel_basis, rank = gradedmod.kernel_basis, gradedmod.rank
    monkeypatch.setattr(gradedmod, "kernel_basis", lambda *args: solved.append(args) or kernel_basis(*args))
    monkeypatch.setattr(gradedmod, "rank", lambda *args: ranked.append(args) or rank(*args))
    hecke = cat.hecke
    for x in els:
        for y in els:
            assert cat.hom_poly(x, y) == hecke.pairing(hecke.kl_basis(x), hecke.kl_basis(y))
    assert solved == [] and cat._hom == {}
    assert ranked


def test_endo_algebra_and_formal_spaces_solve_no_hom_system_twice(monkeypatch):
    cat = SoergelCategory(3)
    els = sorted(cat.group.elements())
    for x in els:
        for y in els:
            for d in hom_degree_range(cat.indecomposable(x), cat.indecomposable(y)):
                cat.hom_basis(x, y, d)
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
    """The (maps, kernel_module(*maps)) pairs of every kernel the library
    reads, in order; a peel step reads its complement off its projection p
    last, as the kernel of (p,)."""
    calls = []

    def recording_kernel_module(*maps):
        out = kernel_module(*maps)
        calls.append((maps, out))
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
        steps = peel_along(cat, cur, cat.expected_summands(word))
    else:
        steps = peel_search(cat, cur)
    for x, k, (complement, inclusion) in steps:
        (p,), (kernel, _) = calls[-1]
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


def test_modules_that_are_no_sums_of_shifted_indecomposables_are_refused_on_both_routes():
    # negative controls: V = C/(x_2, x_1 + x_3, x_1 x_3), spanned by 1 and
    # x_1 = -x_3, is no sum of shifted D_w: it is cyclic, hence
    # indecomposable, and the D_w of its dimension, D_s1 and D_s2, have
    # x_3 = 0 and x_1 = 0; the counts predict D_e alone, which the
    # certificate refuses, and the peel search finds nothing to split off
    cat = soergel_category(3)
    one = QMatrix.from_rows([[1]])
    V = GradedModule(cat.ring, {0: 1, 2: 1}, {(1, 0): one, (3, 0): -one})
    assert cat._predict(V) == [(parse_perm("123"), 0)]
    with pytest.raises(DecompositionError, match="do not add up"):
        cat.decompose(V)
    with pytest.raises(DecompositionError, match="not a direct sum"):
        list(peel_search(cat, V))
    # K, the kernel of a degree-1 map from the Bott-Samelson module of
    # (1, 2, 1) to D_231, counts one map of degree 0 to each of D_132 and
    # D_213, whose pairings with b_e at v ask for two of degree 1 to D_e,
    # where K has one: the count goes negative before any certificate solve
    K, _ = kernel_module(hom_graded(cat.bott_samelson((1, 2, 1)), cat.indecomposable(parse_perm("231")), 1)[1])
    assert K.dims == {-1: 1, 1: 2, 3: 1}
    assert hom_dim(K, cat.indecomposable(parse_perm("123")), 1) == 1
    with pytest.raises(DecompositionError, match=re.escape("Hom^1(M, D[123]) is too small")):
        cat.decompose(K)
    with pytest.raises(DecompositionError, match="not a direct sum"):
        list(peel_search(cat, K))


@pytest.mark.parametrize("n", [3, 4])
def test_the_prediction_from_hom_counts_solves_no_basis_and_takes_no_peel(n, monkeypatch):
    # with every D_w built, the counts are ranks and the certificate solves
    # generator images only: no block basis, no complement, no peel step
    from soergelkit.selftest import CURATED_RANK4_WORDS

    cat = soergel_category(n)
    for w in cat.group.elements():
        cat.indecomposable(w)

    def refuse(*args):
        raise AssertionError("decompose without a prediction solved a basis, took a complement or peeled")

    monkeypatch.setattr(soergel, "hom_graded", refuse)
    monkeypatch.setattr(soergel, "kernel_module", refuse)
    monkeypatch.setattr(cat, "_try_peel", refuse)
    words = words_up_to(3, 4) if n == 3 else CURATED_RANK4_WORDS
    for word in words:
        dec = cat.decompose(cat.bott_samelson(word))
        assert dec.multiset() == multiset_of(cat.expected_summands(word)), word


@pytest.mark.parametrize("n", [3, 4])
def test_predicted_words_frontier_check(n):
    assert predicted_words(n) == {"words": 60, "agree_with_search": 60}


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
            steps = peel_along(cat, cur, cat.expected_summands(word))
        else:
            steps = peel_search(cat, cur)
        for x, k, (complement, inclusion) in steps:
            (p,), (kernel, kernel_inclusion) = calls[-1]
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


def multiset_of(summands):
    return tuple(sorted(summands, key=lambda t: (length(t[0]), t[0], t[1])))


def words_up_to(n, max_length):
    return [w for l in range(max_length + 1) for w in product(range(1, n), repeat=l)]


@pytest.mark.parametrize("n", [3, 4])
def test_certified_prediction_agrees_with_both_peel_routes(n):
    # on 60 seeded words the certificate keeps the order of the prediction,
    # the sequential peel along it gives the same multiset, both add up to
    # the Hecke product, and a same-character substitute is refused (4 of
    # the rank-4 words have no summand with such a partner); on every short
    # word the search and the prediction read off Hom counts find the
    # certified multiset
    from soergelkit.selftest import CURATED_RANK4_WORDS

    counts = certified_words(n)
    assert (counts["words"], counts["substitutes_refused"], counts["oracle_agrees"]) == (60, {3: 60, 4: 56}[n], 60)
    cat = soergel_category(n)
    words = words_up_to(3, 5) if n == 3 else words_up_to(4, 4) + list(CURATED_RANK4_WORDS)
    for word in words:
        M = cat.bott_samelson(word)
        dec = cat.decompose(M, expected=cat.expected_summands(word))
        assert multiset_of((x, k) for x, k, _ in peel_search(cat, M)) == dec.multiset(), word
        assert cat.decompose(M).multiset() == dec.multiset(), word


def test_certified_prediction_with_multiplicities_across_shifts():
    cat = soergel_category(2)
    s = parse_perm("21")
    expected = cat.expected_summands((1, 1, 1))
    assert expected == [(s, -2), (s, 0), (s, 0), (s, 2)]
    assert cat.decompose(cat.bott_samelson((1, 1, 1)), expected=expected).summands == tuple(expected)


@pytest.mark.parametrize("n, word", [(2, (1, 1, 1, 1)), (3, (1, 2, 1, 2, 1)), (4, (1, 2, 3, 2, 1, 2))])
def test_a_scrambled_prediction_certifies_in_its_given_order(n, word):
    cat = soergel_category(n)
    M = cat.bott_samelson(word)
    expected = cat.expected_summands(word)
    rng = random.Random(25)
    for scrambled in [expected[::-1]] + [rng.sample(expected, len(expected)) for _ in range(3)]:
        assert cat.decompose(M, expected=scrambled).summands == tuple(scrambled)


def same_character_substitutes(cat):
    """A function that takes a prediction to every prediction with one
    summand (x, k) replaced by (y, k), y != x with D_y of the character of
    D_x."""
    by_character = {}
    for w in sorted(cat.group.elements()):
        by_character.setdefault(cat.indecomposable(w).character(), []).append(w)

    def substitutes(expected):
        for i, (x, k) in enumerate(expected):
            for y in by_character[cat.indecomposable(x).character()]:
                if y != x:
                    yield expected[:i] + [(y, k)] + expected[i + 1 :]

    return substitutes


@pytest.mark.parametrize("n, max_length", [(3, 6), (4, 4)])
def test_every_same_character_substitute_is_refused(n, max_length):
    # D_x and D_y of equal character differ as modules: a prediction with
    # one summand replaced by such a D_y passes the character comparison,
    # and the certificate refuses it
    cat = soergel_category(n)
    substitutes = same_character_substitutes(cat)
    fakes = 0
    for word in words_up_to(n, max_length):
        M = cat.bott_samelson(word)
        for fake in substitutes(cat.expected_summands(word)):
            with pytest.raises(DecompositionError, match="could not be split off"):
                cat.decompose(M, expected=fake)
            fakes += 1
    assert fakes == {3: 728, 4: 984}[n]


@pytest.mark.parametrize("n, max_length, curated", [(3, 6, False), (4, 4, True)])
def test_the_certificate_agrees_with_the_full_image_route(n, max_length, curated):
    # the library reads generator images modulo C_+M; the reference route
    # carries every image up through the products and starts from empty
    # spans.  On every short word and the curated rank-4 ones both certify
    # the true prediction, and both refuse each same-character substitute.
    from soergelkit.selftest import CURATED_RANK4_WORDS

    cat = soergel_category(n)
    substitutes = same_character_substitutes(cat)
    words = words_up_to(n, max_length) + (list(CURATED_RANK4_WORDS) if curated else [])
    certified = refused = 0
    for word in words:
        M, expected = cat.bott_samelson(word), cat.expected_summands(word)
        summands = cat.decompose(M, expected=expected).summands
        assert summands == certify_by_full_images(cat, M, expected) == tuple(expected), word
        certified += 1
        for fake in substitutes(expected):
            assert refuses(cat.decompose, M, fake) and refuses(certify_by_full_images, cat, M, fake), (word, fake)
            refused += 1
    assert (certified, refused) == {3: (127, 728), 4: (127, 984 + 28)}[n]


def test_a_wrong_shift_or_a_moved_copy_is_refused_before_any_hom_solve(monkeypatch):
    cat = soergel_category(2)
    s = parse_perm("21")
    M = cat.bott_samelson((1, 1, 1))
    cat.indecomposable(s)
    calls = []
    monkeypatch.setattr(soergel, "hom_graded", lambda *args: calls.append(args))
    for fake in (
        [(s, -2), (s, 0), (s, 0), (s, 3)],
        [(s, -2), (s, 0), (s, 2), (s, 2)],
        [(s, -2), (s, 0), (s, 2)],
    ):
        with pytest.raises(DecompositionError, match="do not add up"):
            cat.decompose(M, expected=fake)
    assert calls == []


def test_inclusions_that_are_not_surjective_are_refused():
    # M = D_e[1] + D_e[-1] has the character of D_s, on which x_1 acts by 0;
    # a degree-0 map D_s -> M sends the generator into degree -1 and kills
    # x_1 times it, so no inclusion reaches degree 1
    cat = soergel_category(2)
    M = cat.trivial().shift(1).direct_sum(cat.trivial().shift(-1))
    with pytest.raises(DecompositionError, match="^the predicted inclusions are not surjective in degree 1$"):
        cat.decompose(M, expected=[(parse_perm("21"), 0)])


@pytest.mark.parametrize("n", [3, 4])
def test_a_certified_prediction_takes_no_complement_and_no_peel(n, monkeypatch):
    from soergelkit.selftest import CURATED_RANK4_WORDS

    cat = soergel_category(n)
    for w in cat.group.elements():
        cat.indecomposable(w)

    def refuse(*args):
        raise AssertionError("decompose with a prediction took a complement or a peel step")

    monkeypatch.setattr(soergel, "kernel_module", refuse)
    monkeypatch.setattr(cat, "_try_peel", refuse)
    words = words_up_to(3, 4) if n == 3 else CURATED_RANK4_WORDS
    for word in words:
        expected = cat.expected_summands(word)
        assert cat.decompose(cat.bott_samelson(word), expected=expected).summands == tuple(expected)


def ascending_shift_refusals(certify, monkeypatch):
    """The nonempty rank-3 words of length at most 4 whose true prediction
    ``certify`` refuses when the groups are visited by ascending shift, each
    with the refusal's message."""
    cat = soergel_category(3)
    words = words_up_to(3, 4)[1:]
    assert len(words) == 30
    refused = {}
    with monkeypatch.context() as patch:
        patch.setattr(soergel, "_by_descending_shift", lambda groups: sorted(groups, key=lambda g: g[0][1]))
        for word in words:
            try:
                certify(cat, cat.bott_samelson(word), cat.expected_summands(word))
            except DecompositionError as exc:
                refused[word] = str(exc)
    for word in refused:
        expected = cat.expected_summands(word)
        assert certify(cat, cat.bott_samelson(word), expected) == tuple(expected)
    return refused


def test_inclusions_visited_by_ascending_shift_refuse_true_predictions(monkeypatch):
    # negative control for the visiting order on the full-image route:
    # ascending, a group's inclusions also reach the summands of larger
    # shift, and the greedy choice can keep a map that leaves a copy
    # uncovered; by descending shift every refused prediction certifies
    refused = ascending_shift_refusals(certify_by_full_images, monkeypatch)
    assert len(refused) == 10 and (1, 2, 2) in refused
    assert all("not surjective" in message for message in refused.values())


def test_generator_images_visited_by_ascending_shift_refuse_true_predictions(monkeypatch):
    # the same control on the library's route: read modulo C_+M, a map of a
    # group of smaller shift can raise the rank only through the tops of
    # the larger shifts, and the greedy choice keeps it in place of a fresh
    # copy, so the group is refused
    refused = ascending_shift_refusals(
        lambda cat, M, expected: cat.decompose(M, expected=expected).summands, monkeypatch
    )
    assert sorted(refused) == [(1, 2, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2), (2, 1, 2, 2)]
    assert all("could not be split off" in message for message in refused.values())


@pytest.mark.parametrize("n", [3, 4])
def test_a_certified_prediction_solves_no_block_system_and_takes_no_peel(n, monkeypatch):
    from soergelkit import linalg
    from soergelkit.selftest import CURATED_RANK4_WORDS

    cat = soergel_category(n)
    for w in cat.group.elements():
        cat.indecomposable(w)

    def refuse(*args):
        raise AssertionError("decompose with a prediction solved a block system or took a peel step")

    spied = [
        (soergel, "hom_graded"),
        (gradedmod, "hom_equations"),
        (linalg, "hom_equations"),
        (soergel, "kernel_module"),
    ]
    for module, name in spied:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(cat, "_try_peel", refuse)
    words = words_up_to(3, 4) if n == 3 else CURATED_RANK4_WORDS
    for word in words:
        expected = cat.expected_summands(word)
        assert cat.decompose(cat.bott_samelson(word), expected=expected).summands == tuple(expected)
    # a prediction of the wrong character is refused before any solve
    monkeypatch.setattr(soergel, "hom_generator_images", refuse)
    x, k = cat.expected_summands(words[-1])[0]
    with pytest.raises(DecompositionError, match="do not add up"):
        cat.decompose(cat.bott_samelson(words[-1]), expected=[(x, k + 1)])


@pytest.mark.parametrize("w", [(0, 0, 1), (0, 1), (0, 1, 5), (1, 0), (2, 1, 0, 3)])
def test_what_is_not_a_group_element_is_refused_before_anything_is_cached(w):
    cat = soergel_category(3)
    e, s = parse_perm("123"), parse_perm("213")
    cat.indecomposable(s)
    before = dict(cat._indec)
    calls = [
        lambda: cat.indecomposable(w),
        lambda: cat.hom_basis(w, s, 0),
        lambda: cat.hom_poly(w, e),
        lambda: cat.endo_algebra([(w, 0)]),
        lambda: cat.decompose(cat.bott_samelson((1,)), expected=[(w, 0)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an element of S_3"):
            call()
        assert cat._indec == before
    with pytest.raises(ValueError):
        cat.hom_poly((0, 1), (0, 1, 2))
    assert cat._indec == before
