import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from soergelkit import gradedmod, linalg
from soergelkit.coinvariant import coinvariant_ring
from soergelkit.gradedmod import (
    GradedModule,
    ModuleMap,
    graded_hom_poly,
    hom_degree_range,
    hom_dim,
    hom_generator_images,
    hom_graded,
    hom_images,
    hom_ungraded_dim,
    kernel_module,
    trivial_module,
)
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, SizeCapError, SparseSystem, hom_equations, inverse, kernel_basis, rank
from soergelkit.multipoly import MultiPoly
from soergelkit.soergel import soergel_category
from soergelkit.weyl import format_perm, identity_perm, length, parse_perm

from dense_views import block_diagonal, dense, dense_flatten
from frontier import kept_relations
from reference import (
    check_commutes,
    degree_basis_indices,
    graded_hom_system,
    hom_graded_blocks,
    hom_system_every_relation,
    multiply_by_variable_matrix,
    poly_action,
    presentation_relations,
)


def regular_module(n):
    """The coinvariant ring as a module over itself, unshifted."""
    ring = coinvariant_ring(n)
    dims = {d: len(degree_basis_indices(ring, d)) for d in ring.degrees()}
    actions = {}
    for i in range(1, n + 1):
        for d in ring.degrees():
            m = multiply_by_variable_matrix(ring, i, d)
            if m.rows and m.cols:
                actions[(i, d)] = m
    return GradedModule(ring, dims, actions)


def test_trivial_module():
    ring = coinvariant_ring(2)
    q = trivial_module(ring)
    assert q.dims == {0: 1}
    for i in (1, 2):
        assert q.action(i, 0).is_zero()
    assert len(hom_graded(q, q, 0)) == 1
    assert q.character() == LaurentPoly.one()


@pytest.mark.parametrize("n", [2, 3])
def test_regular_module_validates(n):
    m = regular_module(n)
    m.validate()
    assert m.total_dim() == coinvariant_ring(n).dim


def test_character_of_regular_s3():
    assert regular_module(3).character() == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})
    assert regular_module(3).shift(3).character() == LaurentPoly({-3: 1, -1: 2, 1: 2, 3: 1})


def test_validate_catches_bad_actions():
    ring = coinvariant_ring(2)
    # x_1 acting by identity on a 1-dim module violates e_1 = 0
    with pytest.raises(AssertionError):
        GradedModule(ring, {0: 1, 2: 1}, {(1, 0): QMatrix.from_rows([[1]])})


def test_validate_names_e_2_when_e_1_vanishes():
    # x_1 = a, x_2 = -a, x_3 = 0 with a^2 != 0: e_1 = 0 but e_2 = -a^2
    ring = coinvariant_ring(3)
    a = QMatrix.from_rows([[1]])
    actions = {(1, 0): a, (1, 2): a, (2, 0): -a, (2, 2): -a}
    m = GradedModule(ring, {0: 1, 2: 1, 4: 1}, actions, validate=False)
    with pytest.raises(AssertionError, match="^e_2 of the actions does not vanish at degree 0$"):
        m.validate()


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("i", [0, 4, 7, -1])
def test_an_action_of_no_variable_of_the_rank_is_refused(i, validate):
    # the block has the right shape, and validate() reads only x_1 .. x_n,
    # so without the check the key would be stored and the module accepted
    ring = coinvariant_ring(3)
    with pytest.raises(ValueError, match=f"^x_{i} is not a variable at rank 3$"):
        GradedModule(ring, {0: 1, 2: 1}, {(i, 0): QMatrix.from_rows([[1]])}, validate=validate)


@pytest.mark.parametrize(
    "dims, actions, message",
    [
        ({0: -1}, {}, "^dimension -1 at degree 0 is not a non-negative integer$"),
        ({0: 1.5}, {}, "^dimension 1.5 at degree 0 is not a non-negative integer$"),
        ({0.5: 1}, {}, "^degree 0.5 is not an integer$"),
        ({0: 1, 2: 1}, {(1, 0.0): QMatrix.from_rows([[1]])}, "^degree 0.0 is not an integer$"),
    ],
    ids=["negative", "fractional_dimension", "fractional_degree", "float_action_degree"],
)
def test_dimensions_and_degrees_from_outside_are_checked(dims, actions, message):
    with pytest.raises(ValueError, match=message):
        GradedModule(coinvariant_ring(2), dims, actions)


def _subset_sum_failure(m):
    """The first failure of the module axioms, with each e_k summed over
    the subsets of k variables: None for a module.  Commutation is checked
    among x_1 .. x_{n-1}, as in ``validate``."""
    n = m.ring.n
    for i, j in combinations(range(1, n), 2):
        for d in m.degrees():
            if m.action(i, d + 2) * m.action(j, d) != m.action(j, d + 2) * m.action(i, d):
                return f"actions of x_{i} and x_{j} do not commute at degree {d}"
    for k in range(1, n + 1):
        for d in m.degrees():
            total = QMatrix.zero(m.dim_at(d + 2 * k), m.dim_at(d))
            for subset in combinations(range(1, n + 1), k):
                prod = QMatrix.identity(m.dim_at(d))
                for step, i in enumerate(subset):
                    prod = m.action(i, d + 2 * step) * prod
                total = total + prod
            if not total.is_zero():
                return f"e_{k} of the actions does not vanish at degree {d}"
    return None


def _validate_failure(m):
    try:
        m.validate()
    except AssertionError as exc:
        return str(exc)
    return None


def _perturbed(m, rng):
    """m with its actions changed at random, and the kind of change: x_i +
    t x_j and (1 - t) x_j in place of x_i and x_j (commutation and e_1
    kept), x_i scaled, one entry of one block moved, or one nonzero block
    deleted, so that a product through it is absent on one side only."""
    n = m.ring.n
    acts = {(i, d): m.action(i, d) for i in range(1, n + 1) for d in m.degrees()}
    i, j = rng.sample(range(1, n + 1), 2)
    t = rng.choice((-2, -1, 1, 2))
    blocks = [key for key, blk in acts.items() if blk.rows and blk.cols]
    kind = rng.randrange(4 if blocks else 2)
    for d in m.degrees():
        if kind == 0:
            acts[(i, d)] = acts[(i, d)] + acts[(j, d)].scale(t)
            acts[(j, d)] = acts[(j, d)].scale(1 - t)
        elif kind == 1:
            acts[(i, d)] = acts[(i, d)].scale(t + 3)
    if kind == 2:
        key = rng.choice(blocks)
        blk = acts[key]
        data = [row[:] for row in blk.data]
        data[rng.randrange(blk.rows)][rng.randrange(blk.cols)] += t
        acts[key] = QMatrix(blk.rows, blk.cols, data)
    elif kind == 3:
        del acts[rng.choice(sorted(m.actions))]
    return GradedModule(m.ring, m.dims, acts, validate=False), kind


def _check_validate_against_subset_sums(modules, rng, rounds):
    """Assert that ``validate`` and the subset-sum oracle give the same
    verdict on every module and on ``rounds`` perturbations of each;
    returns the first words of the failures seen and the kinds of change."""
    seen, kinds = set(), set()
    for m in modules:
        assert _validate_failure(m) is None and _subset_sum_failure(m) is None
        for _ in range(rounds):
            bad, kind = _perturbed(m, rng)
            failure = _validate_failure(bad)
            assert failure == _subset_sum_failure(bad)
            seen.add(failure and failure.split()[0])
            kinds.add((kind, failure and failure.split()[0]))
    return seen, kinds


def test_validate_agrees_with_subset_sums():
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    modules += [cat.bott_samelson(w) for w in ((1, 2), (2, 1, 2))] + [regular_module(3)]
    seen, kinds = _check_validate_against_subset_sums(modules, random.Random(12), 8)
    assert {None, "actions", "e_1", "e_2"} <= seen
    # a deleted block leaves a product on one side with none on the other
    assert {(3, "actions"), (3, "e_1")} <= kinds


def test_validate_agrees_with_subset_sums_at_rank_4():
    cat = soergel_category(4)
    modules = [cat.indecomposable(parse_perm(w)) for w in ("3412", "4231", "4321")]
    modules += [cat.bott_samelson(w) for w in ((1, 3, 2), (2, 1, 3, 2))]
    seen, kinds = _check_validate_against_subset_sums(modules, random.Random(13), 8)
    assert {None, "actions", "e_1", "e_2"} <= seen
    assert {(3, "actions"), (3, "e_1")} <= kinds


@pytest.mark.parametrize("n", [3, 4])
def test_validate_rejects_x_n_that_fails_to_commute_by_its_e_1(n):
    # validate checks commutation among x_1 .. x_{n-1} only; moving one
    # entry of x_n breaks e_1 = 0, and some of those moves also break the
    # commutation of x_n with another variable, which e_1 still catches
    m = regular_module(n)
    noncommuting = 0
    for d in m.degrees():
        blk = m.action(n, d)
        for r in range(blk.rows):
            for c in range(blk.cols):
                data = [row[:] for row in blk.data]
                data[r][c] += 1
                acts = dict(m.actions)
                acts[(n, d)] = QMatrix(blk.rows, blk.cols, data)
                bad = GradedModule(m.ring, m.dims, acts, validate=False)
                noncommuting += any(
                    bad.action(n, e + 2) * bad.action(i, e) != bad.action(i, e + 2) * bad.action(n, e)
                    for i in range(1, n)
                    for e in bad.degrees()
                )
                with pytest.raises(AssertionError, match=f"^e_1 of the actions does not vanish at degree {d}$"):
                    bad.validate()
    assert noncommuting > 0

def test_end_of_regular_is_regular_character():
    # End over the ring of the regular module is the ring itself
    m = regular_module(2)
    assert graded_hom_poly(m, m) == LaurentPoly({0: 1, 2: 1})


def test_hom_trivial_to_regular_socle():
    # maps from the trivial module hit the socle, the top degree line
    for n in (2, 3):
        q = trivial_module(coinvariant_ring(n))
        m = regular_module(n)
        top = max(m.degrees())
        poly = graded_hom_poly(q, m)
        assert poly == LaurentPoly.v(top)


def test_hom_regular_to_trivial():
    m = regular_module(2)
    q = trivial_module(coinvariant_ring(2))
    assert graded_hom_poly(m, q) == LaurentPoly.one()


def test_ungraded_matches_graded_sum():
    m = regular_module(2)
    q = trivial_module(coinvariant_ring(2))
    for a, b in [(m, m), (m, q), (q, m), (q, q)]:
        assert hom_ungraded_dim(a, b) == graded_hom_poly(a, b).at_one()


def test_module_map_compose_and_total():
    m = regular_module(2)
    ident = ModuleMap.identity(m)
    assert ident.compose(ident) == ident
    assert ident.to_total() == QMatrix.identity(2)
    check_commutes(ident)


def test_hom_bases_are_module_maps():
    cat = soergel_category(3)
    m = cat.bott_samelson((1, 2))
    n = cat.bott_samelson((2, 1, 2))
    for d in range(-4, 5):
        for f in hom_graded(m, n, d):
            check_commutes(f)


def test_direct_sum_and_kernel():
    ring = coinvariant_ring(2)
    q = trivial_module(ring)
    s = q.direct_sum(q.shift(2))
    assert s.dims == {0: 1, -2: 1}
    # projection onto the first summand
    e = ModuleMap(s, s, 0, {0: QMatrix.from_rows([[1]])})
    k, inc = kernel_module(e)
    assert k.dims == {-2: 1}
    check_commutes(inc)


def test_direct_sum_is_the_block_diagonal_of_its_summands():
    cat = soergel_category(3)
    rng = random.Random(1801)
    empty = GradedModule(cat.ring, {}, {})

    def draw():
        word = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
        return cat.bott_samelson(word).shift(rng.randint(-4, 4))

    pairs = [(draw(), draw()) for _ in range(24)] + [(draw(), empty), (empty, draw()), (empty, empty)]
    kinds = set()
    for a, b in pairs:
        s = a.direct_sum(b)
        s.validate()
        support = set(a.degrees()) | set(b.degrees())
        assert s.dims == {d: a.dim_at(d) + b.dim_at(d) for d in support}
        for i in range(1, 4):
            for d in support:
                x, y, got = a.action(i, d), b.action(i, d), s.action(i, d)
                assert (got.rows, got.cols) == (x.rows + y.rows, x.cols + y.cols)
                assert got.data == block_diagonal(x, y)
        if not (a.dims and b.dims):
            kinds.add("empty")
        else:
            kinds.add("overlapping" if set(a.dims) & set(b.dims) else "disjoint")
    assert kinds == {"empty", "overlapping", "disjoint"}


def test_common_kernel_is_the_iterated_kernel():
    # the kernel of g on ker f, in the reduced echelon basis of ker f,
    # composes to the common kernel of f and g entry for entry, whatever the
    # degrees and targets of the maps
    cat = soergel_category(3)
    M = cat.bott_samelson((1, 2, 1))
    maps = [
        f
        for word, degree in (((1,), 0), ((1,), 2), ((2,), 2), ((1, 2), 1), ((2, 1), 3))
        for f in hom_graded(M, cat.bott_samelson(word), degree)
    ]
    assert len(maps) == 10
    shrinks = 0
    for f, g in combinations(maps, 2):
        first, first_inclusion = kernel_module(f)
        kernel, inclusion = kernel_module(g.compose(first_inclusion))
        common, common_inclusion = kernel_module(f, g)
        assert common.dims == kernel.dims and common.actions == kernel.actions
        assert common_inclusion.blocks == first_inclusion.compose(inclusion).blocks
        shrinks += common.dims != first.dims
    assert shrinks > 20
    with pytest.raises(ValueError, match="different sources"):
        kernel_module(maps[0], hom_graded(cat.bott_samelson((1,)), cat.bott_samelson((1,)), 0)[0])


def test_the_common_kernel_of_no_maps_is_refused():
    with pytest.raises(ValueError, match="no maps"):
        kernel_module()


def test_kernel_module_rejects_a_non_module_map():
    # killing the top degree of D_s but not the bottom one does not commute
    # with x_1, which maps the bottom degree onto the top one
    d_s = soergel_category(2).bott_samelson((1,))
    e = ModuleMap(d_s, d_s, 0, {1: QMatrix.identity(1)})
    with pytest.raises(AssertionError, match="not action-stable"):
        kernel_module(e)


def test_poly_action_well_defined():
    # two lifts of the same ring element act identically
    m = regular_module(3)
    e1 = MultiPoly.elementary(1, 3)
    zero_action = poly_action(m, e1)
    assert all(block.is_zero() for block in zero_action.values())
    x1 = MultiPoly.variable(1, 3)
    x1_shifted = x1 + e1  # same class in the quotient
    a1 = poly_action(m, x1)
    a2 = poly_action(m, x1_shifted)
    assert all(a1[d] == a2[d] for d in a1)


def test_bott_samelson_induct_dims_s2():
    cat = soergel_category(2)
    q = cat.trivial()
    d_s = cat.induct(1, q)
    assert d_s.dims == {-1: 1, 1: 1}
    again = cat.induct(1, d_s)
    assert again.dims == {-2: 1, 0: 2, 2: 1}


def test_induct_doubles_dimension_s3():
    cat = soergel_category(3)
    m = cat.trivial()
    for i in (1, 2, 1):
        m2 = cat.induct(i, m)
        assert m2.total_dim() == 2 * m.total_dim()
        m = m2
    assert m.dims == {-3: 1, -1: 3, 1: 3, 3: 1}


def _ungraded_system(M, N, variables):
    """The system of :func:`hom_ungraded_dim` on the equations of ``variables``."""
    return hom_equations(
        N.total_dim() * M.total_dim(),
        ((N.total_action(i), 0, M.total_action(i), 0, 1) for i in variables),
    )


def _check_x_n_equations_are_redundant(M, N, stats):
    n = M.ring.n
    every, without_x_n = range(1, n + 1), range(1, n)
    for d in hom_degree_range(M, N):
        full = graded_hom_system(M, N, d, every)
        basis = kernel_basis(full)
        assert kernel_basis(graded_hom_system(M, N, d, without_x_n)) == basis
        maps = hom_graded(M, N, d)
        flat = [[x for a in M.degrees() for x in dense_flatten(f.block(a))] for f in maps]
        assert flat == [dense(v, full.cols) for v in basis]
        stats["dropped"] += len(full.equations) - len(graded_hom_system(M, N, d, without_x_n).equations)
        stats["nonempty"] += bool(basis)
    full = _ungraded_system(M, N, every)
    basis = kernel_basis(full)
    assert kernel_basis(_ungraded_system(M, N, without_x_n)) == basis
    assert hom_ungraded_dim(M, N) == len(basis)


def test_x_n_equations_are_redundant_on_rank_3():
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in cat.group.elements()]
    stats = {"dropped": 0, "nonempty": 0}
    for M in modules:
        for N in modules:
            _check_x_n_equations_are_redundant(M, N, stats)
    assert stats["dropped"] > 0 and stats["nonempty"] > 36


def test_x_n_equations_are_redundant_on_a_rank_4_sample():
    cat = soergel_category(4)
    elements = sorted(cat.group.elements())
    rng = random.Random(4)
    stats = {"dropped": 0, "nonempty": 0}
    for _ in range(12):
        x, y = rng.choice(elements), rng.choice(elements)
        _check_x_n_equations_are_redundant(cat.indecomposable(x), cat.indecomposable(y), stats)
    assert stats["dropped"] > 0 and stats["nonempty"] > 0


def test_hom_graded_refuses_over_the_cap(monkeypatch):
    m = regular_module(3)  # the ring is built before the cap is lowered
    # End^0 of the regular module solves 1 generator-image unknown, and a
    # map in blocks has 1 + 4 + 4 + 1 entries
    monkeypatch.setenv("SOERGEL_MAX_DIM", "9")
    assert hom_dim(m, m, 0) == 1
    assert hom_generator_images(m, m, 0) == [{0: [{0: 1}]}]
    solved = []
    solve = gradedmod.hom_generator_images
    monkeypatch.setattr(gradedmod, "hom_generator_images", lambda *args: solved.append(args) or solve(*args))
    for route in (hom_graded, hom_images):
        with pytest.raises(SizeCapError, match="Hom map of 10 block entries exceeds the dimension cap 9 "):
            route(m, m, 0)
    assert solved == []
    # at the cap it is solved
    monkeypatch.setenv("SOERGEL_MAX_DIM", "10")
    capped = hom_graded(m, m, 0)
    monkeypatch.delenv("SOERGEL_MAX_DIM")
    assert capped == hom_graded(m, m, 0)
    assert len(capped) == 1 and len(solved) == 2


def test_a_generator_image_system_over_the_cap_is_refused_before_any_elimination(monkeypatch):
    m = regular_module(3)
    m.presentation()  # built before the cap is lowered
    monkeypatch.setenv("SOERGEL_MAX_DIM", "1")

    def must_not_run(*args, **kwargs):
        raise AssertionError("a Hom system over the cap reached the elimination")

    # Hom^2 of the regular module: its one generator, in degree 0, has dim m_2 = 2 unknowns
    monkeypatch.setattr(linalg, "_echelon", must_not_run)
    for route in (hom_dim, hom_generator_images):
        with pytest.raises(SizeCapError, match="Hom system in 2 generator-image unknowns exceeds the dimension cap 1 "):
            route(m, m, 2)
    assert gradedmod.check_hom_size(m, m, 6) == 1
    monkeypatch.undo()
    assert hom_dim(m, m, 2) == 2


def test_empty_degrees_are_never_refused(monkeypatch):
    cat = soergel_category(3)
    top = cat.indecomposable(cat.group.longest_element())  # built before the cap is lowered
    monkeypatch.setenv("SOERGEL_MAX_DIM", "3")
    assert graded_hom_poly(top, top) == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})
    # a degree with no generator-image unknowns builds no system and takes no rank
    monkeypatch.setenv("SOERGEL_MAX_DIM", "1")
    ranks = []
    monkeypatch.setattr(gradedmod, "rank", lambda system: ranks.append(system) or rank(system))
    empty = [d for d in hom_degree_range(top, top) if d < 0]
    assert empty and all(gradedmod.check_hom_size(top, top, d) == 0 for d in empty)
    assert [hom_dim(top, top, d) for d in empty] == [0] * len(empty)
    assert ranks == []


# -- Hom on generator images against the block system ----------------------------


def _generator_rows(M, N, degree):
    """The images of the generators under each map of ``hom_images``,
    read off its blocks as ``hom_generator_images`` lays them out."""
    pres = M.presentation()
    out = []
    for blocks in hom_images(M, N, degree):
        images = {}
        for d, gens in pres.generators().items():
            if N.dim_at(d + degree):
                block, chosen = blocks.get(d), len(pres.chosen[d])
                images[d] = [dict(block.nonzeros[chosen + g]) if block else {} for g in range(gens)]
        out.append(images)
    return out


def _routes_agree(M, N):
    """Assert that hom_graded and the per-degree block system give the same
    basis, map by map, that hom_dim counts it, that the generator images
    are the generator rows of the images of the presentation basis, and
    that the system on the kept relations has the rank and the kernel
    basis of the system on every relation, in every degree where a map
    could be nonzero; returns the number of maps."""
    maps = 0
    for d in hom_degree_range(M, N):
        got = hom_graded(M, N, d)
        assert got == hom_graded_blocks(M, N, d), d
        assert hom_dim(M, N, d) == len(got), d
        assert hom_generator_images(M, N, d) == _generator_rows(M, N, d), d
        _, width, equations = gradedmod._hom_system(M, N, d)
        kept, every = SparseSystem.of(width, equations), hom_system_every_relation(M, N, d)
        assert every.cols == width and rank(kept) == rank(every), d
        assert kernel_basis(kept) == kernel_basis(every), d
        maps += len(got)
    return maps


def test_hom_graded_equals_the_block_system_on_all_rank_3_pairs():
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    # 77 is the sum over all pairs of the Hecke pairing at v = 1
    assert sum(_routes_agree(M, N) for M in modules for N in modules) == 77


def test_hom_graded_equals_the_block_system_on_a_rank_4_sample():
    # 3412 and 4231 are the two rank-4 D_w with two generators
    cat = soergel_category(4)
    elements = sorted(cat.group.elements())
    special = [parse_perm("3412"), parse_perm("4231")]
    rng = random.Random(26)
    pairs = [(x, y) for x in special for y in special]
    pairs += [(x, rng.choice(elements)) for x in special] + [(rng.choice(elements), y) for y in special]
    pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(12)]
    assert all(_routes_agree(cat.indecomposable(x), cat.indecomposable(y)) for x, y in pairs)


def test_hom_graded_equals_the_block_system_on_bott_samelson_shifted_and_sum_modules():
    cat = soergel_category(3)
    w0 = cat.group.longest_element()
    built = [
        cat.bott_samelson((1, 2, 1)),
        cat.bott_samelson((2, 1)).shift(1),
        cat.indecomposable(w0).direct_sum(cat.bott_samelson((1,)).shift(-1)),
        cat.bott_samelson((1, 2)).direct_sum(cat.bott_samelson((2,)).shift(2)),
    ]
    others = built + [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    maps = sum(_routes_agree(M, N) + _routes_agree(N, M) for M in built for N in others)
    cat4 = soergel_category(4)
    bs = cat4.bott_samelson((1, 2, 3, 2))
    for w in (parse_perm("3412"), parse_perm("2143"), cat4.group.longest_element()):
        maps += _routes_agree(bs, cat4.indecomposable(w)) + _routes_agree(cat4.indecomposable(w), bs.shift(-1))
    assert maps > 0


def test_hom_graded_equals_the_block_system_on_a_seeded_rank_5_sample():
    cat = soergel_category(5)
    elements = sorted(cat.group.elements())
    rng = random.Random(30)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(10)]
    assert sum(_routes_agree(cat.indecomposable(x), cat.indecomposable(y)) for x, y in pairs) > 0


def test_hom_refuses_modules_over_two_rings():
    one, other = trivial_module(coinvariant_ring(2)), trivial_module(coinvariant_ring(3))
    for route in (hom_graded, hom_dim):
        for M, N in ((one, other), (other, one)):
            with pytest.raises(ValueError, match="different rings"):
                route(M, N, 0)


def test_hom_graded_keeps_the_relations_above_the_top_degree():
    # every product of a generator of the trivial module is a relation in
    # degree 2, where the module is 0; without it, a map to D_s could send
    # the generator to the bottom of D_s, which x_1 does not kill
    for n in (2, 3):
        cat = soergel_category(n)
        trivial = cat.trivial()
        pair = trivial.shift(1).direct_sum(trivial.shift(-1))
        targets = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
        targets += [cat.bott_samelson((1, 1)), pair]
        for M in (trivial, pair):
            for N in targets:
                _routes_agree(M, N)
    cat = soergel_category(2)
    d_s = cat.indecomposable(parse_perm("21"))
    assert presentation_relations(cat.trivial()) == {0: (), 2: (0,)}
    assert hom_graded(cat.trivial(), d_s, -1) == []
    assert len(hom_graded(cat.trivial(), d_s, 1)) == 1


def _check_presentation(M):
    """Assert that M's presentation chooses a basis of every degree, made
    of products and then unit vectors, that its kept relations are
    relations, in order, and that each holds exactly in the coordinates
    kept for it; returns its generators."""
    pres = M.presentation()
    degrees = set(M.degrees())
    assert set(pres.kept) == degrees | {d + 2 for d in degrees}
    assert set(pres.bases) == degrees
    for d, relations in presentation_relations(M).items():
        below = pres.bases.get(d - 2)
        products = []
        if below is not None:
            for i in range(1, M.ring.n):
                products += [M.action(i, d - 2).times_vector(below.row(t)) for t in range(below.rows)]
        chosen = pres.chosen.get(d, ())
        assert sorted(chosen + relations) == list(range(len(products)))
        if d not in degrees:
            assert chosen == () and all(v == [] for v in products)
            continue
        basis, m = pres.bases[d], M.dim_at(d)
        assert pres.inverse(d) * basis == QMatrix.identity(m) == basis * pres.inverse(d)
        assert [basis.row(j) for j in range(len(chosen))] == [products[c] for c in chosen]
        units = [basis.row(j) for j in range(len(chosen), m)]
        assert all(sorted(row) == [0] * (m - 1) + [1] for row in units)
        kept = pres.kept[d]
        assert set(kept) <= set(relations) and list(kept) == sorted(kept)
        if kept:
            coords = pres.coords(d)
            assert coords.rows == len(kept)
            for r, c in enumerate(kept):
                assert basis.transpose().times_vector(coords.row(r)) == products[c]
    return pres.generators()


def test_columns_are_the_transposed_action_blocks_kept_on_the_module():
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    modules += [cat.bott_samelson((1, 2, 1)), regular_module(3)]
    for M in modules:
        for i in range(1, 4):
            for d in range(min(M.degrees()) - 2, max(M.degrees()) + 1):
                act = M.actions.get((i, d))
                if act is None:
                    assert M.columns(i, d) is None
                else:
                    columns = M.columns(i, d)
                    assert columns == act.transpose().nonzeros and M.columns(i, d) is columns


def test_a_hom_solve_transposes_no_action_block_of_a_target_whose_columns_were_read(monkeypatch):
    cat = soergel_category(3)
    word = (1, 2, 1, 2)
    M = cat.induct(2, cat.bott_samelson(word[:-1]))
    expected = cat.expected_summands(word)
    sources = [cat.indecomposable(x) for x, _ in expected]
    blocks = list(M.actions.values())
    transposed = []
    transpose = QMatrix.transpose

    def spying(self):
        transposed.extend(b for b in blocks if b is self)
        return transpose(self)

    monkeypatch.setattr(QMatrix, "transpose", spying)

    def solves():
        for D in sources:
            for k in hom_degree_range(D, M):
                hom_dim(D, M, k)
                hom_generator_images(D, M, k)
                hom_graded(D, M, k)
        cat.decompose(M, expected)

    # the spy sees the first reads of a fresh target, each block once
    solves()
    assert transposed and len(transposed) == len({id(b) for b in transposed})
    for i, d in M.actions:
        M.columns(i, d)
    transposed.clear()
    solves()
    assert transposed == []


def test_presentations_are_bases_of_products_and_their_relations_hold():
    for n in (2, 3, 4):
        cat = soergel_category(n)
        modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
        modules += [cat.trivial(), cat.bott_samelson((1,) * 3).shift(1)]
        if n > 2:
            modules += [cat.bott_samelson((1, 2, 1, 2)), cat.bott_samelson((2, 1)).direct_sum(cat.trivial().shift(2))]
        for M in modules:
            gens = _check_presentation(M)
            assert sum(gens.values()) >= 1 and min(gens) == min(M.degrees())
    assert _check_presentation(regular_module(3)) == {0: 1}


def test_d_w_is_cyclic_exactly_when_w_avoids_3412_and_4231():
    # Schubert varieties are rationally smooth exactly off these patterns
    # (Lakshmibai and Sandhya 1990), and then D_w is generated in its
    # bottom degree -l(w)
    for n, cyclic in ((3, 6), (4, 22)):
        cat = soergel_category(n)
        gens = {w: cat.indecomposable(w).presentation().generators() for w in cat.group.elements()}
        assert sum(g == {-length(w): 1} for w, g in gens.items()) == cyclic
    assert {format_perm(w): g for w, g in gens.items() if sum(g.values()) > 1} == {
        "3412": {-4: 1, -2: 1},
        "4231": {-5: 1, -3: 1},
    }


# -- kept relations ----------------------------------------------------------------


def _kept_counts(M):
    """The number of kept relations of M's presentation in each degree that has one."""
    return {d: len(kept) for d, kept in M.presentation().kept.items() if kept}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_d_e_keeps_its_n_minus_1_variables_and_d_w0_keeps_nothing(n, monkeypatch):
    # D_e is C / (x_1, .., x_{n-1}); D_w0 is C itself, free of rank one, so
    # a count from it reads no relation and forms no image
    cat = soergel_category(n)
    assert _kept_counts(cat.indecomposable(identity_perm(n))) == {2: n - 1}
    top = cat.indecomposable(cat.group.longest_element())
    assert _kept_counts(top) == {} and sum(map(len, presentation_relations(top).values())) > 0
    targets = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    formed = []

    def spying(method):
        return lambda self, *args: formed.append(args) or method(self, *args)

    for name in ("image", "product"):
        monkeypatch.setattr(gradedmod._Images, name, spying(getattr(gradedmod._Images, name)))
    dims = [hom_dim(top, N, k) for N in targets for k in hom_degree_range(top, N)]
    assert formed == [] and sum(dims) > 0
    # the spy sees the images that a count from D_e reads
    assert hom_dim(cat.trivial(), top, -length(cat.group.longest_element())) == 0 and formed


def test_kept_relations_add_over_direct_sums_and_move_with_shifts():
    # the kept relations of a degree number dim Tor_1(M, Q) there, which
    # adds over direct sums and moves with shifts, whatever the greedy order
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    modules += [cat.bott_samelson((1, 2, 1)), cat.bott_samelson((2, 1)).shift(1), cat.trivial().shift(-6)]
    top = cat.indecomposable(cat.group.longest_element())
    assert not _kept_counts(top) and all(_kept_counts(M) for M in modules if M is not top)
    for M in modules:
        for k in (-3, 2):
            assert _kept_counts(M.shift(k)) == {d - k: c for d, c in _kept_counts(M).items()}
        for N in modules:
            total = Counter(_kept_counts(M))
            total.update(_kept_counts(N))
            assert _kept_counts(M.direct_sum(N)) == dict(total), (M.dims, N.dims)
    # degrees 0 and 6 leave a gap at 4, where K is all of the free module:
    # its products fill C_8 in degree 8, so only the new generator's three
    # relations are kept there
    trivial = soergel_category(4).trivial()
    assert _kept_counts(trivial.direct_sum(trivial.shift(-6))) == {2: 3, 8: 3}


def test_kept_relations_of_a_rational_change_of_basis():
    # conjugating the actions by a diagonal of true fractions leaves a module
    # isomorphic, with the same kept counts, and its lifts and kernel
    # vectors hold Fractions
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    # j + 2 is a multiple of 3 exactly when j % 3 == 1, where the entry is 1
    diagonal = {m: QMatrix(m, m, [{j: Fraction(j + 2, 3) if j % 3 != 1 else 1} for j in range(m)]) for m in range(1, 7)}
    fractions = 0
    for D in modules:
        scale = {d: diagonal[m] for d, m in D.dims.items()}
        actions = {(i, d): scale[d + 2] * a * inverse(scale[d]) for (i, d), a in D.actions.items()}
        R = GradedModule(D.ring, D.dims, actions)
        fractions += sum(type(x) is Fraction for a in R.actions.values() for row in a.nonzeros for x in row.values())
        assert _kept_counts(R) == _kept_counts(D)
        maps = [len(hom_graded(D, N, k)) for N in modules for k in hom_degree_range(D, N)]
        assert sum(_routes_agree(R, N) for N in modules) == sum(maps)
    assert fractions > 0


@pytest.mark.parametrize("n, counts", [(2, (2, 1, 0)), (3, (25, 6, 3)), (4, (464, 40, 20))])
def test_the_d_w_build_solves_on_the_kept_relations(n, counts):
    # the CI step runs the same check at rank 5
    assert kept_relations(n) == dict(zip(("relations", "kept", "largest_system"), counts))
