import random
from itertools import combinations

import pytest

from soergelkit.coinvariant import coinvariant_ring
from soergelkit.gradedmod import (
    GradedModule,
    ModuleMap,
    graded_hom_poly,
    hom_degree_range,
    hom_graded,
    hom_ungraded_dim,
    kernel_module,
    trivial_module,
)
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, SizeCapError, hom_equations, kernel_basis
from soergelkit.multipoly import MultiPoly
from soergelkit.soergel import soergel_category

from dense_views import block_diagonal, dense, dense_flatten
from reference import check_commutes, degree_basis_indices, multiply_by_variable_matrix, poly_action


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


def _subset_sum_failure(m):
    """The first failure of the module axioms, with each e_k summed over
    the subsets of k variables: None for a module."""
    n = m.ring.n
    for i, j in combinations(range(1, n + 1), 2):
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
    """m with its actions changed at random: x_i + t x_j and (1 - t) x_j in
    place of x_i and x_j (commutation and e_1 kept), x_i scaled, or one
    entry of one block moved."""
    n = m.ring.n
    acts = {(i, d): m.action(i, d) for i in range(1, n + 1) for d in m.degrees()}
    i, j = rng.sample(range(1, n + 1), 2)
    t = rng.choice((-2, -1, 1, 2))
    blocks = [key for key, blk in acts.items() if blk.rows and blk.cols]
    kind = rng.randrange(3 if blocks else 2)
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
    return GradedModule(m.ring, m.dims, acts, validate=False)


def test_validate_agrees_with_subset_sums():
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in sorted(cat.group.elements())]
    modules += [cat.bott_samelson(w) for w in ((1, 2), (2, 1, 2))] + [regular_module(3)]
    rng = random.Random(12)
    seen = set()
    for m in modules:
        assert _validate_failure(m) is None and _subset_sum_failure(m) is None
        for _ in range(8):
            bad = _perturbed(m, rng)
            failure = _validate_failure(bad)
            assert failure == _subset_sum_failure(bad)
            seen.add(failure and failure.split()[0])
    assert {None, "actions", "e_1", "e_2"} <= seen


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


def _graded_system(M, N, degree, variables):
    """The system of :func:`hom_graded` on the equations of ``variables``."""
    offsets, count = {}, 0
    for a in M.degrees():
        offsets[a] = count
        count += N.dim_at(a + degree) * M.dim_at(a)
    return hom_equations(
        count,
        (
            (N.action(i, a + degree), offsets[a], M.action(i, a), offsets.get(a + 2), 1)
            for i in variables
            for a in M.degrees()
            if N.dim_at(a + degree + 2)
        ),
    )


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
        full = _graded_system(M, N, d, every)
        basis = kernel_basis(full)
        assert kernel_basis(_graded_system(M, N, d, without_x_n)) == basis
        maps = hom_graded(M, N, d)
        flat = [[x for a in M.degrees() for x in dense_flatten(f.block(a))] for f in maps]
        assert flat == [dense(v, full.cols) for v in basis]
        stats["dropped"] += len(full.equations) - len(_graded_system(M, N, d, without_x_n).equations)
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
    # End^0 of the regular module has 1 + 4 + 4 + 1 unknowns
    monkeypatch.setenv("SOERGEL_MAX_DIM", "9")
    with pytest.raises(SizeCapError, match="Hom system in 10 unknowns"):
        hom_graded(m, m, 0)
    # at the cap its equations outnumber its unknowns, and it is solved
    monkeypatch.setenv("SOERGEL_MAX_DIM", "10")
    capped = hom_graded(m, m, 0)
    monkeypatch.delenv("SOERGEL_MAX_DIM")
    assert capped == hom_graded(m, m, 0)
    assert len(capped) == 1
