import pytest

from soergelkit import dualalg
from soergelkit.dualalg import DualAlgebra, dual_algebra
from soergelkit.laurent import LaurentPoly
from soergelkit.linalg import QMatrix, RowSpan
from soergelkit.weyl import format_perm, parse_perm

from frontier import graded_cartan, graded_euler, resolutions
from reference import restricted_resolution


def test_rank1_trivial():
    alg = dual_algebra(1)
    assert alg.dim == 1
    e = parse_perm("1")
    res = alg.projective_resolution(e)
    assert res.complete and res.length() == 0
    assert alg.ext_dims(e, e, 0) == (1, {0: 1})
    assert alg.ext_dims(e, e, 1) == (0, {})
    assert alg.koszulity_check() == {"koszul": True, "max_k": 0, "complete": True}


def test_rank2_dimension_and_cartan():
    alg = dual_algebra(2)
    assert alg.dim == 5
    e, s = parse_perm("12"), parse_perm("21")
    assert alg.cartan_matrix() == QMatrix.from_rows([[1, 1], [1, 2]])
    assert alg.graded_cartan(e, e) == LaurentPoly.one()
    assert alg.graded_cartan(e, s) == LaurentPoly.v()
    assert alg.graded_cartan(s, s) == LaurentPoly({0: 1, 2: 1})


def test_rank2_resolutions():
    alg = dual_algebra(2)
    e, s = parse_perm("12"), parse_perm("21")
    res_e = alg.projective_resolution(e)
    assert res_e.complete
    assert res_e.steps == [((e, 0),), ((s, 1),), ((e, 2),)]
    res_s = alg.projective_resolution(s)
    assert res_s.complete
    assert res_s.steps == [((s, 0),), ((e, 1),)]


def test_rank2_ext_tables():
    alg = dual_algebra(2)
    e, s = parse_perm("12"), parse_perm("21")
    assert alg.ext_dims(e, e, 0) == (1, {0: 1})
    assert alg.ext_dims(e, s, 1) == (1, {2: 1})
    assert alg.ext_dims(e, e, 2) == (1, {4: 1})
    assert alg.ext_dims(s, e, 1) == (1, {2: 1})
    assert alg.ext_dims(s, s, 1) == (0, {})


@pytest.mark.parametrize("n", [2, 3])
def test_euler_inverts_cartan(n):
    alg = dual_algebra(n)
    assert alg.euler_matrix() == alg.inverse_cartan()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_koszulity(n):
    report = dual_algebra(n).koszulity_check()
    assert report["koszul"], report
    assert report["complete"]


def test_rank3_resolution_lengths():
    alg = dual_algebra(3)
    for x in alg.summands:
        res = alg.projective_resolution(x)
        assert res.complete
        assert res.length() <= 6


def test_graded_cartan_matches_pairing():
    assert graded_cartan(2) == {"dim": 5, "pairs": 4}
    assert graded_cartan(3) == {"dim": 77, "pairs": 36}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_resolutions_equal_the_restricted_action_oracle(n):
    alg = dual_algebra(n)
    for x in alg.summands:
        res, oracle = alg.projective_resolution(x), restricted_resolution(alg, x)
        assert (res.steps, res.complete) == (oracle.steps, oracle.complete), format_perm(x)


@pytest.mark.parametrize("n", [2, 3])
def test_radical_generators_span_the_positive_part_modulo_its_square(n):
    alg = dual_algebra(n)
    basis, endo = alg.endo.basis, alg.endo
    generators = [g for slot, gs in alg.radical_generators.items() for g in gs]
    assert all(basis[g][0] == slot for slot, gs in alg.radical_generators.items() for g in gs)
    assert len(generators) == len(set(generators)) == endo.graded_dims()[1]
    # A_+ . A_+ from every product in the table, block by block
    square = {}
    for i in range(endo.dim):
        for j in range(endo.dim):
            if basis[i][2] > 0 and basis[j][2] > 0 and endo.compose_indices(i, j):
                a, b = basis[j][0], basis[i][1]
                square.setdefault((a, b, basis[i][2] + basis[j][2]), []).append(dict(endo.compose_indices(i, j)))
    blocks = {}
    for idx, (a, b, d, _) in enumerate(basis):
        if d > 0:
            blocks.setdefault((a, b, d), []).append(idx)
    for key, records in blocks.items():
        span = RowSpan(endo.dim)
        for row in square.get(key, []) + [{g: 1} for g in generators if g in records]:
            span.raises(row)
        assert span.rank == len(records), key


def test_dropping_degree_one_generators_of_one_slot_breaks_minimality(monkeypatch):
    # with the degree-1 generators out of one slot gone, G . K misses part
    # of the radical, so some resolution takes a head too many
    expected = {x: restricted_resolution(dual_algebra(3), x) for x in dual_algebra(3).summands}
    alg = DualAlgebra(3)
    slot = alg.slot[parse_perm("213")]
    kept = tuple(g for g in alg.radical_generators[slot] if alg.endo.basis[g][2] != 1)
    assert len(kept) < len(alg.radical_generators[slot])
    alg.radical_generators[slot] = kept
    differs = []
    for x, oracle in expected.items():
        monkeypatch.setattr(dualalg, "MAX_RESOLUTION_LENGTH", oracle.length() + 1)
        res = alg.projective_resolution(x)
        if (res.steps, res.complete) != (oracle.steps, oracle.complete):
            differs.append(format_perm(x))
    assert differs


def test_a_cover_that_misses_a_head_is_refused(monkeypatch):
    heads = DualAlgebra._heads
    monkeypatch.setattr(DualAlgebra, "_heads", lambda self, *args: heads(self, *args)[1:])
    with pytest.raises(AssertionError, match="failed to surject"):
        DualAlgebra(2).projective_resolution(parse_perm("12"))


@pytest.mark.parametrize("n", [2, 3])
def test_graded_euler_inverts_the_graded_cartan_matrix(n):
    assert graded_euler(n) == {"simples": len(dual_algebra(n).summands), "cover_terms": dual_algebra(n).dim}


def test_resolution_frontier_check_at_ranks_two_and_three():
    assert resolutions(2) == {"simples": 2, "max_k": 2, "generators": 2, "cover_terms": 5, "oracle": ["12", "21"]}
    assert resolutions(3) == {"simples": 6, "max_k": 6, "generators": 16, "cover_terms": 77, "oracle": ["123", "231"]}


def test_cartan_matches_ungraded_hom_dims():
    alg = dual_algebra(3)
    c = alg.cartan_matrix()
    for i, x in enumerate(alg.summands):
        for j, y in enumerate(alg.summands):
            assert c.entry(i, j) == alg.cat.hom_poly(x, y).at_one()


def _table_product(endo, i, j):
    return dict(endo.compose_indices(i, j))


def _table_apply(endo, left, right_combo):
    out = {}
    for j, coeff in right_combo.items():
        for k, c2 in endo.compose_indices(left, j):
            out[k] = out.get(k, 0) + coeff * c2
    return {k: v for k, v in out.items() if v}


def test_structure_constants_associative_rank2():
    endo = dual_algebra(2).endo
    n = endo.dim
    for i in range(n):
        for j in range(n):
            ij = _table_product(endo, i, j)
            for k in range(n):
                jk = _table_product(endo, j, k)
                lhs = _table_apply(endo, i, jk)
                rhs = {}
                for m, coeff in ij.items():
                    for t, c2 in endo.compose_indices(m, k):
                        rhs[t] = rhs.get(t, 0) + coeff * c2
                rhs = {t: v for t, v in rhs.items() if v}
                assert lhs == rhs


def test_structure_constants_associative_rank3_sample():
    import random

    endo = dual_algebra(3).endo
    rng = random.Random(51)
    n = endo.dim
    for _ in range(300):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        ij = _table_product(endo, i, j)
        jk = _table_product(endo, j, k)
        lhs = _table_apply(endo, i, jk)
        rhs = {}
        for m, coeff in ij.items():
            for t, c2 in endo.compose_indices(m, k):
                rhs[t] = rhs.get(t, 0) + coeff * c2
        rhs = {t: v for t, v in rhs.items() if v}
        assert lhs == rhs
