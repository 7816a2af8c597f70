import math
import random
from fractions import Fraction

import pytest

from soergelkit import gradedmod, linalg
from soergelkit.gradedmod import graded_hom_poly, hom_ungraded_dim
from soergelkit.linalg import (
    EchelonBasis,
    QMatrix,
    RowSpan,
    RrefResult,
    SizeCapError,
    SpanSolver,
    SparseSystem,
    exact,
    hom_equations,
    inverse,
    kernel_basis,
    place_blocks,
    rank,
    restrict_to_kernels,
    rref,
    solve,
    sum_of_products,
)
from soergelkit.soergel import soergel_category

from dense_views import col, dense, dense_flatten, in_span, sparse
from reference import flatten


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return QMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def dense_rref(m):
    """Reference route for :func:`rref`: dense integer rows, one column at a
    time with the smallest nonzero entry as pivot, eliminating above and
    below at once and dividing each changed row by its content."""
    n_rows, n_cols = m.rows, m.cols
    rows = []
    for r in m.data:
        den = math.lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (den // x.denominator) for x in r])
    pivots = []
    pr = 0
    for pc in range(n_cols):
        if pr == n_rows:
            break
        candidates = [i for i in range(pr, n_rows) if rows[i][pc]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: abs(rows[i][pc]))
        rows[pr], rows[best] = rows[best], rows[pr]
        row_p = rows[pr]
        piv = row_p[pc]
        for i in range(n_rows):
            b = rows[i][pc]
            if i == pr or not b:
                continue
            g = math.gcd(piv, b)
            row_i = [x * (piv // g) - y * (b // g) for x, y in zip(rows[i], row_p)]
            c = math.gcd(*row_i)
            rows[i] = [x // c for x in row_i] if c > 1 else row_i
        pivots.append(pc)
        pr += 1
    out = [[Fraction(x, rows[k][pc]) for x in rows[k]] for k, pc in enumerate(pivots)]
    out += [[Fraction(0)] * n_cols for _ in range(n_rows - len(pivots))]
    return RrefResult(QMatrix(n_rows, n_cols, out), tuple(pivots), len(pivots))


def dense_matmul(a, b):
    """Reference route for ``QMatrix.__mul__``: every entry is a dense sum
    over a row of ``a`` and a column of ``b``, skipping zero pairs."""
    cols = b.transpose().data
    return QMatrix(
        a.rows, b.cols, [[sum((x * y for x, y in zip(r, c) if x and y), Fraction(0)) for c in cols] for r in a.data]
    )


def dense_kernel(m):
    """Reference route for :func:`kernel_basis`: one vector per free column
    of :func:`dense_rref`, read off its pivot rows."""
    res = dense_rref(m)
    basis = []
    for f in range(m.cols):
        if f in res.pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for k, pc in enumerate(res.pivots):
            vec[pc] = -res.matrix.data[k][f]
        basis.append(vec)
    return basis


def densify(system):
    """The equations of a :class:`SparseSystem` as the rows of a QMatrix."""
    return QMatrix(
        len(system.equations),
        system.cols,
        [[row.get(j, 0) for j in range(system.cols)] for row in system.equations],
    )


def primitive_rows(rows):
    """Each rational row as its primitive integer multiple with positive
    scale: denominators cleared, then divided by the gcd of the entries."""
    out = []
    for r in rows:
        den = math.lcm(*(Fraction(x).denominator for x in r))
        ints = [int(x * den) for x in r]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


def _shared_zeros(m):
    """m with every zero entry the ``Fraction(0)`` that :mod:`linalg` shares."""
    return QMatrix(m.rows, m.cols, [[x or linalg._ZERO for x in r] for r in m.data])


def _fresh_zeros(m):
    """m with every zero entry a new ``Fraction(0)`` object."""
    return QMatrix(m.rows, m.cols, [[x or Fraction(0) for x in r] for r in m.data])


def _oracle_matrix(rng, rows=None, cols=None):
    """A seeded matrix of shape 0..8 x 0..8 (or the given shape) with zero
    rows and columns, dependent rows, and small, rational or large entries."""
    if rows is None:
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    kind = rng.choice(["small", "rational", "large", "mixed"])
    density = rng.choice([0.15, 0.4, 1.0])

    def entry():
        if rng.random() >= density:
            return 0
        if kind == "small" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-3, 3)
        if kind == "rational" or kind == "mixed":
            return Fraction(rng.randint(-20, 20), rng.randint(1, 15))
        return rng.randint(-(10**25), 10**25)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        # a row equal to a combination of two others
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4)
        data[k] = [a * x + b * y for x, y in zip(data[i], data[j])]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = 0
    return QMatrix(rows, cols, data)


def test_rref_matches_dense_reference():
    rng = random.Random(2026)
    shapes = set()
    for _ in range(2400):
        m = _oracle_matrix(rng)
        shapes.add((m.rows, m.cols))
        assert rref(m) == dense_rref(m)
    assert {(0, 5), (5, 0), (0, 0), (8, 8)} <= shapes


def test_rref_matches_dense_reference_on_rank3_hom_systems(monkeypatch):
    # every graded and ungraded Hom system between rank-3 D_w: the sparse
    # kernel and rank against the dense reference on the densified system;
    # the graded systems are counted by rank, the ungraded ones solved
    cat = soergel_category(3)
    modules = [cat.indecomposable(w) for w in cat.group.elements()]
    seen = []

    def checked_kernel_basis(system):
        assert isinstance(system, SparseSystem)
        densified = densify(system)
        basis = kernel_basis(system)
        assert [dense(v, system.cols) for v in basis] == dense_kernel(densified)
        assert rank(system) == dense_rref(densified).rank == system.cols - len(basis)
        seen.append(len(system.equations) * system.cols)
        return basis

    def checked_rank(system):
        assert isinstance(system, SparseSystem)
        densified = densify(system)
        got = rank(system)
        assert got == dense_rref(densified).rank == system.cols - len(dense_kernel(densified))
        seen.append(len(system.equations) * system.cols)
        return got

    monkeypatch.setattr(gradedmod, "kernel_basis", checked_kernel_basis)
    monkeypatch.setattr(gradedmod, "rank", checked_rank)
    for dx in modules:
        for dy in modules:
            graded_hom_poly(dx, dy)
            hom_ungraded_dim(dx, dy)
    assert len(seen) > 36 and max(seen) > 0


def _forced_closure(rows):
    """Reference route for the presolve: the columns forced to zero, found
    level by level (a row with one column outside the forced set forces
    that column), and the number of levels."""
    forced, levels = set(), 0
    while True:
        new = {j for row in rows if len(rest := set(row) - forced) == 1 for j in rest}
        if new <= forced:
            return forced, levels
        forced |= new
        levels += 1


def _planted_system(rng, kind):
    """A seeded sparse integer system with one-term rows planted in it.

    A chain c_0, c_1, .. of columns is forced level by level: {c_0: a} is a
    one-term row and each later row holds c_i beside earlier chain columns.
    Rows supported on the chain alone empty once it is forced, and random
    rows of two or more terms fill the rest.  ``kind`` "all" forces every
    column and "none" plants no one-term row at all.
    """
    cols = rng.randint(1, 12) if kind != "none" else rng.randint(2, 12)
    order = rng.sample(range(cols), cols)
    depth = {"all": cols, "none": 0, "some": rng.randint(1, min(cols, 5))}[kind]
    chain = order[:depth]

    def coeff():
        return rng.choice([-1, 1]) * rng.randint(1, 6)

    rows = []
    for i, c in enumerate(chain):
        row = {c: coeff()}
        for j in rng.sample(chain[:i], rng.randint(min(i, 1), min(i, 3))):
            row[j] = coeff()
        rows.append(row)
    if len(chain) > 1:
        for _ in range(rng.randint(1, 3)):
            rows.append({j: coeff() for j in rng.sample(chain, 2)})
    for _ in range(rng.randint(0, cols + 3)):
        size = rng.randint(2, cols) if cols > 1 else 0
        if size:
            rows.append({j: coeff() for j in rng.sample(range(cols), size)})
    rng.shuffle(rows)
    return SparseSystem(cols, [linalg._primitive(dict(sorted(row.items()))) for row in rows])


def test_presolve_forces_the_closure_of_the_one_term_rows():
    rng = random.Random(2323)
    seen = set()
    for kind in ["some"] * 300 + ["all"] * 60 + ["none"] * 60:
        system = _planted_system(rng, kind)
        forced, levels = _forced_closure(system.equations)
        rows = [dict(row) for row in system.equations]
        got, rest = linalg._presolve(rows)
        assert got == sorted(forced)
        expected = [{j: x for j, x in row.items() if j not in forced} for row in system.equations]
        assert rest == [linalg._primitive(row) for row in expected if row]
        assert all(len(row) > 1 for row in rest)
        if not forced:
            assert rest is rows
            seen.add("none")
        if forced and len(rest) < len(rows) - sum(len(row) == 1 for row in system.equations):
            seen.add("rows empty")
        if levels >= 2:
            seen.add("deep")
        if len(forced) == system.cols:
            seen.add("all")
    assert seen == {"none", "rows empty", "deep", "all"}


def test_presolve_keeps_rref_rank_and_kernel_of_matrices_and_systems():
    # the reduced form of a matrix and the kernel and rank of both kinds of
    # input against the dense reference; the matrix rows are scaled by
    # seeded fractions, so its rows are cleared of denominators first
    rng = random.Random(2324)
    for kind in ["some"] * 300 + ["all"] * 60 + ["none"] * 60:
        system = _planted_system(rng, kind)
        densified = densify(system)
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in system.equations]
        scaled = QMatrix(
            densified.rows, system.cols, [[x * c for x in row] for row, c in zip(densified.data, scales)]
        )
        reference = dense_rref(densified)
        kernel = dense_kernel(densified)
        for m in (densified, scaled):
            assert rref(m) == reference
            assert rank(m) == reference.rank
            assert [dense(v, m.cols) for v in kernel_basis(m)] == kernel
        assert rank(system) == reference.rank
        assert [dense(v, system.cols) for v in kernel_basis(system)] == kernel


def test_a_system_forced_to_zero_is_solved_without_elimination(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("eliminated a system that the presolve solves")

    monkeypatch.setattr(linalg, "_eliminate", must_not_run)
    rng = random.Random(2325)
    for _ in range(60):
        system = _planted_system(rng, "all")
        assert rank(system) == system.cols and kernel_basis(system) == []
        res = rref(densify(system))
        assert res.pivots == tuple(range(system.cols))
        assert res.matrix.nonzeros[: system.cols] == [{j: 1} for j in range(system.cols)]


def test_rref_identity():
    m = QMatrix.identity(2)
    res = rref(m)
    assert res.matrix == m
    assert res.pivots == (0, 1)
    assert res.rank == 2


def test_rref_rank_one():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    res = rref(m)
    assert res.matrix == QMatrix.from_rows([[1, 2], [0, 0]])
    assert res.rank == 1


def test_rref_empty():
    m = QMatrix.zero(0, 0)
    res = rref(m)
    assert res.matrix == m
    assert res.rank == 0


def test_rref_idempotent_random():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        r1 = rref(m).matrix
        assert rref(r1).matrix == r1


def test_rank_plus_nullity_random():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = random_matrix(rng, rows, cols)
        assert rank(m) + len(kernel_basis(m)) == cols



def test_row_span_rank_grows_as_the_rank_of_the_stacked_rows():
    rng = random.Random(25)
    for _ in range(40):
        cols = rng.randint(0, 7)
        span, stacked = RowSpan(cols), []
        for _ in range(rng.randint(1, 4)):
            m = random_matrix(rng, rng.randint(0, 4), cols, -1, 1).scale(Fraction(1, rng.randint(1, 3)))
            before = rank(QMatrix(len(stacked), cols, stacked))
            stacked += m.nonzeros
            after = rank(QMatrix(len(stacked), cols, stacked))
            assert span.add(m) == after - before
            assert span.rank == after
        # rows already in the span leave it as it is
        assert span.add(QMatrix(len(stacked), cols, stacked)) == 0
    with pytest.raises(ValueError, match="span in 3 columns"):
        RowSpan(3).add(QMatrix.identity(2))


def test_row_span_names_the_rows_that_raise_its_rank():
    rng = random.Random(26)
    for _ in range(40):
        cols = rng.randint(0, 6)
        m = random_matrix(rng, rng.randint(0, 9), cols, -1, 1)
        raised = RowSpan(cols).independent(m)
        # row k raises the rank exactly when it is not in the span of the rows before it
        expected = [
            k for k in range(m.rows)
            if rank(QMatrix(k + 1, cols, m.nonzeros[: k + 1])) > rank(QMatrix(k, cols, m.nonzeros[:k]))
        ]
        assert raised == expected
    # once the span is everything, the rows left are not reduced
    span = RowSpan(2)
    assert span.independent(QMatrix.from_rows([[1, 0], [1, 1], [3, 5]])) == [0, 1]
    assert span.rank == 2


def test_sparse_system_of_rational_rows_keeps_primitive_integer_rows():
    system = SparseSystem.of(3, [{0: Fraction(1, 2), 2: Fraction(-3, 4)}, {}, {1: 6, 2: 4}, {1: Fraction(5, 1)}])
    assert system == SparseSystem(3, [{0: 2, 2: -3}, {1: 3, 2: 2}, {1: 1}])
    assert [dense(v, 3) for v in kernel_basis(system)] == dense_kernel(densify(system))

def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(3)) == []


def test_kernel_single_equation():
    basis = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    x, y = dense(basis[0], 2)
    assert x + y == 0 and (x, y) != (0, 0)


def test_kernel_zero_matrix():
    assert len(kernel_basis(QMatrix.zero(2, 2))) == 2


def test_kernel_vectors_annihilated_random():
    rng = random.Random(8)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for vec in kernel_basis(m):
            assert all(x == 0 for x in m.times_vector(dense(vec, m.cols)))


def test_solve_identity():
    b = [Fraction(3), Fraction(-1)]
    assert solve(QMatrix.identity(2), b) == b


def test_solve_underdetermined():
    m = QMatrix.from_rows([[1, 1]])
    x = solve(m, [Fraction(3)])
    assert x is not None
    assert sum(x) == 3


def test_solve_inconsistent():
    m = QMatrix.from_rows([[1], [1]])
    assert solve(m, [Fraction(0), Fraction(1)]) is None


def test_solve_random_consistency():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
        b = m.times_vector(x0)
        x = solve(m, b)
        assert x is not None
        assert m.times_vector(x) == b


def test_inverse_matches_solve_columns():
    rng = random.Random(31)
    for n in range(7):
        for _ in range(8):
            m = random_matrix(rng, n, n, -4, 4)
            if rank(m) < n:
                continue
            units = QMatrix.identity(n)
            cols = [solve(m, col(units, j)) for j in range(n)]
            inv = inverse(m)
            assert inv == QMatrix.from_columns(n, cols)
            assert m * inv == units


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ValueError):
        inverse(QMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(QMatrix.zero(2, 3))


def test_matmul_matches_dense_reference():
    rng = random.Random(2027)
    shapes = set()
    cancelled = 0
    for _ in range(800):
        a = _oracle_matrix(rng)
        if rng.random() < 0.3:
            # columns in the kernel of a: every entry of a * b cancels to zero
            b = QMatrix.from_columns(a.cols, kernel_basis(a))
        else:
            b = _oracle_matrix(rng, a.cols, rng.randint(0, 8))
        shapes.add((a.rows, a.cols, b.cols))
        product = dense_matmul(a, b)
        if product.is_zero() and not (a.is_zero() or b.is_zero()):
            cancelled += 1
        for left in (_shared_zeros(a), _fresh_zeros(a)):
            for right in (_shared_zeros(b), _fresh_zeros(b)):
                assert left * right == product
                assert all(type(x) is Fraction for r in (left * right).data for x in r)
                for j in range(right.cols):
                    vec = col(right, j)
                    assert left.times_vector(vec) == col(product, j)
        c = _oracle_matrix(rng, a.rows, a.cols)
        total = QMatrix(a.rows, a.cols, [[x + y for x, y in zip(r, s)] for r, s in zip(a.data, c.data)])
        for left in (_shared_zeros(a), _fresh_zeros(a)):
            assert left + _shared_zeros(c) == total and left + _fresh_zeros(c) == total
            assert left.is_zero() == all(x == 0 for r in a.data for x in r)
            assert (left - left).is_zero() and _fresh_zeros(left - left).is_zero()
        for m in (product, total):
            expected = all(x == 0 for r in m.data for x in r)
            assert _shared_zeros(m).is_zero() == _fresh_zeros(m).is_zero() == expected
    assert any(r == 0 < k for r, k, _ in shapes) and any(r > 0 == k for r, k, _ in shapes)
    assert any(c == 0 < k for _, k, c in shapes) and any(min(shape) >= 7 for shape in shapes)
    assert cancelled > 50


def test_fresh_zero_objects_give_identical_results():
    assert Fraction(0) is not Fraction(0)
    rng = random.Random(2028)
    for _ in range(600):
        m = _oracle_matrix(rng)
        shared, fresh = _shared_zeros(m), _fresh_zeros(m)
        assert fresh.nonzeros == shared.nonzeros
        assert rref(fresh) == rref(shared)
        assert kernel_basis(fresh) == kernel_basis(shared)
    for _ in range(200):
        blocks, fresh_blocks = [], []
        count = rng.randint(0, 12)
        for _ in range(rng.randint(0, 3)):
            p, q, t, u = (rng.randint(0, 3) for _ in range(4))
            left = None if q * u > count else rng.randint(0, count - q * u)
            right = None if p * t > count else rng.randint(0, count - p * t)
            a, b = _sparse_matrix(rng, p, q), _sparse_matrix(rng, t, u)
            blocks.append((_shared_zeros(a), left, _shared_zeros(b), right, 1))
            fresh_blocks.append((_fresh_zeros(a), left, _fresh_zeros(b), right, 1))
        assert hom_equations(count, fresh_blocks) == hom_equations(count, blocks)
    # A F - F B on one 2x2 block with diagonal A and B is (A_rr - B_cc) f_rc:
    # the A-term and B-term of the equation at (0, 0) cancel, and it is left
    # out; the others are the primitive rows -f_01, f_10 and f_11
    a = QMatrix(2, 2, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]])
    b = QMatrix(2, 2, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]])
    expected = QMatrix.from_rows([[0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert densify(hom_equations(4, [(_shared_zeros(a), 0, _shared_zeros(b), 0, 1)])) == expected
    assert densify(hom_equations(4, [(_fresh_zeros(a), 0, _fresh_zeros(b), 0, 1)])) == expected
    x = QMatrix.from_rows([[Fraction(7, 3)]])
    assert hom_equations(1, [(x, 0, x, 0, 1)]) == SparseSystem(1, [])


def _is_stored_value(x):
    """Whether x is in the stored form: a nonzero int, or a Fraction that is
    not integral."""
    return type(x) is int and x != 0 or type(x) is Fraction and x.denominator != 1


def _stored(m):
    """m, after asserting that it stores one dict per row holding only
    values in the stored form at in-range columns, each empty row the
    shared empty row."""
    assert type(m.nonzeros) is list and len(m.nonzeros) == m.rows
    for row in m.nonzeros:
        assert type(row) is dict
        assert row or row is linalg._EMPTY_ROW
        assert all(type(j) is int and 0 <= j < m.cols and _is_stored_value(x) for j, x in row.items())
    return m


def _stored_vector(vec, n):
    """vec, after asserting that it is a dict holding only values in the
    stored form at indices 0..n-1."""
    assert type(vec) is dict
    assert all(type(j) is int and 0 <= j < n and _is_stored_value(x) for j, x in vec.items())
    return vec


def test_every_operation_stores_only_nonzeros():
    rng = random.Random(2031)
    coeff_rng = random.Random(2032)  # apart, so that the matrices drawn stay the same
    ops = set()
    for _ in range(300):
        a = _stored(_oracle_matrix(rng))
        p, q = a.rows, a.cols
        dense_rows = a.data
        assert all(type(x) is Fraction for r in dense_rows for x in r)
        assert [[x for x in r if x] for r in dense_rows] == [[r[j] for j in sorted(r)] for r in a.nonzeros]
        zero = [[0] * q for _ in range(p)]
        assert _stored(QMatrix.zero(p, q)).data == zero
        assert _stored(QMatrix.identity(p)).data == [[int(i == j) for j in range(p)] for i in range(p)]
        assert _stored(QMatrix.from_columns(p, [col(a, j) for j in range(q)])) == a
        assert _stored(a.transpose()).data == [[r[j] for r in dense_rows] for j in range(q)]
        b = _oracle_matrix(rng, p, q)
        assert _stored(a + b).data == [[x + y for x, y in zip(r, s)] for r, s in zip(dense_rows, b.data)]
        assert _stored(a - b).data == [[x - y for x, y in zip(r, s)] for r, s in zip(dense_rows, b.data)]
        assert _stored(a - a).data == zero and (a - a).is_zero()
        for c in (0, 1, -2, Fraction(3, 7)):
            assert _stored(a.scale(c)).data == [[c * x for x in r] for r in dense_rows]
        c = _oracle_matrix(rng, q, rng.randint(0, 8))
        assert _stored(a * c) == dense_matmul(a, c)
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q)]
        assert a.times_vector(vec) == [sum((x * y for x, y in zip(r, vec)), Fraction(0)) for r in dense_rows]
        d = _oracle_matrix(rng, p, rng.randint(0, 8))
        side_by_side = place_blocks(p, q + d.cols, [(0, 0, a), (0, q, d)])
        assert _stored(side_by_side).data == [r + s for r, s in zip(dense_rows, d.data)]
        r0, c0 = rng.randint(0, 3), rng.randint(0, 3)
        placed = [[0] * (q + c0 + 2) for _ in range(p + r0 + 1)]
        for i, r in enumerate(dense_rows):
            placed[r0 + i][c0 : c0 + q] = r
        assert _stored(place_blocks(p + r0 + 1, q + c0 + 2, [(r0, c0, a)])).data == placed
        if p and q:
            e = _oracle_matrix(rng, p, rng.randint(0, 4))
            tiled = [r + s for r, s in zip(dense_rows, e.data)] + [r + [0] * e.cols for r in b.data]
            grid = place_blocks(2 * p, q + e.cols, [(0, 0, a), (0, q, e), (p, 0, b)])
            assert _stored(grid).data == tiled
        assert _stored_vector(flatten(a), p * q) == sparse(dense_flatten(a))
        assert dense_flatten(a) == [x for r in dense_rows for x in r]
        assert [sorted(r.items()) for r in linalg._integer_rows(a)] == [
            [(j, x) for j, x in enumerate(r) if x] for r in primitive_rows(r for r in dense_rows if any(r))
        ]
        res = rref(a)
        assert _stored(res.matrix) == dense_rref(a).matrix and res.pivots == dense_rref(a).pivots
        if res.rank < p:
            ops.add("rref zero rows")
        kernel = [_stored_vector(v, q) for v in kernel_basis(a)]
        dense_vecs = [dense(v, q) for v in kernel]
        assert dense_vecs == dense_kernel(a)
        cancelled = _stored(a * QMatrix.from_columns(q, kernel))
        assert cancelled.is_zero() and cancelled.cols == len(kernel)
        if kernel and not a.is_zero():
            ops.add("cancelled product")
        coeffs = [Fraction(coeff_rng.randint(-2, 2), coeff_rng.randint(1, 2)) for _ in kernel]
        combo = [sum((c * v[j] for c, v in zip(coeffs, dense_vecs)), Fraction(0)) for j in range(q)]
        assert _stored_vector(EchelonBasis(kernel, q).coords(sparse(combo)), len(kernel)) == sparse(coeffs)
        if kernel:
            ops.add("coords")
        u = _oracle_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
        blocks = [(a, 0, u, None if u.rows * p > q * u.cols else 0, 1)]
        expected = primitive_rows(_kron_system(q * u.cols, blocks))
        assert densify(hom_equations(q * u.cols, blocks)) == QMatrix(len(expected), q * u.cols, expected)
        if p == q and res.rank == p:
            inv = _stored(inverse(a))
            assert dense_matmul(inv, a) == QMatrix.identity(p)
            ops.add("inverse")
        rhs = a.times_vector(vec)
        x = solve(a, rhs)
        assert a.times_vector(x) == rhs and all(type(v) is Fraction for v in x)
        if solve(a, [Fraction(1)] * p) is None:
            ops.add("inconsistent")
    assert ops == {"inverse", "inconsistent", "coords", "rref zero rows", "cancelled product"}


class _RowList(list):
    """A user-defined list of rows, which the constructor checks like a list."""


def test_row_dicts_are_checked():
    assert QMatrix(2, 3, [{2: 5}, {}]).data == [[0, 0, 5], [0, 0, 0]]
    assert QMatrix(1, 3, [{0: 1, 1: Fraction(1, 2)}]).data == [[1, Fraction(1, 2), 0]]
    bad_rows = (
        {3: 1},
        {-1: 1},
        {0: 0},
        {0: Fraction(0)},
        {0: Fraction(1)},
        {0: Fraction(-4, 2)},
        {0: 1.0},
        {0: True},
        {1.0: 1},
        {3: Fraction(1, 2)},
    )
    # the rows are checked whatever container holds them
    containers = (list, tuple, _RowList)
    for bad in bad_rows:
        for container in containers:
            with pytest.raises(ValueError):
                QMatrix(1, 3, container([bad]))
            with pytest.raises(ValueError):
                QMatrix.from_columns(3, container([bad]))
    for container in containers:
        with pytest.raises(ValueError):
            QMatrix(2, 3, container([{}]))
        for bad in ([1, 0.5], [0.0, 1], [None, 1]):
            with pytest.raises(TypeError):
                QMatrix(1, 2, container([bad]))
        assert _stored(QMatrix(2, 3, container([{2: 5}, {}]))).nonzeros == [{2: 5}, {}]


def test_exact_keeps_ints_and_true_fractions():
    assert type(exact(3)) is int and exact(3) == 3
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert type(exact(Fraction(-6, 3))) is int and exact(Fraction(-6, 3)) == -2
    half = Fraction(1, 2)
    assert exact(half) is half
    assert type(exact(True)) is int and exact(True) == 1
    for bad in (1.0, 0.0, None, "1", 1j):
        with pytest.raises(TypeError):
            exact(bad)


def test_results_cancel_to_ints_and_hold_no_float_or_bool():
    half = QMatrix.from_rows([[Fraction(1, 2), Fraction(4, 2), True]])
    assert half.nonzeros == [{0: Fraction(1, 2), 1: 2, 2: 1}]
    assert [type(x) for x in half.nonzeros[0].values()] == [Fraction, int, int]
    one = _stored(half + half)
    assert one.nonzeros == [{0: 1, 1: 4, 2: 2}]
    assert _stored(half * QMatrix.from_rows([[2], [0], [0]])).nonzeros == [{0: 1}]
    assert _stored(half.scale(Fraction(2, 3))).nonzeros == [{0: Fraction(1, 3), 1: Fraction(4, 3), 2: Fraction(2, 3)}]
    # non-unit pivots: the reduced form and kernel hold ints where the
    # quotients are exact and Fractions elsewhere
    res = rref(QMatrix.from_rows([[2, 4, 6, 3], [0, 3, 0, 1]]))
    assert _stored(res.matrix).nonzeros == [{0: 1, 2: 3, 3: Fraction(5, 6)}, {1: 1, 3: Fraction(1, 3)}]
    system = SparseSystem(4, [{0: 2, 1: 4, 2: 6, 3: 3}, {1: 3, 3: 1}])
    for m in (QMatrix.from_rows([[2, 4, 6, 3], [0, 3, 0, 1]]), system):
        kernel = [_stored_vector(v, 4) for v in kernel_basis(m)]
        assert kernel == [{2: 1, 0: -3}, {3: 1, 0: Fraction(-5, 6), 1: Fraction(-1, 3)}]
    rng = random.Random(2040)
    seen = set()
    for _ in range(300):
        a = _stored(_oracle_matrix(rng))
        for c in (rng.randint(2, 9), -rng.randint(2, 9)):
            scaled = _stored(a.scale(Fraction(1, c)))
            assert scaled.data == [[x / c for x in r] for r in a.data]
            assert _stored(scaled.scale(c)) == a and _stored(scaled + scaled.scale(c - 1)) == a
            seen.add("scale")
        res = rref(a)
        _stored(res.matrix)
        for v in kernel_basis(a):
            _stored_vector(v, a.cols)
            seen.add("int kernel entry" if any(type(x) is int and x != 1 for x in v.values()) else "kernel")
        if a.rows == a.cols and res.rank == a.rows:
            inv = _stored(inverse(a))
            assert _stored(inv * a) == QMatrix.identity(a.rows) == _stored(a * inv)
            seen.add("inverse")
        if any(x != 1 and x != 0 for r in res.matrix.data[: res.rank] for x in r):
            seen.add("reduced entry off 0 and 1")
    assert seen == {"scale", "kernel", "int kernel entry", "inverse", "reduced entry off 0 and 1"}


def test_matmul_and_transpose():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert a * b == QMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose().transpose() == a


def test_rational_entries():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    res = rref(m)
    assert res.matrix == QMatrix.from_rows([[1, Fraction(2, 3)]])


def test_empty_shapes_compose():
    a = QMatrix.zero(0, 3)
    b = QMatrix.zero(3, 2)
    assert (a * b).rows == 0 and (a * b).cols == 2


def test_size_cap(monkeypatch):
    monkeypatch.setenv("SOERGEL_MAX_DIM", "4")
    # the cap bounds the columns, the unknowns, and rows are not counted
    tall = random_matrix(random.Random(5), 5, 2)
    assert rref(tall) == dense_rref(tall)
    assert [dense(v, 2) for v in kernel_basis(tall)] == dense_kernel(tall)
    assert rank(tall) == dense_rref(tall).rank

    def must_not_run(*args):
        raise AssertionError("a matrix over the cap reached the elimination")

    # a wide matrix is refused before any row is copied or reduced
    monkeypatch.setattr(linalg, "_primitive", must_not_run)
    monkeypatch.setattr(linalg, "_echelon", must_not_run)
    wide = random_matrix(random.Random(5), 2, 5, lo=1)
    for route in (rref, rank, kernel_basis):
        with pytest.raises(SizeCapError, match="linear system in 5 unknowns exceeds the dimension cap 4"):
            route(wide)
    monkeypatch.setenv("SOERGEL_MAX_DIM", "bogus")
    with pytest.raises(SizeCapError):
        rref(QMatrix.zero(1, 1))


def test_a_size_of_0_is_under_every_cap_and_reads_no_environment(monkeypatch):
    monkeypatch.setenv("SOERGEL_MAX_DIM", "bogus")
    linalg.check_size("nothing in {} unknowns", 0)
    with pytest.raises(SizeCapError, match="^SOERGEL_MAX_DIM='bogus' is not an integer$"):
        linalg.check_size("one in {} unknowns", 1)


def test_hom_equations_cap(monkeypatch):
    monkeypatch.setenv("SOERGEL_MAX_DIM", "4")
    ident = QMatrix.identity(2)
    read = []

    def blocks(n):
        # each block gives the 4 equations f_rc = 0 of F -> I F
        for _ in range(n):
            read.append(1)
            yield (ident, 0, ident, None, 1)

    # the unknowns are checked before any block is read
    with pytest.raises(SizeCapError, match="Hom system in 5 unknowns exceeds the dimension cap 4"):
        hom_equations(5, blocks(3))
    assert read == []
    # equations are not counted: three blocks give 12 equations in 4 unknowns
    system = hom_equations(4, blocks(3))
    assert len(read) == 3 and len(system.equations) == 12
    assert kernel_basis(system) == [] == dense_kernel(densify(system))
    # F -> A F with A of rank 1 leaves a 2-dimensional kernel
    a = QMatrix.from_rows([[1, -1], [2, -2]])
    system = hom_equations(4, [(a, 0, ident, None, 1)] * 3)
    assert len(system.equations) == 12
    assert [dense(v, 4) for v in kernel_basis(system)] == dense_kernel(densify(system))
    assert len(kernel_basis(system)) == 2


def test_span_solver():
    vecs = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    s = SpanSolver(vecs, 3)
    assert s.coords([Fraction(2), Fraction(3), Fraction(5)]) == [2, 3]
    assert not in_span(s, [Fraction(1), Fraction(0), Fraction(0)])
    with pytest.raises(ValueError):
        s.coords([Fraction(1), Fraction(0), Fraction(0)])

    # the free-column readout agrees with the solver on the same inputs, on
    # kernel bases of random matrices, and on a permuted, zero-padded basis
    rng = random.Random(17)
    cases = [([sparse(v) for v in vecs], 3)]
    while len(cases) < 30:
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 8))
        if kernel_basis(m):
            cases.append((kernel_basis(m), m.cols))
    wide, dim = max(cases, key=lambda c: len(c[0]))
    order = list(range(dim + 3))
    rng.shuffle(order)
    cases.append(([sparse([(dense(v, dim) + [Fraction(0)] * 3)[j] for j in order]) for v in wide], dim + 3))
    for basis, dim in cases:
        solver, echelon = SpanSolver([dense(v, dim) for v in basis], dim), EchelonBasis(basis, dim)
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
            vec = [sum(c * v.get(j, 0) for c, v in zip(coeffs, basis)) for j in range(dim)]
            assert dense(echelon.coords(sparse(vec)), len(basis)) == solver.coords(vec) == coeffs
        units = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        outside = [u for u in units if not in_span(solver, u)]
        assert outside or len(basis) == dim
        for u in outside:
            with pytest.raises(ValueError):
                echelon.coords(sparse(u))
    for not_echelon in ([[1, 1], [1, 2]], [[2, 0]], [[1, 1], [0, 1]]):
        with pytest.raises(ValueError):
            EchelonBasis([sparse(v) for v in not_echelon], 2)
    with pytest.raises(ValueError, match="outside the ambient dimension"):
        EchelonBasis([{2: Fraction(1)}], 2)


def test_restrict_to_kernels_rejects_images_outside_the_target_kernel():
    # kernels: span(e2) at key 0, span(e1) at key 1, nothing at key 2
    maps = {0: QMatrix.from_rows([[1, 0]]), 1: QMatrix.from_rows([[0, 1]]), 2: QMatrix.identity(2)}
    swap = QMatrix.from_rows([[0, 1], [1, 0]])
    inclusions, restricted = restrict_to_kernels(maps, [("swap", 0, 1, swap)])
    assert inclusions == {0: QMatrix.from_rows([[0], [1]]), 1: QMatrix.from_rows([[1], [0]])}
    assert restricted == {"swap": QMatrix.from_rows([[1]])}
    for tgt_key in (1, 2):
        with pytest.raises(AssertionError, match="not action-stable"):
            restrict_to_kernels(maps, [("id", 0, tgt_key, QMatrix.identity(2))])


def _restrict_reference(maps, blocks):
    """Reference route for :func:`restrict_to_kernels`: every kernel, that
    of a zero map included, from :func:`kernel_basis`, and the coordinates
    of every image from a :class:`SpanSolver` of the target kernel."""
    inclusions = {key: QMatrix.from_columns(m.cols, kernel_basis(m)) for key, m in maps.items()}
    restricted = {}
    for label, key, tgt_key, block in blocks:
        inc = inclusions[key]
        if not inc.cols:
            continue
        tgt = inclusions[tgt_key]
        solver = SpanSolver([col(tgt, t) for t in range(tgt.cols)], tgt.rows)
        try:
            cols = [solver.coords(image) for image in (block * inc).transpose().data]
        except ValueError:
            raise AssertionError("kernel is not action-stable") from None
        mat = QMatrix.from_columns(tgt.cols, cols)
        if not mat.is_zero():
            restricted[label] = mat
    return {key: inc for key, inc in inclusions.items() if inc.cols}, restricted


def test_restrict_to_kernels_with_zero_maps_matches_the_general_route():
    # keyed maps, some of them zero (whose kernel is the whole space), and
    # blocks between the keys, stable ones built as (kernel basis of the
    # target) * (random) and unstable ones drawn at random, first with small
    # integer entries, then with rational ones; the inclusions and blocks,
    # built from stored columns without the per-entry check, must be what
    # the reference builds through the checked from_columns
    def integral(rng, rows, cols):
        return random_matrix(rng, rows, cols, -2, 2)

    for seed, draw in ((2326, integral), (3030, _oracle_matrix)):
        rng = random.Random(seed)
        seen = set()
        for _ in range(150):
            dims = [rng.randint(0, 4) for _ in range(4)]
            maps = {}
            for key, n in enumerate(dims):
                rows = rng.randint(0, 3)
                maps[key] = QMatrix.zero(rows, n) if rng.random() < 0.5 else draw(rng, rows, n)
            blocks = []
            for label in range(rng.randint(1, 6)):
                key, tgt_key = rng.randrange(4), rng.randrange(4)
                tgt = maps[tgt_key]
                if rng.random() < 0.8:
                    span = QMatrix.from_columns(tgt.cols, kernel_basis(tgt))
                    block = span * draw(rng, span.cols, dims[key])
                else:
                    block = draw(rng, tgt.cols, dims[key])
                blocks.append((label, key, tgt_key, block))
            try:
                expected = _restrict_reference(maps, blocks)
            except AssertionError:
                with pytest.raises(AssertionError, match="not action-stable"):
                    restrict_to_kernels(maps, blocks)
                seen.add("unstable")
                continue
            inclusions, restricted = restrict_to_kernels(maps, blocks)
            assert (inclusions, restricted) == expected
            for m in (*inclusions.values(), *restricted.values()):
                seen.update(type(x) for row in _stored(m).nonzeros for x in row.values())
            # which kinds of kernel, whole or not, the kept blocks ran between
            whole = {key for key, m in maps.items() if m.cols and m.is_zero()}
            seen.update((key in whole, tgt_key in whole) for label, key, tgt_key, _ in blocks if label in expected[1])
        assert seen == {(False, False), (False, True), (True, False), (True, True), "unstable", int, Fraction}, seed


def test_from_columns_keeps_shape():
    m = QMatrix.from_columns(2, [[1, 2], [3, 4], [5, 6]])
    assert m == QMatrix.from_rows([[1, 3, 5], [2, 4, 6]])
    assert dense_flatten(m) == [1, 3, 5, 2, 4, 6]
    assert flatten(m) == {0: 1, 1: 3, 2: 5, 3: 2, 4: 4, 5: 6}
    # columns may also be given as dicts of their nonzeros, checked like rows
    columns = [{0: 1, 1: 2}, {}, sparse([Fraction(5), 6])]
    assert QMatrix.from_columns(2, columns) == QMatrix.from_rows([[1, 0, 5], [2, 0, 6]])
    for bad in ({2: 1}, {0: Fraction(1)}):
        with pytest.raises(ValueError):
            QMatrix.from_columns(2, [bad])
    empty = QMatrix.from_columns(3, [])
    assert (empty.rows, empty.cols) == (3, 0)
    with pytest.raises(ValueError):
        QMatrix.from_columns(2, [[1, 2], [3]])


def _dense_placed(rows, cols, blocks):
    """Reference route for :func:`place_blocks`: the dense sum of every
    block, an int k read as the k x k identity, each times its sign."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, blk, *sign in blocks:
        sign = sign[0] if sign else 1
        data = [[int(i == j) for j in range(blk)] for i in range(blk)] if type(blk) is int else blk.data
        for r, row in enumerate(data, r0):
            for c, x in enumerate(row, c0):
                out[r][c] += sign * x
    return out


def test_place_blocks_adds_signed_blocks_and_identities():
    rng = random.Random(4411)
    overlaps = cancels = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        blocks, areas = [], []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.25:
                h = w = blk = rng.randint(0, min(rows, cols))
            else:
                h, w = rng.randint(0, rows), rng.randint(0, cols)
                blk = _oracle_matrix(rng, h, w)
            r0, c0 = rng.randint(0, rows - h), rng.randint(0, cols - w)
            sign = rng.choice((None, 1, -1))
            blocks.append((r0, c0, blk) if sign is None else (r0, c0, blk, sign))
            areas.append((r0, c0, h, w))
            if type(blk) is not int and not blk.is_zero() and rng.random() < 0.3:
                # the same block negated on top of it cancels
                blocks.append((r0, c0, blk, -(sign or 1)))
                cancels += 1
        overlaps += any(
            r < r2 + h2 and r2 < r + h and c < c2 + w2 and c2 < c + w
            for k, (r, c, h, w) in enumerate(areas)
            for r2, c2, h2, w2 in areas[:k]
        )
        kept = [[dict(r) for r in b[2].nonzeros] for b in blocks if type(b[2]) is not int]
        assert _stored(place_blocks(rows, cols, blocks)).data == _dense_placed(rows, cols, blocks)
        # no block's stored rows were changed by a later one
        assert [[dict(r) for r in b[2].nonzeros] for b in blocks if type(b[2]) is not int] == kept
    assert overlaps > 20 and cancels > 20
    # a row of a sign-1 block at column 0 that lands alone is shared, not copied
    a, b = QMatrix.from_rows([[1, 2], [0, 0]]), QMatrix.from_rows([[3]])
    m = place_blocks(3, 3, [(0, 0, a), (2, 2, b)])
    assert m.nonzeros[0] is a.nonzeros[0] and m.nonzeros[1] is linalg._EMPTY_ROW
    assert place_blocks(2, 3, [(0, 1, a)]).nonzeros[0] is not a.nonzeros[0]
    assert place_blocks(2, 2, [(0, 0, a, -1)]).nonzeros[0] == {0: -1, 1: -2}
    # E1 = x_i + x_{i+1} as two overlapping blocks, the identity by its size
    assert place_blocks(2, 2, [(0, 0, a), (0, 0, 2, -1)]) == QMatrix.from_rows([[0, 2], [0, -1]])
    assert a == QMatrix.from_rows([[1, 2], [0, 0]])
    for blocks in ([(0, 2, 2)], [(2, 0, 1, -1)], [(-1, 0, 1)]):
        with pytest.raises(ValueError, match="does not fit"):
            place_blocks(2, 2, blocks)


def test_sum_of_products_matches_the_dense_sum():
    rng = random.Random(4412)
    cancels = 0
    for _ in range(300):
        p, q = rng.randint(0, 6), rng.randint(0, 6)
        terms, want = [], [[Fraction(0)] * q for _ in range(p)]
        for _ in range(rng.randint(1, 3)):
            s = rng.choice((1, -1, 2))
            if rng.random() < 0.3:
                a = _oracle_matrix(rng, p, q)
                terms.append((s, a.nonzeros, None))
                prod = a
            else:
                a = _oracle_matrix(rng, p, rng.randint(0, 6))
                b = _oracle_matrix(rng, a.cols, q)
                terms.append((s, a.nonzeros, b.nonzeros))
                prod = dense_matmul(a, b)
                if not prod.is_zero() and rng.random() < 0.3:
                    # the same product with the opposite sign cancels it
                    terms.append((-s, a.nonzeros, b.nonzeros))
                    cancels += 1
                    continue
            want = [[x + s * y for x, y in zip(r, t)] for r, t in zip(want, prod.data)]
        kept = [[dict(r) for r in m] for _, a, b in terms for m in (a, b or [])]
        got = sum_of_products(p, terms)
        assert len(got) == p and all(type(r) is dict for r in got)
        # the checked constructor refuses a zero or an integral Fraction
        assert QMatrix(p, q, got).data == want
        assert [[dict(r) for r in m] for _, a, b in terms for m in (a, b or [])] == kept
    assert cancels > 20
    # nonzero products that cancel leave empty dicts, and a row that no
    # term reaches is the shared empty row
    x = QMatrix.from_rows([[1, 1], [0, 2]])
    assert sum_of_products(2, [(1, x.nonzeros, x.nonzeros), (-1, (x * x).nonzeros, None)]) == [{}, {}]
    assert sum_of_products(2, [(1, x.nonzeros, None), (-1, x.nonzeros, None)]) == [{}, {}]
    assert all(r is linalg._EMPTY_ROW for r in sum_of_products(2, [(1, QMatrix.zero(2, 2).nonzeros, x.nonzeros)]))
    # a first term with sign 1 through the identity is copied, not shared
    got = sum_of_products(2, [(1, x.nonzeros, None)])
    assert got == x.nonzeros and all(r is not s for r, s in zip(got, x.nonzeros))
    # a sum added into rows it returned before equals the sum of all terms
    rng = random.Random(4413)
    for _ in range(100):
        p, q = rng.randint(0, 5), rng.randint(0, 5)
        terms = []
        for _ in range(rng.randint(1, 4)):
            a = _oracle_matrix(rng, p, rng.randint(0, 5))
            terms.append((rng.choice((1, -1)), a.nonzeros, _oracle_matrix(rng, a.cols, q).nonzeros))
        k = rng.randint(0, len(terms))
        first = sum_of_products(p, terms[:k])
        got = sum_of_products(p, terms[k:], first)
        assert got is first and QMatrix(p, q, got) == QMatrix(p, q, sum_of_products(p, terms))


def test_place_blocks_copies_each_block_to_its_offset():
    a = QMatrix.from_rows([[1, 2]])
    b = QMatrix.from_rows([[3], [4]])
    m = QMatrix.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert place_blocks(3, 3, [(0, 0, a), (1, 2, b)]) == m
    assert place_blocks(3, 3, [(1, 2, b), (0, 0, a)]) == m
    # blocks of height or width zero place nothing, also on the far edges
    empty = [(3, 1, QMatrix.zero(0, 2)), (1, 3, QMatrix.zero(2, 0)), (0, 0, QMatrix.zero(0, 0))]
    assert place_blocks(3, 3, [*empty, (1, 2, b), (0, 0, a)]) == m
    assert place_blocks(0, 2, [(0, 0, QMatrix.zero(0, 2))]) == QMatrix.zero(0, 2)
    assert place_blocks(2, 0, [(0, 0, QMatrix.zero(2, 0))]) == QMatrix.zero(2, 0)
    # a block that does not fit is refused, even where its overhang is zero
    for blocks in (
        [(0, 2, a)],
        [(0, 2, QMatrix.zero(1, 2))],
        [(2, 0, b)],
        [(-1, 0, a)],
        [(0, -1, a)],
    ):
        with pytest.raises(ValueError, match="does not fit"):
            place_blocks(3, 3, blocks)


def _kron(x, y):
    """Kronecker product of two lists of rows, with the column counts given
    explicitly so that empty shapes keep their width."""
    (xs, xc), (ys, yc) = (x[0], x[1]), (y[0], y[1])
    return [
        [xs[i][j] * ys[k][l] for j in range(xc) for l in range(yc)]
        for i in range(len(xs))
        for k in range(len(ys))
    ]


def _kron_system(count, blocks):
    """The rows of (A (x) I) on F minus s (I (x) B^T) on G, block by block,
    for row-major unknowns; all-zero rows dropped."""
    out = []
    for a, left, b, right, s in blocks:
        p, q, t, u = a.rows, a.cols, b.rows, b.cols
        eqs = [[Fraction(0)] * count for _ in range(p * u)]
        ident_u = [[int(i == j) for j in range(u)] for i in range(u)]
        ident_p = [[int(i == j) for j in range(p)] for i in range(p)]
        b_t = [col(b, c) for c in range(u)]
        if left is not None:
            for i, row in enumerate(_kron((a.data, q), (ident_u, u))):
                for j, x in enumerate(row):
                    eqs[i][left + j] += x
        if right is not None:
            for i, row in enumerate(_kron((ident_p, p), (b_t, t))):
                for j, x in enumerate(row):
                    eqs[i][right + j] -= s * x
        out.extend(row for row in eqs if any(row))
    return out


def _sparse_matrix(rng, rows, cols):
    density = rng.choice([0.0, 0.3, 1.0])
    return QMatrix(
        rows,
        cols,
        [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
    )


def test_hom_equations_match_kronecker_formula():
    rng = random.Random(2024)
    for _ in range(200):
        blocks = []
        count = rng.randint(0, 12)
        for _ in range(rng.randint(0, 3)):
            p, q, t, u = (rng.randint(0, 3) for _ in range(4))
            left = None if rng.random() < 0.2 or q * u > count else rng.randint(0, count - q * u)
            right = None if rng.random() < 0.2 or p * t > count else rng.randint(0, count - p * t)
            s = rng.choice([1, -1, 2])
            a, b = _sparse_matrix(rng, p, q), _sparse_matrix(rng, t, u)
            if rng.random() < 0.3:
                a = a.scale(Fraction(1, rng.randint(2, 5)))
            if rng.random() < 0.3:
                b = b.scale(Fraction(rng.randint(1, 4), rng.randint(2, 5)))
            blocks.append((a, left, b, right, s))
        system = hom_equations(count, blocks)
        expected = primitive_rows(_kron_system(count, blocks))
        assert densify(system) == QMatrix(len(expected), count, expected)
        for row in system.equations:
            assert row and all(type(x) is int and x for x in row.values())
            assert math.gcd(*row.values()) == 1


def test_hom_equations_edge_shapes():
    # no blocks: no equations, and the kernel is the unit basis in order
    empty = hom_equations(3, [])
    assert empty == SparseSystem(3, [])
    assert [dense(v, 3) for v in kernel_basis(empty)] == [[int(i == j) for j in range(3)] for i in range(3)]
    assert rank(empty) == 0
    # A F - F A on one 2x2 block: the equations of the identity cancel out
    ident = QMatrix.identity(2)
    assert hom_equations(4, [(ident, 0, ident, 0, 1)]).equations == []
    # both offsets None drop every term
    assert hom_equations(4, [(ident, None, ident, None, 1)]).equations == []
    # a zero A leaves only -s G B, each equation divided by its content;
    # empty blocks give no equations
    b = QMatrix.from_rows([[1, 2]])
    system = hom_equations(2, [(QMatrix.zero(1, 0), 0, b, 1, -1), (QMatrix.zero(0, 3), 0, b, 0, 1)])
    assert densify(system) == QMatrix.from_rows([[0, 1], [0, 1]])
