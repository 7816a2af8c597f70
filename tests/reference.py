"""Reference routes the tests compare the library with.

Each is a plain function over the public API, with no cache, and none has
a caller in the library: the coinvariant ring's matrices, invariants and
rank-two splitting, the action of a polynomial on a graded module, the
relations of a presentation and the graded Hom with one unknown per block
entry or with every relation, the peel along a prediction, the peel
search without one and the Hecke recursion of the indecomposables built
with the peel, the certificate of a prediction by the full images of its
inclusions, the minimal resolutions of the dual algebra's simples on
modules that carry every action matrix, the Hecke arithmetic on objects
(the general product, the bar involution, the canonical basis, the
expansion in it, and the pairing sum behind an endomorphism algebra's
dimension), and the Weyl-group enumerations the Bruhat order and
canonical words are checked against.
"""

from collections import Counter

from soergelkit import gradedmod, soergel
from soergelkit.coinvariant import CoinvariantElement
from soergelkit.gradedmod import ModuleMap
from soergelkit.hecke import HeckeElement
from soergelkit.laurent import LaurentPoly
from soergelkit.dualalg import MAX_RESOLUTION_LENGTH, Resolution
from soergelkit.linalg import QMatrix, RowSpan, SparseSystem, hom_equations, kernel_basis, rank, restrict_to_kernels, rref
from soergelkit.multipoly import MultiPoly
from soergelkit.soergel import DecompositionError
from soergelkit.tate import Complex
from soergelkit.weyl import format_perm, identity_perm, length, mult_right_simple, right_descents, simple_reflection

# -- coinvariant ring ------------------------------------------------------------


def degree_basis_indices(ring, d):
    """The indices of the basis elements of doubled degree d, ascending."""
    return tuple(i for i in range(ring.dim) if ring.basis_degree(i) == d)


def coord_vector(c, d):
    """Coordinates of a coinvariant element inside the degree-d graded piece,
    in basis order."""
    return [c.coords.get(i, 0) for i in degree_basis_indices(c.ring, d)]


def multiply_by_variable_matrix(ring, i, d):
    """Matrix of multiplication by x_i from degree d to degree d + 2."""
    xi = ring.variable(i)
    cols = [coord_vector(xi * ring.basis_element(b), d + 2) for b in degree_basis_indices(ring, d)]
    return QMatrix.from_columns(len(degree_basis_indices(ring, d + 2)), cols)


def action_matrix(ring, w, d):
    """Matrix of the W-action on the degree-d graded piece."""
    idxs = degree_basis_indices(ring, d)
    cols = [coord_vector(ring.weyl_act(w, ring.basis_element(b)), d) for b in idxs]
    return QMatrix.from_columns(len(idxs), cols)


def invariants_basis(ring, i):
    """A graded basis of the s_i-invariant subalgebra, degree ascending."""
    s = simple_reflection(i, ring.n)
    out = []
    for d in ring.degrees():
        idxs = degree_basis_indices(ring, d)
        m = action_matrix(ring, s, d) - QMatrix.identity(len(idxs))
        for vec in kernel_basis(m):
            out.append(CoinvariantElement(ring, {idxs[t]: x for t, x in vec.items()}))
    return out


def invariant_generators(ring, i):
    """Images of algebra generators of the s_i-invariant polynomials: the
    variables other than x_i, x_{i+1}, with x_i + x_{i+1} and x_i x_{i+1}.
    Their positive-degree span generates the positive part of the invariant
    subalgebra, which the tensor-quotient route of induction builds its
    relations from.  Generators that die in the quotient are dropped."""
    n = ring.n
    polys = [MultiPoly.variable(j, n) for j in range(1, n + 1) if j not in (i, i + 1)]
    xi, xj = MultiPoly.variable(i, n), MultiPoly.variable(i + 1, n)
    polys += [xi + xj, xi * xj]
    return [nf for nf in map(ring.normal_form, polys) if nf]


def split_invariant(ring, i, c):
    """c as a + x_i b with a, b invariant under s_i: b is the divided
    difference of c and a the remainder; both components are asserted
    invariant and the reconstruction exact."""
    b = ring.demazure(i, c)
    a = c - ring.variable(i) * b
    s = simple_reflection(i, ring.n)
    if ring.weyl_act(s, a) != a or ring.weyl_act(s, b) != b:
        raise AssertionError("rank-two splitting produced non-invariant components")
    if a + ring.variable(i) * b != c:
        raise AssertionError("rank-two splitting failed to reconstruct the element")
    return a, b


# -- polynomials -----------------------------------------------------------------


def homogeneous_parts(p):
    """The homogeneous components of a MultiPoly, keyed by degree, ascending."""
    parts = {}
    for a, x in p.terms():
        parts.setdefault(sum(a), {})[a] = x
    return {d: MultiPoly(p.n, t) for d, t in sorted(parts.items())}


def is_nonneg_integral(p):
    """Whether every coefficient of a LaurentPoly is a nonnegative integer."""
    return all(type(x) is int and x >= 0 for _, x in p.items())


# -- graded modules --------------------------------------------------------------


def poly_action(M, p):
    """Blocks of the action of a homogeneous polynomial on M, degree by
    degree; well defined on the quotient because e_k of the actions
    vanishes."""
    parts = homogeneous_parts(p)
    if len(parts) > 1:
        raise ValueError("poly_action expects a homogeneous polynomial")
    if not parts:
        return {d: QMatrix.zero(M.dim_at(d), M.dim_at(d)) for d in M.degrees()}
    deg, part = next(iter(parts.items()))
    out = {}
    for d in M.degrees():
        total = QMatrix.zero(M.dim_at(d + 2 * deg), M.dim_at(d))
        for a, x in part.terms():
            prod = QMatrix.identity(M.dim_at(d))
            cur = d
            for i, e in enumerate(a, start=1):
                for _ in range(e):
                    prod = M.action(i, cur) * prod
                    cur += 2
            total = total + prod.scale(x)
        out[d] = total
    return out


def check_commutes(f: ModuleMap):
    """Assert that the module map f commutes with every variable action."""
    for i in range(1, f.source.ring.n + 1):
        for d in f.source.degrees():
            lhs = f.target.action(i, d + f.degree) * f.block(d)
            rhs = f.block(d + 2) * f.source.action(i, d)
            if lhs != rhs:
                raise AssertionError(f"map fails to commute with x_{i} at degree {d}")


def graded_hom_system(M, N, degree, variables):
    """The block system of Hom^degree(M, N) on the equations of
    ``variables``: one unknown per entry of each block f_a : M_a ->
    N_{a+degree}, row by row in ascending a, and one equation per entry of
    x_i f_a - f_{a+2} x_i."""
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


def hom_graded_blocks(M, N, degree):
    """A basis of Hom^degree(M, N) from the block system on the equations of
    x_1 .. x_{n-1}.  The kernel is solved through ``gradedmod``'s
    ``kernel_basis`` binding, so that a spy on it sees this system too."""
    system = graded_hom_system(M, N, degree, range(1, M.ring.n))
    # unknown offsets[a] + r * M.dim_at(a) + c is entry (r, c) of block a
    entry_of = [(a, r, c) for a in M.degrees() for r in range(N.dim_at(a + degree)) for c in range(M.dim_at(a))]
    maps = []
    for vec in gradedmod.kernel_basis(system):
        rows = {a: [{} for _ in range(N.dim_at(a + degree))] for a in M.degrees()}
        for k, x in vec.items():
            a, r, c = entry_of[k]
            rows[a][r][c] = x
        blocks = {a: QMatrix(len(block_rows), M.dim_at(a), block_rows) for a, block_rows in rows.items()}
        maps.append(ModuleMap(M, N, degree, blocks))
    return maps


def presentation_relations(M):
    """{d: the relations of M's presentation in degree d}, for every degree
    of M and each degree two above one: the candidates x_i b, numbered as
    in ``gradedmod.Presentation``, that are not among the chosen ones."""
    pres, n, degrees = M.presentation(), M.ring.n, set(M.degrees())
    return {
        d: tuple(c for c in range((n - 1) * M.dim_at(d - 2)) if c not in pres.chosen.get(d, ()))
        for d in sorted(degrees | {e + 2 for e in degrees})
    }


def hom_system_every_relation(M, N, degree):
    """The Hom^degree(M, N) system on generator images with the equations
    of every relation of M's presentation, not only the kept ones.

    The unknowns are those of ``gradedmod``'s system: generator g of
    degree d has dim N_{d+degree} of them, generators taken by ascending
    degree.  The image of each row of ``bases[d]`` is a dim N_{d+degree} x
    unknowns matrix: a generator's is a unit block, and that of a chosen
    product x_i b is x_i applied to the image of b.  A relation x_i b =
    sum_j c_j b_j, its coordinates read off the inverse of ``bases[d]``,
    gives the rows of x_i f(b) - sum_j c_j f(b_j); above the top degree of
    M it gives those of x_i f(b)."""
    pres = M.presentation()
    first, width = {}, 0
    for d, gens in pres.generators().items():
        first[d] = width
        width += gens * N.dim_at(d + degree)
    images, equations = {}, []
    for d, relations in presentation_relations(M).items():
        nd, below = N.dim_at(d + degree), pres.bases.get(d - 2)
        products, vectors = [], []
        for i in range(1, M.ring.n):
            act = N.action(i, d - 2 + degree)
            products += [act * image for image in images.get(d - 2, [])]
            if below is not None:
                vectors += (below * M.action(i, d - 2).transpose()).nonzeros
        if d not in pres.bases:
            equations += [row for c in relations for row in products[c].nonzeros]
            continue
        chosen = pres.chosen[d]
        gens = pres.bases[d].rows - len(chosen)
        units = [QMatrix(nd, width, [{first[d] + g * nd + r: 1} for r in range(nd)]) for g in range(gens)]
        images[d] = [products[c] for c in chosen] + units
        coords = QMatrix(len(relations), M.dim_at(d), [vectors[c] for c in relations]) * pres.inverse(d)
        for c, row in zip(relations, coords.nonzeros):
            image = products[c]
            for j, x in row.items():
                image = image - images[d][j].scale(x)
            equations += image.nonzeros
    return SparseSystem.of(width, equations)


def idempotent_index(alg, a):
    """The index of the identity of slot a in an EndoAlgebra basis."""
    for i, (src, tgt, d, m) in enumerate(alg.basis):
        if (src, tgt, d) == (a, a, 0) and m == ModuleMap.identity(alg.modules[a]):
            return i
    raise ValueError(f"no identity basis element for slot {a}")


# -- Soergel modules -------------------------------------------------------------


def peel_along(cat, M, expected):
    """Split each predicted (x, k) off what is left of M, in order, with
    the category's peel step, yielding (x, k, split) with split the
    complement and its inclusion; raises DecompositionError at the first
    one that cannot be split off."""
    cur = M
    for x, k in expected:
        res = cat._try_peel(cur, x, k)
        if res is None:
            raise DecompositionError(f"predicted summand (D[{format_perm(x)}], {k}) could not be split off")
        yield x, k, res
        cur = res[0]


def peel_search(cat, M):
    """Split off what is left of M with the category's peel step, one
    (x, k) at a time: the first whose shifted character fits under the
    remaining one, longest x first, yielding (x, k, split) as
    :func:`peel_along` does; raises DecompositionError when no candidate
    splits off.  It is the route ``decompose`` took without a prediction
    before it read one off Hom counts."""
    order = sorted(cat.group.elements(), key=lambda w: (-length(w), w))
    cur = M
    while cur.total_dim():
        char = cur.character()
        fits = ((x, k) for x in order for k in soergel._candidate_shifts(cat.indecomposable(x).character(), char))
        for x, k in fits:
            res = cat._try_peel(cur, x, k)
            if res is not None:
                break
        else:
            raise DecompositionError("module is not a direct sum of shifted indecomposables")
        yield x, k, res
        cur = res[0]


def certify_by_full_images(cat, M, expected):
    """The prediction ``expected`` of M certified by the full images of
    inclusions, the route ``decompose`` took before it read generator
    images modulo C_+M: after the characters and the size of each Hom,
    one RowSpan per degree of M, empty at first, takes for each group
    ((x, k), m), in the category's visiting order, the image of every row
    of the presentation of D_x under the degree -k maps D_x -> M
    (``gradedmod.hom_images``); a group keeps the first m maps whose
    images raise the rank, and the spans must fill M.  Returns the
    prediction as a tuple, or raises DecompositionError with the
    library's messages."""
    cat._check_characters(M.character(), expected)
    groups = list(Counter(expected).items())
    for (x, k), _ in sorted(groups, key=lambda group: group[0][1]):
        gradedmod.check_hom_size(cat.indecomposable(x), M, -k, blocks=True)
    spans = {d: RowSpan(M.dim_at(d)) for d in M.degrees()}
    for (x, k), m in soergel._by_descending_shift(groups):
        kept = 0
        for images in gradedmod.hom_images(cat.indecomposable(x), M, -k):
            # a list, not a lazy any(): every block goes into the span
            if sum([spans[d - k].add(img) for d, img in images.items()]):
                kept += 1
                if kept == m:
                    break
        else:
            raise DecompositionError(f"predicted summand (D[{format_perm(x)}], {k}) could not be split off")
    for d, span in spans.items():
        if span.rank < M.dim_at(d):
            raise DecompositionError(f"the predicted inclusions are not surjective in degree {d}")
    return tuple(expected)


def lower_summands(cat, w):
    """The summands (y, k) of b_u b_s - b_w, with s = s_i the last letter
    of the canonical word of w, w of positive length, and u = ws: what the
    induction of D_u along s holds besides D_w.  Returns (i, u, summands)."""
    i = cat.group.a_reduced_word(w)[-1]
    u = mult_right_simple(w, i)
    b_us = cat.hecke.mult_gen_plus(cat.hecke.kl_basis(u), i, LaurentPoly.v())
    return i, u, cat._summands_of(b_us - cat.hecke.kl_basis(w))


def indecomposable_by_peel(cat, w):
    """D_w by the Hecke recursion with the peel: the induction of the
    category's D_u along the last letter of the canonical word of w, with
    its lower summands peeled off along the prediction."""
    if length(w) == 0:
        return cat.trivial()
    i, u, rest = lower_summands(cat, w)
    module = cat.induct(i, cat.indecomposable(u))
    for _, _, split in peel_along(cat, module, rest):
        module = split[0]
    return module


# -- dual algebra ----------------------------------------------------------------


class AMod:
    """A graded module over the endomorphism algebra, stored blockwise.

    ``blocks`` maps (degree, summand slot) to a dimension; ``act`` maps an
    (algebra basis index, source block) pair to its nonzero matrix.
    """

    __slots__ = ("blocks", "act")

    def __init__(self, blocks, act):
        self.blocks = {k: d for k, d in blocks.items() if d}
        self.act = act

    def block_keys(self):
        return sorted(self.blocks)

    def dim(self, key) -> int:
        return self.blocks.get(key, 0)

    def total_dim(self) -> int:
        return sum(self.blocks.values())


def projective_sum(alg, cover):
    """The direct sum of P_w shifted so generators sit at given degrees,
    with every action block built as a matrix.

    Returns the module together with its ordered basis per block: for
    each block key (degree, slot), the (cover index, record index) pairs
    in block position order.
    """
    out_of = {}
    for idx, (a, _, _, _) in enumerate(alg.endo.basis):
        out_of.setdefault(a, []).append(idx)
    basis_at = {}
    for ci, (w, d0) in enumerate(cover):
        for rec_idx in out_of[alg.slot[w]]:
            _, b, d, _ = alg.endo.basis[rec_idx]
            basis_at.setdefault((d + d0, b), []).append((ci, rec_idx))
    blocks = {key: len(items) for key, items in basis_at.items()}
    pos_of = {}
    for items in basis_at.values():
        for p, (ci, rec_idx) in enumerate(items):
            pos_of[(ci, rec_idx)] = p
    act = {}
    for key, items in basis_at.items():
        d, slot = key
        for a_idx in out_of[slot]:
            _, v, g, _ = alg.endo.basis[a_idx]
            tgt_items = basis_at.get((d + g, v))
            if not tgt_items:
                continue
            # each structure constant is nonzero and lands in its own entry
            data = [{} for _ in tgt_items]
            for col, (ci, rec_idx) in enumerate(items):
                for out_idx, coeff in alg.endo.compose_indices(a_idx, rec_idx):
                    data[pos_of[(ci, out_idx)]][col] = coeff
            if any(data):
                act[(a_idx, key)] = QMatrix(len(tgt_items), len(items), data)
    return AMod(blocks, act), basis_at


def radical_complement(alg, mod):
    """Free coordinates of each block modulo the image of every
    positive-degree basis element."""
    images = {}
    for (a_idx, (d, _)), blk in mod.act.items():
        _, v, g, _ = alg.endo.basis[a_idx]
        if g > 0:
            images.setdefault((d + g, v), []).extend(blk.transpose().nonzeros)
    out = {}
    for key in mod.block_keys():
        rows = images.get(key, [])
        pivots = set(rref(QMatrix(len(rows), mod.dim(key), rows)).pivots)
        free = [j for j in range(mod.dim(key)) if j not in pivots]
        if free:
            out[key] = free
    return out


def kernel_of_cover(alg, cover_mod, cover_map):
    """The kernel of a blockwise module map, given on every block of
    ``cover_mod``, with restricted action."""
    blocks = []
    for (a_idx, key), blk in cover_mod.act.items():
        _, v, g, _ = alg.endo.basis[a_idx]
        blocks.append(((a_idx, key), key, (key[0] + g, v), blk))
    inclusions, act = restrict_to_kernels(cover_map, blocks)
    return AMod({key: inc.cols for key, inc in inclusions.items()}, act)


def restricted_resolution(alg, x):
    """The minimal graded projective resolution of the simple at x by
    iterated kernel-and-cover on modules that carry every action matrix:
    heads are the free coordinates modulo the image of all of A_+, and each
    syzygy gets its action restricted to kernel coordinates.  Uncached."""
    slot_x = alg.slot[x]
    p0, _ = projective_sum(alg, [(x, 0)])
    if p0.dim((0, slot_x)) != 1:
        raise AssertionError("projective cover of a simple has a bad degree-0 block")
    # radical of P_x: all blocks of positive degree (degree 0 is the identity)
    rad_blocks = {key: d for key, d in p0.blocks.items() if key[0] > 0}
    rad_act = {label: mat for label, mat in p0.act.items() if label[1][0] > 0}
    current = AMod(rad_blocks, rad_act)
    steps = [[(x, 0)]]
    complete = True
    while current.total_dim():
        if len(steps) > MAX_RESOLUTION_LENGTH:
            complete = False
            break
        heads = radical_complement(alg, current)
        head_coords = [(key, j) for key in sorted(heads) for j in heads[key]]
        cover = [(alg.summands[slot], d) for (d, slot), _ in head_coords]
        cover_mod, basis_at = projective_sum(alg, cover)
        # the cover map sends the basis record (ci, rec) to rec . h_ci, the
        # column of rec's action at the coordinate of the head h_ci
        act_columns = {label: blk.transpose().nonzeros for label, blk in current.act.items()}
        cover_map = {}
        for key, items in basis_at.items():
            columns = []
            for ci, rec_idx in items:
                h_key, j = head_coords[ci]
                cols = act_columns.get((rec_idx, h_key))
                columns.append({} if cols is None else cols[j])
            cover_map[key] = QMatrix.from_columns(current.dim(key), columns)
        for key in current.block_keys():
            mat = cover_map.get(key)
            if mat is None or rank(mat) != current.dim(key):
                raise AssertionError("projective cover failed to surject onto a syzygy")
        steps.append(cover)
        current = kernel_of_cover(alg, cover_mod, cover_map)
    return Resolution(x, steps, complete)


# -- Hecke algebra ---------------------------------------------------------------
#
# Object-level routes: every sum is LaurentPoly arithmetic on (w, coefficient)
# pairs, and an element is made by the public constructor, so none of them
# goes through the dict arithmetic of the library.


def element(n, pairs):
    """The element of rank n whose H_w coefficient sums the p of the pairs (w, p)."""
    c = {}
    for w, p in pairs:
        c[w] = c.get(w, LaurentPoly.zero()) + p
    return HeckeElement(n, c)


def mult_gen(alg, h, i):
    """Right multiplication by H_{s_i}: H_w H_s is H_{ws}, plus
    (v^-1 - v) H_w when s is a right descent of w."""
    vinv_minus_v = LaurentPoly({-1: 1, 1: -1})
    pairs = []
    for w, p in h.terms():
        pairs.append((mult_right_simple(w, i), p))
        if i in right_descents(w):
            pairs.append((w, p * vinv_minus_v))
    return element(alg.n, pairs)


def mult_gen_plus(alg, h, i, c):
    """Right multiplication by H_{s_i} + c."""
    return element(alg.n, mult_gen(alg, h, i).terms() + [(w, p * c) for w, p in h.terms()])


def mult_std(alg, h, w):
    """h times H_w, one simple reflection of a reduced word of w at a time."""
    out = h
    for i in alg.group.a_reduced_word(w):
        out = mult_gen(alg, out, i)
    return out


def mult(alg, h1, h2):
    """The general product h1 h2, term by term in h2."""
    if h1.n != h2.n:
        raise ValueError("rank mismatch in Hecke multiplication")
    return element(alg.n, [(x, q * p) for w, p in h2.terms() for x, q in mult_std(alg, h1, w).terms()])


def product_of_bs(alg, word):
    """b_{s_1} ... b_{s_l} by the general product, with b_s = H_s + v H_e."""
    out = alg.unit()
    for i in word:
        b_s = element(alg.n, [(alg.group.simple(i), LaurentPoly.one()), (alg.group.identity, LaurentPoly.v())])
        out = mult(alg, out, b_s)
    return out


def bar_of_std(alg, w):
    """bar(H_w), multiplied out along the canonical word of w by
    bar(H_s) = H_s + (v - v^-1) H_e."""
    out = alg.unit()
    for i in alg.group.a_reduced_word(w):
        out = mult_gen_plus(alg, out, i, LaurentPoly({1: 1, -1: -1}))
    return out


def bar(alg, h):
    """The bar involution, term by term: bar(p H_w) = bar(p) bar(H_w)."""
    return element(alg.n, [(x, q * p.bar()) for w, p in h.terms() for x, q in bar_of_std(alg, w).terms()])


def kl_basis_table(alg):
    """Every b_w, by length: b_u b_s for u = ws and the largest right descent
    s of w, minus integer multiples of shorter b_x, from the top, until
    every lower coefficient lies in v Z[v]; each b_w is checked
    unitriangular, in v Z[v] below w and bar-invariant."""
    table = {}
    for w in alg.group.elements():
        if length(w) == 0:
            table[w] = alg.unit()
            continue
        i = max(right_descents(w))
        b = mult_gen_plus(alg, table[mult_right_simple(w, i)], i, LaurentPoly.v())
        for x in sorted(b.support(), key=lambda y: (-length(y), y)):
            m = b.coeff(x).coeff(0)
            if x != w and m:
                b = element(alg.n, b.terms() + [(y, q * -m) for y, q in table[x].terms()])
        assert b.coeff(w) == LaurentPoly.one(), format_perm(w)
        assert all(length(x) < length(w) and p.min_exp() > 0 for x, p in b.terms() if x != w), format_perm(w)
        assert bar(alg, b) == b, format_perm(w)
        table[w] = b
    return table


def kl_expand(table, h):
    """Coefficients m_x with h the sum of m_x b_x for the b_x of ``table``:
    take the (length, w)-largest element left, record its coefficient m and
    subtract m b_x, until nothing is left."""
    out = {}
    while h:
        x = max(h.support(), key=lambda y: (length(y), y))
        m = out[x] = h.coeff(x)
        h = element(h.n, h.terms() + [(y, -(q * m)) for y, q in table[x].terms()])
    return out


def endo_dimension_by_pairings(hecke, summands):
    """The dimension of the endomorphism algebra of the sum of the D_w
    shifted by k over the summands (w, k): the sum over ordered pairs (a, b)
    of the pairing of v^-k_a b_a and v^-k_b b_b at v = 1."""
    kl = [hecke.kl_basis(w).scale(LaurentPoly.v(-k)) for w, k in summands]
    return sum(hecke.pairing(ba, bb).at_one() for ba in kl for bb in kl)


# -- Tate categories -------------------------------------------------------------


def simple_ungraded(c):
    """The one-dimensional ungraded complex in position c."""
    return Complex({c: 1})


def twist_shift(x, p):
    """Twist by p combined with the shift [2p]; weight-preserving."""
    return x.twist(p).shift(2 * p)


# -- Weyl group ------------------------------------------------------------------


def bruhat_interval_below(group, w):
    """The elements x <= w in Bruhat order, in the group's element order."""
    return tuple(x for x in group.elements() if group.bruhat_leq(x, w))


def reduced_words(w):
    """All reduced words for w, sorted lexicographically."""
    if length(w) == 0:
        return ((),)
    found = []
    for i in sorted(right_descents(w)):
        for prefix in reduced_words(mult_right_simple(w, i)):
            found.append(prefix + (i,))
    return tuple(sorted(found))


def demazure_product(word, n):
    """Fold of w * s = w s when that is longer, w otherwise."""
    w = identity_perm(n)
    for i in word:
        if i not in right_descents(w):
            w = mult_right_simple(w, i)
    return w


def poincare_polynomial(group):
    """Length generating function as a map length -> count."""
    counts = {}
    for w in group.elements():
        counts[length(w)] = counts.get(length(w), 0) + 1
    return counts
