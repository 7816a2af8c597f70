"""Reference routes the tests compare the library with.

Each is a plain function over the public API, with no cache, and none has
a caller in the library: the coinvariant ring's matrices, invariants and
rank-two splitting, the action of a polynomial on a graded module, the
general Hecke product, and the Weyl-group enumerations the Bruhat order
and canonical words are checked against.
"""

from soergelkit.coinvariant import CoinvariantElement
from soergelkit.gradedmod import ModuleMap
from soergelkit.linalg import QMatrix, kernel_basis
from soergelkit.multipoly import MultiPoly
from soergelkit.tate import Complex
from soergelkit.weyl import identity_perm, length, mult_right_simple, right_descents, simple_reflection

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


def idempotent_index(alg, a):
    """The index of the identity of slot a in an EndoAlgebra basis."""
    for i, (src, tgt, d, m) in enumerate(alg.basis):
        if (src, tgt, d) == (a, a, 0) and m == ModuleMap.identity(alg.modules[a]):
            return i
    raise ValueError(f"no identity basis element for slot {a}")


# -- Hecke algebra ---------------------------------------------------------------


def mult_std(alg, h, w):
    """h times H_w, one simple reflection of a reduced word of w at a time."""
    out = h
    for i in alg.group.a_reduced_word(w):
        out = alg.mult_gen(out, i)
    return out


def mult(alg, h1, h2):
    """The general product h1 h2, term by term in h2."""
    if h1.n != h2.n:
        raise ValueError("rank mismatch in Hecke multiplication")
    out = alg.zero()
    for w, p in h2.terms():
        out = out + mult_std(alg, h1, w).scale(p)
    return out


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
