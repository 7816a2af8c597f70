"""The coinvariant algebra of the symmetric group.

This is the quotient of Q[x_1 .. x_n] by the ideal generated by the
elementary symmetric polynomials e_1 .. e_n, graded with deg(x_i) = 2.  Its
dimension is n! and the staircase monomials x^a with a_i <= n - i descend
to a basis.  Reduction to the staircase basis is done degree by degree with
exact row reduction of the ideal slice against all monomials of that
degree; no Groebner machinery is involved.  The monomial columns are in
lex order with x_n largest, whose standard monomials are the staircase, so
the free columns of each reduced slice are asserted to be exactly the
staircase monomials, in order, and a polynomial's residual at the free
columns is its staircase coordinate vector.

The ring carries the permutation action of S_n and the divided-difference
(Demazure) operators for adjacent transpositions, which descend to the
quotient because the ideal is stable under both.

A ring is built once and is read-only afterwards; all element operations
are pure functions of the ring data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .laurent import LaurentPoly
from .linalg import QMatrix, SizeCapError, kernel_basis, rref
from .multipoly import MultiPoly, divided_difference
from .weyl import RANK_CAP, Perm, simple_reflection


def _monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d, descending lex with x_n largest."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, key=lambda a: a[::-1], reverse=True)


class _IdealSlice:
    """The row-reduced degree-d slice of the ideal, with its free columns;
    each reduced row is the {column: entry} dict stored by the reduced
    matrix."""

    __slots__ = ("index", "reduced_rows", "pivots", "free_cols", "staircase")

    def __init__(self, index, reduced_rows, pivots, free_cols, staircase):
        self.index = index
        self.reduced_rows = reduced_rows
        self.pivots = pivots
        self.free_cols = free_cols
        self.staircase = staircase

    def residual(self, part: MultiPoly) -> list[Fraction]:
        """Entries at the free columns of a degree-d polynomial reduced by
        the slice: its coordinates on ``staircase``."""
        v = [Fraction(0)] * len(self.index)
        for a, x in part.terms():
            v[self.index[a]] = x
        for row, pc in zip(self.reduced_rows, self.pivots):
            x = v[pc]
            if x:
                for j, r in row.items():
                    v[j] -= x * r
        return [v[j] for j in self.free_cols]


def ideal_slice(n: int, d: int) -> _IdealSlice:
    """Row-reduce the degree-d part of the ideal (e_1 .. e_n) in n variables.

    Columns are the monomials of degree d in :func:`_monomials_of_degree`
    order, so the pivots are the leading monomials of the slice for lex
    order with x_n largest.  The initial ideal in that order is
    (x_n, x_{n-1}^2, .., x_1^n), so the free columns are exactly the
    staircase monomials of degree d; this is asserted, in column order.
    """
    monos = _monomials_of_degree(n, d)
    index = {a: j for j, a in enumerate(monos)}
    rows = []
    for k in range(1, min(n, d) + 1):
        ek = MultiPoly.elementary(k, n)
        for m in _monomials_of_degree(n, d - k):
            rows.append({index[a]: x for a, x in (MultiPoly.monomial(m) * ek).terms()})
    res = rref(QMatrix(len(rows), len(monos), rows))
    pivots = set(res.pivots)
    free_cols = [j for j in range(len(monos)) if j not in pivots]
    staircase = [monos[j] for j in free_cols]
    if staircase != [a for a in monos if all(e < n - i for i, e in enumerate(a))]:
        raise AssertionError(f"free columns of the ideal slice at degree {d} are not the staircase")
    return _IdealSlice(index, res.matrix.nonzeros[: res.rank], res.pivots, free_cols, staircase)


class CoinvariantElement:
    """An element of the coinvariant algebra in staircase coordinates."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: "CoinvariantRing", coords=None):
        self.ring = ring
        c: dict[int, Fraction] = {}
        if coords:
            for i, x in coords.items():
                if not isinstance(x, Fraction):
                    x = Fraction(x)
                if x:
                    c[int(i)] = x
        self.coords = c

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoinvariantElement):
            return NotImplemented
        return self.ring is other.ring and self.coords == other.coords

    def __hash__(self):
        raise TypeError("CoinvariantElement is unhashable")

    def __add__(self, other: "CoinvariantElement") -> "CoinvariantElement":
        self._same_ring(other)
        c = dict(self.coords)
        for i, x in other.coords.items():
            y = c.get(i, 0) + x
            if y:
                c[i] = y
            else:
                c.pop(i, None)
        return CoinvariantElement(self.ring, c)

    def __neg__(self) -> "CoinvariantElement":
        return CoinvariantElement(self.ring, {i: -x for i, x in self.coords.items()})

    def __sub__(self, other: "CoinvariantElement") -> "CoinvariantElement":
        return self + (-other)

    def scale(self, c) -> "CoinvariantElement":
        return CoinvariantElement(self.ring, {i: x * c for i, x in self.coords.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_ring(other)
        return self.ring.normal_form(self.lift() * other.lift())

    __rmul__ = __mul__

    def _same_ring(self, other: "CoinvariantElement") -> None:
        if self.ring is not other.ring:
            raise ValueError("elements belong to different coinvariant rings")

    def lift(self) -> MultiPoly:
        """The canonical polynomial representative (staircase combination)."""
        out = MultiPoly.zero(self.ring.n)
        for i, x in self.coords.items():
            out = out + MultiPoly.monomial(self.ring.basis[i], x)
        return out

    def degrees(self) -> tuple[int, ...]:
        """Doubled degrees of the homogeneous components, ascending."""
        return tuple(sorted({self.ring.basis_degree(i) for i in self.coords}))

    def degree(self) -> int | None:
        """The doubled degree when homogeneous, None for 0 or mixed."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def coord_vector(self, d: int) -> list[Fraction]:
        """Coordinates inside the degree-d graded piece, in basis order."""
        idxs = self.ring.degree_basis_indices(d)
        return [self.coords.get(i, Fraction(0)) for i in idxs]

    def __str__(self) -> str:
        return str(self.lift())

    def __repr__(self) -> str:
        return f"CoinvariantElement({str(self)!r})"


class CoinvariantRing:
    """The coinvariant algebra for S_n, with reduction and operator data."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be at least 1")
        if n > RANK_CAP:
            raise SizeCapError(f"rank {n} exceeds the configured cap {RANK_CAP}")
        self.n = n
        self.top_poly_degree = n * (n - 1) // 2
        self.basis: tuple[tuple[int, ...], ...] = tuple(
            sorted(
                product(*(range(n - i) for i in range(n))),
                key=lambda a: (sum(a), tuple(-e for e in a)),
            )
        )
        self.basis_index = {a: i for i, a in enumerate(self.basis)}
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for i, a in enumerate(self.basis):
            self._by_degree.setdefault(2 * sum(a), ())
            self._by_degree[2 * sum(a)] += (i,)
        self._slices = [ideal_slice(n, d) for d in range(self.top_poly_degree + 1)]
        self._var_mult: dict[tuple[int, int], QMatrix] = {}
        self._act_matrices: dict[tuple[Perm, int], QMatrix] = {}

    # -- basic data ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def graded_dims(self) -> dict[int, int]:
        """Dimension of each graded piece, keyed by doubled degree."""
        return {d: len(idxs) for d, idxs in sorted(self._by_degree.items())}

    def poincare(self) -> LaurentPoly:
        return LaurentPoly({d: len(idxs) for d, idxs in self._by_degree.items()})

    def degree_basis_indices(self, d: int) -> tuple[int, ...]:
        return self._by_degree.get(d, ())

    def basis_degree(self, i: int) -> int:
        return 2 * sum(self.basis[i])

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_degree))

    # -- elements ------------------------------------------------------------

    def zero(self) -> CoinvariantElement:
        return CoinvariantElement(self)

    def one(self) -> CoinvariantElement:
        return CoinvariantElement(self, {self.basis_index[(0,) * self.n]: 1})

    def variable(self, i: int) -> CoinvariantElement:
        return self.normal_form(MultiPoly.variable(i, self.n))

    def basis_element(self, i: int) -> CoinvariantElement:
        return CoinvariantElement(self, {i: 1})

    def normal_form(self, p: MultiPoly) -> CoinvariantElement:
        """The image of a polynomial in staircase coordinates.

        Components of degree above the top degree vanish in the quotient
        and are dropped without further computation.
        """
        if p.n != self.n:
            raise ValueError(f"polynomial in {p.n} variables fed to rank-{self.n} ring")
        coords: dict[int, Fraction] = {}
        for d, part in p.homogeneous_parts().items():
            if d > self.top_poly_degree:
                continue
            data = self._slices[d]
            for a, c in zip(data.staircase, data.residual(part)):
                coords[self.basis_index[a]] = c
        return CoinvariantElement(self, coords)

    # -- structure maps --------------------------------------------------------

    def weyl_act(self, w: Perm, c: CoinvariantElement) -> CoinvariantElement:
        """The algebra automorphism induced by permuting the variables."""
        if len(w) != self.n:
            raise ValueError("rank mismatch in coinvariant action")
        return self.normal_form(c.lift().perm_act(w))

    def demazure(self, i: int, c: CoinvariantElement) -> CoinvariantElement:
        """Divided difference on a lift, reduced back to the quotient.

        Well defined because the invariant ideal is stable under divided
        differences; lowers the doubled degree by 2.
        """
        return self.normal_form(divided_difference(c.lift(), i))

    def multiply_by_variable_matrix(self, i: int, d: int) -> QMatrix:
        """Matrix of multiplication by x_i from degree d to degree d + 2."""
        key = (i, d)
        cached = self._var_mult.get(key)
        if cached is None:
            src = self.degree_basis_indices(d)
            tgt = self.degree_basis_indices(d + 2)
            cols = []
            xi = MultiPoly.variable(i, self.n)
            for b in src:
                prod = self.normal_form(xi * MultiPoly.monomial(self.basis[b]))
                cols.append(prod.coord_vector(d + 2))
            cached = QMatrix.from_columns(len(tgt), cols)
            self._var_mult[key] = cached
        return cached

    def action_matrix(self, w: Perm, d: int) -> QMatrix:
        """Matrix of the W-action on the degree-d graded piece."""
        key = (w, d)
        cached = self._act_matrices.get(key)
        if cached is None:
            idxs = self.degree_basis_indices(d)
            cols = []
            for b in idxs:
                img = self.weyl_act(w, self.basis_element(b))
                cols.append(img.coord_vector(d))
            cached = QMatrix.from_columns(len(idxs), cols)
            self._act_matrices[key] = cached
        return cached

    def invariants_basis(self, i: int) -> list[CoinvariantElement]:
        """A graded basis of the s_i-invariant subalgebra, degree ascending."""
        s = simple_reflection(i, self.n)
        out = []
        for d in self.degrees():
            idxs = self.degree_basis_indices(d)
            m = self.action_matrix(s, d) - QMatrix.identity(len(idxs))
            for vec in kernel_basis(m):
                out.append(CoinvariantElement(self, {idxs[t]: x for t, x in vec.items()}))
        return out

    def invariant_generators(self, i: int) -> list[CoinvariantElement]:
        """Images of algebra generators of the s_i-invariant polynomials.

        These are the variables other than x_i, x_{i+1} together with
        x_i + x_{i+1} and x_i x_{i+1}; their positive-degree span generates
        the positive part of the invariant subalgebra.  Induction does not
        use them (it works from the free basis {1, x_i}); only the
        tensor-quotient reference route in the tests builds C (x)_{C^s} M
        from relations on them.  Generators that die in the quotient are
        dropped.
        """
        polys = []
        for j in range(1, self.n + 1):
            if j not in (i, i + 1):
                polys.append(MultiPoly.variable(j, self.n))
        xi = MultiPoly.variable(i, self.n)
        xj = MultiPoly.variable(i + 1, self.n)
        polys.append(xi + xj)
        polys.append(xi * xj)
        out = []
        for p in polys:
            nf = self.normal_form(p)
            if nf:
                out.append(nf)
        return out

    def split_invariant(self, i: int, c: CoinvariantElement) -> tuple[CoinvariantElement, CoinvariantElement]:
        """Write c as a + x_i b with a, b invariant under s_i.

        b is the divided difference of c and a the remainder; both
        components are asserted invariant and the reconstruction exact.
        """
        b = self.demazure(i, c)
        a = c - self.variable(i) * b
        s = simple_reflection(i, self.n)
        if self.weyl_act(s, a) != a or self.weyl_act(s, b) != b:
            raise AssertionError("rank-two splitting produced non-invariant components")
        if a + self.variable(i) * b != c:
            raise AssertionError("rank-two splitting failed to reconstruct the element")
        return a, b


@lru_cache(maxsize=None)
def coinvariant_ring(n: int) -> CoinvariantRing:
    """Shared per-rank ring (built once, read-only afterwards)."""
    return CoinvariantRing(n)
