"""The coinvariant algebra of the symmetric group.

This is the quotient of Q[x_1 .. x_n] by the ideal generated by the
elementary symmetric polynomials e_1 .. e_n, graded with deg(x_i) = 2.  Its
dimension is n! and the staircase monomials x^a with a_i <= n - i descend
to a basis.  Each degree slice of the ideal is row-reduced exactly against
all monomials of that degree; no Groebner machinery is involved.  The
monomial columns are in lex order with x_n largest, whose standard
monomials are the staircase, so the free columns of each reduced slice are
asserted to be exactly the staircase monomials, in order.  The normal form
of each monomial is read off the reduced rows: a free monomial is its own
basis element, a pivot monomial is minus its reduced row at the free
columns, and a monomial above the top degree is 0.  The ring stores these
forms for every monomial up to the top degree, and all arithmetic works on
staircase coordinates through them: a polynomial's normal form is the sum
of its terms' forms, a product of basis elements is the form of the
exponent sum, and a permuted monomial is a monomial.

The ring carries the permutation action of S_n and the divided-difference
(Demazure) operators for adjacent transpositions, which descend to the
quotient because the ideal is stable under both; each operator is stored
as its table of normal forms on the basis monomials.

A ring is built once and is read-only afterwards; all element operations
are pure functions of the ring data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import add

from .laurent import LaurentPoly
from .linalg import QMatrix, exact, rref
from .multipoly import MultiPoly, divided_difference
from .weyl import Perm, check_rank


#: the form of a monomial above the top degree
_ZERO: dict[int, int] = {}


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

    def monomial_forms(self, basis_index) -> dict[tuple[int, ...], dict[int, int | Fraction]]:
        """The normal form of each degree-d monomial as {basis index: value},
        read off the reduced rows: a free monomial is its own staircase
        basis element, and the monomial at a pivot column is minus the
        reduced row of that pivot at the free columns."""
        monos = list(self.index)
        free = {j: basis_index[a] for j, a in zip(self.free_cols, self.staircase)}
        forms = {monos[j]: {b: 1} for j, b in free.items()}
        for row, pc in zip(self.reduced_rows, self.pivots):
            forms[monos[pc]] = {free[j]: -x for j, x in row.items() if j != pc}
        return forms


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
    """An element of the coinvariant algebra in staircase coordinates, each
    nonzero one stored as an int when integral, else as a Fraction."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: "CoinvariantRing", coords=None):
        self.ring = ring
        c: dict[int, int | Fraction] = {}
        if coords:
            for i, x in coords.items():
                x = exact(x)
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
        ring = self.ring
        basis, forms = ring.basis, ring._forms
        return ring._combine(
            (x * y, forms.get(tuple(map(add, basis[i], basis[j])), _ZERO))
            for i, x in self.coords.items()
            for j, y in other.coords.items()
        )

    __rmul__ = __mul__

    def _same_ring(self, other: "CoinvariantElement") -> None:
        if self.ring is not other.ring:
            raise ValueError("elements belong to different coinvariant rings")

    def lift(self) -> MultiPoly:
        """The canonical polynomial representative (staircase combination)."""
        basis = self.ring.basis
        return MultiPoly(self.ring.n, {basis[i]: x for i, x in self.coords.items()})

    def degrees(self) -> tuple[int, ...]:
        """Doubled degrees of the homogeneous components, ascending."""
        return tuple(sorted({self.ring.basis_degree(i) for i in self.coords}))

    def degree(self) -> int | None:
        """The doubled degree when homogeneous, None for 0 or mixed."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def __str__(self) -> str:
        return str(self.lift())

    def __repr__(self) -> str:
        return f"CoinvariantElement({str(self)!r})"


class CoinvariantRing:
    """The coinvariant algebra for S_n, with reduction and operator data."""

    def __init__(self, n: int):
        check_rank(n)
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
        self._forms: dict[tuple[int, ...], dict[int, int | Fraction]] = {}
        for d in range(self.top_poly_degree + 1):
            self._forms.update(ideal_slice(n, d).monomial_forms(self.basis_index))
        self._demazure = tuple(
            tuple(self.normal_form(divided_difference(MultiPoly.monomial(a), i)).coords for a in self.basis)
            for i in range(1, n)
        )

    # -- basic data ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def graded_dims(self) -> dict[int, int]:
        """Dimension of each graded piece, keyed by doubled degree."""
        return {d: len(idxs) for d, idxs in sorted(self._by_degree.items())}

    def poincare(self) -> LaurentPoly:
        return LaurentPoly({d: len(idxs) for d, idxs in self._by_degree.items()})

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

        This is the sum of the terms times the forms of their monomials;
        a monomial above the top degree vanishes in the quotient.
        """
        if p.n != self.n:
            raise ValueError(f"polynomial in {p.n} variables fed to rank-{self.n} ring")
        return self._combine((x, self._forms.get(a, _ZERO)) for a, x in p.terms())

    def _combine(self, pairs) -> CoinvariantElement:
        """The sum of x * form over (x, form) pairs, each form a
        {basis index: value} dict."""
        acc: dict[int, int | Fraction] = {}
        for x, form in pairs:
            for b, y in form.items():
                acc[b] = acc.get(b, 0) + x * y
        return CoinvariantElement(self, acc)

    def _check_rank(self, c: CoinvariantElement) -> None:
        if c.ring.n != self.n:
            raise ValueError(f"element of the rank-{c.ring.n} ring fed to rank-{self.n} ring")

    # -- structure maps --------------------------------------------------------

    def weyl_act(self, w: Perm, c: CoinvariantElement) -> CoinvariantElement:
        """The algebra automorphism induced by permuting the variables."""
        if len(w) != self.n:
            raise ValueError("rank mismatch in coinvariant action")
        self._check_rank(c)
        forms = self._forms
        pairs = []
        for b, x in c.coords.items():
            image = [0] * self.n
            for k, e in enumerate(self.basis[b]):
                image[w[k]] = e
            pairs.append((x, forms[tuple(image)]))
        return self._combine(pairs)

    def demazure(self, i: int, c: CoinvariantElement) -> CoinvariantElement:
        """The divided difference, from its table on the basis monomials.

        Well defined because the invariant ideal is stable under divided
        differences; lowers the doubled degree by 2.
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"adjacent transposition index {i} out of range")
        self._check_rank(c)
        table = self._demazure[i - 1]
        return self._combine((x, table[b]) for b, x in c.coords.items())


@lru_cache(maxsize=None)
def coinvariant_ring(n: int) -> CoinvariantRing:
    """Shared per-rank ring (built once, read-only afterwards)."""
    return CoinvariantRing(n)
