"""Exact linear algebra over the rationals.

Every exact value is stored as an int when it is integral and as a
Fraction only when it is not; :func:`exact` gives that form, and the
polynomial and coinvariant modules use it too.  Nearly every value met is
integral, so the products, sums and eliminations run on int arithmetic,
and results are normalised where they are stored; nothing else changes,
since ``3 == Fraction(3)`` with the same hash and the same string.

:class:`QMatrix` stores each row as a {column: value} dict of its
nonzero entries, beside its authoritative shape, and every routine here
builds and reads those dicts: a zero is an absent key, so no entry is ever
tested for zero, and :meth:`QMatrix.is_zero` is one truth test per row.  A
product adds ``a * b`` over the stored entries of a left row and of the
right rows they select, and keeps the sums that do not cancel; sums,
placed blocks, transposes and reduced forms store only nonzeros too.  A
vector is stored the same way, as an {index: value} dict: kernel bases,
:func:`flatten` and :class:`EchelonBasis` build and read such dicts.  The
dense forms, lists of Fractions, are test views and reference routes:
:attr:`QMatrix.data`, ``row``, ``col``, ``times_vector``, :func:`solve`
and :class:`SpanSolver`.  No other library routine calls them; they stay
here, not with the other reference routes in ``tests/reference.py``,
because the benchmark tracer binds them.

The matrices met are mostly zero and nearly always integral, so :func:`rref`
clears each stored row's denominators once into a {column: int} dict (a
row of ints is only copied) and eliminates fraction-free (Bareiss 1968),
dividing every reduced row by its content to keep entries small; pivots
are normalised back to 1 over the rationals at the end, each quotient an
int where the division is exact.  Unknowns that one-term rows force to
zero are taken out first, in one cascade (see :func:`_echelon`), which is
where the tall Hom systems lose most of their rows.  Results are exact,
and since the reduced row echelon form is unique they depend neither on
the presolve nor on the pivot rows chosen.

Coordinates in a kernel basis are read off its free columns, where each
vector is 1 and the others are 0, and checked by rebuilding the vector from
its nonzero coordinates; no solve is needed.  :func:`inverse` takes one row
reduction of ``[m | I]`` rather than one solve per column.  :class:`SpanSolver`, which changes basis
for any independent list, has no caller in the library: it is the
reference route that tests check the free-column readouts against.

Two assembly routines build every structured matrix.  :func:`place_blocks`
copies the stored entries of the blocks it is given to their offsets, so
callers pass only their nonzero blocks: the induced actions, the direct
sums, the totalised matrices of graded modules, and the ``[m | I]`` and
``[m | b]`` that :func:`inverse`, :func:`solve` and :class:`SpanSolver`
reduce.  :func:`hom_equations` writes the equations of f -> A f - s f B on
row-major blocks of unknowns for the graded, ungraded and Tate Hom
systems.  It reads A's rows and B's columns off their stored entries,
clears each block pair's denominators once, and keeps each equation with a
surviving term as a primitive integer row of a :class:`SparseSystem`.  :func:`kernel_basis` and
:func:`rank` take such a system as well as a :class:`QMatrix`, through one
private elimination core; an empty system has the unit basis as its kernel.

The environment variable ``SOERGEL_MAX_DIM`` (default 5000) caps the
unknowns of every linear system, and :func:`check_size` is the one place
that compares a size with it: a system over the cap is refused with
:class:`SizeCapError` before any of its rows is made.  :func:`hom_equations`
checks its unknowns before it reads a block, and every :class:`QMatrix`
that is reduced is checked on its columns before a row is copied.  Rows
and equations are not counted.  A row either reduces to zero and is
dropped, or becomes one of at most ``cols`` pivot rows, so the elimination
keeps at most cols² entries however tall the system is; tall systems are
the cheap ones, since most of their rows reduce to nothing.  The same cap
bounds the dimension of an induced module and of an ``EndoAlgebra``,
whose dimension is read off the Hecke pairing before any of its modules
is built: 282 075 for the sum of all rank-5 indecomposables, which is
refused at the default cap.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

DEFAULT_DIMENSION_CAP = 5000
_ZERO = Fraction(0)
_EMPTY_ROW: dict[int, int | Fraction] = {}


class SizeCapError(RuntimeError):
    """A computation was refused because it exceeds the configured size cap."""


def check_size(what: str, size: int) -> None:
    """Refuse ``size`` over the cap ``SOERGEL_MAX_DIM`` with a
    :class:`SizeCapError` that names ``what``, a template with one ``{}``
    for the size."""
    raw = os.environ.get("SOERGEL_MAX_DIM")
    cap = DEFAULT_DIMENSION_CAP
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise SizeCapError(f"SOERGEL_MAX_DIM={raw!r} is not an integer") from exc
        if cap <= 0:
            raise SizeCapError(f"SOERGEL_MAX_DIM={raw!r} must be positive")
    if size > cap:
        what = what.format(size)
        raise SizeCapError(f"{what} exceeds the dimension cap {cap} (raise SOERGEL_MAX_DIM to override)")


def exact(x) -> int | Fraction:
    """The rational x in its stored form: an int when it is integral, else a
    Fraction; raises TypeError for anything that is not an int or a
    Fraction (a float or None, say)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact values must be int or Fraction, got {x!r}")


class QMatrix:
    """An immutable matrix of rationals, stored as its nonzeros.

    ``nonzeros[i]`` is row i as a {column: value} dict of its nonzero
    entries, each an int when integral and a Fraction otherwise (see
    :func:`exact`); ``rows`` and ``cols`` stay authoritative, also for empty
    matrices.  Each row is given either dense, as ``cols`` int or Fraction
    entries, which are put in that form, or as such a dict, which is checked
    and then kept, not copied.  Stored rows are never changed, so matrices
    share them, and all empty rows are one shared dict.  The dense views
    :attr:`data`, :meth:`row` and :meth:`col` hold Fractions.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(data) != rows:
            raise ValueError(f"data does not match shape {rows}x{cols}")
        stored = []
        for r in data:
            if type(r) is not dict:
                if len(r) != cols:
                    raise ValueError(f"data does not match shape {rows}x{cols}")
                r = {
                    j: x if type(x) is int else exact(x)
                    for j, x in enumerate(r)
                    if x or type(x) is not int and exact(x)  # a zero must still be rational
                }
            elif r and not all(
                type(j) is int
                and 0 <= j < cols
                and (x if type(x) is int else type(x) is Fraction and x.denominator != 1)
                for j, x in r.items()
            ):
                raise ValueError(
                    f"a row dict must map columns 0..{cols - 1} to nonzero ints or to Fractions that are not integral"
                )
            stored.append(r or _EMPTY_ROW)
        self.rows = rows
        self.cols = cols
        self.nonzeros = stored

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [_EMPTY_ROW] * rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_rows(cls, data) -> "QMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "QMatrix":
        """The matrix whose j-th column is ``columns[j]``, given like a row;
        ``rows`` keeps the shape when the column list is empty."""
        return cls(len(columns), rows, columns).transpose()

    @property
    def data(self) -> list[list[Fraction]]:
        """The dense rows, built anew on every read: rows x cols entries,
        zeros included; no library routine reads it."""
        return [self.row(i) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.nonzeros[i].get(range(self.cols)[j], 0)

    def row(self, i: int) -> list[Fraction]:
        out = [_ZERO] * self.cols
        for j, x in self.nonzeros[i].items():
            out[j] = Fraction(x)
        return out

    def col(self, j: int) -> list[Fraction]:
        return [Fraction(r.get(j, 0)) for r in self.nonzeros]

    def transpose(self) -> "QMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, x in r.items():
                out[j][i] = x
        return QMatrix(self.cols, self.rows, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.nonzeros == other.nonzeros

    def __hash__(self):
        raise TypeError("QMatrix is unhashable")

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        out = []
        for r1, r2 in zip(self.nonzeros, other.nonzeros):
            if r1 and r2:
                r1 = dict(r1)
                for j, x in r2.items():
                    x = r1[j] + x if j in r1 else x
                    if x:
                        r1[j] = x if type(x) is int else exact(x)
                    else:
                        del r1[j]
                out.append(r1)
            else:
                out.append(r1 or r2)
        return QMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, [{j: -x for j, x in r.items()} for r in self.nonzeros])

    def scale(self, c) -> "QMatrix":
        c = exact(c)
        out = [{j: exact(c * x) for j, x in r.items()} for r in self.nonzeros] if c else [_EMPTY_ROW] * self.rows
        return QMatrix(self.rows, self.cols, out)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )
        right = other.nonzeros
        out = []
        for r in self.nonzeros:
            acc: dict[int, int | Fraction] = {}
            for k, a in r.items():
                for j, b in right[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: x if type(x) is int else exact(x) for j, x in acc.items() if x})
        return QMatrix(self.rows, other.cols, out)

    def times_vector(self, vec) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum((a * x for k, a in r.items() if (x := vec[k])), _ZERO) for r in self.nonzeros]

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def place_blocks(rows: int, cols: int, blocks) -> QMatrix:
    """The rows x cols matrix that is zero except for each (r0, c0, block)
    of ``blocks``, copied with its top-left entry at (r0, c0); raises
    ValueError for a block that does not fit inside the matrix."""
    out = [{} for _ in range(rows)]
    for r0, c0, blk in blocks:
        if not (0 <= r0 and r0 + blk.rows <= rows and 0 <= c0 and c0 + blk.cols <= cols):
            raise ValueError(f"a {blk.rows}x{blk.cols} block at ({r0}, {c0}) does not fit in {rows}x{cols}")
        for r, src in enumerate(blk.nonzeros, r0):
            if src:
                row = out[r]
                for j, x in src.items():
                    row[c0 + j] = x
    return QMatrix(rows, cols, out)


@dataclass(frozen=True)
class SparseSystem:
    """A homogeneous linear system in ``cols`` unknowns, one primitive
    integer row {column: coefficient} per equation, none of them empty."""

    cols: int
    equations: list[dict[int, int]]


def hom_equations(count: int, blocks) -> SparseSystem:
    """The linear system of f -> A f - s f B in ``count`` unknowns.

    The unknowns form blocks, each stored row by row at an offset.  Every
    (a, left, b, right, s) in ``blocks`` gives the a.rows x b.cols
    equations of A F - s G B, where F is the a.cols x b.cols block at
    offset ``left``, G the a.rows x b.rows block at offset ``right`` and s
    an integer; an offset of None drops its term.  The denominators of A
    and B are cleared once per term (a term of ints is taken as it is),
    each equation is kept as a primitive integer row, and equations that
    come out all zero are left out.
    """
    check_size("Hom system in {} unknowns", count)
    rows = []
    for a, left, b, right, s in blocks:
        t, u = b.rows, b.cols
        a_terms = [[]] * a.rows
        if left is not None:
            a_terms = [[(left + k * u, x) for k, x in row.items()] for row in a.nonzeros]
        b_terms = [[] for _ in range(u)]
        if right is not None:
            for k, row in enumerate(b.nonzeros):
                for c, x in row.items():
                    b_terms[c].append((right + k, -s * x))
        dens = [x.denominator for terms in (*a_terms, *b_terms) for _, x in terms if type(x) is not int]
        if dens:
            den = math.lcm(*dens)
            a_terms = [[(j, x.numerator * (den // x.denominator)) for j, x in row] for row in a_terms]
            b_terms = [[(j, x.numerator * (den // x.denominator)) for j, x in col] for col in b_terms]
        for r, a_row in enumerate(a_terms):
            for c, b_col in enumerate(b_terms):
                if not (a_row or b_col):
                    continue
                row = {j + c: x for j, x in a_row}
                for j, x in b_col:
                    j += r * t
                    if j in row:
                        x += row[j]
                        if not x:
                            del row[j]
                            continue
                    row[j] = x
                if row:
                    rows.append(_primitive(row))
    return SparseSystem(count, rows)


def flatten(m: QMatrix) -> dict[int, int | Fraction]:
    """The nonzero entries of m, row by row: x at (i, j) is kept at i * cols + j."""
    cols = m.cols
    return {i * cols + j: x for i, row in enumerate(m.nonzeros) for j, x in row.items()}


@dataclass(frozen=True)
class RrefResult:
    matrix: QMatrix
    pivots: tuple[int, ...]
    rank: int


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content, the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """The primitive integer combination of ``row`` and ``prow`` that is zero
    at column c, where ``prow`` is nonzero; ``row`` itself may be reused."""
    a, b = prow[c], row[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = row if a == 1 else {j: x * a for j, x in row.items()}
    for j, x in prow.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _integer_rows(m: QMatrix) -> list[dict[int, int]]:
    """The nonzero rows of m with their denominators cleared, as primitive
    {column: int} dicts, new ones, so that the elimination may change them;
    m is refused first if its columns exceed the cap.  A row of ints is
    only copied."""
    check_size("linear system in {} unknowns", m.cols)
    rows = []
    for r in m.nonzeros:
        if r:
            if all(type(x) is int for x in r.values()):
                r = dict(r)
            else:
                den = math.lcm(*(x.denominator for x in r.values()))
                r = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
            rows.append(_primitive(r))
    return rows


def _ratio(x: int, p: int) -> int | Fraction:
    """x / p for ints x and p, in the form :func:`exact` gives."""
    q, r = divmod(x, p)
    return Fraction(x, p) if r else q


def _presolve(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """The columns that one-term rows force to zero, ascending, and the
    other rows without them, primitive again; ``rows`` are changed.

    A one-term row forces its column; the column is deleted from every row,
    a row left with one term forces its column in turn, and a row left empty
    is dropped.  Without a one-term row, ``rows`` come back as they are.
    """
    forced = {j for row in rows if len(row) == 1 for j in row}
    if not forced:
        return [], rows
    holders: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        for j in row:
            holders.setdefault(j, []).append(row)
    queue = list(forced)
    while queue:
        j = queue.pop()
        for row in holders[j]:
            del row[j]
            if len(row) == 1:
                (k,) = row
                if k not in forced:
                    forced.add(k)
                    queue.append(k)
    return sorted(forced), [_primitive(row) for row in rows if row]


def _echelon(rows: list[dict[int, int]], n_cols: int, reduce: bool) -> list[tuple[int, dict[int, int]]]:
    """The pivot rows (column, row) of the row space of ``rows``, nonzero
    primitive integer rows that are reused and changed.

    Unknowns forced to zero go first (:func:`_presolve`): e_j lies in the
    row space for each forced column j, so ``{j: 1}`` is its reduced pivot
    row and no other reduced row has an entry at j; the forced pivots are
    merged into the others in column order.  The remaining rows are reduced
    fraction-free by their leading column, the pivot row of a column being
    the one with fewest nonzeros, then smallest pivot, and every reduced row
    is divided by its content.  With ``reduce`` those pivot rows are then
    back-substituted, last pivot first, so that each is zero at every other
    pivot column: divided by its pivot entry, the k-th pivot row is row k of
    the reduced row echelon form, which is unique, so neither the presolve
    nor the choice of pivot rows shows in it.
    """
    forced, rows = _presolve(rows)
    by_lead: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        by_lead.setdefault(min(row), []).append(row)
    pivot_rows: list[tuple[int, dict[int, int]]] = []
    for c in range(n_cols):
        bucket = by_lead.pop(c, None)
        if bucket is None:
            continue
        prow = min(bucket, key=lambda row: (len(row), abs(row[c])))
        for row in bucket:
            if row is not prow:
                row = _eliminate(row, prow, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        pivot_rows.append((c, prow))
    if reduce:
        for k in range(len(pivot_rows) - 1, 0, -1):
            c, prow = pivot_rows[k]
            for i in range(k):
                ci, row = pivot_rows[i]
                if c in row:
                    pivot_rows[i] = (ci, _eliminate(row, prow, c))
    if forced:
        pivot_rows = sorted(pivot_rows + [(j, {j: 1}) for j in forced], key=itemgetter(0))
    return pivot_rows


def rref(m: QMatrix) -> RrefResult:
    """Reduced row echelon form with pivot columns and rank.

    Fraction-free on sparse integer rows: each nonzero row has its
    denominators cleared once into a {column: int} dict, and the reduced
    pivot rows are divided by their pivot entry over the rationals.
    """
    pivot_rows = _echelon(_integer_rows(m), m.cols, reduce=True)
    out_rows = [{j: _ratio(x, row[c]) for j, x in row.items()} for c, row in pivot_rows]
    out_rows += [_EMPTY_ROW] * (m.rows - len(pivot_rows))
    pivots = tuple(c for c, _ in pivot_rows)
    return RrefResult(QMatrix(m.rows, m.cols, out_rows), pivots, len(pivots))


def _system_rows(m: QMatrix | SparseSystem) -> list[dict[int, int]]:
    """Integer rows of a matrix or system, which the elimination may change."""
    if isinstance(m, SparseSystem):
        return [dict(row) for row in m.equations]
    return _integer_rows(m)


def rank(m: QMatrix | SparseSystem) -> int:
    """The rank, from the pivot rows without back-substitution."""
    return len(_echelon(_system_rows(m), m.cols, reduce=False))


def kernel_basis(m: QMatrix | SparseSystem) -> list[dict[int, int | Fraction]]:
    """A basis of the null space, one vector per free column, each an
    {index: value} dict of its nonzeros.

    The vector for free column f is 1 at f and 0 at every other free column
    (the shape :class:`EchelonBasis` reads); vectors are returned in
    ascending free-column order, so the result is deterministic.  A matrix
    goes through :func:`rref`; a :class:`SparseSystem` is read off its
    reduced integer pivot rows, whose entries off the pivot all lie in free
    columns.
    """
    if isinstance(m, SparseSystem):
        pivot_rows = _echelon(_system_rows(m), m.cols, reduce=True)
        entries = [(c, j, _ratio(-x, row[c])) for c, row in pivot_rows for j, x in row.items() if j != c]
    else:
        res = rref(m)
        pivot_rows = list(zip(res.pivots, res.matrix.nonzeros))
        entries = [(c, j, -x) for c, row in pivot_rows for j, x in row.items() if j != c]
    pivot_set = {c for c, _ in pivot_rows}
    basis = {f: {f: 1} for f in range(m.cols) if f not in pivot_set}
    for c, j, x in entries:
        basis[j][c] = x
    return list(basis.values())


def solve(m: QMatrix, b) -> list[Fraction] | None:
    """Some solution x of m x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rhs = QMatrix(m.rows, 1, [[x] for x in b])
    res = rref(place_blocks(m.rows, m.cols + 1, [(0, 0, m), (0, m.cols, rhs)]))
    if res.pivots and res.pivots[-1] == m.cols:
        return None
    x = [_ZERO] * m.cols
    for pc, row in zip(res.pivots, res.matrix.nonzeros):
        x[pc] = Fraction(row.get(m.cols, 0))
    return x


def inverse(m: QMatrix) -> QMatrix:
    """The inverse of m, from one row reduction of ``[m | I]``; raises
    ValueError when m is not square or is singular."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"cannot invert a non-square {m.rows}x{m.cols} matrix")
    res = rref(place_blocks(n, 2 * n, [(0, 0, m), (0, n, QMatrix.identity(n))]))
    if res.pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return QMatrix(n, n, [{j - n: x for j, x in row.items() if j >= n} for row in res.matrix.nonzeros])


class EchelonBasis:
    """Vectors each equal to 1 at a position where all the others are 0.

    A vector is an {index: value} dict of its nonzeros at indices below
    ``dim``, as :func:`kernel_basis` returns them (the positions are its
    free columns).  Reindexing coordinates keeps the shape, so it holds for
    flattened bases of graded Homs, also summed over degrees.  Each
    position is the smallest index where a vector is 1 and no other vector
    is stored, found once; a vector's coordinates are its entries there.
    """

    __slots__ = ("vectors", "dim", "positions")

    def __init__(self, vectors: list[dict[int, int | Fraction]], dim: int):
        used = Counter(j for v in vectors for j in v)
        if any(not 0 <= j < dim for j in used):
            raise ValueError("basis vector index outside the ambient dimension")
        self.positions = tuple(
            min((j for j, x in v.items() if x == 1 and used[j] == 1), default=-1) for v in vectors
        )
        if -1 in self.positions:
            raise ValueError("basis vector has no position where the others vanish")
        self.vectors = vectors
        self.dim = dim

    def coords(self, vec: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
        """The nonzero entries {t: c} of ``vec`` at the positions; raises
        ValueError unless they rebuild ``vec`` exactly, i.e. unless ``vec``
        lies in the span."""
        coords = {t: c for t, p in enumerate(self.positions) if (c := vec.get(p))}
        rest = dict(vec)
        for t, c in coords.items():
            for j, x in self.vectors[t].items():
                x = rest.get(j, 0) - c * x
                if x:
                    rest[j] = x if type(x) is int else exact(x)
                else:
                    del rest[j]
        if rest:
            raise ValueError("vector does not lie in the span")
        return coords


def restrict_to_kernels(maps: dict, blocks) -> tuple[dict, dict]:
    """The kernels of keyed matrices, and blocks restricted to them.

    Returns the inclusion of every nonzero kernel of ``maps``, by key (its
    columns are the :func:`kernel_basis` vectors), and each nonzero block
    of ``blocks`` = (label, key, target key, matrix) in kernel coordinates,
    by label.  The images of a kernel basis are the stored rows of (block *
    inclusion) transposed.  The kernel of a zero map is its whole space:
    its inclusion is the identity, found with no elimination, a block from
    it is not multiplied, and an image in it is its own coordinates, so a
    block between two whole kernels is passed through unchanged.  Raises
    AssertionError when a block maps a kernel vector outside the target
    kernel.
    """
    bases, inclusions, whole = {}, {}, set()
    for key, mat in maps.items():
        if mat.is_zero():
            if mat.cols:
                whole.add(key)
                inclusions[key] = QMatrix.identity(mat.cols)
            continue
        vecs = kernel_basis(mat)
        if vecs:
            bases[key] = EchelonBasis(vecs, mat.cols)
            inclusions[key] = QMatrix.from_columns(mat.cols, vecs)
    restricted = {}
    for label, key, tgt_key, block in blocks:
        if key not in inclusions:
            continue
        mat = block if key in whole else block * inclusions[key]
        if tgt_key not in whole:
            tgt = bases.get(tgt_key) or EchelonBasis([], block.rows)
            try:
                cols = [tgt.coords(v) for v in mat.transpose().nonzeros]
            except ValueError:
                raise AssertionError("kernel is not action-stable") from None
            mat = QMatrix.from_columns(len(tgt.vectors), cols)
        if not mat.is_zero():
            restricted[label] = mat
    return inclusions, restricted


class SpanSolver:
    """Coordinates with respect to a fixed list of linearly independent vectors.

    Precomputes one row reduction, which changes basis for any independent
    list.  It is the reference route for tests only: the library reads
    coordinates off free columns instead, through :class:`EchelonBasis` or
    the staircase columns of the coinvariant ideal slices.
    """

    def __init__(self, vectors: list[list[Fraction]], dim: int):
        self.k = len(vectors)
        self.dim = dim
        for v in vectors:
            if len(v) != dim:
                raise ValueError("basis vector length does not match ambient dimension")
        a = QMatrix.from_columns(dim, vectors)
        res = rref(place_blocks(dim, self.k + dim, [(0, 0, a), (0, self.k, QMatrix.identity(dim))]))
        if res.pivots[: self.k] != tuple(range(self.k)):
            raise ValueError("vectors passed to SpanSolver are linearly dependent")
        # rows of E satisfy E a = [I_k; 0]
        k = self.k
        self._e = QMatrix(dim, dim, [{j - k: x for j, x in row.items() if j >= k} for row in res.matrix.nonzeros])

    def coords(self, vec: list[Fraction]) -> list[Fraction]:
        t = self._e.times_vector(vec)
        if any(t[self.k :]):
            raise ValueError("vector does not lie in the span")
        return t[: self.k]

    def contains(self, vec: list[Fraction]) -> bool:
        t = self._e.times_vector(vec)
        return not any(t[self.k :])
