"""The endomorphism algebra of the sum of all indecomposables, its Cartan
data, and minimal graded projective resolutions of the simple modules.

The algebra A is nonnegatively graded with semisimple degree-0 part (one
identity per summand); both facts are asserted when it is built.  Left
projectives are the column spaces A e_x, with basis the records out of D_x.
A sum of shifted projectives, a free cover, is laid out in blocks (degree,
target summand), and every map in sight is blockwise.

A resolution stays inside its free covers.  Each syzygy K is stored per
block as an echelon basis in the coordinates of the cover it lies in, and
A acts on vectors through its structure constants; no action matrix is
built.  The radical of K is G . K, for records G spanning A_+ modulo
A_+ . A_+ (all of A_1, and in degree g >= 2 a complement of A_1 . A_(g-1)).
The heads are the basis vectors of K outside the span of the radical; the
cover map sends the record ``rec`` of the projective of head h to
``rec . h`` in K's basis, and its kernel is the next syzygy.  Minimality
makes Ext^k between simples the multiset of cover degrees at step k,
whichever heads are picked; Koszulity asks every such degree to equal k on
the scale where a twist step counts 1 (2k on the doubled scale of ext
tables).  The Euler characteristic of the Ext tables inverts the Cartan
matrix, whose inverse is computed independently by exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import EchelonBasis, QMatrix, RowSpan, exact, inverse, kernel_basis
from .linalg import rref  # noqa: F401  benchmarks/test_harness.py traces this binding
from .soergel import EndoAlgebra, SoergelCategory, soergel_category
from .weyl import Perm, format_perm, length

#: resolutions stop, incomplete, after this many steps
MAX_RESOLUTION_LENGTH = 32
#: the zero block of a syzygy: only the zero vector has coordinates in it
_NO_VECTORS = EchelonBasis([], 0)


class Resolution:
    """Steps of a minimal graded projective resolution.

    ``steps[k]`` lists (summand element, generator degree) pairs; step 0 is
    the projective cover of the simple.  ``complete`` is False when the
    computation stopped at MAX_RESOLUTION_LENGTH with a nonzero syzygy left.
    """

    __slots__ = ("simple", "steps", "complete")

    def __init__(self, simple: Perm, steps, complete: bool):
        self.simple = simple
        self.steps = [tuple(sorted(s, key=lambda t: (length(t[0]), t[0], t[1]))) for s in steps]
        self.complete = complete

    def length(self) -> int:
        return len(self.steps) - 1


class DualAlgebra:
    """Endomorphism algebra of the sum of all D_w at a fixed rank."""

    def __init__(self, n: int):
        self.cat: SoergelCategory = soergel_category(n)
        self.n = n
        self.summands: list[Perm] = list(self.cat.group.elements())
        self.slot = {w: i for i, w in enumerate(self.summands)}
        self.endo: EndoAlgebra = self.cat.endo_algebra([(w, 0) for w in self.summands])
        for a, b, d, _ in self.endo.basis:
            if d < 0:
                raise AssertionError("endomorphism algebra has negative-degree maps")
            if d == 0 and a != b:
                raise AssertionError("degree-0 maps between distinct summands break semisimplicity")
        # records out of each slot, grouped for projective construction
        self._out_of: dict[int, list[int]] = {}
        for idx, (a, _, _, _) in enumerate(self.endo.basis):
            self._out_of.setdefault(a, []).append(idx)
        self._resolutions: dict[Perm, Resolution] = {}
        #: records spanning A_+ modulo A_+ . A_+, by source slot
        self.radical_generators = self._radical_generators()

    # -- Cartan data -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.endo.dim

    def graded_cartan(self, x: Perm, y: Perm) -> LaurentPoly:
        """Graded dimension of the maps D_x -> D_y inside the algebra."""
        return self.endo.block_poly(self.slot[x], self.slot[y])

    def cartan_matrix(self) -> QMatrix:
        """Ungraded Hom dimensions; entry (i, j) counts maps from the i-th
        summand to the j-th."""
        size = len(self.summands)
        data = [[0] * size for _ in range(size)]
        for a, b, _, _ in self.endo.basis:
            data[a][b] += 1
        return QMatrix(size, size, data)

    def inverse_cartan(self) -> QMatrix:
        """Exact inverse of the Cartan matrix (independent of resolutions)."""
        return inverse(self.cartan_matrix())

    # -- the free cover and its syzygies ------------------------------------------

    def _radical_generators(self) -> dict[int, tuple[int, ...]]:
        """Records spanning A_+ modulo A_+ . A_+, by source slot: those of
        positive degree that raise the span of the products A_1 . A_+, which
        is all of A_1 and in degree g >= 2 a complement of A_1 . A_(g-1)."""
        basis = self.endo.basis
        into: dict[int, list[int]] = {}
        for idx, (_, b, d, _) in enumerate(basis):
            if d > 0:
                into.setdefault(b, []).append(idx)
        # products sit in the blocks of their records, so one span holds them all
        span = RowSpan(self.endo.dim)
        for i, (c, _, d, _) in enumerate(basis):
            if d == 1:
                for j in into.get(c, ()):
                    span.raises(dict(self.endo.compose_indices(i, j)))
        out: dict[int, tuple[int, ...]] = {}
        for idx, (a, _, d, _) in enumerate(basis):
            if d > 0 and span.raises({idx: 1}):
                out[a] = out.get(a, ()) + (idx,)
        return out

    def _free_cover(self, cover):
        """The basis of the sum of the P_w with generators at the cover's
        degrees: for each block key (degree, slot) its (cover index, record)
        pairs in position order, and the position of every pair."""
        items: dict[tuple[int, int], list[tuple[int, int]]] = {}
        position: dict[tuple[int, int], int] = {}
        for ci, (w, d0) in enumerate(cover):
            for rec in self._out_of[self.slot[w]]:
                _, b, d, _ = self.endo.basis[rec]
                block = items.setdefault((d + d0, b), [])
                position[(ci, rec)] = len(block)
                block.append((ci, rec))
        return items, position

    def _act(self, a: int, vec, block, position) -> dict[int, int | Fraction]:
        """The record a applied to a vector of a free cover, both vector and
        image given by their positions: ``block`` lists the vector's block,
        ``position`` places every (cover index, record) pair."""
        out: dict[int, int | Fraction] = {}
        for p, c in vec.items():
            ci, rec = block[p]
            for o, x in self.endo.compose_indices(a, rec):
                q = position[(ci, o)]
                out[q] = out.get(q, 0) + c * x
        return {q: x if type(x) is int else exact(x) for q, x in out.items() if x}

    def _heads(self, bases, items, position) -> list[tuple[tuple[int, int], dict]]:
        """The (block key, vector) of each basis vector of a syzygy K, given by
        its blocks' echelon bases, that raises the span of the radical G . K,
        in key order; raises AssertionError for a radical image outside K."""
        spans = {key: RowSpan(len(basis.vectors)) for key, basis in bases.items()}
        for (d, slot), basis in bases.items():
            for g in self.radical_generators.get(slot, ()):
                _, v, e, _ = self.endo.basis[g]
                key = (d + e, v)
                for vec in basis.vectors:
                    image = self._act(g, vec, items[(d, slot)], position)
                    try:
                        coords = bases.get(key, _NO_VECTORS).coords(image)
                    except ValueError:
                        raise AssertionError("the radical of a syzygy leaves the syzygy") from None
                    if coords and spans[key].rank < spans[key].cols:
                        spans[key].raises(coords)
        return [
            (key, vec)
            for key in sorted(bases)
            for t, vec in enumerate(bases[key].vectors)
            if spans[key].raises({t: 1})
        ]

    def projective_resolution(self, x: Perm) -> Resolution:
        """Minimal graded projective resolution of the simple at x, stopped
        after MAX_RESOLUTION_LENGTH steps; only complete ones are cached."""
        cached = self._resolutions.get(x)
        if cached is not None:
            return cached
        cover = [(x, 0)]
        items, position = self._free_cover(cover)
        if len(items.get((0, self.slot[x]), ())) != 1:
            raise AssertionError("projective cover of a simple has a bad degree-0 block")
        # the first syzygy is the radical of P_x: its blocks of positive degree
        syzygy = {k: EchelonBasis([{p: 1} for p in range(len(b))], len(b)) for k, b in items.items() if k[0] > 0}
        steps = [cover]
        complete = True
        while syzygy:
            if len(steps) > MAX_RESOLUTION_LENGTH:
                complete = False
                break
            heads = self._heads(syzygy, items, position)
            cover = [(self.summands[slot], d) for (d, slot), _ in heads]
            new_items, new_position = self._free_cover(cover)
            kernels = {}
            for key in new_items.keys() | syzygy.keys():
                # the cover map sends (ci, rec) to rec . h_ci, which lies in
                # the block of the same key, read in the syzygy's basis
                new_block = new_items.get(key, [])
                basis = syzygy.get(key, _NO_VECTORS)
                try:
                    columns = [
                        basis.coords(self._act(rec, heads[ci][1], items[heads[ci][0]], position))
                        for ci, rec in new_block
                    ]
                except ValueError:
                    raise AssertionError("the cover map leaves the syzygy") from None
                kernel = kernel_basis(QMatrix.from_columns(len(basis.vectors), columns))
                # surjectivity is Nakayama from the head choice, but assert it so
                # a bookkeeping slip cannot silently corrupt the Ext tables
                if len(new_block) - len(kernel) != len(basis.vectors):
                    raise AssertionError("projective cover failed to surject onto a syzygy")
                if kernel:
                    kernels[key] = EchelonBasis(kernel, len(new_block))
            steps.append(cover)
            syzygy, items, position = kernels, new_items, new_position
        resolution = Resolution(x, steps, complete)
        if complete:
            self._resolutions[x] = resolution
        return resolution

    # -- Ext tables --------------------------------------------------------------

    def ext_dims(self, x: Perm, y: Perm, k: int) -> tuple[int, dict[int, int]]:
        """Dimension of the k-th Ext between simples, with its grading.

        Graded keys use the doubled scale (a twist step counts 2), so a
        Koszul algebra shows Ext^k concentrated in degree 2k.
        """
        res = self.projective_resolution(x)
        if k >= len(res.steps):
            if not res.complete:
                raise RuntimeError(
                    f"resolution of {format_perm(x)} is incomplete after "
                    f"MAX_RESOLUTION_LENGTH = {MAX_RESOLUTION_LENGTH} steps"
                )
            return 0, {}
        graded: dict[int, int] = {}
        for w, d in res.steps[k]:
            if w == y:
                graded[2 * d] = graded.get(2 * d, 0) + 1
        return sum(graded.values()), dict(sorted(graded.items()))

    def euler_matrix(self) -> QMatrix:
        """Alternating sums of Ext dimensions, from the resolutions."""
        size = len(self.summands)
        data = [[0] * size for _ in range(size)]
        for i, x in enumerate(self.summands):
            res = self.projective_resolution(x)
            if not res.complete:
                raise RuntimeError(f"resolution of {format_perm(x)} is incomplete")
            for k, step in enumerate(res.steps):
                sign = -1 if k % 2 else 1
                for w, _ in step:
                    data[i][self.slot[w]] += sign
        return QMatrix(size, size, data)

    def koszulity_check(self) -> dict:
        """True when every Ext^k generator sits in internal degree 2k.

        Computed from the minimal resolutions: the cover degrees at step k
        must all equal k on the twist scale.
        """
        koszul = True
        max_k = 0
        complete = True
        for x in self.summands:
            res = self.projective_resolution(x)
            complete = complete and res.complete
            max_k = max(max_k, res.length())
            for k, step in enumerate(res.steps):
                for _, d in step:
                    if d != k:
                        koszul = False
        return {"koszul": koszul and complete, "max_k": max_k, "complete": complete}


@lru_cache(maxsize=None)
def dual_algebra(n: int) -> DualAlgebra:
    return DualAlgebra(n)
