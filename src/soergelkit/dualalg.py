"""The endomorphism algebra of the sum of all indecomposables, its Cartan
data, and minimal graded projective resolutions of the simple modules.

The algebra A is nonnegatively graded with semisimple degree-0 part (one
identity per summand); both facts are asserted when it is built.  Left
projectives are the column spaces A e_x with basis the Hom-space basis
elements out of D_x; modules appearing in resolutions are represented
concretely, block by block, where a block is a (degree, target-summand)
pair and every structure map is blockwise because all maps in sight are
degree preserving and commute with the idempotents.

Minimal resolutions are computed by iterated kernel-and-cover: the head of
a module is the complement of the radical image in each block, each head
vector pulls in one shifted projective, and the next syzygy is the exact
kernel of the cover map.  Minimality makes Ext tables readable off the
resolution: Ext^k between simples is the multiset of cover degrees at step
k.  The numerical Koszulity certificate asks every such degree to equal k
on the internal scale where a twist step counts 1 (equivalently 2k in the
doubled cohomological scale reported by ext tables).

The Euler characteristic of any Ext table inverts the Cartan matrix; the
inverse is computed independently by exact elimination, which gives the
resolution machinery an external check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import QMatrix, inverse, rank, restrict_to_kernels, rref
from .soergel import EndoAlgebra, SoergelCategory, soergel_category
from .weyl import Perm, format_perm, length

#: resolutions stop, incomplete, after this many steps
MAX_RESOLUTION_LENGTH = 32


class _AMod:
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

    # -- projective machinery -----------------------------------------------------

    def _projective_sum(self, cover) -> tuple[_AMod, dict[tuple[int, int], list[tuple[int, int]]]]:
        """The direct sum of P_w shifted so generators sit at given degrees.

        Returns the module together with its ordered basis per block: for
        each block key (degree, slot), the (cover index, record index) pairs
        in block position order.
        """
        basis_at: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for ci, (w, d0) in enumerate(cover):
            for rec_idx in self._out_of[self.slot[w]]:
                _, b, d, _ = self.endo.basis[rec_idx]
                basis_at.setdefault((d + d0, b), []).append((ci, rec_idx))
        blocks = {key: len(items) for key, items in basis_at.items()}
        pos_of: dict[tuple[int, int], int] = {}
        for items in basis_at.values():
            for p, (ci, rec_idx) in enumerate(items):
                pos_of[(ci, rec_idx)] = p
        act: dict[tuple[int, tuple[int, int]], QMatrix] = {}
        for key, items in basis_at.items():
            d, slot = key
            for a_idx in self._out_of[slot]:
                _, v, g, _ = self.endo.basis[a_idx]
                tgt_items = basis_at.get((d + g, v))
                if not tgt_items:
                    continue
                # each structure constant is nonzero and lands in its own entry
                data = [{} for _ in tgt_items]
                for col, (ci, rec_idx) in enumerate(items):
                    for out_idx, coeff in self.endo.compose_indices(a_idx, rec_idx):
                        data[pos_of[(ci, out_idx)]][col] = coeff
                if any(data):
                    act[(a_idx, key)] = QMatrix(len(tgt_items), len(items), data)
        return _AMod(blocks, act), basis_at

    def _radical_complement(self, mod: _AMod) -> dict[tuple[int, int], list[int]]:
        """Free coordinates of each block modulo the radical image."""
        images: dict[tuple[int, int], list[dict[int, int | Fraction]]] = {}
        for (a_idx, (d, _)), blk in mod.act.items():
            _, v, g, _ = self.endo.basis[a_idx]
            if g > 0:
                images.setdefault((d + g, v), []).extend(blk.transpose().nonzeros)
        out: dict[tuple[int, int], list[int]] = {}
        for key in mod.block_keys():
            rows = images.get(key, [])
            pivots = set(rref(QMatrix(len(rows), mod.dim(key), rows)).pivots)
            free = [j for j in range(mod.dim(key)) if j not in pivots]
            if free:
                out[key] = free
        return out

    def _kernel_of_cover(self, cover_mod: _AMod, cover_map) -> _AMod:
        """The kernel of a blockwise module map, given on every block of
        ``cover_mod``, with restricted action."""
        blocks = []
        for (a_idx, key), blk in cover_mod.act.items():
            _, v, g, _ = self.endo.basis[a_idx]
            blocks.append(((a_idx, key), key, (key[0] + g, v), blk))
        inclusions, act = restrict_to_kernels(cover_map, blocks)
        return _AMod({key: inc.cols for key, inc in inclusions.items()}, act)

    # -- resolutions -------------------------------------------------------------

    def projective_resolution(self, x: Perm) -> Resolution:
        """Minimal graded projective resolution of the simple at x, stopped
        after MAX_RESOLUTION_LENGTH steps; only complete ones are cached."""
        cached = self._resolutions.get(x)
        if cached is not None:
            return cached
        slot_x = self.slot[x]
        p0, _ = self._projective_sum([(x, 0)])
        if p0.dim((0, slot_x)) != 1:
            raise AssertionError("projective cover of a simple has a bad degree-0 block")
        # radical of P_x: all blocks of positive degree (degree 0 is the identity)
        rad_blocks = {key: d for key, d in p0.blocks.items() if key[0] > 0}
        rad_act = {label: mat for label, mat in p0.act.items() if label[1][0] > 0}
        current = _AMod(rad_blocks, rad_act)
        steps = [[(x, 0)]]
        complete = True
        while current.total_dim():
            if len(steps) > MAX_RESOLUTION_LENGTH:
                complete = False
                break
            heads = self._radical_complement(current)
            head_coords = [(key, j) for key in sorted(heads) for j in heads[key]]
            cover = [(self.summands[slot], d) for (d, slot), _ in head_coords]
            cover_mod, basis_at = self._projective_sum(cover)
            # the cover map sends the basis record (ci, rec) to rec . h_ci, the
            # column of rec's action at the coordinate of the head h_ci
            act_columns = {label: blk.transpose().nonzeros for label, blk in current.act.items()}
            cover_map: dict[tuple[int, int], QMatrix] = {}
            for key, items in basis_at.items():
                columns = []
                for ci, rec_idx in items:
                    h_key, j = head_coords[ci]
                    cols = act_columns.get((rec_idx, h_key))
                    columns.append({} if cols is None else cols[j])
                cover_map[key] = QMatrix.from_columns(current.dim(key), columns)
            # surjectivity is Nakayama from the head choice, but assert it so
            # a bookkeeping slip cannot silently corrupt the Ext tables
            for key in current.block_keys():
                mat = cover_map.get(key)
                if mat is None or rank(mat) != current.dim(key):
                    raise AssertionError("projective cover failed to surject onto a syzygy")
            steps.append(cover)
            current = self._kernel_of_cover(cover_mod, cover_map)
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
