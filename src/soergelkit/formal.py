"""Formal bounded complexes over the additive categories spanned by the
indecomposable summand modules.

Four variants share one data structure.  Objects are formal sums of
generators: on the twisted sides (MIX and PERV_GR) a generator is a pair
(w, n) of a group element and an integer twist; on the untwisted sides
(K and PERV) it is a bare group element.  Differential entries are stored
uniformly as matrices on the totalised bases of the modules D_w, and the
side decides which subspace of maps an entry may come from:

* MIX and PERV_GR between (x, m) and (y, n): the graded maps whose degree,
  measured against the untwisted normalisation of the modules, is 2(n-m).
  The summand modules here are centred (self-dual characters), which
  offsets that degree by l(x) - l(y); this is the one place the two
  bookkeepings meet, and the offset is pinned by requiring the degrading
  count and the commuting square to hold at the same time.
* K and PERV between x and y: all module maps.

The graded-to-ungraded functor drops twist labels and reinterprets each
entry inside the full Hom space; the duality functor is a relabelling that
keeps all data and changes only the side tag (and hence how positions and
twists are read).  The square of the four functors therefore commutes on
the nose, and square_check verifies that equality entry by entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .gradedmod import hom_degree_range
from .linalg import EchelonBasis, QMatrix, flatten, kernel_basis, rank
from .soergel import SoergelCategory, soergel_category
from .weyl import Perm, format_perm, length

SIDES = ("MIX", "K", "PERV_GR", "PERV")
TWISTED = {"MIX": True, "K": False, "PERV_GR": True, "PERV": False}


@dataclass(frozen=True)
class Gen:
    """A formal generator: a group element with an optional twist label."""

    w: Perm
    twist: int | None = None

    def label(self) -> str:
        if self.twist is None:
            return format_perm(self.w)
        return f"{format_perm(self.w)}({self.twist})"


class FormalComplex:
    """A bounded complex of formal sums of generators.

    ``terms`` maps positions to generator tuples; ``diffs`` maps position c
    to a matrix of entries (rows indexed by the generators at c+1, columns
    by those at c), each entry a total-space matrix or None for zero.
    """

    __slots__ = ("side", "terms", "diffs")

    def __init__(self, side: str, terms, diffs=None):
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        self.side = side
        self.terms = {int(c): tuple(gens) for c, gens in terms.items() if gens}
        for gens in self.terms.values():
            for g in gens:
                if TWISTED[side] and g.twist is None:
                    raise ValueError("twisted-side generators need twist labels")
                if not TWISTED[side] and g.twist is not None:
                    raise ValueError("untwisted-side generators must not carry twists")
        self.diffs = {}
        for c, entries in (diffs or {}).items():
            c = int(c)
            src = self.terms.get(c, ())
            tgt = self.terms.get(c + 1, ())
            if len(entries) != len(tgt) or any(len(row) != len(src) for row in entries):
                raise ValueError(f"differential at position {c} has wrong block shape")
            if any(e is not None for row in entries for e in row):
                self.diffs[c] = [list(row) for row in entries]

    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def generators(self, c: int) -> tuple[Gen, ...]:
        return self.terms.get(c, ())

    def entry(self, c: int, t: int, s: int):
        rows = self.diffs.get(c)
        if rows is None:
            return None
        return rows[t][s]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalComplex):
            return NotImplemented
        if self.side != other.side or self.terms != other.terms:
            return False
        for c in set(self.diffs) | set(other.diffs):
            src = self.terms.get(c, ())
            tgt = self.terms.get(c + 1, ())
            for t in range(len(tgt)):
                for s in range(len(src)):
                    a = self.entry(c, t, s)
                    b = other.entry(c, t, s)
                    if (a is None) != (b is None):
                        az = a is None or a.is_zero()
                        bz = b is None or b.is_zero()
                        if az != bz:
                            return False
                    elif a is not None and a != b:
                        return False
        return True

    def __hash__(self):
        raise TypeError("FormalComplex is unhashable")

    def __repr__(self) -> str:
        parts = []
        for c in self.positions():
            labels = "+".join(g.label() for g in self.generators(c))
            parts.append(f"{c}:[{labels}]")
        return f"FormalComplex<{self.side}>({' '.join(parts)})"


class FormalCategory:
    """Hom-space bookkeeping for formal complexes at a fixed rank."""

    def __init__(self, cat: SoergelCategory):
        self.cat = cat
        self.n = cat.n
        self._spaces: dict[tuple, tuple[tuple[QMatrix, ...], EchelonBasis]] = {}

    # -- Hom spaces between generators --------------------------------------

    def _centred_degree(self, x: Perm, m: int, y: Perm, n: int) -> int:
        # twist difference in untwisted normalisation, offset by centring
        return 2 * (n - m) + length(x) - length(y)

    def hom_space(self, side: str, src: Gen, tgt: Gen) -> tuple[QMatrix, ...]:
        """Basis of allowed differential entries, as total-space matrices."""
        return self._space_data(side, src, tgt)[0]

    def hom_space_dim(self, side: str, src: Gen, tgt: Gen) -> int:
        return len(self.hom_space(side, src, tgt))

    def _space_data(self, side: str, src: Gen, tgt: Gen):
        if TWISTED[side]:
            degree = self._centred_degree(src.w, src.twist, tgt.w, tgt.twist)
            key = ("tw", src.w, tgt.w, degree)
        else:
            key = ("untw", src.w, tgt.w)
        cached = self._spaces.get(key)
        if cached is not None:
            return cached
        dx = self.cat.indecomposable(src.w)
        dy = self.cat.indecomposable(tgt.w)
        if TWISTED[side]:
            maps = self.cat.hom_basis(src.w, tgt.w, key[3])
        else:
            maps = []
            for d in hom_degree_range(dx, dy):
                maps.extend(self.cat.hom_basis(src.w, tgt.w, d))
        mats = tuple(m.to_total() for m in maps)
        basis = EchelonBasis([flatten(m) for m in mats], dy.total_dim() * dx.total_dim())
        data = (mats, basis)
        self._spaces[key] = data
        return data

    def entry_coords(self, side: str, src: Gen, tgt: Gen, mat: QMatrix) -> list[Fraction]:
        """Coordinates of an entry in the hom-space basis; raises if the
        entry does not lie in the allowed subspace."""
        return self._space_data(side, src, tgt)[1].coords(flatten(mat))

    def validate(self, x: FormalComplex) -> None:
        """Check entry membership and that the differential squares to zero."""
        for c in x.positions():
            src = x.generators(c)
            tgt = x.generators(c + 1)
            for t in range(len(tgt)):
                for s in range(len(src)):
                    e = x.entry(c, t, s)
                    if e is not None:
                        self.entry_coords(x.side, src[s], tgt[t], e)
        if not self.dsquare_check(x):
            raise AssertionError("formal differential does not square to zero")

    def dsquare_check(self, x: FormalComplex) -> bool:
        for c in x.positions():
            src = x.generators(c)
            mid = x.generators(c + 1)
            tgt = x.generators(c + 2)
            if not src or not mid or not tgt:
                continue
            for t in range(len(tgt)):
                for s in range(len(src)):
                    total = None
                    for k in range(len(mid)):
                        a = x.entry(c + 1, t, k)
                        b = x.entry(c, k, s)
                        if a is None or b is None:
                            continue
                        prod = a * b
                        total = prod if total is None else total + prod
                    if total is not None and not total.is_zero():
                        return False
        return True

    # -- the four functors ----------------------------------------------------

    def gkos(self, x: FormalComplex) -> FormalComplex:
        """Graded duality: identical data, reinterpreted side tag."""
        if x.side != "MIX":
            raise ValueError("graded duality starts on the MIX side")
        return FormalComplex("PERV_GR", x.terms, x.diffs)

    def kos_formal(self, x: FormalComplex) -> FormalComplex:
        """Ungraded duality: identical data between the untwisted sides."""
        if x.side != "K":
            raise ValueError("ungraded duality starts on the K side")
        return FormalComplex("PERV", x.terms, x.diffs)

    def iota_formal(self, x: FormalComplex) -> FormalComplex:
        """Drop twist labels; entries embed into the full Hom spaces."""
        if x.side != "MIX":
            raise ValueError("the grading collapse starts on the MIX side")
        return FormalComplex(
            "K",
            {c: tuple(Gen(g.w) for g in gens) for c, gens in x.terms.items()},
            x.diffs,
        )

    def v_formal(self, x: FormalComplex) -> FormalComplex:
        """Forget the grading on the dual side."""
        if x.side != "PERV_GR":
            raise ValueError("the grading forgetting starts on the PERV_GR side")
        return FormalComplex(
            "PERV",
            {c: tuple(Gen(g.w) for g in gens) for c, gens in x.terms.items()},
            x.diffs,
        )

    def square_check(self, x: FormalComplex) -> bool:
        """Both ways around the square give the same labelled complex."""
        return self.kos_formal(self.iota_formal(x)) == self.v_formal(self.gkos(x))

    @staticmethod
    def twist(x: FormalComplex, t: int) -> FormalComplex:
        """The weight-preserving auto-equivalence: twist labels move by t."""
        if not TWISTED[x.side]:
            raise ValueError("twisting is defined on the twisted sides")
        return FormalComplex(
            x.side,
            {c: tuple(Gen(g.w, g.twist + t) for g in gens) for c, gens in x.terms.items()},
            x.diffs,
        )

    # -- homotopy Homs -----------------------------------------------------------

    def hom_homotopy(self, x: FormalComplex, y: FormalComplex, k: int = 0) -> int:
        """Dimension of chain maps x -> y[k] modulo homotopy."""
        if x.side != y.side:
            raise ValueError("Hom between complexes on different sides")
        d_k = self._hom_differential_matrix(x, y, k)
        cycles = len(kernel_basis(d_k))
        d_prev = self._hom_differential_matrix(x, y, k - 1)
        return cycles - rank(d_prev)

    def _hom_layout(self, x: FormalComplex, y: FormalComplex, k: int):
        """Coordinates for maps of degree k: one slot per basis element of
        each (source generator, target generator) Hom space."""
        layout = []
        count = 0
        for c in x.positions():
            for s, gs in enumerate(x.generators(c)):
                for t, gt in enumerate(y.generators(c + k)):
                    dim = self.hom_space_dim(x.side, gs, gt)
                    if dim:
                        layout.append((c, s, t, count, dim))
                        count += dim
        return layout, count

    def _hom_differential_matrix(self, x: FormalComplex, y: FormalComplex, k: int) -> QMatrix:
        """Matrix of f -> d_Y f - (-1)^k f d_X from degree-k to degree-(k+1)
        maps, in hom-space coordinates on both sides."""
        src_layout, n_src = self._hom_layout(x, y, k)
        tgt_layout, n_tgt = self._hom_layout(x, y, k + 1)
        tgt_pos = {(c, s, t): (off, dim) for c, s, t, off, dim in tgt_layout}
        sign = -1 if k % 2 else 1
        columns: list[list[Fraction]] = []
        for c, s, t, off, dim in src_layout:
            gs = x.generators(c)[s]
            gt = y.generators(c + k)[t]
            basis = self.hom_space(x.side, gs, gt)
            for b in basis:
                col = [Fraction(0)] * n_tgt
                # d_Y composed with the basis map: lands at (c, s, t')
                for t2, gt2 in enumerate(y.generators(c + k + 1)):
                    e = y.entry(c + k, t2, t)
                    if e is None:
                        continue
                    slot = tgt_pos.get((c, s, t2))
                    if slot is None:
                        continue
                    coords = self.entry_coords(x.side, gs, gt2, e * b)
                    off2, _ = slot
                    for idx, val in enumerate(coords):
                        col[off2 + idx] += val
                # the basis map composed with d_X: lands at (c - 1, s', t'')
                for s2, gs2 in enumerate(x.generators(c - 1)):
                    e = x.entry(c - 1, s, s2)
                    if e is None:
                        continue
                    slot = tgt_pos.get((c - 1, s2, t))
                    if slot is None:
                        continue
                    coords = self.entry_coords(x.side, gs2, gt, b * e)
                    off2, _ = slot
                    for idx, val in enumerate(coords):
                        col[off2 + idx] -= sign * val
                columns.append(col)
        return QMatrix.from_columns(n_tgt, columns)

    # -- corpus generation ----------------------------------------------------

    def stalk(self, side: str, gens, c: int = 0) -> FormalComplex:
        return FormalComplex(side, {c: tuple(gens)})

    def random_complex(
        self,
        rng: random.Random,
        max_positions: int = 4,
        max_gens: int = 3,
        twist_range: int = 2,
    ) -> FormalComplex:
        """A seeded random MIX complex with a valid differential.

        Entries at each step are drawn from the exact solution space of the
        squaring-to-zero constraint against the previous differential.
        """
        n_pos = rng.randint(1, max_positions)
        terms = {}
        els = self.cat.group.elements()
        for c in range(n_pos):
            gens = tuple(
                Gen(rng.choice(els), rng.randint(-twist_range, twist_range))
                for _ in range(rng.randint(1, max_gens))
            )
            terms[c] = gens
        diffs = {}
        prev = None
        for c in range(n_pos - 1):
            src = terms[c]
            tgt = terms[c + 1]
            layout = []
            count = 0
            for t, gt in enumerate(tgt):
                for s, gs in enumerate(src):
                    dim = self.hom_space_dim("MIX", gs, gt)
                    if dim:
                        layout.append((t, s, count, dim))
                        count += dim
            if count == 0:
                prev = None
                continue
            if prev is None:
                coords = [Fraction(rng.randint(-2, 2)) for _ in range(count)]
            else:
                rows = self._compose_constraint_rows(terms, c, prev, layout, count)
                basis = kernel_basis(QMatrix(len(rows), count, rows))
                coords = [Fraction(0)] * count
                for vec in basis:
                    c_rand = rng.randint(-2, 2)
                    if c_rand:
                        coords = [a + c_rand * b for a, b in zip(coords, vec)]
            entries = [[None] * len(src) for _ in range(len(tgt))]
            for t, s, off, dim in layout:
                basis_maps = self.hom_space("MIX", src[s], tgt[t])
                total = None
                for idx in range(dim):
                    val = coords[off + idx]
                    if val:
                        piece = basis_maps[idx].scale(val)
                        total = piece if total is None else total + piece
                if total is not None and not total.is_zero():
                    entries[t][s] = total
            if any(e is not None for row in entries for e in row):
                diffs[c] = entries
                prev = (c, entries)
            else:
                prev = None
        x = FormalComplex("MIX", terms, diffs)
        if not self.dsquare_check(x):
            raise AssertionError("random corpus generator produced a bad differential")
        return x

    def _compose_constraint_rows(self, terms, c, prev, layout, count):
        """Linear constraints expressing that the next differential kills
        the image of the previous one."""
        prev_c, prev_entries = prev
        if prev_c != c - 1:
            return []
        src_prev = terms[c - 1]
        mid = terms[c]
        tgt = terms[c + 1]
        rows = []
        for t, gt in enumerate(tgt):
            for s0, gs0 in enumerate(src_prev):
                dx = self.cat.indecomposable(gs0.w)
                dy = self.cat.indecomposable(gt.w)
                n_entries = dy.total_dim() * dx.total_dim()
                block_rows = [[Fraction(0)] * count for _ in range(n_entries)]
                touched = False
                for t_mid, g_mid in enumerate(mid):
                    e_prev = prev_entries[t_mid][s0]
                    if e_prev is None:
                        continue
                    for (t2, s2, off, dim) in layout:
                        if t2 != t or s2 != t_mid:
                            continue
                        basis_maps = self.hom_space("MIX", g_mid, gt)
                        for idx in range(dim):
                            prod = basis_maps[idx] * e_prev
                            flat = flatten(prod)
                            for r, val in enumerate(flat):
                                if val:
                                    block_rows[r][off + idx] += val
                                    touched = True
                if touched:
                    rows.extend(row for row in block_rows if any(row))
        return rows


@lru_cache(maxsize=None)
def formal_category(n: int) -> FormalCategory:
    return FormalCategory(soergel_category(n))
