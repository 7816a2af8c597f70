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

The Hom spaces themselves live in :class:`SoergelCategory`:
``hom_space(x, y, degree)`` keeps, once per rank, the total-space
matrices of the cached ``hom_basis`` maps with the echelon basis of their
flattenings, and the endomorphism algebras read their coordinates from the
same store.  Twisted sides ask for the centred degree, untwisted sides for
every degree at once.

One linear system, the differential of the Hom complex, serves both
hom_homotopy and random_complex; the squaring-to-zero constraint on a new
differential is its cocycle condition for maps from the two-term complex
of the previous differential into a stalk.  Its unknowns are Hom-space
coordinates, and its blocks are composition matrices: the coordinates of
a fixed entry composed with every basis map of one Hom space, read in the
Hom space of the composite through its echelon basis, and placed at the
offsets of the two slots.  Centred degrees add under composition, so
every composite lies in that space.

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

from .linalg import QMatrix, flatten, kernel_basis, place_blocks, rank
from .soergel import SoergelCategory, soergel_category
from .weyl import Perm, format_perm, length

SIDES = ("MIX", "K", "PERV_GR", "PERV")
TWISTED = {"MIX": True, "K": False, "PERV_GR": True, "PERV": False}
#: random_complex draws twist labels from -TWIST_RANGE..TWIST_RANGE
TWIST_RANGE = 2


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
    by those at c), each entry a nonzero total-space matrix or None for
    zero.  Zero matrices passed in are stored as None, and positions whose
    entries are all zero are left out, so equal complexes have equal fields.
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
            rows = [[None if e is None or e.is_zero() else e for e in row] for row in entries]
            if any(e is not None for row in rows for e in row):
                self.diffs[c] = rows

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
        return (self.side, self.terms, self.diffs) == (other.side, other.terms, other.diffs)

    def __hash__(self):
        raise TypeError("FormalComplex is unhashable")

    def __repr__(self) -> str:
        parts = []
        for c in self.positions():
            labels = "+".join(g.label() for g in self.generators(c))
            parts.append(f"{c}:[{labels}]")
        return f"FormalComplex<{self.side}>({' '.join(parts)})"


def _relabel(x: FormalComplex, start: str, side: str, name: str) -> FormalComplex:
    """x with the side tag ``side``, and without twist labels when ``side``
    is untwisted; the entries are kept.  Raises ValueError unless x is on
    the ``start`` side."""
    if x.side != start:
        raise ValueError(f"{name} starts on the {start} side")
    terms = x.terms
    if TWISTED[start] and not TWISTED[side]:
        terms = {c: tuple(Gen(g.w) for g in gens) for c, gens in terms.items()}
    return FormalComplex(side, terms, x.diffs)


class FormalCategory:
    """Hom-space bookkeeping for formal complexes at a fixed rank."""

    def __init__(self, cat: SoergelCategory):
        self.cat = cat
        self.n = cat.n

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
        degree = self._centred_degree(src.w, src.twist, tgt.w, tgt.twist) if TWISTED[side] else None
        return self.cat.hom_space(src.w, tgt.w, degree)

    def _coords(self, side: str, src: Gen, tgt: Gen, maps) -> QMatrix:
        """Coordinates of total-space matrices in the basis of
        ``hom_space(side, src, tgt)``, one column per matrix; raises
        ValueError for a matrix outside that space."""
        mats, basis = self._space_data(side, src, tgt)
        return QMatrix.from_columns(len(mats), [basis.coords(flatten(m)) for m in maps])

    def validate(self, x: FormalComplex) -> None:
        """Check entry membership and that the differential squares to zero."""
        for c, rows in x.diffs.items():
            src = x.generators(c)
            tgt = x.generators(c + 1)
            for t, row in enumerate(rows):
                for s, e in enumerate(row):
                    if e is not None:
                        self._coords(x.side, src[s], tgt[t], [e])
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
        return _relabel(x, "MIX", "PERV_GR", "graded duality")

    def kos_formal(self, x: FormalComplex) -> FormalComplex:
        """Ungraded duality: identical data between the untwisted sides."""
        return _relabel(x, "K", "PERV", "ungraded duality")

    def iota_formal(self, x: FormalComplex) -> FormalComplex:
        """Drop twist labels; entries embed into the full Hom spaces."""
        return _relabel(x, "MIX", "K", "the grading collapse")

    def v_formal(self, x: FormalComplex) -> FormalComplex:
        """Forget the grading on the dual side."""
        return _relabel(x, "PERV_GR", "PERV", "the grading forgetting")

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
        d_prev = self._hom_differential_matrix(x, y, k - 1)
        return d_k.cols - rank(d_k) - rank(d_prev)

    def _hom_layout(self, x: FormalComplex, y: FormalComplex, k: int) -> tuple[dict, int]:
        """Offsets of the coordinates of maps of degree k: one slot (c, s, t)
        per position c, target generator t and source generator s, in that
        order, whose Hom space is nonzero.  Returns the offset of each
        slot's first coordinate and the coordinate count.  The order fixes
        the free columns that random_complex draws on, and with them the
        seeded corpus."""
        offsets = {}
        count = 0
        for c in x.positions():
            for t, gt in enumerate(y.generators(c + k)):
                for s, gs in enumerate(x.generators(c)):
                    dim = self.hom_space_dim(x.side, gs, gt)
                    if dim:
                        offsets[(c, s, t)] = count
                        count += dim
        return offsets, count

    def _hom_differential_matrix(self, x: FormalComplex, y: FormalComplex, k: int) -> QMatrix:
        """Matrix of f -> d_Y f - (-1)^k f d_X from degree-k to degree-(k+1)
        maps, in Hom-space coordinates on both sides.

        Slot (c, s, t) feeds (c, s, t2) through the entries of d_Y out of t
        and (c - 1, s2, t) through the entries of d_X into s; the two kinds
        of target differ in position, so no two blocks overlap.
        """
        src_layout, n_src = self._hom_layout(x, y, k)
        tgt_layout, n_tgt = self._hom_layout(x, y, k + 1)
        sign = -1 if k % 2 else 1
        blocks = []
        for (c, s, t), col in src_layout.items():
            gs = x.generators(c)[s]
            gt = y.generators(c + k)[t]
            basis = self.hom_space(x.side, gs, gt)
            for t2, gt2 in enumerate(y.generators(c + k + 1)):
                e = y.entry(c + k, t2, t)
                row = tgt_layout.get((c, s, t2))
                if e is not None and row is not None:
                    comp = self._coords(x.side, gs, gt2, [e * b for b in basis])
                    blocks.append((row, col, comp))
            for s2, gs2 in enumerate(x.generators(c - 1)):
                e = x.entry(c - 1, s, s2)
                row = tgt_layout.get((c - 1, s2, t))
                if e is not None and row is not None:
                    comp = self._coords(x.side, gs2, gt, [b * e for b in basis])
                    blocks.append((row, col, comp.scale(-sign)))
        return place_blocks(n_tgt, n_src, blocks)

    # -- corpus generation ----------------------------------------------------

    def stalk(self, side: str, gens, c: int = 0) -> FormalComplex:
        return FormalComplex(side, {c: tuple(gens)})

    def random_complex(
        self, rng: random.Random, max_positions: int = 4, max_gens: int = 3
    ) -> FormalComplex:
        """A seeded random MIX complex with a valid differential.

        Each differential is a random combination of the kernel basis of the
        squaring-to-zero constraint against the previous one, in Hom-space
        coordinates in the layout of ``_hom_layout``; twist labels are drawn
        from -TWIST_RANGE..TWIST_RANGE.
        """
        n_pos = rng.randint(1, max_positions)
        terms = {}
        els = self.cat.group.elements()
        for c in range(n_pos):
            gens = tuple(
                Gen(rng.choice(els), rng.randint(-TWIST_RANGE, TWIST_RANGE))
                for _ in range(rng.randint(1, max_gens))
            )
            terms[c] = gens
        diffs = {}
        for c in range(n_pos - 1):
            src = terms[c]
            tgt = terms[c + 1]
            # d_c d_{c-1} = 0 says that d_c, a degree-0 map from the two-term
            # complex d_{c-1} to the stalk of terms[c+1] at c, is a cocycle
            step = FormalComplex(
                "MIX", {c - 1: terms.get(c - 1, ()), c: src}, {c - 1: diffs[c - 1]} if c else None
            )
            stalk = self.stalk("MIX", tgt, c)
            layout, _ = self._hom_layout(step, stalk, 0)
            coords: dict[int, int | Fraction] = {}
            for vec in kernel_basis(self._hom_differential_matrix(step, stalk, 0)):
                c_rand = rng.randint(-2, 2)
                if c_rand:
                    for j, x in vec.items():
                        coords[j] = coords.get(j, 0) + c_rand * x
            entries = [[None] * len(src) for _ in range(len(tgt))]
            for (_, s, t), off in layout.items():
                for k, b in enumerate(self.hom_space("MIX", src[s], tgt[t]), off):
                    if val := coords.get(k):
                        piece = b.scale(val)
                        entries[t][s] = piece if entries[t][s] is None else entries[t][s] + piece
            diffs[c] = entries
        x = FormalComplex("MIX", terms, diffs)
        if not self.dsquare_check(x):
            raise AssertionError("random corpus generator produced a bad differential")
        return x


@lru_cache(maxsize=None)
def formal_category(n: int) -> FormalCategory:
    return FormalCategory(soergel_category(n))
