"""Formal bounded complexes over the additive categories spanned by the
indecomposable summand modules.

Four variants share one data structure.  Objects are formal sums of
generators: on the twisted sides (MIX and PERV_GR) a generator is a pair
(w, n) of a group element and an integer twist; on the untwisted sides
(K and PERV) it is a bare group element.  A differential entry from a
generator of x to one of y is a module map D_x -> D_y between the
category's own modules, the form of every Hom-space element, and the side
decides which maps an entry may be:

* MIX and PERV_GR between (x, m) and (y, n): the graded maps whose degree,
  measured against the untwisted normalisation of the modules, is 2(n-m).
  The summand modules here are centred (self-dual characters), which
  offsets that degree by l(x) - l(y); this is the one place the two
  bookkeepings meet, and the offset is pinned by requiring the degrading
  count and the commuting square to hold at the same time.
* K and PERV between x and y: a homogeneous module map of any degree.

The Hom spaces themselves live in :class:`SoergelCategory`:
``hom_space(x, y, degree)`` keeps, once per rank, the cached
``hom_basis`` maps with the echelon basis of their flattenings, and the
endomorphism algebras read their coordinates from the same store.
Twisted sides ask for the centred degree, untwisted sides for every
degree at once.  A layout of the maps of one degree looks each
slot's space up once, straight from the two group elements and the
centred degree (read off a per-rank length table), and hands the space on
with the slot's offset.

One linear system, the differential of the Hom complex, serves both
hom_homotopy and random_complex; the squaring-to-zero constraint on a new
differential is its cocycle condition for maps from the two-term complex
of the previous differential into a stalk.  Its unknowns are Hom-space
coordinates, and its blocks are composition matrices: the coordinates of
a fixed entry composed with every basis map of one Hom space, read in the
Hom space of the composite through its echelon basis, and placed at the
offsets of the two slots.  Centred degrees add under composition, so
every composite lies in that space.  The system is built from the layouts
of its two degrees, so random_complex assembles a new differential from
the layout its constraint was built on, and hom_homotopies, which sweeps
a range of degrees, builds each layout and each differential once
(hom_homotopy is its one-degree case).

The graded-to-ungraded functor drops twist labels and reinterprets each
entry inside the full Hom space; the duality functor is a relabelling that
keeps all data and changes only the side tag (and hence how positions and
twists are read).  The square of the four functors therefore commutes on
the nose, and square_check verifies that equality entry by entry.

The public constructor checks every complex it is given.  The complexes
this module derives from checked ones (the four relabellings, twist, and
the two complexes of each random_complex constraint) are built with their
fields as that constructor would give them, and are not checked again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .gradedmod import ModuleMap
from .linalg import QMatrix, combine, kernel_basis, place_blocks, rank
from .soergel import SoergelCategory, soergel_category
from .weyl import Perm, format_perm, length

SIDES = ("MIX", "K", "PERV_GR", "PERV")
TWISTED = {"MIX": True, "K": False, "PERV_GR": True, "PERV": False}
#: random_complex draws twist labels from -TWIST_RANGE..TWIST_RANGE
TWIST_RANGE = 2


class Gen:
    """A formal generator: a group element with an optional twist label.

    Immutable; two Gens are equal, and hash alike, when their ``(w,
    twist)`` agree."""

    __slots__ = ("w", "twist")

    def __init__(self, w: Perm, twist: int | None = None):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "twist", twist)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Gen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Gen")

    def __eq__(self, other):
        if type(other) is not Gen:
            return NotImplemented
        return self.w == other.w and self.twist == other.twist

    def __hash__(self):
        return hash((self.w, self.twist))

    def label(self) -> str:
        if self.twist is None:
            return format_perm(self.w)
        return f"{format_perm(self.w)}({self.twist})"


class FormalComplex:
    """A bounded complex of formal sums of generators.

    ``terms`` maps positions to generator tuples; ``diffs`` maps position c
    to a matrix of entries (rows indexed by the generators at c+1, columns
    by those at c), each entry a nonzero ModuleMap D_x -> D_y between the
    modules of its two generators or None for zero.  Zero maps passed in
    are stored as None, and positions whose entries are all zero are left
    out, so equal complexes have equal fields.
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
            for t, row in enumerate(entries):
                for s, e in enumerate(row):
                    if e is not None and not isinstance(e, ModuleMap):
                        raise ValueError(
                            f"differential entry ({t}, {s}) at position {c} is a "
                            f"{type(e).__name__}, not a ModuleMap"
                        )
            rows = [[None if e is None or e.is_zero() else e for e in row] for row in entries]
            if any(e is not None for row in rows for e in row):
                self.diffs[c] = rows

    @classmethod
    def _derived(cls, side: str, terms: dict, diffs: dict) -> FormalComplex:
        """A complex from fields already in the form the constructor gives
        them, unchecked: nonempty generator tuples of the side's kind, and
        differentials of the right block shape with zero entries as None
        and no all-zero position.  Only this module calls it, for complexes
        it derives from checked ones."""
        x = object.__new__(cls)
        x.side, x.terms, x.diffs = side, terms, diffs
        return x

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


def _read(space, maps) -> QMatrix:
    """Coordinates of module maps in a Hom space, given as its basis maps
    with their echelon basis, one column per map; raises ValueError for a
    map outside that space."""
    basis, echelon = space
    return QMatrix.from_columns(len(basis), [echelon.coords(m.flatten()) for m in maps])


class FormalCategory:
    """Hom-space bookkeeping for formal complexes at a fixed rank."""

    def __init__(self, cat: SoergelCategory):
        self.cat = cat
        self.n = cat.n
        self._lengths = {w: length(w) for w in cat.group.elements()}
        # one untwisted generator per group element, shared by every relabel
        self._untwisted = {w: Gen(w) for w in cat.group.elements()}

    # -- Hom spaces between generators --------------------------------------

    def _space(self, side: str, src: Gen, tgt: Gen):
        """The Hom space of entries from src to tgt, as
        ``SoergelCategory.hom_space`` stores it: of the centred degree
        2(n - m) + l(x) - l(y) on the twisted sides (the twist difference in
        untwisted normalisation, offset by centring), of every degree on
        the untwisted ones."""
        degree = None
        if TWISTED[side]:
            lengths = self._lengths
            degree = 2 * (tgt.twist - src.twist) + lengths[src.w] - lengths[tgt.w]
        return self.cat.hom_space(src.w, tgt.w, degree)

    def hom_space(self, side: str, src: Gen, tgt: Gen) -> tuple[ModuleMap, ...]:
        """Basis of allowed differential entries from src to tgt: the
        ``hom_basis`` maps themselves."""
        return self._space(side, src, tgt)[0]

    def validate(self, x: FormalComplex) -> None:
        """Check that each entry is a map between the category's modules of
        its two generators and lies in the slot's Hom space (ValueError),
        and that the differential squares to zero (AssertionError)."""
        module = self.cat.indecomposable
        for c, rows in x.diffs.items():
            src = x.generators(c)
            tgt = x.generators(c + 1)
            for t, row in enumerate(rows):
                for s, e in enumerate(row):
                    if e is None:
                        continue
                    if e.source is not module(src[s].w) or e.target is not module(tgt[t].w):
                        raise ValueError(
                            f"differential entry ({t}, {s}) at position {c} is not a map "
                            f"D[{format_perm(src[s].w)}] -> D[{format_perm(tgt[t].w)}]"
                        )
                    _read(self._space(x.side, src[s], tgt[t]), [e])
        if not self.dsquare_check(x):
            raise AssertionError("formal differential does not square to zero")

    def dsquare_check(self, x: FormalComplex) -> bool:
        """Whether the composites along the two-step paths between any two
        generators sum to zero, summed flattened: on an untwisted side paths
        of different degrees meet, which ModuleMap.__add__ refuses."""
        for c, first in x.diffs.items():
            second = x.diffs.get(c + 1)
            for row in second or ():
                for s in range(len(first[0])):
                    paths = [
                        (1, a.compose(b[s]).flatten())
                        for a, b in zip(row, first)
                        if a is not None and b[s] is not None
                    ]
                    if combine(paths):
                        return False
        return True

    # -- the four functors ----------------------------------------------------

    def _relabel(self, x: FormalComplex, start: str, side: str, name: str) -> FormalComplex:
        """x with the side tag ``side``, and without twist labels when ``side``
        is untwisted; the entries are kept, shared with x.  Raises ValueError
        unless x is on the ``start`` side."""
        if x.side != start:
            raise ValueError(f"{name} starts on the {start} side")
        terms = x.terms
        if TWISTED[start] and not TWISTED[side]:
            terms = {c: tuple(self._untwisted[g.w] for g in gens) for c, gens in terms.items()}
        return FormalComplex._derived(side, terms, x.diffs)

    def gkos(self, x: FormalComplex) -> FormalComplex:
        """Graded duality: identical data, reinterpreted side tag."""
        return self._relabel(x, "MIX", "PERV_GR", "graded duality")

    def kos_formal(self, x: FormalComplex) -> FormalComplex:
        """Ungraded duality: identical data between the untwisted sides."""
        return self._relabel(x, "K", "PERV", "ungraded duality")

    def iota_formal(self, x: FormalComplex) -> FormalComplex:
        """Drop twist labels; entries embed into the full Hom spaces."""
        return self._relabel(x, "MIX", "K", "the grading collapse")

    def v_formal(self, x: FormalComplex) -> FormalComplex:
        """Forget the grading on the dual side."""
        return self._relabel(x, "PERV_GR", "PERV", "the grading forgetting")

    def square_check(self, x: FormalComplex) -> bool:
        """Both ways around the square give the same labelled complex."""
        return self.kos_formal(self.iota_formal(x)) == self.v_formal(self.gkos(x))

    @staticmethod
    def twist(x: FormalComplex, t: int) -> FormalComplex:
        """The weight-preserving auto-equivalence: twist labels move by t."""
        if not TWISTED[x.side]:
            raise ValueError("twisting is defined on the twisted sides")
        return FormalComplex._derived(
            x.side,
            {c: tuple(Gen(g.w, g.twist + t) for g in gens) for c, gens in x.terms.items()},
            x.diffs,
        )

    # -- homotopy Homs -----------------------------------------------------------

    def hom_homotopy(self, x: FormalComplex, y: FormalComplex, k: int = 0) -> int:
        """Dimension of chain maps x -> y[k] modulo homotopy."""
        return self.hom_homotopies(x, y, range(k, k + 1))[0]

    def hom_homotopies(self, x: FormalComplex, y: FormalComplex, ks: range) -> list[int]:
        """Dimensions of chain maps x -> y[k] modulo homotopy, for each k
        of the step-1 range ks.  The dimension at k is the coordinate count
        of degree-k maps less the ranks of the Hom differentials d_k and
        d_{k-1}, so the sweep builds the layouts of degrees ks.start - 1 to
        ks.stop and the differentials between them once each."""
        if x.side != y.side:
            raise ValueError("Hom between complexes on different sides")
        if ks.step != 1:
            raise ValueError("a sweep of homotopy Homs runs over consecutive degrees")
        degrees = range(ks.start - 1, ks.stop + 1)
        layouts = [self._hom_layout(x, y, j) for j in degrees]
        ranks = [
            rank(self._hom_differential_matrix(x, y, j, src, tgt))
            for j, src, tgt in zip(degrees, layouts, layouts[1:])
        ]
        return [layouts[i + 1][1] - ranks[i + 1] - ranks[i] for i in range(len(ks))]

    def _hom_layout(self, x: FormalComplex, y: FormalComplex, k: int) -> tuple[dict, int]:
        """Coordinates of maps of degree k: one slot (c, s, t) per position
        c, target generator t and source generator s, in that order, whose
        Hom space is nonzero.  Returns, for each slot, the offset of its
        first coordinate with its Hom space (basis maps and echelon basis),
        and the coordinate count.  The order fixes the free columns that
        random_complex draws on, and with them the seeded corpus."""
        slots = {}
        count = 0
        for c in x.positions():
            src = x.terms[c]
            for t, gt in enumerate(y.generators(c + k)):
                for s, gs in enumerate(src):
                    space = self._space(x.side, gs, gt)
                    if space[0]:
                        slots[(c, s, t)] = (count, space)
                        count += len(space[0])
        return slots, count

    def _hom_differential_matrix(
        self, x: FormalComplex, y: FormalComplex, k: int, src_layout, tgt_layout
    ) -> QMatrix:
        """Matrix of f -> d_Y f - (-1)^k f d_X from degree-k to degree-(k+1)
        maps, in Hom-space coordinates on both sides, laid out by the
        ``_hom_layout`` of k and of k + 1.

        Slot (c, s, t) feeds (c, s, t2) through the entries of d_Y out of t
        and (c - 1, s2, t) through the entries of d_X into s; the two kinds
        of target differ in position, so no two blocks overlap.
        """
        (slots, n_src), (targets, n_tgt) = src_layout, tgt_layout
        sign = -1 if k % 2 else 1
        blocks = []
        for (c, s, t), (col, (basis, _)) in slots.items():
            for t2, y_row in enumerate(y.diffs.get(c + k, ())):
                e = y_row[t]
                target = targets.get((c, s, t2))
                if e is not None and target is not None:
                    row, space = target
                    blocks.append((row, col, _read(space, [e.compose(b) for b in basis])))
            x_rows = x.diffs.get(c - 1)
            for s2, e in enumerate(x_rows[s] if x_rows else ()):
                target = targets.get((c - 1, s2, t))
                if e is not None and target is not None:
                    row, space = target
                    blocks.append((row, col, _read(space, [b.compose(e) for b in basis]), -sign))
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
        coordinates in the layout of ``_hom_layout``, and of the unit basis
        where no nonzero differential comes before it; twist labels are drawn
        from -TWIST_RANGE..TWIST_RANGE.  The two complexes of each
        constraint are derived from the terms and differentials drawn so
        far, unchecked; the result is checked by the public constructor and
        ``dsquare_check``.
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
            # complex d_{c-1} to the stalk of terms[c+1] at c, is a cocycle;
            # diffs holds only positions with a nonzero entry, as the
            # constructor would.  With no d_{c-1} the step is the stalk of
            # terms[c], the constraint is zero and its kernel the unit basis
            prev = {c - 1: diffs[c - 1]} if c - 1 in diffs else {}
            step = FormalComplex._derived("MIX", {c - 1: terms[c - 1], c: src} if prev else {c: src}, prev)
            stalk = FormalComplex._derived("MIX", {c: tgt}, {})
            layout = self._hom_layout(step, stalk, 0)
            if prev:
                constraint = self._hom_differential_matrix(
                    step, stalk, 0, layout, self._hom_layout(step, stalk, 1)
                )
                vectors = kernel_basis(constraint)
            else:
                vectors = [{j: 1} for j in range(layout[1])]
            coords: dict[int, int | Fraction] = {}
            for vec in vectors:
                c_rand = rng.randint(-2, 2)
                if c_rand:
                    for j, x in vec.items():
                        coords[j] = coords.get(j, 0) + c_rand * x
            # an entry is a combination of basis maps with nonzero
            # coefficients, so it is never zero
            entries = [[None] * len(src) for _ in range(len(tgt))]
            for (_, s, t), (off, (basis, _)) in layout[0].items():
                for k, b in enumerate(basis, off):
                    if val := coords.get(k):
                        piece = b.scale(val)
                        entries[t][s] = piece if entries[t][s] is None else entries[t][s] + piece
            if any(e is not None for row in entries for e in row):
                diffs[c] = entries
        x = FormalComplex("MIX", terms, diffs)
        if not self.dsquare_check(x):
            raise AssertionError("random corpus generator produced a bad differential")
        return x


@lru_cache(maxsize=None)
def formal_category(n: int) -> FormalCategory:
    return FormalCategory(soergel_category(n))
