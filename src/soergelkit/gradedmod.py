"""Finite-dimensional graded modules over the coinvariant algebra.

A module is a graded vector space together with one matrix per variable
mapping each degree-d component to the degree-(d+2) component.  The
matrices must commute pairwise and every elementary symmetric polynomial of
them must vanish, which is exactly what makes the space a module over the
quotient ring; :meth:`GradedModule.validate` checks both (commutation
among x_1 .. x_{n-1}, which with e_1 = 0 gives the rest) and module
constructors run it, so a broken construction never propagates.

A graded Hom space is solved on generator images: a module map is fixed
by its values on generators, so each module keeps a
:class:`Presentation`, a basis of every degree made of products x_i b of
basis vectors one degree down, completed by unit vectors (the
generators), and the other products as relations.  The unknowns are the
images of the generators and each relation gives the equations
(:func:`hom_images`); :func:`hom_graded` writes the maps as blocks and
returns the reduced echelon basis that a solve with one unknown per block
entry would.  A dimension needs no basis: :func:`hom_dim` is the number
of unknowns less the rank of the same system, found with no
back-substitution and no map, and :func:`graded_hom_poly` counts with it
degree by degree; ``len(hom_graded(...))`` is its test oracle.  The
ungraded Hom dimension is computed by an independent solve of the
unrestricted block system, which gives the degrading comparison a second
route rather than summing the graded answer by construction.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import accumulate, combinations

from .coinvariant import CoinvariantRing
from .laurent import LaurentPoly
from .linalg import (
    QMatrix,
    RowSpan,
    SparseSystem,
    check_size,
    combine,
    exact,
    hom_equations,
    inverse,
    kernel_basis,
    place_blocks,
    rank,
    restrict_to_kernels,
    rref,
)

_PRESENTATION_LOCK = threading.Lock()


class GradedModule:
    """A graded module over the coinvariant algebra of rank n."""

    __slots__ = ("ring", "dims", "actions", "_degrees", "_offsets", "_presentation")

    def __init__(self, ring: CoinvariantRing, dims, actions, validate: bool = True):
        self.ring = ring
        self.dims = {int(d): int(m) for d, m in dims.items() if m}
        self._degrees = tuple(sorted(self.dims))
        self._offsets = dict(zip(self._degrees, accumulate((self.dims[d] for d in self._degrees), initial=0)))
        acts: dict[tuple[int, int], QMatrix] = {}
        for (i, d), mat in actions.items():
            if mat.rows != self.dim_at(d + 2) or mat.cols != self.dim_at(d):
                raise ValueError(f"action block for x_{i} at degree {d} has wrong shape")
            if not mat.is_zero():
                acts[(int(i), int(d))] = mat
        self.actions = acts
        self._presentation = None
        if validate:
            self.validate()

    # -- bookkeeping ---------------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def dim_at(self, d: int) -> int:
        return self.dims.get(d, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def character(self) -> LaurentPoly:
        return LaurentPoly({d: m for d, m in self.dims.items()})

    def action(self, i: int, d: int) -> QMatrix:
        mat = self.actions.get((i, d))
        if mat is None:
            return QMatrix.zero(self.dim_at(d + 2), self.dim_at(d))
        return mat

    def total_offsets(self) -> dict[int, int]:
        return self._offsets

    def total_action(self, i: int) -> QMatrix:
        n = self.total_dim()
        off = self.total_offsets()
        return place_blocks(
            n, n, ((off[d + 2], off[d], blk) for (j, d), blk in self.actions.items() if j == i)
        )

    def presentation(self) -> "Presentation":
        """The module's :class:`Presentation`, built on first use and kept
        on the module; threads that ask at once all get the one kept."""
        pres = self._presentation
        if pres is None:
            with _PRESENTATION_LOCK:
                pres = self._presentation
                if pres is None:
                    pres = self._presentation = Presentation(self)
        return pres

    # -- constructors ----------------------------------------------------------

    def shift(self, k: int) -> "GradedModule":
        """Lower all degrees by k (characters pick up v^-k)."""
        return GradedModule(
            self.ring,
            {d - k: m for d, m in self.dims.items()},
            {(i, d - k): mat for (i, d), mat in self.actions.items()},
            validate=False,
        )

    def direct_sum(self, other: "GradedModule") -> "GradedModule":
        if self.ring is not other.ring:
            raise ValueError("direct sum across different rings")
        dims = dict(self.dims)
        for d, m in other.dims.items():
            dims[d] = dims.get(d, 0) + m
        placed = {key: [(0, 0, mat)] for key, mat in self.actions.items()}
        for (i, d), mat in other.actions.items():
            placed.setdefault((i, d), []).append((self.dim_at(d + 2), self.dim_at(d), mat))
        actions = {(i, d): place_blocks(dims[d + 2], dims[d], blocks) for (i, d), blocks in placed.items()}
        return GradedModule(self.ring, dims, actions, validate=False)

    # -- module axioms ---------------------------------------------------------

    def validate(self) -> None:
        """Check commutation and the vanishing of e_k of the actions.

        Only x_1 .. x_{n-1} are checked to commute: once e_1 vanishes,
        x_n = -(x_1 + .. + x_{n-1}) commutes with them, so a module whose
        x_n does not commute is still rejected, by its e_1.  An absent
        action block is zero, so a product with one is zero and is neither
        built nor multiplied.
        """
        n = self.ring.n
        act = self.actions.get
        for i, j in combinations(range(1, n), 2):
            for d in self.degrees():
                lhs = _product(act((i, d + 2)), act((j, d)))
                rhs = _product(act((j, d + 2)), act((i, d)))
                if lhs is None or rhs is None:
                    other = rhs if lhs is None else lhs
                    commute = other is None or other.is_zero()
                else:
                    commute = lhs == rhs
                if not commute:
                    raise AssertionError(f"actions of x_{i} and x_{j} do not commute at degree {d}")
        # e_k(x_1..x_i) = e_k(x_1..x_{i-1}) + x_i e_{k-1}(x_1..x_{i-1}), one
        # variable at a time; e[k] maps degree d to degree d + 2k, e[0] is the
        # identity and None is zero
        failures = []
        for d in self.degrees():
            e: list[QMatrix | None] = [None] * (n + 1)
            for i in range(1, n + 1):
                for k in range(i, 0, -1):
                    step = act((i, d + 2 * k - 2))
                    term = step if k == 1 else _product(step, e[k - 1])
                    if term is not None:
                        e[k] = term if e[k] is None else e[k] + term
            failures += [(k, d) for k in range(1, n + 1) if e[k] is not None and not e[k].is_zero()]
        if failures:
            k, d = min(failures)
            raise AssertionError(f"e_{k} of the actions does not vanish at degree {d}")


def _product(a: QMatrix | None, b: QMatrix | None) -> QMatrix | None:
    """a * b, or None (zero) when either factor is None."""
    return None if a is None or b is None else a * b


def _columns(action: QMatrix) -> list[dict]:
    """The columns of ``action`` as {row: value} dicts."""
    out = [{} for _ in range(action.cols)]
    for s, row in enumerate(action.nonzeros):
        for r, x in row.items():
            out[r][s] = x
    return out


def _times(columns: list[dict], image: dict, width: int) -> dict:
    """x_i applied to a packed image, given the columns of the action of
    x_i: coordinate s of the result at unknown u, kept at s * width + u,
    sums action[s][r] times the entry at r * width + u.  With width 1 it
    is x_i applied to a vector."""
    acc = {}
    for col, x in image.items():
        r, u = divmod(col, width)
        for s, a in columns[r].items():
            k = s * width + u
            acc[k] = acc[k] + a * x if k in acc else a * x
    return {k: x if type(x) is int else exact(x) for k, x in acc.items() if x}


class Presentation:
    """Generators and relations of a graded module M, degree by degree.

    The candidates in degree d are the products x_i b, i < n, of the rows b
    of ``bases[d - 2]``, numbered i-major: candidate (i - 1) dim M_{d-2} + t
    is x_i times row t.  x_n is left out, since it acts as -(x_1 + .. +
    x_{n-1}) on every module.  ``bases[d]`` holds a basis of M_d, one
    vector per row: first the candidates ``chosen[d]`` that raise the rank,
    in order, then the unit vectors that complete them, which are the
    generators.  Every other candidate is a relation, and ``relations[d]``
    lists them; the degrees just above those of M have relations only,
    since every product vanishes there.  The inverse of a basis and the
    coordinates of the relations in it are found when first asked for,
    since a Hom system reads them only in the degrees its target reaches.
    """

    __slots__ = ("bases", "chosen", "relations", "_products", "_inverses", "_coords")

    def __init__(self, M: GradedModule):
        self.bases, self.chosen, self.relations = {}, {}, {}
        self._products, self._inverses, self._coords = {}, {}, {}
        for d in sorted({*M.degrees(), *(e + 2 for e in M.degrees())}):
            m, below = M.dim_at(d), self.bases.get(d - 2)
            if not m:
                self.relations[d] = tuple(range((M.ring.n - 1) * M.dim_at(d - 2)))
                continue
            candidates = []
            if below is not None:
                for i in range(1, M.ring.n):
                    act = M.actions.get((i, d - 2))
                    if act is None:
                        candidates += [{}] * below.rows
                    else:
                        columns = _columns(act)
                        candidates += [_times(columns, b, 1) for b in below.nonzeros]
            span = RowSpan(m)
            chosen = span.independent(QMatrix(len(candidates), m, candidates))
            units = QMatrix.identity(m)
            generators = [units.nonzeros[u] for u in span.independent(units)]
            taken = set(chosen)
            relations = tuple(c for c in range(len(candidates)) if c not in taken)
            self.bases[d] = QMatrix(m, m, [candidates[c] for c in chosen] + generators)
            self.chosen[d], self.relations[d] = tuple(chosen), relations
            self._products[d] = QMatrix(len(relations), m, [candidates[c] for c in relations])

    def generators(self) -> dict[int, int]:
        """The number of generators in each degree that has one."""
        return {d: gens for d, basis in self.bases.items() if (gens := basis.rows - len(self.chosen[d]))}

    def inverse(self, d: int) -> QMatrix:
        """The inverse of ``bases[d]``: its row c holds the coordinates of
        the unit vector e_c."""
        inv = self._inverses.get(d)
        if inv is None:
            inv = self._inverses.setdefault(d, inverse(self.bases[d]))
        return inv

    def coords(self, d: int) -> QMatrix:
        """Row r holds the coordinates in ``bases[d]`` of relation r of
        degree d, a degree of M."""
        coords = self._coords.get(d)
        if coords is None:
            coords = self._coords.setdefault(d, self._products[d] * self.inverse(d))
        return coords


class ModuleMap:
    """A homogeneous map of graded modules, given by one block per degree.

    A block at d maps the source degree-d component to the target component
    in degree d + degree.
    """

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source: GradedModule, target: GradedModule, degree: int, blocks):
        self.source = source
        self.target = target
        self.degree = int(degree)
        blks: dict[int, QMatrix] = {}
        for d, mat in blocks.items():
            d = int(d)
            if mat.rows != target.dim_at(d + self.degree) or mat.cols != source.dim_at(d):
                raise ValueError(f"map block at degree {d} has wrong shape")
            if not mat.is_zero():
                blks[d] = mat
        self.blocks = blks

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule, degree: int) -> "ModuleMap":
        return cls(source, target, degree, {})

    @classmethod
    def identity(cls, module: GradedModule) -> "ModuleMap":
        return cls(
            module,
            module,
            0,
            {d: QMatrix.identity(module.dim_at(d)) for d in module.degrees()},
        )

    def block(self, d: int) -> QMatrix:
        mat = self.blocks.get(d)
        if mat is None:
            return QMatrix.zero(self.target.dim_at(d + self.degree), self.source.dim_at(d))
        return mat

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def __hash__(self):
        raise TypeError("ModuleMap is unhashable")

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.degree != other.degree or self.source is not other.source or self.target is not other.target:
            raise ValueError("incompatible maps in addition")
        blocks = {}
        for d in set(self.blocks) | set(other.blocks):
            blocks[d] = self.block(d) + other.block(d)
        return ModuleMap(self.source, self.target, self.degree, blocks)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(
            self.source, self.target, self.degree, {d: m.scale(c) for d, m in self.blocks.items()}
        )

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other; only degrees where both maps have a block are
        multiplied, and the constructor drops products that vanish."""
        if other.target is not self.source:
            raise ValueError("maps are not composable")
        blocks = {}
        for d in other.source.degrees():
            inner = other.blocks.get(d)
            outer = self.blocks.get(d + other.degree)
            if inner is not None and outer is not None:
                blocks[d] = outer * inner
        return ModuleMap(other.source, self.target, self.degree + other.degree, blocks)

    def to_total(self) -> QMatrix:
        """The map as a single matrix on totalised bases (degree ascending)."""
        t_off, s_off = self.target.total_offsets(), self.source.total_offsets()
        return place_blocks(
            self.target.total_dim(),
            self.source.total_dim(),
            ((t_off[d + self.degree], s_off[d], blk) for d, blk in self.blocks.items()),
        )

    def flatten(self) -> dict:
        """The nonzero entries of :meth:`to_total` keyed as
        :func:`~soergelkit.linalg.flatten` keys them, written straight from
        the blocks: entry (r, c) of the block at d is kept at
        (t_off[d + degree] + r) * cols + s_off[d] + c, with cols the total
        source dimension."""
        t_off, s_off = self.target.total_offsets(), self.source.total_offsets()
        cols = self.source.total_dim()
        out = {}
        for d, blk in self.blocks.items():
            s0 = s_off[d]
            for r, row in enumerate(blk.nonzeros, t_off[d + self.degree]):
                base = r * cols + s0
                for c, x in row.items():
                    out[base + c] = x
        return out


def trivial_module(ring: CoinvariantRing) -> GradedModule:
    """The one-dimensional module in degree 0 with all variables acting by 0."""
    return GradedModule(ring, {0: 1}, {})


def check_hom_size(M: GradedModule, N: GradedModule, degree: int) -> None:
    """Refuse Hom^degree(M, N) when its blocks M_a -> N_{a+degree} hold
    more entries than the cap, as a Hom system in that many unknowns."""
    check_size("Hom system in {} unknowns", sum(M.dim_at(a) * N.dim_at(a + degree) for a in M.degrees()))


def _hom_system(M: GradedModule, N: GradedModule, degree: int) -> tuple[int, dict[int, list[dict]], list[dict]]:
    """The Hom^degree(M, N) system on generator images: the number of
    unknowns, the packed image of every row of ``bases[d]`` by degree, and
    the equations, one {unknown: value} dict each.

    The unknowns are the images of the generators, dim N_{d+degree} for a
    generator in degree d.  The image of a chosen product x_i b is x_i
    applied to the image of b, so every image is linear in the unknowns:
    while they are built, an image is packed into one dict that holds the
    coefficient of unknown u in coordinate r at r * width + u, width being
    the number of unknowns.  Each relation gives dim N_{d+degree}
    equations.  M and N must be modules, over one ring, and the size of
    the block system of :func:`hom_graded` is checked against the cap
    first.
    """
    if M.ring is not N.ring:
        raise ValueError("Hom between modules over different rings")
    check_hom_size(M, N, degree)
    pres = M.presentation()
    # generator g of degree d has the unknowns first[d][g] + r, r < dim N_{d+degree}
    first, width = {}, 0
    for d, gens in pres.generators().items():
        nd = N.dim_at(d + degree)
        first[d] = [width + g * nd for g in range(gens)]
        width += gens * nd
    images, equations = {}, []
    if not width:
        return width, images, equations
    for d, relations in pres.relations.items():
        nd = N.dim_at(d + degree)
        if not nd:
            continue
        below = images.get(d - 2)
        candidates = []
        for i in range(1, M.ring.n):
            act = N.actions.get((i, d - 2 + degree))
            if below is None or act is None:
                candidates += [{}] * M.dim_at(d - 2)
            else:
                columns = _columns(act)
                candidates += [_times(columns, image, width) for image in below]
        if d in pres.bases:
            gens = [{r * width + u + r: 1 for r in range(nd)} for u in first.get(d, ())]
            images[d] = image = [candidates[c] for c in pres.chosen[d]] + gens
            sums = [
                combine([(1, candidates[c]), *((-x, image[j]) for j, x in row.items())])
                for c, row in zip(relations, pres.coords(d).nonzeros)
            ]
        else:
            sums = [candidates[c] for c in relations]
        for packed in sums:
            split = [{} for _ in range(nd)]
            for col, x in packed.items():
                r, u = divmod(col, width)
                split[r][u] = x
            equations += split
    return width, images, equations


def hom_images(M: GradedModule, N: GradedModule, degree: int) -> list[dict[int, QMatrix]]:
    """A basis of the degree-``degree`` maps M -> N, each given by its
    images of the basis of M's :class:`Presentation`: the block at d, kept
    where it is nonzero, is the dim M_d x dim N_{d+degree} matrix whose row
    j is the image of row j of ``bases[d]``.

    The kernel of the system of :func:`_hom_system` is solved and each
    kernel vector is substituted into the packed images.  As in
    :func:`hom_graded`, M and N must be modules.
    """
    width, images, equations = _hom_system(M, N, degree)
    if not width:
        return []
    vecs = kernel_basis(SparseSystem.of(width, equations))
    # solution s at unknown u is by_unknown[u][s]
    by_unknown = [{} for _ in range(width)]
    for s, vec in enumerate(vecs):
        for u, x in vec.items():
            by_unknown[u][s] = x
    maps = [{} for _ in vecs]
    for d, image in images.items():
        blocks = [[{} for _ in image] for _ in vecs]
        for j, packed in enumerate(image):
            acc = {}
            for col, x in packed.items():
                r, u = divmod(col, width)
                for s, y in by_unknown[u].items():
                    acc[s, r] = acc[s, r] + x * y if (s, r) in acc else x * y
            for (s, r), x in acc.items():
                if x:
                    blocks[s][j][r] = x if type(x) is int else exact(x)
        for f, rows in zip(maps, blocks):
            if any(rows):
                f[d] = QMatrix(len(rows), N.dim_at(d + degree), rows)
    return maps


def hom_graded(M: GradedModule, N: GradedModule, degree: int) -> list[ModuleMap]:
    """A basis of the degree-``degree`` maps commuting with all actions.

    Only x_1 .. x_{n-1} give equations.  M and N must be modules, i.e.
    validated or derived from validated modules, as every module the
    library builds is: e_1 acts by 0 on both, so x_n = -(x_1 + .. +
    x_{n-1}) on both sides and a map commuting with the others commutes
    with x_n.

    The maps are solved on generator images (:func:`hom_images`) and then
    written as blocks f_a : M_a -> N_{a+degree}, whose entries, block by
    block in ascending a and row by row, form one vector per map.  The
    basis returned is the reduced echelon basis of those vectors in
    reversed entry order: each map is 1 at its last nonzero entry, where
    every other map is 0.  That basis is unique for the space, and it is
    the one that :func:`~soergelkit.linalg.kernel_basis` returns for the
    system with one unknown per block entry.
    """
    maps = hom_images(M, N, degree)
    if not maps:
        return []
    pres = M.presentation()
    offsets, count = {}, 0
    for a in M.degrees():
        offsets[a] = count
        count += N.dim_at(a + degree) * M.dims[a]
    # each map as one vector, entry k of the layout kept at last - k
    last = count - 1
    reversed_vecs = []
    for images in maps:
        vec = {}
        for a, img in images.items():
            # row c of inverse * images is column c of the block f_a
            base, cols = last - offsets[a], M.dims[a]
            for c, row in enumerate((pres.inverse(a) * img).nonzeros):
                for r, x in row.items():
                    vec[base - r * cols - c] = x
        reversed_vecs.append(vec)
    echelon = rref(QMatrix(len(maps), count, reversed_vecs)).matrix.nonzeros[: len(maps)]
    degrees, starts = list(offsets), list(offsets.values())
    out = []
    for row in reversed(echelon):
        rows = {}
        for k, x in row.items():
            k = last - k
            a = degrees[bisect_right(starts, k) - 1]
            r, c = divmod(k - offsets[a], M.dims[a])
            if a not in rows:
                rows[a] = [{} for _ in range(N.dim_at(a + degree))]
            rows[a][r][c] = x
        blocks = {a: QMatrix(len(rows[a]), M.dims[a], rows[a]) for a in degrees if a in rows}
        out.append(ModuleMap(M, N, degree, blocks))
    return out


def hom_dim(M: GradedModule, N: GradedModule, degree: int) -> int:
    """The dimension of Hom^degree(M, N): the unknowns of the system of
    :func:`_hom_system` less its rank.

    The rank stops at the pivots, with no back-substitution, and no kernel
    vector, image or map is formed.  It equals ``len(hom_graded(M, N,
    degree))``, which is its test oracle, and refuses what that refuses.
    """
    width, _, equations = _hom_system(M, N, degree)
    return width - rank(SparseSystem.of(width, equations)) if width else 0


def hom_degree_range(M: GradedModule, N: GradedModule) -> range:
    """Degrees at which a graded map could be nonzero."""
    if not M.dims or not N.dims:
        return range(0)
    lo = min(N.degrees()) - max(M.degrees())
    hi = max(N.degrees()) - min(M.degrees())
    return range(lo, hi + 1)


def graded_hom_poly(M: GradedModule, N: GradedModule) -> LaurentPoly:
    """Graded dimension of Hom(M, N) as a Laurent polynomial in v, counted
    degree by degree with :func:`hom_dim`."""
    return LaurentPoly({d: hom_dim(M, N, d) for d in hom_degree_range(M, N)})


def hom_ungraded_dim(M: GradedModule, N: GradedModule) -> int:
    """Dimension of all module maps with no degree restriction.

    Solved on totalised bases as an independent route; the graded count
    must agree with this by the degrading principle.  As in
    :func:`hom_graded`, M and N must be modules, and the x_n equations,
    which follow from the others, are left out.
    """
    if M.ring is not N.ring:
        raise ValueError("Hom between modules over different rings")
    system = hom_equations(
        N.total_dim() * M.total_dim(),
        ((N.total_action(i), 0, M.total_action(i), 0, 1) for i in range(1, M.ring.n)),
    )
    return len(kernel_basis(system))


def kernel_module(*maps: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """The common kernel of module maps out of one source, the kernel of
    their blocks stacked degree by degree, with its inclusion map.

    The kernel is a submodule of the source; its action blocks are read off
    the kernel bases, which is exact and raises if a map was not actually a
    module map.  A degree where no map has a block is kept whole, with no
    elimination (see :func:`~soergelkit.linalg.restrict_to_kernels`).
    """
    M = maps[0].source
    if any(f.source is not M for f in maps):
        raise ValueError("common kernel of maps out of different sources")
    stacks = {d: [row for f in maps for row in f.block(d).nonzeros] for d in M.degrees()}
    inclusions, actions = restrict_to_kernels(
        {d: QMatrix(len(rows), M.dims[d], rows) for d, rows in stacks.items()},
        (((i, d), d, d + 2, mat) for (i, d), mat in M.actions.items()),
    )
    K = GradedModule(M.ring, {d: inc.cols for d, inc in inclusions.items()}, actions, validate=False)
    return K, ModuleMap(K, M, 0, inclusions)
