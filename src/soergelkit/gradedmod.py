"""Finite-dimensional graded modules over the coinvariant algebra.

A module is a graded vector space together with one matrix per variable
mapping each degree-d component to the degree-(d+2) component.  The
matrices must commute pairwise and every elementary symmetric polynomial of
them must vanish, which is exactly what makes the space a module over the
quotient ring; :meth:`GradedModule.validate` checks both (commutation
among x_1 .. x_{n-1}, which with e_1 = 0 gives the rest) and module
constructors run it, so a broken construction never propagates.  It checks
them exactly in every degree, each commutator and each e_k accumulated row
by row from the stored rows of the action blocks
(:func:`~soergelkit.linalg.sum_of_products`), with no product or sum
matrix formed.

A graded Hom space is solved on generator images: a module map is fixed
by its values on generators, so each module keeps a
:class:`Presentation`, a basis of every degree made of products x_i b of
basis vectors one degree down, completed by unit vectors (the
generators), and the other products as relations.  Most relations follow
from lower ones, and the presentation also marks the few that generate
the relation module, found once in the free module on the generators.
The unknowns are the images of the generators and only those kept
relations give equations; the others are linear combinations of them, so
the solutions are the same.  :func:`hom_generator_images` returns the
maps as those generator images, which fix each map and generate its
image, and :func:`hom_images` carries them up to the whole presentation
basis.
:func:`hom_graded` writes the maps as blocks and returns the reduced
echelon basis that a solve with one unknown per block entry would.  A
dimension needs no basis: :func:`hom_dim` is the number of unknowns less
the rank of the same system, found with no back-substitution and no map,
and :func:`graded_hom_poly` counts with it degree by degree;
``len(hom_graded(...))`` is its test oracle.  The ungraded Hom dimension
is computed by an independent solve of the unrestricted block system,
which gives the degrading comparison a second route rather than summing
the graded answer by construction.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, combinations

from .coinvariant import CoinvariantRing
from .laurent import LaurentPoly
from .linalg import (
    QMatrix,
    RowSpan,
    SparseSystem,
    check_dims,
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
    sum_of_products,
)

_PRESENTATION_LOCK = threading.Lock()


class GradedModule:
    """A graded module over the coinvariant algebra of rank n.

    ``validate``, the default, checks the degrees and dimensions (ints, none
    negative) and the module axioms.  The module keeps, built on first use,
    its :class:`Presentation` and the columns of its action blocks."""

    __slots__ = ("ring", "dims", "actions", "_degrees", "_offsets", "_presentation", "_columns")

    def __init__(self, ring: CoinvariantRing, dims, actions, validate: bool = True):
        if validate:
            check_dims(dims, "degree", (d for _, d in actions))
        self.ring = ring
        self.dims = {int(d): int(m) for d, m in dims.items() if m}
        self._degrees = tuple(sorted(self.dims))
        self._offsets = dict(zip(self._degrees, accumulate((self.dims[d] for d in self._degrees), initial=0)))
        acts: dict[tuple[int, int], QMatrix] = {}
        dim = self.dims.get
        for (i, d), mat in actions.items():
            if not 1 <= i <= ring.n:
                raise ValueError(f"x_{i} is not a variable at rank {ring.n}")
            if mat.rows != dim(d + 2, 0) or mat.cols != dim(d, 0):
                raise ValueError(f"action block for x_{i} at degree {d} has wrong shape")
            if not mat.is_zero():
                acts[(int(i), int(d))] = mat
        self.actions = acts
        self._presentation, self._columns = None, {}
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

    def columns(self, i: int, d: int) -> list[dict] | None:
        """The columns of x_i from degree d, the stored rows of the block's
        transpose, or None where there is no block; built on first read and
        kept, so that readers, concurrent ones too, all get the one kept."""
        cols = self._columns.get((i, d))
        if cols is None and (i, d) in self.actions:
            cols = self._columns.setdefault((i, d), self.actions[i, d].transpose().nonzeros)
        return cols

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
        x_n does not commute is still rejected, by its e_1.  Each
        commutator, and each e_k one variable at a time, is accumulated row
        by row from the stored rows of the action blocks by
        :func:`~soergelkit.linalg.sum_of_products`, so no product or sum
        matrix is formed; an absent action block is zero, and a product
        with one is left out.  The first pair that fails to commute is
        reported at its lowest degree, else the smallest (k, degree) where
        e_k does not vanish.
        """
        n = self.ring.n
        x = [{} for _ in range(n + 1)]  # x[i][d]: the rows of x_i from degree d
        for (i, d), mat in self.actions.items():
            x[i][d] = mat.nonzeros
        for i, j in combinations(range(1, n), 2):
            xi, xj = x[i].get, x[j].get
            for d in self.degrees():
                upper_i, lower_j, upper_j, lower_i = xi(d + 2), xj(d), xj(d + 2), xi(d)
                terms = [(1, upper_i, lower_j)] if upper_i and lower_j else []
                if upper_j and lower_i:
                    terms.append((-1, upper_j, lower_i))
                if terms and any(sum_of_products(len(terms[0][1]), terms)):
                    raise AssertionError(f"actions of x_{i} and x_{j} do not commute at degree {d}")
        # Into each degree ``top``, one variable at a time: e_k(x_1..x_i) =
        # e_k(x_1..x_{i-1}) + e_{k-1}(x_1..x_{i-1}) x_i, where e[k] holds the
        # rows of e_k from degree top - 2k and None is zero.  x_i is taken on
        # the right: the order of the factors does not matter once e_1
        # vanishes, and e_1 is a sum, so the first failure is the same
        # either way.
        failures = []
        for top in self.degrees():
            rows = self.dims[top]
            e: list[list[dict] | None] = [None] * (n + 1)
            for i in range(1, n + 1):
                xi = x[i].get
                for k in range(i, 0, -1):
                    step = xi(top - 2 * k)
                    if step is None or k > 1 and e[k - 1] is None:
                        continue
                    term = (1, step, None) if k == 1 else (1, e[k - 1], step)
                    e[k] = sum_of_products(rows, [term], e[k])
            failures += [(k, top - 2 * k) for k in range(1, n + 1) if e[k] is not None and any(e[k])]
        if failures:
            k, d = min(failures)
            raise AssertionError(f"e_{k} of the actions does not vanish at degree {d}")


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


@lru_cache(maxsize=None)
def _ring_actions(ring: CoinvariantRing) -> tuple[tuple[list[dict], ...], dict[int, list[int]]]:
    """The columns of x_1 .. x_{n-1} acting on the ring by multiplication,
    column b being x_i times basis element b as a {basis index: value}
    dict, and the basis indices of each degree."""
    columns = tuple(
        [(ring.variable(i) * ring.basis_element(b)).coords for b in range(ring.dim)] for i in range(1, ring.n)
    )
    by_degree = {}
    for b in range(ring.dim):
        by_degree.setdefault(ring.basis_degree(b), []).append(b)
    return columns, by_degree


class Presentation:
    """Generators and relations of a graded module M, degree by degree.

    The candidates in degree d are the products x_i b, i < n, of the rows b
    of ``bases[d - 2]``, numbered i-major: candidate (i - 1) dim M_{d-2} + t
    is x_i times row t, read off :meth:`GradedModule.columns`.  x_n is left
    out, since it acts as -(x_1 + .. + x_{n-1}) on every module.
    ``bases[d]`` holds a basis of M_d, one
    vector per row: first the candidates ``chosen[d]`` that raise the rank,
    in order, then the unit vectors that complete them, which are the
    generators.  Every other candidate is a relation; the degrees just
    above those of M have relations only, since every product vanishes
    there.

    ``kept[d]`` lists the relations that generate the relation module.
    Each row of ``bases[d]`` lifts to the free module F on the generators:
    a generator to itself and a chosen product x_i b to x_i times the lift
    of b, so every lift is a monomial times a generator.  A relation x_i b
    = sum_j c_j b_j lifts to k_r = x_i lift(b) - sum_j c_j lift(b_j) in K =
    ker(F -> M).  In degree d a relation is kept when it raises the span of
    the products x_i k, k in K_{d-2}, i < n, and of the relations kept
    before it; the pass stops once the span is all of K_d, of dimension
    dim F_d - dim M_d.  The kept relations of a degree number dim
    Tor_1(M, Q)_d, whatever the order.  A map from M is a map from F that
    kills K, and f(x_i k) = x_i f(k), so the kept relations give every
    equation a Hom system needs.

    Only the relations x_i b with i at most the label of b are tried, the
    label of a chosen product x_j b' being j and that of a generator n - 1.
    For i > j, x_i x_j b' = x_j (x_i b'), and writing x_i b' in the basis
    one degree down puts k_r in the span of the products x_j k and of the
    candidates x_j b'', whose multiplier j is smaller; repeating, the
    multiplier falls until it is at most the label.  The basis of K_{d-2}
    is labelled the same way, a kept k_r by n - 1, and for the same reason
    the products x_i k with i at most the label of k span x K_{d-2}.  The
    inverse of a basis and the coordinates of the kept relations in it
    are found when first asked for: while the presentation is built in a
    degree with kept relations, and otherwise when a Hom system reads
    them.
    """

    __slots__ = ("bases", "chosen", "kept", "_generators", "_products", "_inverses", "_coords")

    def __init__(self, M: GradedModule):
        self.bases, self.chosen, self.kept, self._generators = {}, {}, {}, {}
        self._products, self._inverses, self._coords = {}, {}, {}
        ring_columns, ring_degrees = _ring_actions(M.ring)
        (one,) = M.ring.one().coords
        # an element of F is a dict: the coefficient of basis element b of
        # the ring times generator g is kept at b * width + g
        n, width, generators = M.ring.n, M.total_dim(), []
        lifts, labels, kernels = {}, {}, {}
        for d in sorted({*M.degrees(), *(e + 2 for e in M.degrees())}):
            m, below = M.dim_at(d), self.bases.get(d - 2)
            count, lifts_below = M.dim_at(d - 2), lifts.get(d - 2, ())

            def lift(c):
                i, t = divmod(c, count)
                return _times(ring_columns[i], lifts_below[t], width)

            def product(c):
                i, t = divmod(c, count)
                columns = M.columns(i + 1, d - 2)
                return _times(columns, below.nonzeros[t], 1) if columns else {}

            chosen, units = [], []
            if m:
                span, rows = RowSpan(m), []
                for c in range((n - 1) * count):
                    if span.rank == m:
                        break
                    row = product(c)
                    if span.raises(row):
                        chosen.append(c)
                        rows.append(row)
                identity = QMatrix.identity(m)
                units = [identity.nonzeros[u] for u in span.independent(identity)]
                self.bases[d] = QMatrix(m, m, rows + units)
                self.chosen[d] = tuple(chosen)
                if units:
                    self._generators[d] = len(units)
            first = len(generators)
            lifts[d] = [lift(c) for c in chosen] + [{one * width + g: 1} for g in range(first, first + len(units))]
            labels[d] = [c // count + 1 for c in chosen] + [n - 1] * len(units)
            generators += [d] * len(units)
            # a basis of K_d, of dimension dim F_d - m: the products x_i k
            # that raise the rank, k in the basis of K_{d-2} and i up to the
            # label of k, then the kept k_r.  Where M is 0 in degrees d - 2
            # and d - 4, K_{d-2} is all of F_{d-2}.
            full = sum(len(ring_degrees.get(d - e, ())) for e in generators)
            below_kernel = kernels.get(d - 2)
            if below_kernel is None:
                below_kernel = [
                    ({b * width + g: 1}, n - 1)
                    for g, e in enumerate(generators)
                    for b in ring_degrees.get(d - 2 - e, ())
                ]
            products = (
                (_times(ring_columns[i], k, width), i + 1)
                for i in range(n - 1)
                for k, label in below_kernel
                if i < label
            )
            span, kernel, kept = RowSpan(M.ring.dim * width), [], []
            for row, label in products:
                if span.rank == full - m:
                    break
                if span.raises(row):
                    kernel.append((row, label))
            if span.rank < full - m:
                # a relation raises the span of the products and the lifted
                # basis of M_d exactly when its k_r raises the span of the
                # products; only x_i b with i up to the label of b is tried
                for row in lifts[d]:
                    span.raises(row)
                labels_below, taken = labels[d - 2], set(chosen)
                for c in range((n - 1) * count):
                    if span.rank == full:
                        break
                    if c not in taken and c // count < labels_below[c % count] and span.raises(lift(c)):
                        kept.append(c)
            self.kept[d] = tuple(kept)
            if kept and m:
                self._products[d] = QMatrix(len(kept), m, [product(c) for c in kept])
                lifted = lifts[d]
                kernel += [
                    (combine([(1, lift(c)), *((-x, lifted[j]) for j, x in row.items())]), n - 1)
                    for c, row in zip(kept, self.coords(d).nonzeros)
                ]
            else:
                kernel += [(lift(c), n - 1) for c in kept]
            kernels[d] = kernel

    def generators(self) -> dict[int, int]:
        """The number of generators in each degree that has one, counted at the build."""
        return self._generators

    def inverse(self, d: int) -> QMatrix:
        """The inverse of ``bases[d]``: its row c holds the coordinates of
        the unit vector e_c."""
        inv = self._inverses.get(d)
        if inv is None:
            inv = self._inverses.setdefault(d, inverse(self.bases[d]))
        return inv

    def coords(self, d: int) -> QMatrix:
        """Row r holds the coordinates in ``bases[d]`` of kept relation r of
        degree d, a degree of M with kept relations."""
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

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        """The sum of two maps of one Hom space: one source, one target and
        one degree; raises ValueError for any other pair."""
        if other.source is not self.source or other.target is not self.target or other.degree != self.degree:
            raise ValueError("maps are not in one Hom space")
        blocks = dict(self.blocks)
        for d, blk in other.blocks.items():
            blocks[d] = blocks[d] + blk if d in blocks else blk
        return ModuleMap(self.source, self.target, self.degree, blocks)

    def flatten(self) -> dict:
        """The nonzero entries of the map as one vector, the layout of
        every Hom-space coordinate: entry (r, c) of the block at d is kept
        at (t_off[d + degree] + r) * cols + s_off[d] + c, t_off and s_off
        the totalised offsets and cols the total source dimension."""
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


def check_hom_size(M: GradedModule, N: GradedModule, degree: int, blocks: bool = False) -> int:
    """The size of what a Hom^degree(M, N) routine builds, refused over the
    cap by a message naming it: the unknowns of :func:`_hom_system`, dim
    N_{d+degree} per generator of M in degree d, or with ``blocks`` the
    entries of the blocks M_a -> N_{a+degree} that :func:`hom_images` writes."""
    if blocks:
        size = sum(M.dim_at(a) * N.dim_at(a + degree) for a in M.degrees())
    else:
        size = sum(g * N.dim_at(d + degree) for d, g in M.presentation().generators().items())
    check_size("Hom map of {} block entries" if blocks else "Hom system in {} generator-image unknowns", size)
    return size


class _Images:
    """The images, under maps of degree ``degree`` into N, of the rows of
    the bases of a presentation, each built when first read and packed as
    :func:`_times` packs: coordinate r at column c is kept at r * width +
    c.  ``generator(d, g)`` gives the packed image of generator g of degree
    d; the image of a chosen product x_i b is x_i applied to the image of
    b, through the columns N keeps (:meth:`GradedModule.columns`)."""

    __slots__ = ("pres", "N", "degree", "width", "generator", "_rows")

    def __init__(self, pres: Presentation, N: GradedModule, degree: int, width: int, generator):
        self.pres, self.N, self.degree, self.width, self.generator = pres, N, degree, width, generator
        self._rows = {}

    def product(self, c: int, d: int) -> dict:
        """The image of candidate c of degree d, x_i times a row of
        ``bases[d - 2]``."""
        i, t = divmod(c, self.pres.bases[d - 2].rows)
        columns = self.N.columns(i + 1, d - 2 + self.degree)
        return _times(columns, self.image(d - 2, t), self.width) if columns else {}

    def image(self, d: int, j: int) -> dict:
        """The image of row j of ``bases[d]``."""
        image = self._rows.get((d, j))
        if image is None:
            chosen = self.pres.chosen[d]
            image = self.product(chosen[j], d) if j < len(chosen) else self.generator(d, j - len(chosen))
            self._rows[d, j] = image
        return image


def _hom_system(M: GradedModule, N: GradedModule, degree: int) -> tuple[dict[int, list[int]], int, list[dict]]:
    """The Hom^degree(M, N) system on generator images: the first unknown
    of each generator by degree (where N_{d+degree} is nonzero), the
    number of unknowns, and the equations, one {unknown: value} dict each.

    The unknowns are the images of the generators, dim N_{d+degree} for a
    generator in degree d.  Every image of a row of a basis is linear in
    them, and is packed (:class:`_Images`) with one column per unknown.
    Each kept relation x_i b = sum_j c_j b_j of degree d gives the dim
    N_{d+degree} equations x_i f(b) - sum_j c_j f(b_j), which read only
    the images of b and of the b_j; the other relations follow from them.
    M and N must be modules, over one ring, and the unknowns are capped
    (:func:`check_hom_size`) before any image or equation is formed.
    """
    if M.ring is not N.ring:
        raise ValueError("Hom between modules over different rings")
    check_hom_size(M, N, degree)
    pres = M.presentation()
    # generator g of degree d, N_{d+degree} nonzero, has the unknowns first[d][g] + r, r < dim N_{d+degree}
    first, width = {}, 0
    for d, gens in pres.generators().items():
        if nd := N.dim_at(d + degree):
            first[d] = [width + g * nd for g in range(gens)]
            width += gens * nd
    equations = []
    if not width:
        return first, width, equations
    images = _Images(
        pres, N, degree, width, lambda d, g: {r * width + first[d][g] + r: 1 for r in range(N.dim_at(d + degree))}
    )
    for d, kept in pres.kept.items():
        nd = N.dim_at(d + degree)
        if not nd or not kept:
            continue
        if d in pres.bases:
            sums = [
                combine([(1, images.product(c, d)), *((-x, images.image(d, j)) for j, x in row.items())])
                for c, row in zip(kept, pres.coords(d).nonzeros)
            ]
        else:
            sums = [images.product(c, d) for c in kept]
        for packed in sums:
            split = [{} for _ in range(nd)]
            for col, x in packed.items():
                r, u = divmod(col, width)
                split[r][u] = x
            equations += split
    return first, width, equations


def hom_generator_images(M: GradedModule, N: GradedModule, degree: int) -> list[dict[int, list[dict]]]:
    """A basis of the degree-``degree`` maps M -> N, each given by its
    images of the generators of M's :class:`Presentation` alone: at each
    degree d of generators where N_{d+degree} is nonzero, the list whose
    entry g is the image of generator g, a vector of N_{d+degree} as a
    {row: value} dict of its nonzero entries.

    They are the kernel vectors of the system of :func:`_hom_system`, read
    off its layout: the unknown first[d][g] + r is row r of the image of
    generator g.  A map is fixed by these images, and the image of the map
    is the submodule they generate.  As in :func:`hom_graded`, M and N
    must be modules.
    """
    first, width, equations = _hom_system(M, N, degree)
    if not width:
        return []
    vecs = kernel_basis(SparseSystem.of(width, equations))
    # unknown u is row r of the image of generator g of degree d at owner[u] = (d, g, r)
    owner = [None] * width
    for d, starts in first.items():
        nd = N.dim_at(d + degree)
        for g, u in enumerate(starts):
            owner[u : u + nd] = [(d, g, r) for r in range(nd)]
    maps = []
    for vec in vecs:
        images = {d: [{} for _ in starts] for d, starts in first.items()}
        for u, x in vec.items():
            d, g, r = owner[u]
            images[d][g][r] = x
        maps.append(images)
    return maps


def hom_images(M: GradedModule, N: GradedModule, degree: int) -> list[dict[int, QMatrix]]:
    """A basis of the degree-``degree`` maps M -> N, each given by its
    images of the basis of M's :class:`Presentation`: the block at d, kept
    where it is nonzero, is the dim M_d x dim N_{d+degree} matrix whose row
    j is the image of row j of ``bases[d]``.

    The generator images come from :func:`hom_generator_images`, the one
    solve; they are then carried up through the chosen products, packed
    with one column per map, so each x_i is applied once for all the maps.
    As in :func:`hom_graded`, M and N must be modules.
    """
    check_hom_size(M, N, degree, blocks=True)
    generators = hom_generator_images(M, N, degree)
    if not generators:
        return []
    count = len(generators)

    def generator(d, g):
        packed = {r * count + s: x for s, images in enumerate(generators) for r, x in images[d][g].items()}
        return dict(sorted(packed.items()))

    images = _Images(M.presentation(), N, degree, count, generator)
    maps = [{} for _ in generators]
    for d, basis in images.pres.bases.items():
        nd = N.dim_at(d + degree)
        if not nd:
            continue
        blocks = [[{} for _ in range(basis.rows)] for _ in generators]
        for j in range(basis.rows):
            for col, x in images.image(d, j).items():
                r, s = divmod(col, count)
                blocks[s][j][r] = x
        for f, rows in zip(maps, blocks):
            if any(rows):
                f[d] = QMatrix(len(rows), nd, rows)
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
    pres, degrees = M.presentation(), M.degrees()
    starts = list(accumulate((N.dim_at(a + degree) * M.dims[a] for a in degrees), initial=0))
    offsets, count = dict(zip(degrees, starts)), starts[-1]
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

    The system holds the equations of the kept relations only, so it
    forms only the images of the basis rows that those relations read,
    through the chosen products: none for a module with no kept relation,
    such as a free one.  The rank stops at the pivots, with no
    back-substitution, and no kernel vector or map is formed.  It equals
    ``len(hom_graded(M, N, degree))``, which is its test oracle, but is
    refused only by its unknowns, so never in a degree with none.
    """
    _, width, equations = _hom_system(M, N, degree)
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
    elimination (see :func:`~soergelkit.linalg.restrict_to_kernels`), and
    a block out of it reads the columns the source keeps, if it has them.
    """
    if not maps:
        raise ValueError("the common kernel of no maps has no source")
    M = maps[0].source
    if any(f.source is not M for f in maps):
        raise ValueError("common kernel of maps out of different sources")
    stacks = {d: [row for f in maps for row in f.block(d).nonzeros] for d in M.degrees()}
    inclusions, actions = restrict_to_kernels(
        {d: QMatrix(len(rows), M.dims[d], rows) for d, rows in stacks.items()},
        (((i, d), d, d + 2, mat) for (i, d), mat in M.actions.items()),
        M._columns,
    )
    K = GradedModule(M.ring, {d: inc.cols for d, inc in inclusions.items()}, actions, validate=False)
    return K, ModuleMap(K, M, 0, inclusions)
