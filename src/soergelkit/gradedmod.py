"""Finite-dimensional graded modules over the coinvariant algebra.

A module is a graded vector space together with one matrix per variable
mapping each degree-d component to the degree-(d+2) component.  The
matrices must commute pairwise and every elementary symmetric polynomial of
them must vanish, which is exactly what makes the space a module over the
quotient ring; :meth:`GradedModule.validate` checks both and module
constructors run it, so a broken construction never propagates.

Graded Hom spaces are computed degreewise by solving the commutation
equations exactly; the ungraded Hom dimension is computed by an independent
solve of the unrestricted system, which gives the degrading comparison a
second route rather than summing the graded answer by construction.
"""

from __future__ import annotations

from itertools import accumulate, combinations

from .coinvariant import CoinvariantRing
from .laurent import LaurentPoly
from .linalg import (
    QMatrix,
    hom_equations,
    kernel_basis,
    place_blocks,
    restrict_to_kernels,
)


class GradedModule:
    """A graded module over the coinvariant algebra of rank n."""

    __slots__ = ("ring", "dims", "actions", "_degrees", "_offsets")

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
        """Check commutation and the vanishing of e_k of the actions."""
        n = self.ring.n
        for i, j in combinations(range(1, n + 1), 2):
            for d in self.degrees():
                lhs = self.action(i, d + 2) * self.action(j, d)
                rhs = self.action(j, d + 2) * self.action(i, d)
                if lhs != rhs:
                    raise AssertionError(f"actions of x_{i} and x_{j} do not commute at degree {d}")
        # e_k(x_1..x_i) = e_k(x_1..x_{i-1}) + x_i e_{k-1}(x_1..x_{i-1}), one
        # variable at a time; e[k] maps degree d to degree d + 2k
        failures = []
        for d in self.degrees():
            e = [QMatrix.identity(self.dim_at(d))]
            e += [QMatrix.zero(self.dim_at(d + 2 * k), self.dim_at(d)) for k in range(1, n + 1)]
            for i in range(1, n + 1):
                for k in range(i, 0, -1):
                    step = self.actions.get((i, d + 2 * k - 2))
                    if step is not None:
                        e[k] = e[k] + step * e[k - 1]
            failures += [(k, d) for k in range(1, n + 1) if not e[k].is_zero()]
        if failures:
            k, d = min(failures)
            raise AssertionError(f"e_{k} of the actions does not vanish at degree {d}")


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


def hom_graded(M: GradedModule, N: GradedModule, degree: int) -> list[ModuleMap]:
    """A basis of the degree-``degree`` maps commuting with all actions.

    Only x_1 .. x_{n-1} give equations.  M and N must be modules, i.e.
    validated or derived from validated modules, as every module the
    library builds is: e_1 acts by 0 on both, so x_n = -(x_1 + .. +
    x_{n-1}) on both sides and a map commuting with the others commutes
    with x_n.
    """
    if M.ring is not N.ring:
        raise ValueError("Hom between modules over different rings")
    offsets = {}
    count = 0
    for a in M.degrees():
        offsets[a] = count
        count += N.dim_at(a + degree) * M.dim_at(a)
    # f_a : M_a -> N_{a+degree} commutes with x_i: x_i f_a - f_{a+2} x_i = 0;
    # a degree with N_{a+degree+2} = 0, or where x_i acts by 0 on both sides,
    # has no equations, so its zero action blocks are never built
    system = hom_equations(
        count,
        (
            (N.action(i, a + degree), offsets[a], M.action(i, a), offsets.get(a + 2), 1)
            for i in range(1, M.ring.n)
            for a in M.degrees()
            if N.dim_at(a + degree + 2) and ((i, a + degree) in N.actions or (i, a) in M.actions)
        ),
    )
    # unknown offsets[a] + r * M.dim_at(a) + c is entry (r, c) of block a
    entry_of = [(a, r, c) for a in offsets for r in range(N.dim_at(a + degree)) for c in range(M.dim_at(a))]
    maps = []
    for vec in kernel_basis(system):
        rows = {a: [{} for _ in range(N.dim_at(a + degree))] for a in offsets}
        for k, x in vec.items():
            a, r, c = entry_of[k]
            rows[a][r][c] = x
        blocks = {a: QMatrix(len(block_rows), M.dim_at(a), block_rows) for a, block_rows in rows.items()}
        maps.append(ModuleMap(M, N, degree, blocks))
    return maps


def hom_degree_range(M: GradedModule, N: GradedModule) -> range:
    """Degrees at which a graded map could be nonzero."""
    if not M.dims or not N.dims:
        return range(0)
    lo = min(N.degrees()) - max(M.degrees())
    hi = max(N.degrees()) - min(M.degrees())
    return range(lo, hi + 1)


def graded_hom_poly(M: GradedModule, N: GradedModule) -> LaurentPoly:
    """Graded dimension of Hom(M, N) as a Laurent polynomial in v."""
    return LaurentPoly({d: len(hom_graded(M, N, d)) for d in hom_degree_range(M, N)})


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


def kernel_module(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """The kernel of a module map, with its inclusion map.

    The kernel of a map commuting with the actions is a submodule of its
    source; its action blocks are read off the kernel bases, which is exact
    and raises if the map was not actually a module map.  A degree where f
    has no block is kept whole, with no elimination (see
    :func:`~soergelkit.linalg.restrict_to_kernels`).
    """
    M = f.source
    inclusions, actions = restrict_to_kernels(
        {d: f.block(d) for d in M.degrees()},
        (((i, d), d, d + 2, mat) for (i, d), mat in M.actions.items()),
    )
    K = GradedModule(M.ring, {d: inc.cols for d, inc in inclusions.items()}, actions, validate=False)
    return K, ModuleMap(K, M, 0, inclusions)
