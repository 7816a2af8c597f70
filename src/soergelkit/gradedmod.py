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

from itertools import combinations

from .coinvariant import CoinvariantRing
from .laurent import LaurentPoly
from .linalg import (
    QMatrix,
    block_matrix,
    hom_equations,
    kernel_basis,
    place_blocks,
    restrict_to_kernels,
)
from .multipoly import MultiPoly


class GradedModule:
    """A graded module over the coinvariant algebra of rank n."""

    __slots__ = ("ring", "dims", "actions")

    def __init__(self, ring: CoinvariantRing, dims, actions, validate: bool = True):
        self.ring = ring
        self.dims = {int(d): int(m) for d, m in dims.items() if m}
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
        return tuple(sorted(self.dims))

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
        off = {}
        pos = 0
        for d in self.degrees():
            off[d] = pos
            pos += self.dims[d]
        return off

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
        actions = {}
        for i in range(1, self.ring.n + 1):
            for d in set(self.degrees()) | set(other.degrees()):
                a, b = self.action(i, d), other.action(i, d)
                if a.rows + b.rows == 0 or a.cols + b.cols == 0:
                    continue
                actions[(i, d)] = block_matrix(
                    [[a, QMatrix.zero(a.rows, b.cols)], [QMatrix.zero(b.rows, a.cols), b]]
                )
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

    def poly_action(self, p: MultiPoly) -> dict[int, QMatrix]:
        """Blocks of the action of a homogeneous polynomial, degree by degree.

        Well defined on the quotient because e_k of the actions vanishes.
        """
        parts = p.homogeneous_parts()
        if len(parts) > 1:
            raise ValueError("poly_action expects a homogeneous polynomial")
        if not parts:
            return {d: QMatrix.zero(self.dim_at(d), self.dim_at(d)) for d in self.degrees()}
        deg, part = next(iter(parts.items()))
        out = {}
        for d in self.degrees():
            rows = self.dim_at(d + 2 * deg)
            total = QMatrix.zero(rows, self.dim_at(d))
            for a, x in part.terms():
                prod = QMatrix.identity(self.dim_at(d))
                cur = d
                for i, e in enumerate(a, start=1):
                    for _ in range(e):
                        prod = self.action(i, cur) * prod
                        cur += 2
                total = total + prod.scale(x)
            out[d] = total
        return out


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

    def check_commutes(self) -> None:
        """Assert the map commutes with every variable action."""
        for i in range(1, self.source.ring.n + 1):
            for d in self.source.degrees():
                lhs = self.target.action(i, d + self.degree) * self.block(d)
                rhs = self.block(d + 2) * self.source.action(i, d)
                if lhs != rhs:
                    raise AssertionError(f"map fails to commute with x_{i} at degree {d}")

    def to_total(self) -> QMatrix:
        """The map as a single matrix on totalised bases (degree ascending)."""
        t_off, s_off = self.target.total_offsets(), self.source.total_offsets()
        return place_blocks(
            self.target.total_dim(),
            self.source.total_dim(),
            ((t_off[d + self.degree], s_off[d], blk) for d, blk in self.blocks.items()),
        )


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


def _kernel(e: ModuleMap):
    """The kernel module of e, its inclusion, and its basis in each degree."""
    if e.degree != 0 or e.source is not e.target:
        raise ValueError("kernel_module expects a degree-0 endomorphism")
    M = e.source
    bases, actions = restrict_to_kernels(
        {d: e.block(d) for d in M.degrees()},
        (((i, d), d, d + 2, mat) for (i, d), mat in M.actions.items()),
    )
    K = GradedModule(M.ring, {d: len(b.vectors) for d, b in bases.items()}, actions, validate=False)
    inclusion = ModuleMap(
        K, M, 0, {d: QMatrix.from_columns(b.dim, b.vectors) for d, b in bases.items()}
    )
    return K, inclusion, bases


def kernel_module(e: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """The kernel of a degree-0 endomorphism, with its inclusion map.

    The kernel of a map commuting with the actions is a submodule; its
    action blocks are read off the kernel bases, which is exact and raises
    if the map was not actually a module map.
    """
    K, inclusion, _ = _kernel(e)
    return K, inclusion


def kernel_module_with_projection(e: ModuleMap) -> tuple[GradedModule, ModuleMap, ModuleMap]:
    """Kernel of a degree-0 idempotent with inclusion and the projection
    along the image; the projection reads the coordinates of (1 - e) v off
    the kernel bases."""
    K, inclusion, bases = _kernel(e)
    blocks = {}
    for d, basis in bases.items():
        comp = (QMatrix.identity(basis.dim) - e.block(d)).transpose()
        blocks[d] = QMatrix.from_columns(K.dim_at(d), [basis.coords(col) for col in comp.nonzeros])
    return K, inclusion, ModuleMap(e.source, K, 0, blocks)
