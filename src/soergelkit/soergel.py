"""Bott-Samelson induction and indecomposable summands.

For a simple reflection s = s_i, induction sends a module M to the tensor
product of the coinvariant algebra C with M over the s-invariant
subalgebra, shifted one grading step down so that self-dual characters
stay self-dual.  C is free over its s-invariants with basis {1, x_i}
(Soergel 1990), so the tensor product is two copies of M, and the
variables act on it by 2x2 block matrices built from the actions on M;
see :meth:`SoergelCategory.induct`.  The result is validated as a module
over C, which is the evidence that the formulas are right.

Iterating induction along a word starting from the one-dimensional module
gives the Bott-Samelson module of the word.  The Hecke algebra predicts
the summands D_x[k] of a module, and ``decompose`` certifies a prediction
by an isomorphism from their direct sum, stacked from inclusions alone,
one Hom solve on the generators of D_x per predicted summand, visited by
descending shift.  Only the generator images enter the span, which starts
from C_+M, the products of the variables with M, so by graded Nakayama a
span that fills M proves the map onto; that order completes the stack
because Hom^d(D_x, D_y) is 0 for d < 0 and the scalars (y = x) or 0 for
d = 0.  Without a prediction, one is read off Hom counts by ascending
shift (:meth:`SoergelCategory._predict`) and certified the same way.
D_w follows the canonical-basis recursion (Soergel 2007; Elias and
Williamson 2014): with s the last letter of the canonical word of w and
u = ws, it is the common kernel of the degree-0 maps from the induction
of D_u along s to the summands of b_u b_s - b_w, certified by the same
stack, with its degree-0 endomorphisms counted as one dimension before
it is published.  Oracle and linear algebra verify each other; a
prediction that cannot be certified is a hard error.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .coinvariant import CoinvariantRing, coinvariant_ring
from .gradedmod import (
    GradedModule,
    ModuleMap,
    check_hom_size,
    graded_hom_poly,
    hom_degree_range,
    hom_dim,
    hom_generator_images,
    hom_graded,
    kernel_module,
    trivial_module,
)
from .hecke import HeckeAlgebra, HeckeElement, hecke_algebra
from .laurent import LaurentPoly
from .linalg import EchelonBasis, RowSpan, check_size, place_blocks
from .linalg import rref  # noqa: F401  benchmarks/test_harness.py traces this binding
from .weyl import Perm, Word, WeylGroup, format_perm, length, mult_right_simple, weyl_group


class DecompositionError(RuntimeError):
    """A predicted splitting could not be realised by exact linear algebra."""


class Decomposition:
    """Summands (w, k), each a copy of D_w with degrees lowered by k, in
    the order of the prediction that certified them."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(summands)

    def multiset(self) -> tuple[tuple[Perm, int], ...]:
        return tuple(sorted(self.summands, key=lambda t: (length(t[0]), t[0], t[1])))

    def __repr__(self) -> str:
        inner = ", ".join(f"(D[{format_perm(w)}], {k})" for w, k in self.multiset())
        return f"Decomposition[{inner}]"


def _scalar_of_endo(comp: ModuleMap, module: GradedModule) -> int | Fraction:
    """Read a degree-0 endomorphism as a scalar; raises when it is not one."""
    if comp.is_zero():
        return 0
    d0 = module.degrees()[0]
    c = comp.block(d0).entry(0, 0)
    if comp != ModuleMap.identity(module).scale(c):
        raise DecompositionError(
            "degree-0 endomorphism is not scalar; the summand is not indecomposable"
        )
    return c


class SoergelCategory:
    """Per-rank context: coinvariant ring, group, Hecke oracle, module caches."""

    def __init__(self, n: int):
        self.n = n
        self.group: WeylGroup = weyl_group(n)
        self.ring: CoinvariantRing = coinvariant_ring(n)
        self.hecke: HeckeAlgebra = hecke_algebra(n)
        self._bs: dict[Word, GradedModule] = {}
        self._indec: dict[Perm, GradedModule] = {}
        self._hom: dict[tuple[Perm, Perm, int], tuple[ModuleMap, ...]] = {}
        self._spaces: dict[tuple, tuple[tuple[ModuleMap, ...], EchelonBasis]] = {}

    # -- induction ----------------------------------------------------------

    def trivial(self) -> GradedModule:
        return trivial_module(self.ring)

    def induct(self, i: int, M: GradedModule) -> GradedModule:
        """C (x)_{C^s} M for s = s_i, shifted one step down.

        Before the shift, degree d holds 1 (x) M_d followed by x_i (x)
        M_{d-2}.  With E1 and E2 the actions of x_i + x_{i+1} and x_i
        x_{i+1} on M, the relation x_i^2 = E1 x_i - E2 gives x_i the blocks
        [[0, -E2], [I, E1]] and x_{i+1} = E1 - x_i the blocks [[E1, E2],
        [-I, 0]]; every other variable is invariant and acts diagonally.
        Each action from degree d to d + 2 is written in one
        :func:`~soergelkit.linalg.place_blocks` straight from M's stored
        rows: E1 is the overlap of the blocks of x_i and x_{i+1}, a sign
        negates a block, the identity is given by its size, and a row of M
        that lands alone at column 0 is shared, so E2, one product per
        degree, is the only block formed.  An action block that M does not
        hold is zero and is not placed, and an action with no block is left
        out.  Its rows are 1 (x) M_{d+2} then x_i (x) M_d, its columns 1 (x)
        M_d then x_i (x) M_{d-2}.  The module is built and validated at the
        shifted degrees d - 1 directly.
        """
        if M.ring is not self.ring:
            raise ValueError("module belongs to a different ring")
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"simple reflection index {i} out of range for rank {self.n}")
        check_size("induced module of dimension {}", 2 * M.total_dim())
        act, dim = M.actions.get, M.dims.get
        dims = {d: dim(d, 0) + dim(d - 2, 0) for e in M.degrees() for d in (e, e + 2)}
        actions = {}
        for d in dims:
            if d + 2 not in dims:
                continue
            r1, c1 = dim(d + 2, 0), dim(d, 0)
            a, b = act((i + 1, d)), act((i, d - 2))
            e2 = a * b if a is not None and b is not None else None
            for l in range(1, self.n + 1):
                if l == i:
                    blocks = [(0, c1, e2, -1), (r1, 0, c1), (r1, c1, b), (r1, c1, act((i + 1, d - 2)))]
                elif l == i + 1:
                    blocks = [(0, 0, act((i, d))), (0, 0, a), (0, c1, e2), (r1, 0, c1, -1)]
                else:
                    blocks = [(0, 0, act((l, d))), (r1, c1, act((l, d - 2)))]
                blocks = [blk for blk in blocks if blk[2]]  # no absent block, no empty identity
                if blocks:
                    actions[(l, d - 1)] = place_blocks(dims[d + 2], dims[d], blocks)
        # the degrees and dimensions are M's, so only the axioms are checked
        module = GradedModule(self.ring, {d - 1: m for d, m in dims.items()}, actions, validate=False)
        module.validate()
        return module

    def bott_samelson(self, word: Word) -> GradedModule:
        """Iterated induction along the word, starting from the trivial module."""
        word = tuple(word)
        cached = self._bs.get(word)
        if cached is not None:
            return cached
        if not word:
            module = self.trivial()
        else:
            module = self.induct(word[-1], self.bott_samelson(word[:-1]))
        return self._bs.setdefault(word, module)

    # -- Hom spaces -----------------------------------------------------------

    def hom_basis(self, x: Perm, y: Perm, degree: int) -> tuple[ModuleMap, ...]:
        """Cached basis of degree-``degree`` maps D_x -> D_y."""
        key = (x, y, degree)
        cached = self._hom.get(key)
        if cached is None:
            maps = tuple(hom_graded(self.indecomposable(x), self.indecomposable(y), degree))
            cached = self._hom.setdefault(key, maps)
        return cached

    def hom_space(self, x: Perm, y: Perm, degree: int | None = None):
        """The cached ``hom_basis`` maps D_x -> D_y of the given degree (of
        every degree when None) with the EchelonBasis of their flattenings
        (:meth:`~soergelkit.gradedmod.ModuleMap.flatten`), in which every
        map D_x -> D_y is read; cached per rank."""
        key = (x, y, degree)
        cached = self._spaces.get(key)
        if cached is None:
            dx, dy = self.indecomposable(x), self.indecomposable(y)
            degrees = [d for d in hom_degree_range(dx, dy) if degree in (None, d)]
            maps = tuple(m for d in degrees for m in self.hom_basis(x, y, d))
            space = EchelonBasis([m.flatten() for m in maps], dy.total_dim() * dx.total_dim())
            cached = self._spaces.setdefault(key, (maps, space))
        return cached

    def hom_poly(self, x: Perm, y: Perm) -> LaurentPoly:
        """Graded dimension of Hom(D_x, D_y), counted degree by degree by
        rank (:func:`~soergelkit.gradedmod.hom_dim`): no basis is solved
        and no map is cached, so ``hom_basis`` and its cache are left as
        they are."""
        return graded_hom_poly(self.indecomposable(x), self.indecomposable(y))

    # -- oracle -----------------------------------------------------------------

    def expected_summands(self, word: Word) -> list[tuple[Perm, int]]:
        """Summand multiset predicted by the canonical-generator product."""
        return self._summands_of(self.hecke.product_bs(tuple(word)))

    def _summands_of(self, h: HeckeElement) -> list[tuple[Perm, int]]:
        """Sorted summands (x, k) of a module of class h: c v^j at b_x predicts
        c copies of D_x with degrees lowered by -j; raises DecompositionError
        unless every c is a nonnegative integer."""
        expansion = self.hecke.kl_expand(h)
        out = []
        for x, p in expansion.items():
            for j, c in p.items():
                if c.denominator != 1 or c < 0:
                    raise DecompositionError(
                        f"oracle multiplicity {c} at {format_perm(x)} is not a nonnegative integer"
                    )
                out.extend([(x, -j)] * int(c))
        return sorted(out, key=lambda t: (length(t[0]), t[0], t[1]))

    # -- decomposition ------------------------------------------------------------

    def _try_peel(self, M: GradedModule, x: Perm, k: int):
        """Split one copy of D_x with shift k off M, or return None.  With j:
        D_x -> M and p: M -> D_x such that p j = c is a nonzero scalar, returns
        the complement, the kernel of the idempotent j p / c, and its
        inclusion, both read off ker p, which is that kernel since j is
        injective.  No library route calls it: the peels of
        ``tests/reference.py`` do, and it stays here because the benchmark
        tracer wraps it by name for its ``soergel.peel`` span."""
        dx = self.indecomposable(x)
        inclusions = hom_graded(dx, M, -k)
        if not inclusions:
            return None
        projections = hom_graded(M, dx, k)
        for j in inclusions:
            for p in projections:
                if _scalar_of_endo(p.compose(j), dx):
                    return kernel_module(p)
        return None

    def decompose(self, M: GradedModule, expected=None) -> Decomposition:
        """Split M into shifted indecomposables, in the order of the
        prediction: ``expected`` (a list of (x, k) pairs) or, when it is
        None, the one :meth:`_predict` reads off Hom counts.

        The prediction is certified by an isomorphism from the sum of the
        predicted D_x[k] onto M, built from inclusions D_x[k] -> M alone
        (see :meth:`_certify`).  A prediction that fails, or a module that
        is no such sum, raises :class:`DecompositionError`.
        """
        return self._certify(M, self._predict(M) if expected is None else list(expected))

    def _predict(self, M: GradedModule) -> list[tuple[Perm, int]]:
        """The summands (x, d) of M, were M a sum of shifted D_y, read off
        Hom counts by ascending d over the shifts :func:`_candidate_shifts`
        admits, x by (length, x).  Hom^d(D_y[k], D_x) has the dimension of
        the v^(d - k) coefficient of pairing(b_y, b_x), which lies in
        delta_xy + vN[v], so hom_dim(M, D_x, d) is the multiplicity of
        (x, d) plus the v^d coefficient of pairing(h, b_x), h the sum of
        v^k b_y over the summands (y, k) found at smaller k.  A negative
        multiplicity raises DecompositionError; whatever else is wrong the
        certificate refuses."""
        char, h, out = M.character(), self.hecke.zero(), []
        candidates = sorted(
            (d, length(x), x) for x in self.group.elements()
            for d in _candidate_shifts(self.indecomposable(x).character(), char)
        )
        for d, _, x in candidates:
            b_x = self.hecke.kl_basis(x)
            m = hom_dim(M, self.indecomposable(x), d) - self.hecke.pairing(h, b_x).coeff(d)
            if m < 0:
                raise DecompositionError(
                    f"module is not a direct sum of shifted indecomposables: "
                    f"Hom^{d}(M, D[{format_perm(x)}]) is too small"
                )
            out += [(x, d)] * m
            h = h + b_x.scale(LaurentPoly({d: m}))
        return out

    def _check_characters(self, char: LaurentPoly, summands, context: str = "") -> None:
        """Raise unless the shifted characters of the summands (x, k) add
        up to ``char``."""
        got = LaurentPoly.zero()
        for x, k in summands:
            got = got + self.indecomposable(x).character().shift(-k)
        if got != char:
            raise DecompositionError(f"summand characters do not add up to the module character{context}")

    def _certify(self, M: GradedModule, expected: list) -> Decomposition:
        """The decomposition ``expected`` of M, certified by a module map
        onto M from the sum of the predicted D_x[k], stacked from
        inclusions D_x[k] -> M read on the generators of D_x modulo C_+M
        (:meth:`_stack_inclusions`).  The characters are compared first,
        which makes the map square in every degree, so a surjective one is
        bijective, whatever the theory says.  Before any solve, each
        group's Hom is checked against the cap by the generator-image
        unknowns it solves, groups by ascending k."""
        self._check_characters(M.character(), expected)
        groups = list(Counter(expected).items())
        for (x, k), _ in sorted(groups, key=lambda group: group[0][1]):
            check_hom_size(self.indecomposable(x), M, -k)
        self._stack_inclusions(M, groups, {d: RowSpan(M.dim_at(d)) for d in M.degrees()})
        return Decomposition(expected)

    def _stack_inclusions(self, M: GradedModule, groups, spans, context: str = "") -> None:
        """Certify that maps D_x[k] -> M for the predicted groups ((x, k),
        m), with what the caller put in ``spans`` (one RowSpan per degree of
        M, holding a submodule of M or nothing), reach all of M.

        The spans are first seeded with C_+M: the columns of x_1 .. x_{n-1}
        acting into each degree, which span it since x_n = -(x_1 + .. +
        x_{n-1}) on a module.  Then the groups are visited by descending k,
        ties in their order.  For each, the degree -k maps D_x -> M are
        solved on the generators of D_x
        (:func:`~soergelkit.gradedmod.hom_generator_images`), and only the
        generator images go into the spans.  A group keeps the first m maps,
        in basis order, whose generator images raise the rank.

        Spans that fill M prove M = N + C_+M, with N the submodule the kept
        maps and the seed generate; C_+ is nilpotent on M, so graded
        Nakayama gives N = M.  On a true prediction the greedy choice fills
        them: modulo C_+M a module is the sum of the tops of its summands,
        and a map D_x[k] -> D_y[j] is a map D_x -> D_y of degree j - k,
        which is 0 for j < k and the scalars (y = x) or 0 for j = k.  So
        modulo the tops of the larger shifts, already in the spans, a map
        of the group reaches only the tops of the copies of D_x[k], each by
        a scalar, and it raises the rank exactly when its scalars are new.
        Raises DecompositionError when a group keeps fewer than m maps or
        the spans do not fill M."""
        for i, d in M.actions:
            span = spans[d + 2]
            if i < self.n and span.rank < span.cols:
                for column in M.columns(i, d):
                    if span.rank == span.cols:
                        break
                    span.raises(column)
        for (x, k), m in _by_descending_shift(groups):
            kept = 0
            for images in hom_generator_images(self.indecomposable(x), M, -k):
                # a list, not a lazy any(): every image goes into the span
                if sum([spans[d - k].raises(img) for d, imgs in images.items() for img in imgs]):
                    kept += 1
                    if kept == m:
                        break
            else:
                raise DecompositionError(
                    f"predicted summand (D[{format_perm(x)}], {k}) could not be split off{context}"
                )
        for d, span in spans.items():
            if span.rank < M.dim_at(d):
                raise DecompositionError(
                    f"the predicted inclusions are not surjective in degree {d}{context}"
                )

    def indecomposable(self, w: Perm) -> GradedModule:
        """D_w: in the induction M of D_u along the last letter s of the
        canonical word of w, u = ws, the common kernel K of the degree-0
        maps to the summands D_y of b_u b_s - b_w, certified as M = K + (sum
        of the D_y) by characters and by its inclusion stacked with
        inclusions D_y -> M, with its degree-0 endomorphisms counted as
        one dimension; cached per rank, the first copy published
        winning."""
        cached = self._indec.get(w)
        if cached is not None:
            return cached
        self._check_element(w)
        if length(w) == 0:
            module = self.trivial()
        else:
            i = self.group.a_reduced_word(w)[-1]
            u = mult_right_simple(w, i)
            module = M = self.induct(i, self.indecomposable(u))
            b_us = self.hecke.mult_gen_plus(self.hecke.kl_basis(u), i, LaurentPoly.v())
            rest = self._summands_of(b_us - self.hecke.kl_basis(w))
            if rest:
                context, groups = f" while extracting D[{format_perm(w)}]", list(Counter(rest).items())
                maps = [f for (y, _), _ in groups for f in hom_graded(M, self.indecomposable(y), 0)]
                module, inclusion = kernel_module(*maps) if maps else (M, ModuleMap.identity(M))
                self._check_characters(M.character() - module.character(), rest, context)
                spans = {d: RowSpan(M.dim_at(d)) for d in M.degrees()}
                for d, block in inclusion.blocks.items():
                    spans[d].add(block.transpose())
                self._stack_inclusions(M, groups, spans, context)
            if not module.character().is_symmetric():
                raise DecompositionError(
                    f"D[{format_perm(w)}] came out with a non-self-dual character"
                )
        if hom_dim(module, module, 0) != 1:
            raise DecompositionError(
                f"degree-0 endomorphisms of D[{format_perm(w)}] are not scalars"
            )
        return self._indec.setdefault(w, module)

    def _check_element(self, w) -> None:
        """Refuse with ValueError what is not an element of the rank's group."""
        if w not in self.group.elements():
            raise ValueError(f"{w!r} is not an element of S_{self.n}")

    def hecke_class(self, M: GradedModule, expected=None) -> HeckeElement:
        """The canonical-basis combination matching the decomposition of M."""
        dec = self.decompose(M, expected=expected)
        out = self.hecke.zero()
        for x, k in dec.summands:
            out = out + self.hecke.kl_basis(x).scale(LaurentPoly.v(-k))
        return out

    def endo_algebra(self, summands) -> "EndoAlgebra":
        return EndoAlgebra(self, summands)


def _by_descending_shift(groups):
    """Predicted groups ((x, k), m) by descending k, ties in their order."""
    return sorted(groups, key=lambda group: -group[0][1])


def _candidate_shifts(dx_char: LaurentPoly, char: LaurentPoly):
    """Shifts k for which v^-k (character of D_x) fits under ``char``."""
    if not char or not dx_char:
        return
    for k in range(dx_char.min_exp() - char.min_exp(), dx_char.max_exp() - char.max_exp() - 1, -1):
        shifted = dx_char.shift(-k)
        if all(shifted.coeff(e) <= char.coeff(e) for e, _ in shifted.items()):
            yield k


def endo_dimension(hecke: HeckeAlgebra, elements) -> int:
    """The dimension of the endomorphism algebra of a sum of shifted D_w, one
    for each w of ``elements`` (repeats counted): the sum over ordered pairs
    (a, b) of pairing(b_a, b_b) at v = 1, since shifts move degrees and not
    the count.  Evaluation at v = 1 is a ring map and the pairing a dot
    product, so that sum is the sum over x of the square of the sum over a
    of b_a's coefficient at H_x at v = 1, read off each b_a once."""
    totals: Counter = Counter()
    for w in elements:
        for x, p in hecke.kl_basis(w).terms():
            totals[x] += p.at_one()
    return sum(t * t for t in totals.values())


class EndoAlgebra:
    """The endomorphism algebra of a direct sum of shifted indecomposables.

    The basis is graded by map degree; composition is tabulated exactly.
    Records are (source slot, target slot, degree, map).
    """

    def __init__(self, cat: SoergelCategory, summands):
        self.cat = cat
        self.summands = [(tuple(w), int(k)) for w, k in summands]
        if not self.summands:
            raise ValueError("endomorphism algebra of an empty sum")
        for w, _ in self.summands:
            cat._check_element(w)
        # an oversize algebra is refused before any D_w is built
        dim = endo_dimension(cat.hecke, [w for w, _ in self.summands])
        check_size("endomorphism algebra of dimension {}", dim)
        self.modules = [cat.indecomposable(w).shift(k) for w, k in self.summands]
        self.basis: list[tuple[int, int, int, ModuleMap]] = []
        self._block_index: dict[tuple[int, int], list[int]] = {}
        # a degree-d map between the shifted modules is a degree d + k_b - k_a
        # map D_a -> D_b with its blocks moved down by k_a
        for a, ((wa, ka), ma) in enumerate(zip(self.summands, self.modules)):
            for b, ((wb, kb), mb) in enumerate(zip(self.summands, self.modules)):
                for d in hom_degree_range(ma, mb):
                    for m in cat.hom_basis(wa, wb, d + kb - ka):
                        blocks = {e - ka: blk for e, blk in m.blocks.items()}
                        self._block_index.setdefault((a, b), []).append(len(self.basis))
                        self.basis.append((a, b, d, ModuleMap(ma, mb, d, blocks)))
        self.table: dict[tuple[int, int], tuple[tuple[int, int | Fraction], ...]] = {}
        # basis[i] after basis[j] needs basis[j] to end in the slot where basis[i] starts
        for i, (a1, b1, _, m1) in enumerate(self.basis):
            for a2, (w2, _) in enumerate(self.summands):
                js = self._block_index.get((a2, a1))
                if js:
                    space = cat.hom_space(w2, self.summands[b1][0])[1]
                    idxs = self._block_index.get((a2, b1))
                    for j in js:
                        coords = space.coords(m1.compose(self.basis[j][3]).flatten())
                        self.table[(i, j)] = tuple((idxs[t], c) for t, c in coords.items())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def graded_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, _, d, _ in self.basis:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def block_poly(self, a: int, b: int) -> LaurentPoly:
        """Graded dimension of the (a -> b) Hom block."""
        out: dict[int, int] = {}
        for i in self._block_index.get((a, b), []):
            d = self.basis[i][2]
            out[d] = out.get(d, 0) + 1
        return LaurentPoly(out)

    def compose_indices(self, i: int, j: int) -> tuple[tuple[int, int | Fraction], ...]:
        """Structure constants of basis[i] after basis[j]; empty if not composable."""
        return self.table.get((i, j), ())


@lru_cache(maxsize=None)
def soergel_category(n: int) -> SoergelCategory:
    """Shared per-rank category (add-only caches, safe concurrent reads)."""
    return SoergelCategory(n)
