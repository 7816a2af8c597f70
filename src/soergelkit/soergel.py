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
gives the Bott-Samelson module of the word.  A peel loop splits a module
into summands D_x: the Hecke algebra predicts the summand multiset, and
every predicted summand is split off by maps p and j whose composite
p j is a nonzero scalar c, and the peel goes on in the kernel of the
idempotent j p / c, read off as the kernel of p.  D_w follows the
canonical-basis recursion (Soergel 2007; Elias and Williamson 2014):
with s the last letter of the canonical word of w and u = ws, it is what
is left of the induction of D_u along s once the summands of
b_u b_s - b_w are peeled off.  Oracle and linear algebra verify each other; a predicted summand
that cannot be split is a hard error.  Scalar-valued peeling is sound
because degree-zero endomorphisms of each D_w are one-dimensional,
which is asserted whenever a composite endomorphism is read off.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coinvariant import CoinvariantRing, coinvariant_ring
from .gradedmod import (
    GradedModule,
    ModuleMap,
    hom_degree_range,
    hom_graded,
    kernel_module,
    trivial_module,
)
from .hecke import HeckeAlgebra, HeckeElement, hecke_algebra
from .laurent import LaurentPoly
from .linalg import EchelonBasis, QMatrix, check_size, flatten, place_blocks
from .linalg import rref  # noqa: F401  benchmarks/test_harness.py traces this binding
from .weyl import Perm, Word, WeylGroup, format_perm, length, mult_right_simple, weyl_group


class DecompositionError(RuntimeError):
    """A predicted splitting could not be realised by exact linear algebra."""


class Decomposition:
    """Summands (w, k), each a copy of D_w with degrees lowered by k, in
    the order the peel split them off."""

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
        self._spaces: dict[tuple, tuple[tuple[QMatrix, ...], EchelonBasis]] = {}

    # -- induction ----------------------------------------------------------

    def trivial(self) -> GradedModule:
        return trivial_module(self.ring)

    def induct(self, i: int, M: GradedModule) -> GradedModule:
        """C (x)_{C^s} M for s = s_i, shifted one step down.

        Degree d holds 1 (x) M_d followed by x_i (x) M_{d-2}.  With E1 and E2
        the actions of x_i + x_{i+1} and x_i x_{i+1}, the relation
        x_i^2 = E1 x_i - E2 gives x_i the blocks [[0, -E2], [I, E1]] and
        x_{i+1} = E1 - x_i the blocks [[E1, E2], [-I, 0]]; every other
        variable is invariant and acts diagonally.  Each action from degree
        d to d + 2 places only its nonzero blocks: its rows are 1 (x) M_{d+2}
        then x_i (x) M_d, its columns 1 (x) M_d then x_i (x) M_{d-2}.
        """
        if M.ring is not self.ring:
            raise ValueError("module belongs to a different ring")
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"simple reflection index {i} out of range for rank {self.n}")
        check_size("induced module of dimension {}", 2 * M.total_dim())
        act, dim = M.action, M.dim_at

        def e1(d: int) -> QMatrix:
            return act(i, d) + act(i + 1, d)

        dims = {d: dim(d) + dim(d - 2) for e in M.degrees() for d in (e, e + 2)}
        actions = {}
        for d in dims:
            if d + 2 not in dims:
                continue
            one = QMatrix.identity(dim(d))
            e2 = act(i + 1, d) * act(i, d - 2)
            r1, c1 = dim(d + 2), dim(d)
            for l in range(1, self.n + 1):
                if l == i:
                    blocks = [(0, c1, -e2), (r1, 0, one), (r1, c1, e1(d - 2))]
                elif l == i + 1:
                    blocks = [(0, 0, e1(d)), (0, c1, e2), (r1, 0, -one)]
                else:
                    blocks = [(0, 0, act(l, d)), (r1, c1, act(l, d - 2))]
                actions[(l, d)] = place_blocks(dims[d + 2], dims[d], blocks)
        return GradedModule(self.ring, dims, actions, validate=True).shift(1)

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
        self._bs[word] = module
        return module

    # -- Hom spaces -----------------------------------------------------------

    def hom_basis(self, x: Perm, y: Perm, degree: int) -> tuple[ModuleMap, ...]:
        """Cached basis of degree-``degree`` maps D_x -> D_y."""
        key = (x, y, degree)
        cached = self._hom.get(key)
        if cached is None:
            cached = tuple(hom_graded(self.indecomposable(x), self.indecomposable(y), degree))
            self._hom[key] = cached
        return cached

    def hom_space(self, x: Perm, y: Perm, degree: int | None = None):
        """The cached ``hom_basis`` maps D_x -> D_y of the given degree (of
        every degree when None) as total-space matrices, with the
        EchelonBasis of their flattenings; cached per rank."""
        key = (x, y, degree)
        cached = self._spaces.get(key)
        if cached is None:
            dx, dy = self.indecomposable(x), self.indecomposable(y)
            degrees = [d for d in hom_degree_range(dx, dy) if degree in (None, d)]
            mats = tuple(m.to_total() for d in degrees for m in self.hom_basis(x, y, d))
            cached = (mats, EchelonBasis([flatten(m) for m in mats], dy.total_dim() * dx.total_dim()))
            self._spaces[key] = cached
        return cached

    def hom_poly(self, x: Perm, y: Perm) -> LaurentPoly:
        """Graded dimension of Hom(D_x, D_y)."""
        dx, dy = self.indecomposable(x), self.indecomposable(y)
        return LaurentPoly({d: len(self.hom_basis(x, y, d)) for d in hom_degree_range(dx, dy)})

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
        injective."""
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

    def _peel_expected(self, M: GradedModule, expected, context: str = ""):
        """Split each predicted (x, k) off what is left of M, in order,
        yielding (x, k, split); raises DecompositionError at the first one
        that cannot be split off."""
        cur = M
        for x, k in expected:
            res = self._try_peel(cur, x, k)
            if res is None:
                raise DecompositionError(
                    f"predicted summand (D[{format_perm(x)}], {k}) could not be split off{context}"
                )
            yield x, k, res
            cur = res[0]

    def _peel_search(self, M: GradedModule):
        """Split off what is left of M, one (x, k) at a time: the first whose
        shifted character fits under the remaining one, longest x first,
        yielding (x, k, split); raises DecompositionError when no candidate
        splits off."""
        order = sorted(self.group.elements(), key=lambda w: (-length(w), w))
        cur = M
        while cur.total_dim():
            char = cur.character()
            fits = (
                (x, k) for x in order for k in _candidate_shifts(self.indecomposable(x).character(), char)
            )
            for x, k in fits:
                res = self._try_peel(cur, x, k)
                if res is not None:
                    break
            else:
                raise DecompositionError("module is not a direct sum of shifted indecomposables")
            yield x, k, res
            cur = res[0]

    def decompose(self, M: GradedModule, expected=None) -> Decomposition:
        """Peel M into shifted indecomposables.

        With ``expected`` (a list of (x, k) pairs) the peel follows the
        oracle prediction; otherwise candidates are searched by character
        containment over all indecomposables of the rank.  Each step goes on
        in the complement; a failed split, a remainder or a character
        mismatch raises :class:`DecompositionError`.
        """
        steps = self._peel_search(M) if expected is None else self._peel_expected(M, expected)
        summands: list[tuple[Perm, int]] = []
        cur = M
        for x, k, (cur, _) in steps:
            summands.append((x, k))
        if cur.total_dim():
            raise DecompositionError(
                f"peel left a remainder of dimension {cur.total_dim()}"
            )
        got = LaurentPoly.zero()
        for x, k in summands:
            got = got + self.indecomposable(x).character().shift(-k)
        if got != M.character():
            raise DecompositionError("summand characters do not add up to the module character")
        return Decomposition(summands)

    def indecomposable(self, w: Perm) -> GradedModule:
        """D_w: the induction of D_u along the last letter s of the canonical
        word of w, u = ws, with the summands of b_u b_s - b_w peeled off;
        cached per rank."""
        cached = self._indec.get(w)
        if cached is not None:
            return cached
        if length(w) == 0:
            module = self.trivial()
        else:
            i = self.group.a_reduced_word(w)[-1]
            u = mult_right_simple(w, i)
            module = self.induct(i, self.indecomposable(u))
            b_us = self.hecke.mult_gen_plus(self.hecke.kl_basis(u), i, LaurentPoly.v())
            rest = self._summands_of(b_us - self.hecke.kl_basis(w))
            for _, _, res in self._peel_expected(module, rest, f" while extracting D[{format_perm(w)}]"):
                module = res[0]
            if not module.character().is_symmetric():
                raise DecompositionError(
                    f"D[{format_perm(w)}] came out with a non-self-dual character"
                )
        endo = tuple(hom_graded(module, module, 0))
        if len(endo) != 1:
            raise DecompositionError(
                f"degree-0 endomorphisms of D[{format_perm(w)}] are not scalars"
            )
        self._indec[w] = module
        self._hom[(w, w, 0)] = endo
        return module

    def hecke_class(self, M: GradedModule, expected=None) -> HeckeElement:
        """The canonical-basis combination matching the decomposition of M."""
        dec = self.decompose(M, expected=expected)
        out = self.hecke.zero()
        for x, k in dec.summands:
            out = out + self.hecke.kl_basis(x).scale(LaurentPoly.v(-k))
        return out

    def endo_algebra(self, summands) -> "EndoAlgebra":
        return EndoAlgebra(self, summands)


def _candidate_shifts(dx_char: LaurentPoly, char: LaurentPoly):
    """Shifts k for which v^-k (character of D_x) fits under ``char``."""
    if not char or not dx_char:
        return
    for k in range(dx_char.min_exp() - char.min_exp(), dx_char.max_exp() - char.max_exp() - 1, -1):
        shifted = dx_char.shift(-k)
        if all(shifted.coeff(e) <= char.coeff(e) for e, _ in shifted.items()):
            yield k


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
        # the dimension is the sum over summand pairs of the pairing of b_wa
        # and b_wb at v = 1 (shifts move degrees, not the count), so an
        # oversize algebra is refused before any D_w is built
        hecke = cat.hecke
        kl = [hecke.kl_basis(w) for w, _ in self.summands]
        check_size(
            "endomorphism algebra of dimension {}",
            sum(hecke.pairing(ba, bb).at_one() for ba in kl for bb in kl),
        )
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
