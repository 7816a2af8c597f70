"""The Hecke algebra of the symmetric group over Laurent polynomials in v.

Normalisation: the standard basis H_w satisfies

    H_s^2 = H_e + (v^-1 - v) H_s,

so the canonical-basis element for a simple reflection is b_s = H_s + v and
all canonical-basis coefficients land in v Z[v].  The bar involution sends v
to v^-1 and H_w to the inverse of H_{w^-1}; canonical-basis elements b_w are
the unique bar-invariant elements of the form H_w plus lower terms with
coefficients in v Z[v], computed by the usual induction on length with
integer corrections.

The algebra serves as the multiplicity and Hom-dimension oracle for the
module side: products of b_s along a word predict how the matching induced
module decomposes, and the pairing tau(a(h1) h2) predicts graded Hom
dimensions.  With the standard trace tau(H_x H_y) = delta_{xy,e} and the
v-linear anti-involution a(H_w) = H_{w^-1}, that pairing is the dot product
of standard-basis coefficients; see :meth:`HeckeAlgebra.pairing` and
docs/conventions.md for how it is pinned against the exact linear-algebra
Hom computation.

Every right multiplication the library makes is by H_s + c for a simple
reflection s and a scalar c: by b_s = H_s + v for products and the
canonical basis, and by bar(H_s) = H_s + (v - v^-1) for the bar involution.
The product of general elements is a reference route for the tests, in
``tests/reference.py``; the library never forms it.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly
from .weyl import Perm, Word, WeylGroup, length, mult_right_simple, right_descents, weyl_group

_V = LaurentPoly.v()
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


class HeckeElement:
    """A finitely supported map from group elements to Laurent polynomials."""

    __slots__ = ("n", "_c")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        c: dict[Perm, LaurentPoly] = {}
        if coeffs:
            for w, p in coeffs.items():
                if len(w) != n:
                    raise ValueError("rank mismatch among Hecke coefficients")
                if not isinstance(p, LaurentPoly):
                    p = LaurentPoly({0: p})
                if p:
                    c[tuple(w)] = p
        self._c = c

    def coeff(self, w: Perm) -> LaurentPoly:
        return self._c.get(w, LaurentPoly.zero())

    def support(self) -> tuple[Perm, ...]:
        return tuple(sorted(self._c, key=lambda w: (length(w), w)))

    def terms(self):
        """Pairs (w, coefficient) sorted by (length, one-line notation)."""
        return [(w, self._c[w]) for w in self.support()]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self._c == other._c

    def __hash__(self):
        raise TypeError("HeckeElement is unhashable")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("rank mismatch in Hecke addition")
        c = dict(self._c)
        for w, p in other._c.items():
            q = c.get(w, LaurentPoly.zero()) + p
            if q:
                c[w] = q
            else:
                c.pop(w, None)
        out = HeckeElement.__new__(HeckeElement)
        out.n = self.n
        out._c = c
        return out

    def __neg__(self) -> "HeckeElement":
        out = HeckeElement.__new__(HeckeElement)
        out.n = self.n
        out._c = {w: -p for w, p in self._c.items()}
        return out

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def scale(self, p) -> "HeckeElement":
        if not isinstance(p, LaurentPoly):
            p = LaurentPoly({0: p})
        out = HeckeElement.__new__(HeckeElement)
        out.n = self.n
        out._c = {}
        for w, q in self._c.items():
            r = q * p
            if r:
                out._c[w] = r
        return out

    def __str__(self) -> str:
        if not self._c:
            return "0"
        from .weyl import format_perm

        return " + ".join(f"({p})H[{format_perm(w)}]" for w, p in self.terms())

    def __repr__(self) -> str:
        return f"HeckeElement({str(self)})"

    def to_json_dict(self) -> dict:
        """The wire form {"terms": [{"w": "321", "coeff": "v^3+v"}, ...]}."""
        from .weyl import format_perm

        return {"terms": [{"w": format_perm(w), "coeff": str(p)} for w, p in self.terms()]}

    @classmethod
    def from_json_dict(cls, data, n: int) -> "HeckeElement":
        from .weyl import parse_perm

        coeffs = {}
        for term in data["terms"]:
            w = parse_perm(term["w"])
            coeffs[w] = coeffs.get(w, LaurentPoly.zero()) + LaurentPoly.parse(term["coeff"])
        return cls(n, coeffs)


class HeckeAlgebra:
    """Hecke algebra of S_n with cached canonical basis."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.n = group.n
        self._bar_std: dict[Perm, HeckeElement] = {}
        self._kl: dict[Perm, HeckeElement] = {}

    # -- basic elements ----------------------------------------------------

    def unit(self) -> HeckeElement:
        return HeckeElement(self.n, {self.group.identity: LaurentPoly.one()})

    def std(self, w: Perm) -> HeckeElement:
        return HeckeElement(self.n, {w: LaurentPoly.one()})

    def zero(self) -> HeckeElement:
        return HeckeElement(self.n)

    # -- multiplication ----------------------------------------------------

    def mult_gen(self, h: HeckeElement, i: int) -> HeckeElement:
        """Right multiplication by H_{s_i}."""
        vinv_minus_v = LaurentPoly({-1: 1, 1: -1})
        c: dict[Perm, LaurentPoly] = {}

        def add(w, p):
            q = c.get(w, LaurentPoly.zero()) + p
            if q:
                c[w] = q
            else:
                c.pop(w, None)

        for w, p in h._c.items():
            ws = mult_right_simple(w, i)
            if i in right_descents(w):
                add(ws, p)
                add(w, p * vinv_minus_v)
            else:
                add(ws, p)
        return HeckeElement(self.n, c)

    def mult_gen_plus(self, h: HeckeElement, i: int, c: LaurentPoly) -> HeckeElement:
        """Right multiplication by H_{s_i} + c."""
        return self.mult_gen(h, i) + h.scale(c)

    # -- bar involution ----------------------------------------------------

    def _bar_of_std(self, w: Perm) -> HeckeElement:
        """bar(H_w) = (H_{w^-1})^{-1}, expanded via bar(H_s) on a reduced word."""
        cached = self._bar_std.get(w)
        if cached is not None:
            return cached
        # bar is a ring homomorphism, so expand along the word, with
        # bar(H_s) = H_s + (v - v^-1) H_e
        result = self.unit()
        for i in self.group.a_reduced_word(w):
            result = self.mult_gen_plus(result, i, _V_MINUS_VINV)
        self._bar_std[w] = result
        return result

    def bar(self, h: HeckeElement) -> HeckeElement:
        out = self.zero()
        for w, p in h.terms():
            out = out + self._bar_of_std(w).scale(p.bar())
        return out

    # -- canonical basis ---------------------------------------------------

    def kl_basis(self, w: Perm) -> HeckeElement:
        """The canonical-basis element b_w.

        b_w is bar-invariant and equals H_w plus lower terms with
        coefficients in v Z[v]; both properties are asserted after the
        inductive construction, so a convention slip fails loudly.
        """
        cached = self._kl.get(w)
        if cached is not None:
            return cached
        if length(w) == 0:
            result = self.unit()
        else:
            i = max(right_descents(w))
            u = mult_right_simple(w, i)
            result = self.mult_gen_plus(self.kl_basis(u), i, _V)
            # subtract integer multiples of shorter canonical elements until
            # every lower coefficient lies in v Z[v]
            for x in sorted(result.support(), key=lambda y: (-length(y), y)):
                if x == w:
                    continue
                m = result.coeff(x).coeff(0)
                if m:
                    if m.denominator != 1:
                        raise AssertionError("canonical-basis correction is not integral")
                    result = result - self.kl_basis(x).scale(int(m))
        self._verify_canonical(w, result)
        self._kl[w] = result
        return result

    def _verify_canonical(self, w: Perm, b: HeckeElement) -> None:
        if b.coeff(w) != LaurentPoly.one():
            raise AssertionError("canonical-basis element is not unitriangular")
        for x, p in b.terms():
            if x == w:
                continue
            if length(x) >= length(w) or any(k <= 0 for k, _ in p.items()):
                raise AssertionError("canonical-basis coefficients must lie in v Z[v]")
        if self.bar(b) != b:
            raise AssertionError("canonical-basis element is not bar-invariant")

    def kl_poly(self, x: Perm, w: Perm) -> LaurentPoly:
        """Coefficient of H_x in b_w; zero unless x is Bruhat-below w."""
        return self.kl_basis(w).coeff(x)

    def product_bs(self, word: Word) -> HeckeElement:
        """The product b_{s_1} ... b_{s_l} over the letters of ``word``."""
        out = self.unit()
        for i in word:
            out = self.mult_gen_plus(out, i, _V)
        return out

    def kl_expand(self, h: HeckeElement) -> dict[Perm, LaurentPoly]:
        """Coefficients m_x with h equal to the sum of m_x b_x; unique."""
        rest = h
        out: dict[Perm, LaurentPoly] = {}
        while rest:
            x = max(rest.support(), key=lambda y: (length(y), y))
            m = rest.coeff(x)
            out[x] = m
            rest = rest - self.kl_basis(x).scale(m)
        return out

    # -- pairing -----------------------------------------------------------

    def pairing(self, h1: HeckeElement, h2: HeckeElement) -> LaurentPoly:
        """The coefficient of H_e in a(h1) h2, for the v-linear
        anti-involution a(H_w) = H_{w^-1}.

        The standard trace satisfies tau(H_x H_y) = delta_{xy,e}, so this is
        the sum over w of the products of the H_w coefficients of h1 and h2.
        It is the form pinned against the module Hom oracle.
        """
        if h1.n != h2.n:
            raise ValueError("rank mismatch in Hecke pairing")
        out = LaurentPoly.zero()
        for w, p in h1._c.items():
            q = h2._c.get(w)
            if q is not None:
                out = out + p * q
        return out


@lru_cache(maxsize=None)
def hecke_algebra(n: int) -> HeckeAlgebra:
    """Shared per-rank algebra (caches fill under the interpreter lock)."""
    return HeckeAlgebra(weyl_group(n))
