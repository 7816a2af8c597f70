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
dimensions (see :meth:`HeckeAlgebra.pairing` and docs/conventions.md for
how it is pinned against the exact linear-algebra Hom computation).

The library multiplies on the right only by b_s = H_s + v and bar(H_s) =
H_s + (v - v^-1), by the step rule H_w (H_s + c) = H_{ws} + (c + [ws < w]
(v^-1 - v)) H_w, on {w: {exponent: value}} dicts of stored values
(:func:`~soergelkit.linalg.exact`), each operation accumulating into one
dict.  The general product and the object-level routes are test oracles in
``tests/reference.py``; see docs/conventions.md, "Hecke arithmetic".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import exact
from .weyl import Perm, Word, WeylGroup, format_perm, length, mult_right_simple, parse_perm, right_descents, weyl_group

#: a Laurent polynomial as stored: {exponent: nonzero value in stored form}
Coeffs = dict[int, int | Fraction]

_ONE: Coeffs = {0: 1}
_V: Coeffs = {1: 1}


def _add_into(q: Coeffs, p: Coeffs, m: Coeffs) -> None:
    """q += p m in place; an exponent whose value cancels leaves q."""
    for k2, x2 in m.items():
        for k1, x1 in p.items():
            k = k1 + k2
            y = q.get(k, 0) + x1 * x2
            if y:
                q[k] = y if type(y) is int else exact(y)
            else:
                del q[k]


def _add_term(acc: dict[Perm, Coeffs], w: Perm, p: Coeffs, m: Coeffs) -> None:
    """acc[w] += p m in place; a coefficient that cancels leaves acc."""
    q = acc.get(w) or acc.setdefault(w, {})
    _add_into(q, p, m)
    if not q:
        del acc[w]


class HeckeElement:
    """A finitely supported map from group elements to Laurent polynomials,
    kept as {w: {exponent: value}} and wrapped as they are read."""

    __slots__ = ("n", "_c")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        c: dict[Perm, Coeffs] = {}
        if coeffs:
            for w, p in coeffs.items():
                if len(w) != n:
                    raise ValueError("rank mismatch among Hecke coefficients")
                if not isinstance(p, LaurentPoly):
                    p = LaurentPoly({0: p})
                if p:
                    c[tuple(w)] = p._c
        self._c = c

    @classmethod
    def _wrap(cls, n: int, c: dict[Perm, Coeffs]) -> "HeckeElement":
        out = cls.__new__(cls)  # takes over c, in stored form
        out.n = n
        out._c = c
        return out

    def coeff(self, w: Perm) -> LaurentPoly:
        p = self._c.get(w)
        return LaurentPoly.zero() if p is None else LaurentPoly._stored(p)

    def support(self) -> tuple[Perm, ...]:
        return tuple(sorted(self._c, key=lambda w: (length(w), w)))

    def terms(self):
        """Pairs (w, coefficient) sorted by (length, one-line notation)."""
        return [(w, LaurentPoly._stored(self._c[w])) for w in self.support()]

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
        c = {w: dict(p) for w, p in self._c.items()}
        for w, p in other._c.items():
            _add_term(c, w, p, _ONE)
        return HeckeElement._wrap(self.n, c)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement._wrap(self.n, {w: {k: -x for k, x in p.items()} for w, p in self._c.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def scale(self, p) -> "HeckeElement":
        if not isinstance(p, LaurentPoly):
            p = LaurentPoly({0: p})
        c: dict[Perm, Coeffs] = {}
        for w, q in self._c.items():
            _add_term(c, w, q, p._c)
        return HeckeElement._wrap(self.n, c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        return " + ".join(f"({p})H[{format_perm(w)}]" for w, p in self.terms())

    def __repr__(self) -> str:
        return f"HeckeElement({str(self)})"

    def to_json_dict(self) -> dict:
        """The wire form {"terms": [{"w": "321", "coeff": "v^3+v"}, ...]}."""
        return {"terms": [{"w": format_perm(w), "coeff": str(p)} for w, p in self.terms()]}

    @classmethod
    def from_json_dict(cls, data, n: int) -> "HeckeElement":
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
        elements = group.elements()
        # made whole here, so threads only ever read the step table
        self._step: dict[int, dict[Perm, tuple[Perm, bool]]] = {
            i: {w: (mult_right_simple(w, i), w[i - 1] > w[i]) for w in elements} for i in range(1, self.n)
        }
        self._descending = elements[::-1]
        self._bar_std: dict[Perm, dict[Perm, Coeffs]] = {}
        self._kl: dict[Perm, HeckeElement] = {}

    # -- basic elements ----------------------------------------------------

    def unit(self) -> HeckeElement:
        return HeckeElement(self.n, {self.group.identity: LaurentPoly.one()})

    def std(self, w: Perm) -> HeckeElement:
        return HeckeElement(self.n, {w: LaurentPoly.one()})

    def zero(self) -> HeckeElement:
        return HeckeElement(self.n)

    # -- multiplication ----------------------------------------------------

    def _times(self, h: dict[Perm, Coeffs], i: int, c: Coeffs) -> dict[Perm, Coeffs]:
        """h (H_{s_i} + c) in one pass over h, by the step rule."""
        step = self._step[i]
        at_descent = dict(c)
        _add_into(at_descent, {-1: 1, 1: -1}, _ONE)
        acc: dict[Perm, Coeffs] = {}
        for w, p in h.items():
            ws, descent = step[w]
            _add_term(acc, ws, p, _ONE)
            m = at_descent if descent else c
            if m:
                _add_term(acc, w, p, m)
        return acc

    def _check_letter(self, i: int) -> None:
        if i not in self._step:
            raise ValueError(f"letter {i!r} is not a simple reflection of rank {self.n}: letters run 1..{self.n - 1}")

    def mult_gen_plus(self, h: HeckeElement, i: int, c: LaurentPoly) -> HeckeElement:
        """Right multiplication by H_{s_i} + c."""
        self._check_letter(i)
        return HeckeElement._wrap(self.n, self._times(h._c, i, c._c))

    # -- bar involution ----------------------------------------------------

    def _bar_of_std(self, w: Perm) -> dict[Perm, Coeffs]:
        """bar(H_w) = bar(H_{ws}) bar(H_s) for a right descent s of w, with
        bar(H_s) = H_s + (v - v^-1) H_e, since bar is a ring homomorphism."""
        cached = self._bar_std.get(w)
        if cached is None:
            if length(w) == 0:
                cached = {w: dict(_ONE)}
            else:
                i = max(right_descents(w))
                cached = self._times(self._bar_of_std(self._step[i][w][0]), i, {1: 1, -1: -1})
            self._bar_std[w] = cached
        return cached

    def bar(self, h: HeckeElement) -> HeckeElement:
        acc: dict[Perm, Coeffs] = {}
        for w, p in h._c.items():
            p_bar = {-k: x for k, x in p.items()}
            for x, q in self._bar_of_std(w).items():
                _add_term(acc, x, q, p_bar)
        return HeckeElement._wrap(self.n, acc)

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
            c = {w: dict(_ONE)}
        else:
            i = max(right_descents(w))
            c = self._times(self.kl_basis(self._step[i][w][0])._c, i, _V)
            # subtract integer multiples m b_x of shorter canonical elements
            # until every lower coefficient lies in v Z[v], in one pass from
            # the top, since m b_x adds no constant term below x
            for x in self._descending:
                m = c[x].get(0) if x in c and x != w else 0
                if m:
                    if type(m) is not int:
                        raise AssertionError("canonical-basis correction is not integral")
                    minus_m = {0: -m}
                    for y, q in self.kl_basis(x)._c.items():
                        _add_term(c, y, q, minus_m)
        result = HeckeElement._wrap(self.n, c)
        self._verify_canonical(w, result)
        self._kl[w] = result
        return result

    def _verify_canonical(self, w: Perm, b: HeckeElement) -> None:
        if b._c.get(w) != _ONE:
            raise AssertionError("canonical-basis element is not unitriangular")
        if any(x != w and (length(x) >= length(w) or min(p) <= 0) for x, p in b._c.items()):
            raise AssertionError("canonical-basis coefficients must lie in v Z[v]")
        if self.bar(b) != b:
            raise AssertionError("canonical-basis element is not bar-invariant")

    def kl_poly(self, x: Perm, w: Perm) -> LaurentPoly:
        """Coefficient of H_x in b_w; zero unless x is Bruhat-below w."""
        return self.kl_basis(w).coeff(x)

    def product_bs(self, word: Word) -> HeckeElement:
        """The product b_{s_1} ... b_{s_l} over the letters of ``word``."""
        c = {self.group.identity: dict(_ONE)}
        for i in word:
            self._check_letter(i)
            c = self._times(c, i, _V)
        return HeckeElement._wrap(self.n, c)

    def kl_expand(self, h: HeckeElement) -> dict[Perm, LaurentPoly]:
        """Coefficients m_x with h equal to the sum of m_x b_x; unique.  One
        pass down the group in (length, w) order subtracts m_x b_x, which
        changes only x and shorter elements, at each x left in h."""
        if h.n != self.n:
            raise ValueError("rank mismatch in canonical-basis expansion")
        rest = {w: dict(p) for w, p in h._c.items()}
        out: dict[Perm, LaurentPoly] = {}
        for x in self._descending:
            if x in rest:
                m = rest.pop(x)
                out[x] = LaurentPoly._stored(m)
                minus_m = {k: -a for k, a in m.items()}
                for y, q in self.kl_basis(x)._c.items():
                    if y != x:
                        _add_term(rest, y, q, minus_m)
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
        out: Coeffs = {}
        for w, p in h1._c.items():
            if w in h2._c:
                _add_into(out, p, h2._c[w])
        return LaurentPoly._stored(out)


@lru_cache(maxsize=None)
def hecke_algebra(n: int) -> HeckeAlgebra:
    """Shared per-rank algebra (caches fill under the interpreter lock)."""
    return HeckeAlgebra(weyl_group(n))
