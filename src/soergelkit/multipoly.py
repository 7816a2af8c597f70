"""Multivariate polynomials over the rationals in a fixed number of variables.

Terms map exponent vectors (tuples of fixed length n) to rational
coefficients, each stored as an int when it is integral and as a Fraction
otherwise (:func:`soergelkit.linalg.exact`).  The symmetric group permutes
variables, and the divided difference for an adjacent pair of variables is
computed by the closed per-monomial formula, so no polynomial division is
ever performed.

>>> x1 = MultiPoly.variable(1, 2)
>>> str(divided_difference(x1, 1))
'1'
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import exact


class MultiPoly:
    """A polynomial in variables x_1 .. x_n with rational coefficients."""

    __slots__ = ("n", "_t")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        self.n = n
        t = {}
        if terms:
            for a, x in terms.items():
                a = tuple(int(e) for e in a)
                if len(a) != n or any(e < 0 for e in a):
                    raise ValueError(f"bad exponent vector {a} for {n} variables")
                x = exact(x)
                if x:
                    t[a] = t.get(a, 0) + x
        self._t = {a: x for a, x in t.items() if x}

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def variable(cls, i: int, n: int) -> "MultiPoly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range for {n} variables")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponents, coeff=1) -> "MultiPoly":
        exponents = tuple(exponents)
        return cls(len(exponents), {exponents: coeff})

    @classmethod
    def elementary(cls, k: int, n: int) -> "MultiPoly":
        """The elementary symmetric polynomial e_k in n variables."""
        if not 0 <= k <= n:
            raise ValueError(f"e_{k} undefined in {n} variables")
        terms = {}
        for subset in combinations(range(n), k):
            e = [0] * n
            for i in subset:
                e[i] = 1
            terms[tuple(e)] = 1
        return cls(n, terms)

    def terms(self):
        """Pairs (exponent vector, coefficient) in a fixed sorted order."""
        return [(a, self._t[a]) for a in sorted(self._t)]

    def coeff(self, exponents) -> int | Fraction:
        return self._t.get(tuple(exponents), 0)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self._t == other._t

    def __hash__(self):
        return hash((self.n, frozenset(self._t.items())))

    def _same_n(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._same_n(other)
        t = dict(self._t)
        for a, x in other._t.items():
            y = t.get(a, 0) + x
            if y:
                t[a] = y if type(y) is int else exact(y)
            else:
                t.pop(a, None)
        out = MultiPoly.__new__(MultiPoly)
        out.n = self.n
        out._t = t
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.n = self.n
        out._t = {a: -x for a, x in self._t.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            return MultiPoly(self.n, {a: c * x for a, x in self._t.items()})
        self._same_n(other)
        t = {}
        for a1, x1 in self._t.items():
            for a2, x2 in other._t.items():
                a = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                y = t.get(a, 0) + x1 * x2
                if y:
                    t[a] = y if type(y) is int else exact(y)
                else:
                    t.pop(a, None)
        out = MultiPoly.__new__(MultiPoly)
        out.n = self.n
        out._t = t
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.n)
        for _ in range(e):
            out = out * self
        return out

    def perm_act(self, w: tuple[int, ...]) -> "MultiPoly":
        """Apply the variable permutation x_i -> x_{w(i)}.

        ``w`` is a permutation of range(n) in one-line notation (0-based
        images).  This is a ring automorphism and a left action.
        """
        if len(w) != self.n:
            raise ValueError("permutation degree does not match variable count")
        t = {}
        for a, x in self._t.items():
            b = [0] * self.n
            for i, e in enumerate(a):
                b[w[i]] = e
            t[tuple(b)] = x
        return MultiPoly(self.n, t)

    def __str__(self) -> str:
        if not self._t:
            return "0"
        def mono_str(a):
            factors = []
            for i, e in enumerate(a):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            return "*".join(factors)
        keys = sorted(self._t, key=lambda a: (-sum(a), tuple(-e for e in a)))
        parts = []
        for a in keys:
            x = self._t[a]
            neg = x < 0
            c = -x if neg else x
            mono = mono_str(a)
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            else:
                body = f"{c}*{mono}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"


def divided_difference(p: MultiPoly, i: int) -> MultiPoly:
    """The divided difference (p - s_i p) / (x_i - x_{i+1}), 1-based i.

    Computed termwise from the closed form for a monomial in x_i, x_{i+1},
    which avoids any actual division and is exact; the constructor puts
    the summed coefficients in their stored form.
    """
    if not 1 <= i <= p.n - 1:
        raise ValueError(f"adjacent transposition index {i} out of range")
    ia, ib = i - 1, i
    terms: dict[tuple[int, ...], int | Fraction] = {}

    def add(a, x):
        y = terms.get(a, 0) + x
        if y:
            terms[a] = y
        else:
            terms.pop(a, None)

    for a, x in p._t.items():
        pe, qe = a[ia], a[ib]
        if pe == qe:
            continue
        sign = 1 if pe > qe else -1
        lo, hi = min(pe, qe), max(pe, qe)
        for t in range(lo, hi):
            b = list(a)
            b[ia] = t
            b[ib] = pe + qe - 1 - t
            add(tuple(b), sign * x)
    return MultiPoly(p.n, terms)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
