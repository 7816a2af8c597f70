"""Laurent polynomials in one variable v with exact rational coefficients.

These carry graded dimensions, Poincare polynomials and Hecke-algebra
coefficients throughout the package.  Values are immutable; every operation
returns a new polynomial.  A coefficient is stored as an int when it is
integral and as a Fraction otherwise (:func:`soergelkit.linalg.exact`), so
:meth:`LaurentPoly.coeff` and :meth:`LaurentPoly.at_one` return ints for
the integral counts that the package mostly carries.  The canonical string
form lists terms in ascending exponent order, e.g. ``v^-1+2v^3``.

>>> p = LaurentPoly.v() + LaurentPoly.v(-1)
>>> str(p)
'v^-1+v'
>>> p.bar() == p
True
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import exact


_TERM_RE = re.compile(r"^(\d+(?:/0*[1-9]\d*)?)?(v(?:\^(-?\d+))?)?$")


class LaurentPoly:
    """A finitely supported map from integer exponents to rationals."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, x in coeffs.items():
                x = exact(x)
                if x:
                    c[int(k)] = x
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def v(cls, k: int = 1) -> "LaurentPoly":
        """The monomial v^k."""
        return cls({k: 1})

    def coeff(self, k: int) -> int | Fraction:
        return self._c.get(k, 0)

    def items(self):
        """Pairs (exponent, coefficient) in ascending exponent order."""
        return [(k, self._c[k]) for k in sorted(self._c)]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c = dict(self._c)
        for k, x in other._c.items():
            y = c.get(k, 0) + x
            if y:
                c[k] = y if type(y) is int else exact(y)
            else:
                c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -x for k, x in self._c.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            x = exact(other)
            return LaurentPoly({k: c * x for k, c in self._c.items()})
        c = {}
        for k1, x1 in self._c.items():
            for k2, x2 in other._c.items():
                k = k1 + k2
                y = c.get(k, 0) + x1 * x2
                if y:
                    c[k] = y if type(y) is int else exact(y)
                else:
                    c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        out = LaurentPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """Substitute v by its inverse, negating every exponent."""
        return LaurentPoly({-k: x for k, x in self._c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly({e + k: x for e, x in self._c.items()})

    def is_symmetric(self) -> bool:
        """True when invariant under v -> v^-1."""
        return self.bar() == self

    def at_one(self) -> int | Fraction:
        """Evaluate at v = 1 (total dimension of a graded count)."""
        return exact(sum(self._c.values()))

    def min_exp(self) -> int:
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c):
            x = self._c[k]
            neg = x < 0
            a = -x if neg else x
            if k == 0:
                body = str(a)
            else:
                vpart = "v" if k == 1 else f"v^{k}"
                body = vpart if a == 1 else f"{a}{vpart}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("-" if neg else "+") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    @classmethod
    def parse(cls, s: str) -> "LaurentPoly":
        """Parse the canonical sparse string form.

        >>> LaurentPoly.parse("v^-1+2v^3") == LaurentPoly({-1: 1, 3: 2})
        True
        >>> LaurentPoly.parse("0")
        LaurentPoly('0')
        """
        s = s.replace(" ", "")
        if s in ("", "0"):
            return cls.zero()
        # split on +/- signs that are not exponent signs (those follow '^')
        tokens = []
        start = 0
        for i, ch in enumerate(s):
            if i > start and ch in "+-" and s[i - 1] != "^":
                tokens.append(s[start:i])
                start = i
        tokens.append(s[start:])
        coeffs: dict[int, int | Fraction] = {}
        for tok in tokens:
            sign = 1
            if tok[0] == "+":
                tok = tok[1:]
            elif tok[0] == "-":
                sign = -1
                tok = tok[1:]
            m = _TERM_RE.match(tok)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"bad term {tok!r} in Laurent polynomial")
            coeff = Fraction(m.group(1)) if m.group(1) else 1
            if m.group(2) is None:
                exp = 0
            elif m.group(3) is None:
                exp = 1
            else:
                exp = int(m.group(3))
            coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        return cls(coeffs)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
