"""The symmetric group as a Coxeter group: words, length and Bruhat order.

Elements are tuples in one-line notation with 0-based images, so the
permutation sending 1,2,3 to 3,2,1 is stored as ``(2, 1, 0)`` and prints as
``"321"``.  Words are tuples of 1-based simple-reflection indices and print
comma-separated, e.g. ``"1,2,1"``.  Composition is function composition:
``multiply(u, v)`` maps i to u(v(i)), and a word evaluates to the product of
its letters from left to right in that sense.

Everything on :class:`WeylGroup` is memoised; instances are add-only caches
and safe to share between threads.

>>> w = evaluate_word((1, 2, 1), 3)
>>> format_perm(w)
'321'
>>> length(w)
3
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _itertools_permutations

from .linalg import SizeCapError

Perm = tuple[int, ...]
Word = tuple[int, ...]

RANK_CAP = 5


def check_rank(n: int) -> None:
    """Refuse a rank below 1 (ValueError) or over ``RANK_CAP`` (SizeCapError)."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > RANK_CAP:
        raise SizeCapError(f"rank {n} exceeds the configured cap {RANK_CAP}")


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def simple_reflection(i: int, n: int) -> Perm:
    """The adjacent transposition s_i swapping i and i+1 (1-based)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for rank {n}")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def multiply(u: Perm, v: Perm) -> Perm:
    """Function composition: (u v)(i) = u(v(i))."""
    return tuple(u[v[i]] for i in range(len(u)))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x] = i
    return tuple(out)


@lru_cache(maxsize=None)
def length(w: Perm) -> int:
    """Coxeter length, the number of inversions.

    Memoised per element; the groups up to ``RANK_CAP`` have 153 elements in
    all, so the table stays small.

    >>> length((2, 1, 0))
    3
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def mult_right_simple(w: Perm, i: int) -> Perm:
    """w s_i, swapping positions i and i+1 (1-based)."""
    p = list(w)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def mult_left_simple(i: int, w: Perm) -> Perm:
    """s_i w, swapping the values i and i+1 (1-based)."""
    a, b = i - 1, i
    return tuple(b if x == a else a if x == b else x for x in w)


def evaluate_word(word: Word, n: int) -> Perm:
    """Product of the simple reflections of ``word``, left to right.

    >>> evaluate_word((), 2)
    (0, 1)
    >>> evaluate_word((1, 1), 2)
    (0, 1)
    """
    w = identity_perm(n)
    for i in word:
        w = mult_right_simple(w, i)
    return w


def right_descents(w: Perm) -> frozenset[int]:
    """Indices i with length(w s_i) < length(w); 1-based."""
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Perm) -> frozenset[int]:
    return right_descents(inverse(w))


def format_perm(w: Perm) -> str:
    """One-line notation with 1-based values, e.g. ``'321'``."""
    if len(w) > 9:
        raise ValueError("one-line serialization is only defined up to rank 9")
    return "".join(str(x + 1) for x in w)


def parse_perm(s: str) -> Perm:
    vals = tuple(int(c) - 1 for c in s.strip())
    if sorted(vals) != list(range(len(vals))):
        raise ValueError(f"{s!r} is not a permutation in one-line notation")
    return vals


def format_word(word: Word) -> str:
    return ",".join(str(i) for i in word)


def parse_word(s: str, n: int | None = None) -> Word:
    s = s.strip()
    if not s:
        return ()
    try:
        word = tuple(int(t) for t in s.split(","))
    except ValueError as exc:
        raise ValueError(f"{s!r} is not a comma-separated word") from exc
    if n is not None:
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"letter {i} out of range for rank {n}")
    return word


class WeylGroup:
    """The symmetric group S_n with cached combinatorial structure."""

    def __init__(self, n: int):
        check_rank(n)
        self.n = n
        self.identity = identity_perm(n)
        self._elements: tuple[Perm, ...] | None = None
        self._bruhat: dict[tuple[Perm, Perm], bool] = {}
        self._a_word: dict[Perm, Word] = {}

    def simple(self, i: int) -> Perm:
        return simple_reflection(i, self.n)

    def elements(self) -> tuple[Perm, ...]:
        """All n! elements, sorted by (length, one-line notation)."""
        if self._elements is None:
            els = sorted(_itertools_permutations(range(self.n)), key=lambda w: (length(w), w))
            self._elements = tuple(els)
        return self._elements

    def longest_element(self) -> Perm:
        return tuple(reversed(range(self.n)))

    def evaluate(self, word: Word) -> Perm:
        return evaluate_word(word, self.n)

    def bruhat_leq(self, x: Perm, w: Perm) -> bool:
        """Bruhat order via the lifting property.

        For a left descent s of w: if s x < x then x <= w iff s x <= s w,
        otherwise x <= w iff x <= s w.
        """
        if len(x) != self.n or len(w) != self.n:
            raise ValueError("rank mismatch in Bruhat comparison")
        key = (x, w)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        lw = length(w)
        lx = length(x)
        if lx > lw:
            result = False
        elif lw == 0 or x == w:
            result = x == w
        else:
            i = min(left_descents(w))
            sw = mult_left_simple(i, w)
            sx = mult_left_simple(i, x)
            if length(sx) < lx:
                result = self.bruhat_leq(sx, sw)
            else:
                result = self.bruhat_leq(x, sw)
        self._bruhat[key] = result
        return result

    def a_reduced_word(self, w: Perm) -> Word:
        """The lexicographically smallest reduced word; canonical choice.

        Greedy: the first letter of a reduced word is a left descent, so
        strip the smallest one until w is the identity.  Every prefix of the
        word is the canonical word of its element, which keeps each D_w
        that ``SoergelCategory.indecomposable`` builds on the basis of the
        inductions along its word's Bott-Samelson module.
        """
        cached = self._a_word.get(w)
        if cached is not None:
            return cached
        letters = []
        u = w
        while length(u):
            i = min(left_descents(u))
            letters.append(i)
            u = mult_left_simple(i, u)
        word = self._a_word[w] = tuple(letters)
        return word


@lru_cache(maxsize=None)
def weyl_group(n: int) -> WeylGroup:
    """Shared per-rank group instance (add-only caches, thread-safe reads)."""
    return WeylGroup(n)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
