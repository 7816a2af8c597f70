"""Dense views of sparse vectors: the reference form tests compare with.

The library stores a vector as an {index: value} dict of its nonzeros, each
value an int when integral and a Fraction otherwise; these helpers give the
list form of Fractions, zeros included, and back, and read columns and
span membership in that form.
"""

from fractions import Fraction

from soergelkit.linalg import exact


def dense(vec, n):
    """The {index: value} vector ``vec`` as a list of n Fractions."""
    out = [Fraction(0)] * n
    for j, x in vec.items():
        out[j] = Fraction(x)
    return out


def sparse(values):
    """The nonzero entries of a list, as an {index: value} dict in the
    stored form."""
    return {j: exact(x) for j, x in enumerate(values) if x}


def col(m, j):
    """Column j of a QMatrix as a list of Fractions, zeros included."""
    return [Fraction(r.get(j, 0)) for r in m.nonzeros]


def in_span(solver, vec):
    """Whether the list ``vec`` lies in the span of a SpanSolver's vectors."""
    try:
        solver.coords(vec)
    except ValueError:
        return False
    return True


def dense_flatten(m):
    """The entries of a QMatrix row by row, zeros included: the dense
    reference for :func:`soergelkit.linalg.flatten`."""
    return [x for row in m.data for x in row]


def block_diagonal(a, b):
    """The dense rows of the block-diagonal matrix [[a, 0], [0, b]] of two
    QMatrix blocks: the reference for the direct sums."""
    return [r + [Fraction(0)] * b.cols for r in a.data] + [[Fraction(0)] * a.cols + r for r in b.data]
