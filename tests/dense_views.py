"""Dense views of sparse vectors: the reference form tests compare with.

The library stores a vector as an {index: Fraction} dict of its nonzeros;
these helpers give the list form, zeros included, and back.
"""

from fractions import Fraction


def dense(vec, n):
    """The {index: Fraction} vector ``vec`` as a list of n entries."""
    out = [Fraction(0)] * n
    for j, x in vec.items():
        out[j] = x
    return out


def sparse(values):
    """The nonzero entries of a list, as an {index: Fraction} dict."""
    return {j: Fraction(x) for j, x in enumerate(values) if x}


def dense_flatten(m):
    """The entries of a QMatrix row by row, zeros included: the dense
    reference for :func:`soergelkit.linalg.flatten`."""
    return [x for row in m.data for x in row]
