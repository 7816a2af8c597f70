"""The elementary protocol of the public value types: hashing, truth and
printing."""

import pytest

from soergelkit.coinvariant import coinvariant_ring
from soergelkit.formal import FormalComplex, Gen, formal_category
from soergelkit.gradedmod import ModuleMap
from soergelkit.hecke import hecke_algebra
from soergelkit.linalg import QMatrix
from soergelkit.multipoly import MultiPoly
from soergelkit.soergel import Decomposition, soergel_category
from soergelkit.tate import Complex, simple
from soergelkit.weyl import parse_perm

E, S = parse_perm("12"), parse_perm("21")


@pytest.mark.parametrize(
    "make",
    [
        lambda: QMatrix.identity(2),
        lambda: ModuleMap.identity(soergel_category(2).trivial()),
        lambda: coinvariant_ring(2).variable(1),
        lambda: hecke_algebra(2).kl_basis(S),
        lambda: Complex({0: 1}),
        lambda: simple(0, 0),
        lambda: formal_category(2).stalk("MIX", [Gen(S, 0)]),
    ],
    ids=["QMatrix", "ModuleMap", "CoinvariantElement", "HeckeElement", "Complex", "GradedComplex", "FormalComplex"],
)
def test_mutable_value_types_are_unhashable(make):
    value = make()
    with pytest.raises(TypeError, match=f"{type(value).__name__} is unhashable"):
        hash(value)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomials_hash_by_value_and_zero_is_false(n):
    p = MultiPoly(n, {(1,) + (0,) * (n - 1): 2, (0,) * n: -1})
    assert hash(p) == hash(MultiPoly(n, {(0,) * n: -1, (1,) + (0,) * (n - 1): 2}))
    assert len({p, p - MultiPoly.zero(n), MultiPoly.zero(n)}) == 2
    assert p and not MultiPoly.zero(n)


@pytest.mark.parametrize(
    "text, make",
    [
        ("CoinvariantElement('3*x1 - 1')", lambda: repr(coinvariant_ring(2).variable(1).scale(3) - coinvariant_ring(2).one())),
        ("FormalComplex<MIX>(0:[21(0)] 1:[12(1)])", lambda: repr(FormalComplex("MIX", {0: (Gen(S, 0),), 1: (Gen(E, 1),)}))),
        ("HeckeElement((v)H[12] + (1)H[21])", lambda: repr(hecke_algebra(2).kl_basis(S))),
        ("(v)H[12] + (1)H[21]", lambda: str(hecke_algebra(2).kl_basis(S))),
        ("0", lambda: str(hecke_algebra(2).zero())),
        ("QMatrix(2x3)", lambda: repr(QMatrix.zero(2, 3))),
        ("MultiPoly('-2*x2^2 + x1 + 3')", lambda: repr(MultiPoly(2, {(1, 0): 1, (0, 2): -2, (0, 0): 3}))),
        ("Decomposition[(D[12], 0), (D[21], 1)]", lambda: repr(Decomposition([(S, 1), (E, 0)]))),
    ],
)
def test_printed_forms(text, make):
    assert make() == text
