"""The elementary protocol of the public value types: hashing, truth,
equality, immutability and printing."""

import pytest

from soergelkit.coinvariant import coinvariant_ring
from soergelkit.formal import FormalComplex, Gen, formal_category
from soergelkit.gradedmod import ModuleMap
from soergelkit.hecke import hecke_algebra
from soergelkit.linalg import QMatrix, RrefResult, SparseSystem, rref
from soergelkit.multipoly import MultiPoly
from soergelkit.selftest import CriterionResult
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


def test_gens_are_equal_and_hash_alike_by_w_and_twist():
    assert Gen(S, 1) == Gen(w=S, twist=1) and hash(Gen(S, 1)) == hash(Gen(S, 1))
    assert Gen(S, 1) != Gen(S, 0) and Gen(S, 0) != Gen(E, 0) and Gen(S, 0) != Gen(S)
    assert Gen(S).twist is None
    assert len({Gen(S, 0), Gen(S, 0), Gen(S), Gen(E, 0)}) == 3
    # the hash of the key, so sets and dicts of generators keep their order
    assert hash(Gen(S, 1)) == hash((S, 1))
    # a bare key is not a generator, on either side of the comparison
    assert Gen(S, 1) != (S, 1) and (S, 1) != Gen(S, 1)
    assert Gen(S) != (S, None)


def test_gens_are_immutable():
    g = Gen(S, 1)
    with pytest.raises(AttributeError):
        g.twist = 2
    with pytest.raises(AttributeError):
        g.label = None
    with pytest.raises(AttributeError):
        del g.w
    assert (g.w, g.twist, g.label()) == (S, 1, "21(1)")


def test_linear_systems_and_echelon_forms_are_equal_by_value():
    system = SparseSystem(3, [{0: 2, 2: -3}])
    assert system == SparseSystem(cols=3, equations=[{0: 2, 2: -3}])
    assert system != SparseSystem(4, [{0: 2, 2: -3}]) and system != SparseSystem(3, [{1: 1}])
    assert system != (3, [{0: 2, 2: -3}])
    res = rref(QMatrix.from_rows([[2, 4], [1, 2]]))
    assert res == RrefResult(QMatrix.from_rows([[1, 2], [0, 0]]), (0,), 1)
    assert res != RrefResult(QMatrix.from_rows([[1, 2], [0, 0]]), (1,), 1)
    assert res != rref(QMatrix.identity(2)) and res != (res.matrix, res.pivots, res.rank)


def test_criterion_results_keep_their_fields_and_print_one_line():
    result = CriterionResult(3, "three", True, {"cases": 4})
    assert (result.number, result.name, result.passed, result.details) == (3, "three", True, {"cases": 4})
    assert result.line() == "[ 3] PASS  three"
    assert CriterionResult(number=12, name="twelve", passed=False, details={}).line() == "[12] FAIL  twelve"
