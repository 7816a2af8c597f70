"""Exact combinatorics of Soergel modules over the rationals.

The package computes, at desk scale and with exact arithmetic only:

* the symmetric group with words, length and Bruhat order;
* the Hecke algebra with its canonical basis (Kazhdan-Lusztig polynomials)
  as an independent oracle for module decompositions;
* the coinvariant algebra with Demazure operators;
* graded modules over the coinvariant algebra, Bott-Samelson induction,
  graded Hom spaces, and decomposition into indecomposable summands;
* toy semisimple Tate categories with their truncation structures and the
  twist-collapse functor;
* formal homotopy categories of complexes of the indecomposables, on which
  the graded and ungraded duality square commutes by construction;
* the endomorphism algebra of the sum of all indecomposables, minimal
  graded projective resolutions and Ext tables.

Everything is immutable after construction and safe for concurrent reads;
per-rank caches are filled under the interpreter lock.
"""

__version__ = "0.1.0"

from .coinvariant import CoinvariantElement, CoinvariantRing, coinvariant_ring
from .dualalg import DualAlgebra, dual_algebra
from .formal import FormalComplex, Gen, formal_category
from .gradedmod import GradedModule, ModuleMap, graded_hom_poly, hom_graded, trivial_module
from .hecke import HeckeAlgebra, HeckeElement, hecke_algebra
from .laurent import LaurentPoly
from .linalg import QMatrix, SizeCapError, kernel_basis, rref
from .multipoly import MultiPoly, divided_difference
from .soergel import Decomposition, SoergelCategory, soergel_category
from .weyl import WeylGroup, weyl_group

__all__ = [
    "CoinvariantElement",
    "CoinvariantRing",
    "Decomposition",
    "DualAlgebra",
    "FormalComplex",
    "Gen",
    "GradedModule",
    "HeckeAlgebra",
    "HeckeElement",
    "LaurentPoly",
    "ModuleMap",
    "MultiPoly",
    "QMatrix",
    "SizeCapError",
    "SoergelCategory",
    "WeylGroup",
    "coinvariant_ring",
    "divided_difference",
    "dual_algebra",
    "formal_category",
    "graded_hom_poly",
    "hecke_algebra",
    "hom_graded",
    "kernel_basis",
    "rref",
    "soergel_category",
    "trivial_module",
    "weyl_group",
    "__version__",
]
