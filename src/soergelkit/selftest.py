"""The acceptance battery: every headline guarantee of the package as one
runnable criterion, exact arithmetic throughout (tolerance zero).

Each criterion returns a result record with the checked numbers; the
battery is deterministic given the seed, so two runs produce identical
reports byte for byte (the tests compare runs in fresh interpreters under
different hash seeds).  The same functions back the command line
``selftest`` and the acceptance test module, and ``tate --demo`` and
``koszul-square`` run the checks of criteria 7 and 8 through
:func:`tate_battery` and :func:`square_failures`, and the rank-5 frontier
checks run criteria 2 and 4 through :func:`demazure_calculus` and :func:`hom_formula`.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from .dualalg import dual_algebra
from .formal import formal_category
from .gradedmod import graded_hom_poly, hom_ungraded_dim
from .soergel import soergel_category
from .tate import (
    check_t_axioms,
    check_w_axioms,
    iota_collapse,
    random_graded_complex,
    simple,
    t_truncate_geq,
    t_truncate_leq,
    weight_of,
)
from .weyl import format_perm

#: Curated rank-4 words for the oracle agreement run; all stay far below
#: the dimension cap (the largest has dimension 32).
CURATED_RANK4_WORDS = (
    (1, 2, 1),
    (2, 3, 2),
    (1, 3, 2, 1),
    (1, 2, 3, 2, 1),
    (1, 2, 1, 2, 1),
    (2, 1, 3, 2, 3),
)


class CriterionResult:
    """The outcome of one criterion: its number, name, verdict and the
    checked numbers."""

    __slots__ = ("number", "name", "passed", "details")

    def __init__(self, number: int, name: str, passed: bool, details: dict):
        self.number = number
        self.name = name
        self.passed = passed
        self.details = details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:>2}] {status}  {self.name}"


def criterion_1_coinvariant_dimensions() -> CriterionResult:
    from .coinvariant import coinvariant_ring

    expected = {2: 2, 3: 6, 4: 24}
    dims = {}
    palindromic = True
    for n, want in expected.items():
        ring = coinvariant_ring(n)
        dims[str(n)] = ring.dim
        graded = ring.graded_dims()
        top = max(graded)
        palindromic = palindromic and all(graded[d] == graded[top - d] for d in graded)
    passed = palindromic and all(dims[str(n)] == want for n, want in expected.items())
    return CriterionResult(
        1,
        "coinvariant dimensions 2, 6, 24 with palindromic gradings",
        passed,
        {"dims": dims, "palindromic": palindromic},
    )


def _first_failure(counts: dict, cases) -> tuple[dict, tuple | None]:
    """Evaluate every ``(kind, holds, case)`` of ``cases``, counting them by
    kind in ``counts``; returns the counts and the first failing case."""
    first = None
    for kind, holds, case in cases:
        counts[kind] += 1
        if not holds and first is None:
            first = (kind, *case)
    return counts, first


def demazure_calculus(n: int) -> tuple[dict, tuple | None]:
    """The divided differences on the full staircase basis of the rank-n
    coinvariant ring: ∂_i² = 0, the braid relations and the twisted Leibniz
    rule ∂_i(cd) = ∂_i(c) d + s_i(c) ∂_i(d).  Returns the counts of squares,
    braids and products, and the first failing case or None."""
    from .coinvariant import coinvariant_ring
    from .weyl import simple_reflection

    ring = coinvariant_ring(n)
    basis = [ring.basis_element(i) for i in range(ring.dim)]
    d = ring.demazure

    def cases():
        for i in range(1, n):
            for c in basis:
                yield "squares", not d(i, d(i, c)), (i, c)
        for i in range(1, n - 1):
            for c in basis:
                yield "braids", d(i, d(i + 1, d(i, c))) == d(i + 1, d(i, d(i + 1, c))), (i, c)
        for i in range(1, n):
            s = simple_reflection(i, n)
            de = [d(i, e) for e in basis]
            for c in basis:
                sc, dc = ring.weyl_act(s, c), d(i, c)
                for e, d_e in zip(basis, de):
                    yield "leibniz", d(i, c * e) == dc * e + sc * d_e, (i, c, e)

    return _first_failure({"squares": 0, "braids": 0, "leibniz": 0}, cases())


def criterion_2_demazure_calculus() -> CriterionResult:
    totals, ok = Counter(), True
    for n in (2, 3, 4):
        counts, failure = demazure_calculus(n)
        totals.update(counts)
        ok = ok and failure is None
    return CriterionResult(
        2,
        "divided-difference calculus on the full staircase basis up to rank 4",
        ok,
        dict(totals),
    )


def criterion_3_bott_samelson_oracle() -> CriterionResult:
    checked = {}
    ok = True
    words3 = [w for l in range(5) for w in product((1, 2), repeat=l)]
    for n, words in ((3, words3), (4, CURATED_RANK4_WORDS)):
        cat = soergel_category(n)
        for word in words:
            expected = cat.expected_summands(word)
            dec = cat.decompose(cat.bott_samelson(word), expected=expected)
            ok = ok and dec.multiset() == tuple(expected)
        checked[str(n)] = len(words)
    return CriterionResult(
        3,
        "induced-module decompositions match the canonical-basis products",
        ok,
        {"words_checked": checked},
    )


def hom_formula(n: int) -> tuple[dict, tuple | None]:
    """Soergel's Hom formula on every rank-n pair: the graded dimension of
    Hom(D_x, D_y) against the Hecke pairing of b_x and b_y.  Returns the
    pair count and the first failing pair or None."""
    cat = soergel_category(n)
    hecke, elements = cat.hecke, cat.group.elements()
    holds = lambda x, y: cat.hom_poly(x, y) == hecke.pairing(hecke.kl_basis(x), hecke.kl_basis(y))
    cases = (("pairs", holds(x, y), (format_perm(x), format_perm(y))) for x in elements for y in elements)
    return _first_failure({"pairs": 0}, cases)


def criterion_4_hom_formula() -> CriterionResult:
    counts, failure = hom_formula(3)
    return CriterionResult(
        4,
        "graded Hom dimensions equal the algebra pairing on all rank-3 pairs",
        failure is None,
        counts,
    )


def degrading_sides(fc, x, y, ks: range) -> tuple[list[int], list[int]]:
    """Both sides of criterion 5 for one pair of MIX complexes, one value
    per k in ks: the homotopy Hom dimension of x -> y[k] after the grading
    collapse, and the sum over twists t in -10..10 of the graded dimension
    of x -> twist(y, t)[k].  Each pair sweeps ks in one
    :meth:`~soergelkit.formal.FormalCategory.hom_homotopies` call, so each
    of its Hom differentials is built once."""
    lhs = fc.hom_homotopies(fc.iota_formal(x), fc.iota_formal(y), ks)
    graded = [fc.hom_homotopies(x, fc.twist(y, t), ks) for t in range(-10, 11)]
    return lhs, [sum(dims) for dims in zip(*graded)]


def criterion_5_degrading(seed: int) -> CriterionResult:
    module_pairs = 0
    ok = True
    for n in (2, 3):
        cat = soergel_category(n)
        modules = [cat.indecomposable(w) for w in cat.group.elements()]
        words = [(1,), (1, 1)] if n == 2 else [(1, 2), (2, 2), (1, 2, 1)]
        modules += [cat.bott_samelson(w) for w in words]
        for m in modules:
            for nn in modules:
                ok = ok and hom_ungraded_dim(m, nn) == graded_hom_poly(m, nn).at_one()
                module_pairs += 1
    complex_pairs = 0
    for n in (2, 3):
        fc = formal_category(n)
        rng = random.Random(seed + n)
        for _ in range(8):
            x = fc.random_complex(rng, max_positions=3, max_gens=2)
            y = fc.random_complex(rng, max_positions=3, max_gens=2)
            lhs, rhs = degrading_sides(fc, x, y, range(2))
            ok = ok and lhs == rhs
            complex_pairs += len(lhs)
    return CriterionResult(
        5,
        "ungraded Hom equals the sum of graded Homs, for modules and complexes",
        ok,
        {"module_pairs": module_pairs, "complex_pairs": complex_pairs},
    )


def criterion_6_endomorphism_ring() -> CriterionResult:
    ok = True
    dims = {}
    for n in (2, 3):
        cat = soergel_category(n)
        d = cat.indecomposable(cat.group.longest_element())
        end_poly = graded_hom_poly(d, d)
        ok = ok and end_poly == cat.ring.poincare()
        dims[str(n)] = str(end_poly)
    return CriterionResult(
        6,
        "endomorphisms of the big summand have the ring's graded dimensions",
        ok,
        {"graded_dims": dims},
    )


def tate_battery(rng: random.Random, weight_cases: int) -> tuple[dict, bool]:
    """The Tate checks: the collapse witness, weight exactness of the
    collapse on ``weight_cases`` random graded complexes, and the t- and
    w-axioms on two samples of five.  Returns the report of ``tate --demo``
    without its seed, and whether every check passed.  The t- and
    w-truncations of an ungraded complex coincide by construction, so
    they are not compared here."""
    # the twisted-shifted unit has weight 0 everywhere but moves from
    # t-degree -2 to t-degree 0 under the collapse
    x = simple(-2, -1)
    collapsed = iota_collapse(x)
    witnesses = {
        "weight_of_twisted_shifted_unit": weight_of(-2, -1),
        "t_degree_before_collapse": min(c for c, _ in x.components()),
        "t_degree_after_collapse": min(collapsed.dims),
        "collapse_breaks_t": t_truncate_leq(x, -2) == x
        and t_truncate_leq(collapsed, -1).total_dim() == 0
        and t_truncate_geq(collapsed, 0) == collapsed,
        "collapse_preserves_weight": weight_of(-2, -1) == 0 and list(collapsed.dims) == [0],
    }
    weight_failures = 0
    cases = 0
    for _ in range(weight_cases):
        g = random_graded_complex(rng, max_g=2, max_pos=2).minimize()
        weights = [weight_of(c, gg) for (c, gg) in g.components()]
        if not weights:
            continue
        positions = list(iota_collapse(g).minimize().dims)
        if (max(weights) <= 0) != (max(positions) <= 0) or (min(weights) >= 0) != (
            min(positions) >= 0
        ):
            weight_failures += 1
        cases += 1
    witnesses["weight_exactness_cases"] = cases
    witnesses["weight_exactness_failures"] = weight_failures
    t_report = check_t_axioms([random_graded_complex(rng, max_g=1, max_pos=2) for _ in range(5)])
    w_report = check_w_axioms([random_graded_complex(rng, max_g=1, max_pos=2) for _ in range(5)])
    ok = (
        witnesses["collapse_breaks_t"]
        and witnesses["collapse_preserves_weight"]
        and weight_failures == 0
        and t_report["all_pass"]
        and w_report["all_pass"]
    )
    return {"witnesses": witnesses, "t_axioms": t_report, "w_axioms": w_report}, ok


def criterion_7_tate_structures(seed: int) -> CriterionResult:
    report, ok = tate_battery(random.Random(seed), 200)
    return CriterionResult(
        7,
        "collapse is weight-exact and fails t-exactness at the witness",
        ok,
        {
            "weight_cases": report["witnesses"]["weight_exactness_cases"],
            "t_axioms": report["t_axioms"],
            "w_axioms": report["w_axioms"],
        },
    )


def square_failures(n: int, rng: random.Random, cases: int) -> int:
    """How many of ``cases`` random rank-n complexes drawn from rng fail the
    duality square.  The differential check d² = 0 runs, and raises, inside
    :meth:`FormalCategory.random_complex`, so every complex counted here
    has passed it."""
    fc = formal_category(n)
    return sum(not fc.square_check(fc.random_complex(rng)) for _ in range(cases))


def criterion_8_duality_square(seed: int, cases_per_rank: int = 500) -> CriterionResult:
    counts = {}
    for n in (2, 3):
        failures = square_failures(n, random.Random(seed + n), cases_per_rank)
        counts[str(n)] = {"cases": cases_per_rank, "failures": failures}
    return CriterionResult(
        8,
        "every random corpus complex has d^2 = 0 in the total space; the "
        "duality square, a relabelling, commutes (structural check)",
        all(c["failures"] == 0 for c in counts.values()),
        {"ranks": counts},
    )


def criterion_9_dual_homological() -> CriterionResult:
    ok = True
    details = {}
    alg2 = dual_algebra(2)
    details["dim_rank2"] = alg2.dim
    ok = ok and alg2.dim == 5
    euler_ok = {}
    for n in (2, 3):
        alg = dual_algebra(n)
        same = alg.euler_matrix() == alg.inverse_cartan()
        euler_ok[str(n)] = same
        ok = ok and same
    details["euler_equals_inverse_cartan"] = euler_ok
    koszul = {}
    for n in (1, 2, 3):
        report = dual_algebra(n).koszulity_check()
        koszul[str(n)] = report
        ok = ok and report["koszul"]
    details["koszulity"] = koszul
    return CriterionResult(
        9,
        "dual algebra dimension, Euler inversion of the Cartan matrix, "
        "and Koszulity of the Ext grading",
        ok,
        {k: details[k] for k in sorted(details)},
    )


def run_battery(seed: int = 42) -> list[CriterionResult]:
    """All acceptance criteria in order."""
    return [
        criterion_1_coinvariant_dimensions(),
        criterion_2_demazure_calculus(),
        criterion_3_bott_samelson_oracle(),
        criterion_4_hom_formula(),
        criterion_5_degrading(seed),
        criterion_6_endomorphism_ring(),
        criterion_7_tate_structures(seed),
        criterion_8_duality_square(seed),
        criterion_9_dual_homological(),
    ]


def battery_report(results) -> dict:
    return {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "all_passed": all(r.passed for r in results),
    }
