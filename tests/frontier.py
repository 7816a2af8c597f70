"""The frontier checks: one function of the rank per two-route check,
which the tests run at ranks 2-4 and CI at rank 5 (the graded Cartan
matrix and the resolutions at rank 4).  Each asserts with the failing
case in its message and returns the counts it checked; the battery's
two, ``demazure_calculus`` and ``hom_formula`` from
:mod:`soergelkit.selftest`, return the counts and the first failing case,
and ``kept_relations`` returns the sizes of the presentations and Hom
systems of the ``D_w`` build, which CI pins.  ``PYTHONPATH=src python3
tests/frontier.py hom_formula 5`` runs one check at one rank and prints
its counts, seconds and peak RSS.
"""

import json
import random
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

from soergelkit import gradedmod, soergel
from soergelkit.coinvariant import CoinvariantElement, coinvariant_ring
from soergelkit.dualalg import dual_algebra
from soergelkit.hecke import HeckeAlgebra
from soergelkit.laurent import LaurentPoly
from soergelkit.multipoly import divided_difference
from soergelkit.selftest import demazure_calculus, hom_formula
from soergelkit.soergel import DecompositionError, soergel_category
from soergelkit.weyl import format_perm, length, weyl_group

from reference import (
    certify_by_full_images,
    endo_dimension_by_pairings,
    indecomposable_by_peel,
    kl_basis_table,
    kl_expand,
    peel_along,
    peel_search,
    presentation_relations,
    product_of_bs,
    restricted_resolution,
)


def mixed_element(rng, ring):
    """A few basis elements of mixed degrees with true-fraction coefficients."""
    return CoinvariantElement(ring, {rng.randrange(ring.dim): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)})


def polynomial_route(n):
    """Products, divided differences and the Weyl action of 200 seeded
    pairs of coinvariant elements against the polynomial route: lift,
    compute in the polynomial ring, take the normal form."""
    ring = coinvariant_ring(n)
    group = weyl_group(n).elements()
    rng = random.Random(5)
    for _ in range(200):
        c, d = mixed_element(rng, ring), mixed_element(rng, ring)
        i, w = rng.randint(1, n - 1), rng.choice(group)
        assert c * d == ring.normal_form(c.lift() * d.lift()), (c, d)
        assert ring.demazure(i, c) == ring.normal_form(divided_difference(c.lift(), i)), (i, c)
        assert ring.weyl_act(w, c) == ring.normal_form(c.lift().perm_act(w)), (format_perm(w), c)
    return {"sampled_pairs": 200}


def graded_cartan(n):
    """The graded Cartan matrix of the rank-n dual algebra against the
    Hecke pairing on all pairs, with the premise of decompose's
    certificate: no negative degree, and the scalars in degree 0 exactly
    when x = y.  The algebra's dimension is the sum of the entries at v = 1."""
    alg = dual_algebra(n)
    hecke = alg.cat.hecke
    total = 0
    for x in alg.summands:
        for y in alg.summands:
            pairing = hecke.pairing(hecke.kl_basis(x), hecke.kl_basis(y))
            case = (format_perm(x), format_perm(y))
            assert alg.graded_cartan(x, y) == pairing, case
            assert pairing.min_exp() >= 0 and pairing.coeff(0) == (x == y), case
            total += pairing.at_one()
    assert alg.dim == total, (alg.dim, total)
    return {"dim": alg.dim, "pairs": len(alg.summands) ** 2}


def character_of_b(cat, w):
    """The character of D_w predicted from b_w, by H_x -> v^-length(x): it
    takes multiplication by b_s to multiplication by (v + v^-1)."""
    out = LaurentPoly.zero()
    for x, p in cat.hecke.kl_basis(w).terms():
        out = out + p.shift(-length(x))
    return out


def indecomposables(n):
    """Every rank-n D_w: its character against that of b_w, every action
    entry stored as an int (so the hot paths never fall back to Fraction
    arithmetic), and equality in dims and actions with the reference
    recursion that peels the lower summands off the induction."""
    cat = soergel_category(n)
    elements = sorted(cat.group.elements(), key=lambda w: (length(w), w))
    entries = 0
    for w in elements:
        module = cat.indecomposable(w)
        assert module.character() == character_of_b(cat, w), format_perm(w)
        for mat in module.actions.values():
            for row in mat.nonzeros:
                assert all(type(x) is int for x in row.values()), format_perm(w)
                entries += len(row)
        peeled = indecomposable_by_peel(cat, w)
        assert module.dims == peeled.dims and module.actions == peeled.actions, format_perm(w)
    return {"modules": len(elements), "int_entries": entries, "equal_to_peel": len(elements)}


def refuses(certify, *args):
    """Whether ``certify(*args)`` raises DecompositionError."""
    try:
        certify(*args)
    except DecompositionError:
        return True
    return False


def seeded_words(rng, n):
    """60 rank-n words of length 3-7 drawn from ``rng``."""
    return [tuple(rng.randint(1, n - 1) for _ in range(rng.randint(3, 7))) for _ in range(60)]


def certified_words(n):
    """60 seeded rank-n words of length 3-7, each decomposed by the
    certified prediction, the peel along it and the Hecke product, and a
    same-character substitute of one summand, where any exists, refused;
    the reference certificate by full images (``oracle_agrees``) certifies
    the same prediction and refuses the same substitute.  Counts the
    largest and the total unknowns: block unknowns of the certificate and
    of the peel, and the generator-image unknowns solved; the reference
    certificate solves outside the counted bindings."""
    cat = soergel_category(n)
    hecke = cat.hecke
    by_character = {}
    for w in sorted(cat.group.elements(), key=lambda w: (length(w), w)):
        by_character.setdefault(cat.indecomposable(w).character(), []).append(w)
    largest, total, route = Counter(), Counter(), ["certify"]

    def count(key, unknowns):
        largest[key] = max(largest[key], unknowns)
        total[key] += unknowns

    def blocks(M, N, degree):
        count(route[0], sum(M.dim_at(a) * N.dim_at(a + degree) for a in M.degrees()))

    def images(M, N, degree):
        count("images", sum(g * N.dim_at(d + degree) for d, g in M.presentation().generators().items()))

    hom_graded, hom_generator_images = soergel.hom_graded, soergel.hom_generator_images
    soergel.hom_graded = lambda *args: blocks(*args) or hom_graded(*args)
    soergel.hom_generator_images = lambda *args: blocks(*args) or images(*args) or hom_generator_images(*args)
    rng = random.Random(5)
    sample = seeded_words(rng, n)
    order = lambda t: (length(t[0]), t[0], t[1])
    refused = agrees = 0
    try:
        for word in sample:
            module, expected = cat.bott_samelson(word), cat.expected_summands(word)
            route[0] = "certify"
            certified = cat.decompose(module, expected=expected).summands
            route[0] = "peel"
            peeled = [(x, k) for x, k, _ in peel_along(cat, module, expected)]
            route[0] = "certify"
            assert certified == tuple(expected), word
            assert sorted(peeled, key=order) == sorted(expected, key=order), word
            h = sum((hecke.kl_basis(x).scale(LaurentPoly.v(-k)) for x, k in certified), hecke.zero())
            assert h == hecke.product_bs(word), word
            assert certify_by_full_images(cat, module, expected) == certified, word
            i, (x, k) = max(enumerate(expected), key=lambda t: len(by_character[cat.indecomposable(t[1][0]).character()]))
            substitutes = [y for y in by_character[cat.indecomposable(x).character()] if y != x]
            if substitutes:
                fake = expected[:i] + [(rng.choice(substitutes), k)] + expected[i + 1 :]
                assert refuses(cat.decompose, module, fake), f"a same-character substitute certified on {word}"
                assert refuses(certify_by_full_images, cat, module, fake), f"the oracle certified one on {word}"
                refused += 1
            agrees += 1
    finally:
        soergel.hom_graded, soergel.hom_generator_images = hom_graded, hom_generator_images
    return {
        "words": len(sample),
        "substitutes_refused": refused,
        "oracle_agrees": agrees,
        "largest_unknowns": dict(largest),
        "unknowns": dict(total),
    }


def predicted_words(n):
    """The 60 seeded words of :func:`certified_words`, each decomposed with
    no prediction given, so by the one read off Hom counts: the multiset
    equals the Hecke prediction and that of the reference peel search."""
    cat = soergel_category(n)
    words = seeded_words(random.Random(5), n)
    order = lambda t: (length(t[0]), t[0], t[1])
    agree = 0
    for word in words:
        module = cat.bott_samelson(word)
        predicted = sorted(cat.decompose(module).summands, key=order)
        assert predicted == sorted(cat.expected_summands(word), key=order), word
        assert predicted == sorted(((x, k) for x, k, _ in peel_search(cat, module)), key=order), word
        agree += 1
    return {"words": len(words), "agree_with_search": agree}


def kept_relations(n):
    """Every rank-n D_w built in a fresh category: the relations of all
    their presentations, the kept ones, and the largest equation count of
    a Hom system solved during the build, seen by a spy on the one
    builder of those systems."""
    cat = soergel.SoergelCategory(n)
    build, largest = gradedmod._hom_system, [0]

    def spy(*args):
        system = build(*args)
        largest[0] = max(largest[0], len(system[2]))
        return system

    gradedmod._hom_system = spy
    try:
        modules = [cat.indecomposable(w) for w in sorted(cat.group.elements(), key=lambda w: (length(w), w))]
    finally:
        gradedmod._hom_system = build
    relations = sum(len(r) for M in modules for r in presentation_relations(M).values())
    kept = sum(len(k) for M in modules for k in M.presentation().kept.values())
    return {"relations": relations, "kept": kept, "largest_system": largest[0]}


def hecke_oracle(n):
    """The Hecke arithmetic against its object-level reference routes, in a
    fresh algebra: every rank-n b_w; the dimension of the endomorphism
    algebra of the sum of all D_w by the sum-of-squares identity against
    the sum of the pairings of all pairs; and, on 60 seeded words of length
    6-12, the product of the b_s against the general product, and its
    expansion in the canonical basis against the reference expansion, key
    order included, and re-multiplied to the product."""
    hecke = HeckeAlgebra(weyl_group(n))
    table = kl_basis_table(hecke)
    for w, b in table.items():
        assert hecke.kl_basis(w) == b, format_perm(w)
    elements = hecke.group.elements()
    dim = soergel.endo_dimension(hecke, elements)
    assert dim == endo_dimension_by_pairings(hecke, [(w, 0) for w in elements]), (n, dim)
    rng = random.Random(7)
    words = [tuple(rng.randint(1, n - 1) for _ in range(rng.randint(6, 12))) for _ in range(60)]
    for word in words:
        h = hecke.product_bs(word)
        assert h == product_of_bs(hecke, word), word
        expansion = hecke.kl_expand(h)
        assert list(expansion.items()) == list(kl_expand(table, h).items()), word
        assert sum((hecke.kl_basis(x).scale(m) for x, m in expansion.items()), hecke.zero()) == h, word
    return {"elements": len(table), "dimension": dim, "words": len(words)}


def graded_euler(n):
    """C(v) E(v) = I for the graded Cartan matrix C(v) of the rank-n dual
    algebra and E(v), whose (x, y) entry sums (-1)^k v^d over the step-k
    covers (y, d) of the resolution of x; as the control, E with every v^d
    taken to v^-d must break it.  Counts the cover terms summed."""
    alg = dual_algebra(n)
    cartan = [[alg.graded_cartan(x, y) for y in alg.summands] for x in alg.summands]

    def euler(sign):
        entries = [[{} for _ in alg.summands] for _ in alg.summands]
        for row, x in zip(entries, alg.summands):
            res = alg.projective_resolution(x)
            assert res.complete, format_perm(x)
            for k, step in enumerate(res.steps):
                for y, d in step:
                    entry = row[alg.slot[y]]
                    entry[sign * d] = entry.get(sign * d, 0) + (-1) ** k
        return [[LaurentPoly(entry) for entry in row] for row in entries]

    def times_cartan_is_identity(e):
        size = len(alg.summands)
        return all(
            sum((cartan[i][k] * e[k][j] for k in range(size)), LaurentPoly.zero()) == LaurentPoly({0: int(i == j)})
            for i in range(size)
            for j in range(size)
        )

    assert times_cartan_is_identity(euler(1)), n
    assert not times_cartan_is_identity(euler(-1)), n
    terms = sum(len(step) for x in alg.summands for step in alg.projective_resolution(x).steps)
    return {"simples": len(alg.summands), "cover_terms": terms}


def resolutions(n):
    """The minimal resolutions of all rank-n simples: complete and Koszul,
    the radical generators as many as the degree-1 records, the graded Euler
    identity with its control (:func:`graded_euler`), and the steps of the
    identity's and of the cycle 23..n1's resolutions equal to those of the
    reference route that restricts every action matrix to each syzygy."""
    alg = dual_algebra(n)
    report = alg.koszulity_check()
    assert report["complete"] and report["koszul"], report
    generators = sum(len(g) for g in alg.radical_generators.values())
    assert generators == alg.endo.graded_dims().get(1, 0), generators
    euler = graded_euler(n)
    oracle = [tuple(range(n)), tuple(range(1, n)) + (0,)]
    for x in oracle:
        assert alg.projective_resolution(x).steps == restricted_resolution(alg, x).steps, format_perm(x)
    return {
        "simples": euler["simples"],
        "max_k": report["max_k"],
        "generators": generators,
        "cover_terms": euler["cover_terms"],
        "oracle": [format_perm(x) for x in oracle],
    }


CHECKS = {
    f.__name__: f
    for f in (
        demazure_calculus,
        polynomial_route,
        graded_cartan,
        indecomposables,
        hom_formula,
        certified_words,
        predicted_words,
        kept_relations,
        hecke_oracle,
        graded_euler,
        resolutions,
    )
}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: frontier.py {{{','.join(CHECKS)}}} RANK")
    name, n = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    counts = CHECKS[name](n)
    if isinstance(counts, tuple):  # the battery's checks return their first failing case
        counts, failure = counts
        assert failure is None, failure
    seconds = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name} at rank {n}: {json.dumps(counts)} in {seconds:.1f} s; maxrss {maxrss:.0f} MB")
