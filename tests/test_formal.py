import hashlib
import random
from collections import Counter

import pytest

from soergelkit.formal import SIDES, TWISTED, FormalCategory, FormalComplex, Gen, formal_category
from soergelkit.linalg import QMatrix
from soergelkit.selftest import degrading_sides
from soergelkit.tate import Complex, GradedComplex, hom_homotopy as tate_hom
from soergelkit.weyl import length, parse_perm

from dense_views import dense_flatten


def test_hom_rule_scalars():
    fc = formal_category(2)
    e = parse_perm("12")
    assert len(fc.hom_space("MIX", Gen(e, 0), Gen(e, 0))) == 1
    # graded endomorphisms of the unit generator sit only in twist 0
    assert len(fc.hom_space("MIX", Gen(e, 0), Gen(e, 1))) == 0


def test_hom_rule_untwisted_total():
    fc = formal_category(2)
    s = parse_perm("21")
    assert len(fc.hom_space("K", Gen(s), Gen(s))) == 2


def test_hom_rule_degrading_sum():
    # full Hom dimension equals the sum over twists of the graded pieces
    for n in (2, 3):
        fc = formal_category(n)
        for x in fc.cat.group.elements():
            for y in fc.cat.group.elements():
                total = len(fc.hom_space("K", Gen(x), Gen(y)))
                graded = sum(
                    len(fc.hom_space("MIX", Gen(x, 0), Gen(y, t))) for t in range(-8, 9)
                )
                assert total == graded, (x, y)


def test_slot_lookup_reads_the_category_store():
    # a slot's Hom space is the store's own entry: of the centred degree
    # 2(n - m) + l(x) - l(y) on the twisted sides, of every degree on the
    # untwisted ones
    fc = formal_category(3)
    cat = fc.cat
    els = cat.group.elements()
    for x in els:
        for y in els:
            for side in SIDES:
                if not TWISTED[side]:
                    assert fc._space(side, Gen(x), Gen(y)) is cat.hom_space(x, y, None)
                    continue
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        degree = 2 * (n - m) + length(x) - length(y)
                        assert fc._space(side, Gen(x, m), Gen(y, n)) is cat.hom_space(x, y, degree)


def test_single_generator_square():
    fc = formal_category(2)
    x = fc.stalk("MIX", [Gen(parse_perm("21"), 0)])
    assert fc.square_check(x)


def test_two_term_complexes_square_s2():
    fc = formal_category(2)
    e, s = parse_perm("12"), parse_perm("21")
    rng = random.Random(5)
    for _ in range(25):
        x = fc.random_complex(rng, max_positions=2)
        fc.validate(x)
        assert fc.square_check(x)
    # a hand-built two-term complex with a nonzero differential
    socle = fc.hom_space("MIX", Gen(e, 0), Gen(s, 1))
    assert len(socle) == 1
    x = FormalComplex(
        "MIX",
        {0: (Gen(e, 0),), 1: (Gen(s, 1),)},
        {0: [[socle[0]]]},
    )
    fc.validate(x)
    assert fc.square_check(x)


@pytest.mark.parametrize("n", [2, 3])
def test_random_corpus_square(n):
    fc = formal_category(n)
    rng = random.Random(42)
    for _ in range(40 if n == 2 else 20):
        x = fc.random_complex(rng)
        assert fc.dsquare_check(x)
        assert fc.square_check(x)


def test_gkos_intertwines_twists():
    fc = formal_category(3)
    rng = random.Random(7)
    for _ in range(10):
        x = fc.random_complex(rng, max_positions=3)
        lhs = fc.gkos(fc.twist(x, 1))
        rhs = fc.twist(fc.gkos(x), 1)
        assert lhs == rhs


def test_gkos_preserves_hom_homotopy():
    fc = formal_category(2)
    rng = random.Random(11)
    for _ in range(6):
        x = fc.random_complex(rng, max_positions=3, max_gens=2)
        y = fc.random_complex(rng, max_positions=3, max_gens=2)
        for k in range(-3, 4):
            assert fc.hom_homotopy(x, y, k) == fc.hom_homotopy(fc.gkos(x), fc.gkos(y), k)


def test_kos_preserves_hom_homotopy():
    fc = formal_category(2)
    rng = random.Random(13)
    for _ in range(6):
        x = fc.iota_formal(fc.random_complex(rng, max_positions=3, max_gens=2))
        y = fc.iota_formal(fc.random_complex(rng, max_positions=3, max_gens=2))
        for k in range(-3, 4):
            assert fc.hom_homotopy(x, y, k) == fc.hom_homotopy(fc.kos_formal(x), fc.kos_formal(y), k)


def _spy_on_builds(monkeypatch):
    """Counters of the Hom layouts and Hom differentials built, keyed by
    (id(x), id(y), k); the complexes are held so that no id is reused."""
    layouts, differentials, held = Counter(), Counter(), []
    layout = FormalCategory._hom_layout
    differential = FormalCategory._hom_differential_matrix

    def spy_layout(self, x, y, k):
        held.append((x, y))
        layouts[(id(x), id(y), k)] += 1
        return layout(self, x, y, k)

    def spy_differential(self, x, y, k, *given):
        held.append((x, y))
        differentials[(id(x), id(y), k)] += 1
        return differential(self, x, y, k, *given)

    monkeypatch.setattr(FormalCategory, "_hom_layout", spy_layout)
    monkeypatch.setattr(FormalCategory, "_hom_differential_matrix", spy_differential)
    return layouts, differentials


def test_degrading_sweep_builds_each_differential_once(monkeypatch):
    # one criterion-5 pair at rank 3 (seed 42): the k = 0, 1 sweep into the
    # collapsed y and into each of the 21 twists of y builds d_{-1}, d_0 and
    # d_1 once each, from the layouts of degrees -1..2, each built once
    fc = formal_category(3)
    rng = random.Random(42 + 3)
    x = fc.random_complex(rng, max_positions=3, max_gens=2)
    y = fc.random_complex(rng, max_positions=3, max_gens=2)
    layouts, differentials = _spy_on_builds(monkeypatch)
    degrading_sides(fc, x, y, range(2))
    assert len(differentials) == 22 * 3 and set(differentials.values()) == {1}
    assert Counter(k for _, _, k in differentials) == {-1: 22, 0: 22, 1: 22}
    assert len(layouts) == 22 * 4 and set(layouts.values()) == {1}
    # control: the spy sees d_0 built twice when each k is asked for apart
    layouts.clear()
    differentials.clear()
    for k in (0, 1):
        fc.hom_homotopy(x, y, k)
    assert differentials[(id(x), id(y), 0)] == 2 and layouts[(id(x), id(y), 0)] == 2


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_equals_separate_calls(n):
    fc = formal_category(n)
    rng = random.Random(31)
    for _ in range(5):
        x = fc.random_complex(rng, max_positions=3, max_gens=2)
        y = fc.random_complex(rng, max_positions=3, max_gens=2)
        ix, iy = fc.iota_formal(x), fc.iota_formal(y)
        for a, b in ((x, y), (ix, iy)):
            assert fc.hom_homotopies(a, b, range(-2, 3)) == [fc.hom_homotopy(a, b, k) for k in range(-2, 3)]
        lhs, rhs = degrading_sides(fc, x, y, range(2))
        assert lhs == [fc.hom_homotopy(ix, iy, k) for k in (0, 1)]
        assert rhs == [sum(fc.hom_homotopy(x, fc.twist(y, t), k) for t in range(-10, 11)) for k in (0, 1)]
    assert fc.hom_homotopies(x, y, range(0)) == []
    with pytest.raises(ValueError):
        fc.hom_homotopies(x, y, range(0, 4, 2))


def _assert_checked_form(x: FormalComplex, side: str, terms, diffs=None):
    """x has, field by field, what the checked constructor builds from the
    given data, and the constructor keeps its fields as they are."""
    for expected in (FormalComplex(side, terms, diffs), FormalComplex(x.side, x.terms, x.diffs)):
        assert x.side == expected.side
        assert x.terms == expected.terms
        assert x.diffs == expected.diffs


@pytest.mark.parametrize("n", [2, 3])
def test_derived_complexes_are_in_checked_form(n, monkeypatch):
    # the relabels, twists, and random_complex's constraint complexes skip
    # the checked constructor; each must equal what it would have built
    fc = formal_category(n)
    derived = []
    original = FormalComplex.__dict__["_derived"].__func__

    def spy(cls, side, terms, diffs):
        x = original(cls, side, terms, diffs)
        derived.append(x)
        return x

    monkeypatch.setattr(FormalComplex, "_derived", classmethod(spy))
    rng = random.Random(37)
    for _ in range(30):
        derived.clear()
        x = fc.random_complex(rng, max_positions=4, max_gens=3)
        # the constraint for d_c: the two-term complex of d_{c-1} (every
        # entry of it, zero ones included) and the stalk of terms[c + 1]
        expected = []
        for c in x.positions()[:-1]:
            src, prev = x.generators(c), x.generators(c - 1)
            rows = [[x.entry(c - 1, t, s) for s in range(len(prev))] for t in range(len(src))]
            expected.append(("MIX", {c - 1: prev, c: src}, {c - 1: rows} if c else None))
            expected.append(("MIX", {c: x.generators(c + 1)}, None))
        assert len(derived) == len(expected)
        for got, data in zip(derived, expected):
            _assert_checked_form(got, *data)
        untwisted = {c: tuple(Gen(g.w) for g in gens) for c, gens in x.terms.items()}
        _assert_checked_form(fc.gkos(x), "PERV_GR", x.terms, x.diffs)
        _assert_checked_form(fc.iota_formal(x), "K", untwisted, x.diffs)
        _assert_checked_form(fc.kos_formal(fc.iota_formal(x)), "PERV", untwisted, x.diffs)
        _assert_checked_form(fc.v_formal(fc.gkos(x)), "PERV", untwisted, x.diffs)
        for t in (-3, 1):
            shifted = {c: tuple(Gen(g.w, g.twist + t) for g in gens) for c, gens in x.terms.items()}
            _assert_checked_form(fc.twist(x, t), "MIX", shifted, x.diffs)
            _assert_checked_form(fc.twist(fc.gkos(x), t), "PERV_GR", shifted, x.diffs)


def test_stalk_homs():
    fc = formal_category(3)
    e = parse_perm("123")
    x = fc.stalk("MIX", [Gen(e, 0)])
    assert fc.hom_homotopy(x, x, 0) == 1
    for k in (-2, -1, 1, 2):
        assert fc.hom_homotopy(x, x, k) == 0


def test_mix_stalks_no_higher_homs():
    fc = formal_category(2)
    gens = [Gen(parse_perm("12"), 0), Gen(parse_perm("21"), 1), Gen(parse_perm("21"), -1)]
    for g1 in gens:
        for g2 in gens:
            x = fc.stalk("MIX", [g1])
            y = fc.stalk("MIX", [g2])
            for k in (-2, -1, 1, 2):
                assert fc.hom_homotopy(x, y, k) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_degrading_for_complexes(n):
    fc = formal_category(n)
    rng = random.Random(17)
    for _ in range(5):
        x = fc.random_complex(rng, max_positions=3, max_gens=2)
        y = fc.random_complex(rng, max_positions=3, max_gens=2)
        for k in (0, 1):
            lhs = fc.hom_homotopy(fc.iota_formal(x), fc.iota_formal(y), k)
            rhs = sum(fc.hom_homotopy(x, fc.twist(y, t), k) for t in range(-10, 11))
            assert lhs == rhs


def test_rank_one_matches_toy_category():
    # with a single group element the MIX side is the graded toy category:
    # generator (e, n) at position c matches a simple at (c, g = n)
    fc = formal_category(1)
    e = parse_perm("1")
    rng = random.Random(19)
    for _ in range(10):
        positions = {}
        layers = {}
        for c in range(rng.randint(1, 3)):
            gens = tuple(Gen(e, rng.randint(-1, 1)) for _ in range(rng.randint(1, 2)))
            positions[c] = gens
        x = FormalComplex("MIX", positions)
        graded = {}
        for c, gens in positions.items():
            for g in gens:
                graded.setdefault(g.twist, {}).setdefault(c, 0)
                graded[g.twist][c] += 1
        toy = GradedComplex({g: Complex(dims) for g, dims in graded.items()})
        for k in (-1, 0, 1):
            assert fc.hom_homotopy(x, x, k) == tate_hom(toy, toy, k)


def _scalar_complex(x: FormalComplex) -> Complex:
    """A rank-1 K-side complex as a toy complex: every entry is 1x1."""
    dims = {c: len(x.generators(c)) for c in x.positions()}
    diffs = {
        c: QMatrix.from_rows([[0 if e is None else e.entry(0, 0) for e in row] for row in rows])
        for c, rows in x.diffs.items()
    }
    return Complex(dims, diffs)


def test_rank_one_hom_complex_matches_toy_hom_complex():
    # at rank 1 every K-side Hom space is Q, so the Hom complex assembled in
    # Hom-space coordinates must have the ranks of the one on matrix entries
    fc = formal_category(1)
    rng = random.Random(23)
    with_differential = 0
    for _ in range(60):
        x = fc.iota_formal(fc.random_complex(rng))
        y = fc.iota_formal(fc.random_complex(rng))
        with_differential += bool(x.diffs)
        tx, ty = _scalar_complex(x), _scalar_complex(y)
        for k in range(-3, 4):
            assert fc.hom_homotopy(x, y, k) == tate_hom(tx, ty, k)
    assert with_differential > 10


def test_zero_entries_are_stored_as_none():
    fc = formal_category(2)
    e, s = parse_perm("12"), parse_perm("21")
    socle = fc.hom_space("MIX", Gen(e, 0), Gen(s, 1))[0]
    terms = {0: (Gen(e, 0),), 1: (Gen(s, 1),)}
    zero = socle.scale(0)
    x = FormalComplex("MIX", terms, {0: [[zero]]})
    assert x.diffs == {} and x.entry(0, 0, 0) is None
    assert x == FormalComplex("MIX", terms)
    assert FormalComplex("MIX", terms, {0: [[socle]]}) != x


def test_validate_rejects_bad_entry():
    fc = formal_category(2)
    e, s = parse_perm("12"), parse_perm("21")
    # the only map e -> s of twist difference 1 lands in the socle; a map
    # in the wrong twist is rejected
    socle = fc.hom_space("MIX", Gen(e, 0), Gen(s, 1))[0]
    bad = FormalComplex(
        "MIX",
        {0: (Gen(e, 0),), 1: (Gen(s, 2),)},
        {0: [[socle]]},
    )
    with pytest.raises(ValueError):
        fc.validate(bad)


def test_validate_rejects_a_differential_that_does_not_square_to_zero():
    fc = formal_category(2)
    e, s = parse_perm("12"), parse_perm("21")
    # D_s -> D_e -> D_s: onto the degree-0 part, then onto the socle; the
    # composite sends 1 to the socle, so d^2 != 0 though each entry is legal
    onto = fc.hom_space("MIX", Gen(s, 0), Gen(e, 0))[0]
    socle = fc.hom_space("MIX", Gen(e, 0), Gen(s, 1))[0]
    terms = {0: (Gen(s, 0),), 1: (Gen(e, 0),), 2: (Gen(s, 1),)}
    fc.validate(FormalComplex("MIX", terms, {0: [[onto]]}))
    bad = FormalComplex("MIX", terms, {0: [[onto]], 1: [[socle]]})
    assert not fc.dsquare_check(bad)
    with pytest.raises(AssertionError, match="does not square to zero"):
        fc.validate(bad)


def test_sides_are_enforced():
    fc = formal_category(2)
    x = fc.stalk("MIX", [Gen(parse_perm("12"), 0)])
    k = fc.iota_formal(x)
    with pytest.raises(ValueError):
        fc.iota_formal(k)
    with pytest.raises(ValueError):
        fc.gkos(k)
    with pytest.raises(ValueError):
        FormalComplex("K", {0: (Gen(parse_perm("12"), 0),)})


def _formal_bytes(x: FormalComplex) -> bytes:
    out = []
    for c in x.positions():
        src, tgt = x.generators(c), x.generators(c + 1)
        entries = [
            [
                None if e is None else (e.rows, e.cols, [str(v) for v in dense_flatten(e)])
                for e in (x.entry(c, t, s) for s in range(len(src)))
            ]
            for t in range(len(tgt))
        ]
        out.append((c, [g.label() for g in src], entries))
    return repr(out).encode()


def test_random_corpus_is_pinned():
    # sha256 of 200 seeded random complexes: generator labels, entry shapes
    # and flattened differential entries; the selftest and the koszul-square
    # demo draw from this generator, so its bytes must not move
    digest = hashlib.sha256()
    for n in (2, 3):
        fc = formal_category(n)
        for seed in range(50):
            rng = random.Random(seed)
            for kw in ({}, {"max_positions": 3, "max_gens": 2}):
                digest.update(_formal_bytes(fc.random_complex(rng, **kw)))
    assert digest.hexdigest() == "ad58d2dc921e3240aa7550ddda99f546cbe438d182a4d00a8a1018b439f16629"


# per rank: (MIX values, K values), one row of k = -2..2 per seeded pair
HOM_HOMOTOPY_PINS = {
    2: (
        [[2, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 0, 1],
         [0, 0, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 0]],
        [[4, 4, 2, 0, 0], [0, 3, 4, 1, 0], [2, 1, 6, 3, 3],
         [1, 2, 1, 0, 0], [0, 0, 3, 2, 2], [0, 0, 1, 0, 0]],
    ),
    3: (
        [[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [2, 2, 0, 0, 0],
         [0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1]],
        [[4, 4, 2, 0, 0], [3, 6, 6, 2, 0], [5, 8, 7, 6, 0],
         [0, 0, 8, 0, 0], [1, 1, 1, 2, 0], [0, 0, 1, 2, 1]],
    ),
}


@pytest.mark.parametrize("n", [2, 3])
def test_hom_homotopy_is_pinned(n):
    # dimensions of homotopy classes of maps x -> y[k], k = -2..2, on seeded
    # pairs, on the MIX side and after the grading collapse to the K side
    fc = formal_category(n)
    rng = random.Random(29)
    mix, untwisted = [], []
    for _ in range(6):
        x = fc.random_complex(rng, max_positions=3, max_gens=2)
        y = fc.random_complex(rng, max_positions=3, max_gens=2)
        mix.append([fc.hom_homotopy(x, y, k) for k in range(-2, 3)])
        ix, iy = fc.iota_formal(x), fc.iota_formal(y)
        untwisted.append([fc.hom_homotopy(ix, iy, k) for k in range(-2, 3)])
    assert (mix, untwisted) == HOM_HOMOTOPY_PINS[n]


def test_untwisting_shares_one_generator_per_group_element():
    fc = formal_category(3)
    rng = random.Random(47)
    seen = {}
    for _ in range(20):
        x = fc.random_complex(rng, max_positions=4, max_gens=3)
        for y in (fc.iota_formal(x), fc.v_formal(fc.gkos(x))):
            for gens in y.terms.values():
                for g in gens:
                    assert seen.setdefault(g.w, g) is g and g == Gen(g.w)
    assert len(seen) > 1
