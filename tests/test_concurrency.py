"""Shared per-rank contexts promise safe concurrent reads with add-only
caches; exercise that promise with racing readers against cold caches."""

import sys
import threading

from soergelkit.soergel import SoergelCategory
from soergelkit.weyl import length


def test_doctests_pass():
    import doctest

    import soergelkit.laurent
    import soergelkit.multipoly
    import soergelkit.weyl

    for module in (soergelkit.laurent, soergelkit.multipoly, soergelkit.weyl):
        result = doctest.testmod(module)
        assert result.failed == 0


def test_concurrent_hom_and_decompose():
    # a fresh category so every thread races on cold caches
    cat = SoergelCategory(3)
    elements = cat.group.elements()
    sequential = {}
    baseline = SoergelCategory(3)
    for x in elements:
        for y in elements:
            sequential[(x, y)] = baseline.hom_poly(x, y)
    errors = []
    results = {}
    lock = threading.Lock()

    def worker(pairs):
        try:
            local = {}
            for x, y in pairs:
                local[(x, y)] = cat.hom_poly(x, y)
            word = (1, 2, 1)
            dec = cat.decompose(cat.bott_samelson(word), expected=cat.expected_summands(word))
            local["dec"] = dec.multiset()
            with lock:
                results.update(local)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    pairs = [(x, y) for x in elements for y in elements]
    chunks = [pairs[i::4] for i in range(4)]
    threads = [threading.Thread(target=worker, args=(chunk,)) for chunk in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for key, value in sequential.items():
        assert results[key] == value
    expected = tuple(
        sorted(baseline.expected_summands((1, 2, 1)), key=lambda t: (length(t[0]), t[0], t[1]))
    )
    assert results["dec"] == expected


def test_concurrent_readers_of_one_module_get_one_presentation():
    # a module fresh from induction has no presentation yet; every thread
    # that asks at once gets the one the module keeps
    cat = SoergelCategory(4)
    module = cat.induct(2, cat.bott_samelson((1, 3, 2, 1, 3)))
    barrier = threading.Barrier(6)
    seen, errors = [], []

    def reader():
        try:
            barrier.wait(timeout=60)
            seen.append(module.presentation())
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    # switch threads often, so that the readers overlap inside the build
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(seen) == 6
    assert all(p is seen[0] for p in seen) and module.presentation() is seen[0]


def test_concurrent_readers_of_one_module_get_one_set_of_columns():
    # a module fresh from induction has no columns kept yet; threads that
    # read every block's columns at once all get the ones the module keeps
    cat = SoergelCategory(4)
    module = cat.induct(2, cat.bott_samelson((1, 3, 2, 1, 3)))
    keys = sorted(module.actions)
    barrier = threading.Barrier(6)
    seen, errors = [], []

    def reader():
        try:
            barrier.wait(timeout=60)
            seen.append([module.columns(i, d) for i, d in keys])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(seen) == 6
    assert seen[0] == [module.actions[key].transpose().nonzeros for key in keys]
    assert all(all(a is b for a, b in zip(columns, seen[0])) for columns in seen)
    assert all(module.columns(i, d) is c for (i, d), c in zip(keys, seen[0]))


def test_concurrent_first_calls_publish_one_indecomposable():
    # racing first calls each build their own copy of D_w; every caller gets
    # the first copy published, and the cached endomorphisms start from it
    cat = SoergelCategory(4)
    elements = sorted(cat.group.elements(), key=lambda w: (-length(w), w))
    barrier = threading.Barrier(4)
    seen, errors = [], []

    def reader():
        try:
            barrier.wait(timeout=60)
            for w in elements:
                seen.append((w, cat.indecomposable(w), cat.hom_basis(w, w, 0)))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(seen) == 4 * len(elements)
    for w, module, endo in seen:
        assert module is cat.indecomposable(w)
        assert endo is cat.hom_basis(w, w, 0) and endo[0].source is module
