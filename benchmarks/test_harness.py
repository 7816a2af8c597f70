"""Tests of the benchmark's tracing and speed arithmetic and of its
exactness gates.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import time
from fractions import Fraction

import pytest

import soergelkit
from soergelkit import coinvariant, dualalg, gradedmod, linalg, soergel
from soergelkit.linalg import QMatrix
from run import percentile
from speed import REFERENCE_S, SpeedProbe
from tracing import ROOT, Tracer, install, layer_metrics, self_times, uninstall, under
from workload import check_decomposition, check_indecomposable, check_ring, staircase_counts


def test_self_time_subtracts_direct_children_and_exclusions():
    # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 3]; 0.5 s of
    # instrumentation ran inside a
    parent = [ROOT, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    excl = [0.5, 0.0, 0.0, 0.0]
    assert self_times(parent, start, end, excl) == [2.5, 3.0, 1.0, 3.0]


def test_self_times_of_recursive_spans_add_up_to_the_root():
    tracer = Tracer()

    def fib(n):
        return n if n < 2 else wrapped(n - 1) + wrapped(n - 2)

    wrapped = tracer.wrap(fib, "fib")
    assert wrapped(10) == 55
    own = self_times(tracer.parent, tracer.start, tracer.end, tracer.excl)
    assert len(own) == 177
    assert all(t >= 0 for t in own)
    roots = [i for i, p in enumerate(tracer.parent) if p == ROOT]
    assert roots == [0]
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-9)


def test_under_marks_descendants_only():
    # spans 0 (x) > 1 (y) > 2 (z), and a separate root 3 (z)
    flags = under([ROOT, 0, 1, ROOT], [0, 1, 2, 2], {1})
    assert flags == [False, True, True, False]


def test_counter_time_is_excluded_from_the_caller():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner", before=lambda t, a, k: sum(range(20000)))
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    assert list(tracer.parent) == [ROOT, 0]
    assert tracer.excl[0] > 0
    own = self_times(tracer.parent, tracer.start, tracer.end, tracer.excl)
    outer_span = tracer.end[0] - tracer.start[0]
    inner_span = tracer.end[1] - tracer.start[1]
    assert own[0] == pytest.approx(outer_span - inner_span - tracer.excl[0], abs=1e-12)


def test_install_wraps_every_consumer_binding_and_restores_it():
    bindings = [
        (linalg, "rref"),
        (coinvariant, "rref"),
        (soergel, "rref"),
        (dualalg, "rref"),
        (soergelkit, "rref"),
        (gradedmod, "kernel_basis"),
        (soergel, "hom_graded"),
    ]
    originals = {(m.__name__, a): getattr(m, a) for m, a in bindings}
    init = QMatrix.__dict__["__init__"]
    tracer = Tracer()
    undo = install(tracer)
    try:
        for m, a in bindings:
            assert getattr(m, a) is not originals[(m.__name__, a)]
        m = QMatrix(2, 2, [[1, 2], [2, 4]])
        coinvariant.rref(m)
        gradedmod.kernel_basis(m)
    finally:
        uninstall(undo)
    for m, a in bindings:
        assert getattr(m, a) is originals[(m.__name__, a)]
    assert QMatrix.__dict__["__init__"] is init

    metrics = layer_metrics(tracer)
    # one rref through the coinvariant binding, one inside kernel_basis
    assert metrics["linalg.rref.calls"] == 2
    assert metrics["linalg.kernel_basis.calls"] == 1
    assert metrics["linalg.rref.cells"] == 8
    assert metrics["linalg.rref.density"] == 1.0
    assert metrics["linalg.qmatrix.constructions"] >= 3


def test_staircase_counts():
    assert staircase_counts(3) == {0: 1, 2: 2, 4: 2, 6: 1}
    assert sum(staircase_counts(5).values()) == 120


def test_exactness_gates_pass_at_rank_three():
    cat = soergel.SoergelCategory(3)
    assert check_ring(cat.ring, 3)[0]
    assert check_decomposition(cat, (1, 2, 1, 2))[0]
    for w in cat.group.elements():
        assert check_indecomposable(cat, w)[0]


def test_ring_gate_rejects_wrong_dimensions():
    class Ring:
        dim = 6

        def graded_dims(self):
            return {0: 1, 2: 2, 4: 3}

    assert not check_ring(Ring(), 3)[0]


def test_rref_scan_counts_nonintegral_entries():
    tracer = Tracer()
    undo = install(tracer)
    try:
        linalg.rref(QMatrix(1, 2, [[Fraction(1, 2), 0]]))
    finally:
        uninstall(undo)
    metrics = layer_metrics(tracer)
    assert metrics["linalg.rref.nonintegral_frac"] == 0.5
    assert metrics["linalg.rref.density"] == 0.5


def probe_with(durations, spacing=1.0):
    probe = SpeedProbe()
    probe.starts = [k * spacing for k in range(len(durations))]
    probe.durations = list(durations)
    return probe


def test_scaled_counts_half_speed_as_half_and_skips_probe_runs():
    d = 2 * REFERENCE_S
    probe = probe_with([d, d, d])
    assert probe.running(0.0, 3.0) == pytest.approx(3.0 - 3 * d)
    assert probe.scaled(0.0, 3.0) == pytest.approx((3.0 - 3 * d) / 2)
    # before the first sample the first sample's speed holds
    assert probe_with([d]).scaled(-0.5, 0.0) == pytest.approx(0.25)


def test_scaled_follows_a_speed_change():
    fast, slow = REFERENCE_S, 4 * REFERENCE_S
    probe = probe_with([fast] * 20 + [slow] * 20)
    assert probe.scaled(2.0, 3.0) == pytest.approx(1.0 - fast)
    assert probe.scaled(30.0, 31.0) == pytest.approx((1.0 - slow) / 4)


def test_scaled_ignores_a_single_slow_probe():
    probe = probe_with([REFERENCE_S] * 5 + [100 * REFERENCE_S] + [REFERENCE_S] * 5)
    assert probe.scaled(5.5, 6.0) == pytest.approx(0.5)


def test_probe_thread_samples_and_stops():
    probe = SpeedProbe(interval=0.001).start()
    try:
        while len(probe.durations) < 3:
            time.sleep(0.01)
    finally:
        probe.stop()
    assert not probe._thread.is_alive()
    assert all(d > 0 for d in probe.durations)


def test_percentile_averages_a_window_of_order_statistics():
    assert percentile([5.0], 0.5) == 5.0
    assert percentile(list(range(100)), 0.5) == 49.5
    assert percentile(list(range(100)), 0.9) == 89.5
