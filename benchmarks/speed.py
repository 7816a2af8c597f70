"""Times scaled to a reference core speed.

On a shared machine the speed of one core can change by more than half
within seconds and stay changed for minutes, as other tenants load the
hardware it shares.  Raw times then differ between identical runs by more
than any useful regression bound.  :class:`SpeedProbe` measures that speed
while the workload runs: every ``interval`` seconds a thread runs a fixed
pure-Python loop on the same core as the workload (the caller pins both to
one CPU) and records how long the loop took.  :meth:`SpeedProbe.scaled`
turns a raw interval into reference seconds: each stretch of time counts
``REFERENCE_S / probe time`` of a second, so an interval spent on a core
running at half the reference speed counts half.  The probe's own runs
are taken out, since the workload does not run while the probe does.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

#: probe time on the reference core; about the fastest seen on a 2-core
#: Xeon box with CPython 3.11
REFERENCE_S = 0.0005
#: probe times are smoothed by a running median over this many samples
#: on each side
SMOOTH = 5


def probe_loop() -> int:
    """A fixed mix of what the library does most: small-integer and
    Fraction arithmetic, gcds and short-lived lists."""
    x = 0
    for i in range(1500):
        x = (x * 31 + i) % 1000003
    acc = Fraction(0)
    for i in range(60):
        acc += Fraction(i % 5, 3) * Fraction(i % 7, 2)
    g = 0
    for i in range(400):
        g = (g + i * 7919) % 123456789
    rows = [[i * j for j in range(20)] for i in range(20)]
    return x + g + len(rows) + acc.numerator


class SpeedProbe:
    """Samples of the core's speed, taken by a thread until :meth:`stop`."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._smooth: list[float] | None = None
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._halt.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._halt.wait(self.interval):
            t0 = clock()
            probe_loop()
            self.starts.append(t0)
            self.durations.append(clock() - t0)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the interval from ``a`` to ``b``
        (``time.perf_counter`` readings)."""
        return self._integrate(a, b, weighted=True)

    def running(self, a: float, b: float) -> float:
        """Seconds of the interval during which the probe was not running."""
        return self._integrate(a, b, weighted=False)

    def _integrate(self, a: float, b: float, weighted: bool) -> float:
        starts, durations = self.starts, self.durations
        if not starts:
            raise ValueError("no speed samples were taken")
        if self._smooth is None or len(self._smooth) != len(durations):
            self._smooth = [
                statistics.median(durations[max(0, i - SMOOTH) : i + SMOOTH + 1])
                for i in range(len(durations))
            ]
        total = 0.0
        t = a
        i = bisect.bisect_right(starts, a) - 1
        while t < b:
            if i >= 0:
                # the workload does not run while the probe does
                t = min(max(t, starts[i] + durations[i]), b)
            nxt = starts[i + 1] if i + 1 < len(starts) else b
            seg_end = min(max(nxt, t), b)
            speed = REFERENCE_S / self._smooth[max(i, 0)] if weighted else 1.0
            total += (seg_end - t) * speed
            t = seg_end
            i += 1
        return total
