"""The soergelkit benchmark.

    python3 benchmarks/run.py --workload selftest --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src``, nothing is installed or built.  Workloads: ``selftest`` and
``soergel-r4`` (both in ``BENCHMARK.json``) and ``frontier-r5``, the rank-5
ring and one rank-5 decomposition, which is run by hand (see
``benchmarks/baseline.json``).

Each repetition of the workload runs in a fresh Python process
(``benchmarks/workload.py``), so per-rank caches start cold as they do on
every command-line call.  Processes run one at a time on one pinned core: a
closed loop with a single caller.  Repetitions continue until ``--seconds``
have passed; there is always at least one, and each uses another
``PYTHONHASHSEED``.  Before each, the set-up (interpreter start, import and
input generation) is timed in three more fresh processes.  Every operation
is checked by exact equality against its second route inside the workload
process, and all repetitions must produce the same output digest.

Times are reported in reference seconds (see ``speed.py``): a probe on the
same core measures its speed twenty times a second, and each stretch of
time is scaled by it, because on a shared machine the raw speed of a core
drifts by half and more over minutes.  Raw times go to stderr.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` runs the workload once untraced and once traced,
under different hash seeds, requires equal digests, and reports the
per-layer metrics with ``trace.overhead_s``.

The last line of stdout is the result as one JSON object.  A summary table
and a record of the machine go to stderr.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the workload cannot run at all (no
``src/soergelkit`` here, or a workload process that crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("selftest", "soergel-r4", "frontier-r5")
#: set-up is measured this many times before each repetition
SETUP_PROBES = 3
#: a run must finish within 180 s; no repetition starts after this point
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from speed import SpeedProbe  # noqa: E402
from tracing import unit  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


class CrashError(RuntimeError):
    """A workload process ended without printing its result."""


def child_env(hash_seed: int) -> dict[str, str]:
    """The caller's environment without anything that changes the work:
    no Python or soergelkit settings, the library from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SOERGEL_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float):
    """Run one workload process; returns its result, its start and end as
    ``time.perf_counter`` readings, and its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workload.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
    # wait4 reports the rusage of this child alone
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CrashError(f"workload process {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), t0, t1, usage


def hash_seed(seed: int, rep: int) -> int:
    return (seed * 1_000_003 + rep) % 4_294_967_296


def percentile(values: list[float], p: float, width: float = 0.05) -> float:
    """The ``p`` quantile, taken as the mean of the order statistics from
    quantile ``p - width`` to ``p + width``.  Operation latencies fall in
    clusters; a single order statistic jumps between two of them when noise
    reorders a few operations, the mean over a window moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, max(0, round((p - width) * n)))
    hi = max(lo + 1, min(n, round((p + width) * n)))
    return statistics.fmean(ordered[lo:hi])


def machine_record() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "soergelkit").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def measure(args, deadline: float):
    """Set-up probes and workload repetitions.  Returns the set-up processes'
    (start, end) and, per repetition, (result, start, end, rusage)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = itertools.count()

    def setup_runs():
        env = child_env(hash_seed(args.seed, next(probes)))
        return [run_child([*common, "--setup-only"], env, deadline)[1:3] for _ in range(SETUP_PROBES)]

    # the first set-up also writes the bytecode cache; it is not counted
    setup_runs()
    setup, reps = [], []
    started = time.perf_counter()
    while True:
        setup += setup_runs()
        traced = args.trace == 1 and len(reps) == 1
        env = child_env(hash_seed(args.seed, len(reps)))
        reps.append(run_child([*common, *(["--trace"] if traced else [])], env, deadline))
        elapsed = time.perf_counter() - started
        if args.trace == 1:
            if traced:
                return setup, reps
        elif elapsed >= args.seconds or time.monotonic() + elapsed / len(reps) > deadline:
            return setup, reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soergelkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "soergelkit" / "__init__.py").is_file():
        print(f"error: no soergelkit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    machine = machine_record()
    machine["loadavg_start"] = os.getloadavg()
    # workload processes and the speed probe share one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe().start()
    try:
        setup, reps = measure(args, deadline)
    except CrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.stop()

    attempted = failed = 0
    per_rep, raw, clean = [], [], []
    digest = reps[0][0]["digest"]
    for result, t0, t1, usage in reps:
        failed_before = failed
        latencies = []
        for label, start, end, ok, error in result["ops"]:
            attempted += 1
            if ok:
                latencies.append(probe.scaled(start, end))
            else:
                failed += 1
                print(f"failed: {label}: {error or 'check returned false'}", file=sys.stderr)
        if result["digest"] != digest:
            failed += 1
            print("failed: output digests differ between repetitions", file=sys.stderr)
        cpu = usage.ru_utime + usage.ru_stime
        per_rep.append(
            {
                "wall_s": probe.scaled(result["begin"], result["end"]),
                "cpu_s": cpu * probe.scaled(t0, t1) / probe.running(t0, t1),
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "op_p50_ms": 1000 * percentile(latencies or [0.0], 0.5),
                "op_p90_ms": 1000 * percentile(latencies or [0.0], 0.9),
            }
        )
        raw.append({"wall_s": result["end"] - result["begin"], "cpu_s": cpu})
        clean.append(failed == failed_before)
    correct = failed == 0
    # a repetition with a failure yields no timing, unless every one failed
    timed = [r for r, ok in zip(per_rep, clean) if ok] or per_rep

    if args.trace == 1:
        # per-layer times are raw seconds of the traced repetition; bring
        # them to reference seconds at that repetition's mean speed
        traced = reps[1][0]
        factor = probe.scaled(traced["begin"], traced["end"]) / probe.running(traced["begin"], traced["end"])
        values = {k: v * factor if unit(k) == "s" else v for k, v in traced["layers"].items()}
        values["trace.overhead_s"] = per_rep[1]["wall_s"] - per_rep[0]["wall_s"]
        units = {name: unit(name) for name in values}
    else:
        samples = {name: [r[name] for r in timed] for name in timed[0]}
        samples["setup_s"] = [probe.scaled(t0, t1) for t0, t1 in setup]
        values = {name: statistics.median(samples[name]) for name in END_TO_END}
        units = END_TO_END

    machine["loadavg_end"] = os.getloadavg()
    machine["repetitions"] = per_rep
    machine["raw_repetitions"] = raw
    machine["raw_setup_s"] = [t1 - t0 for t0, t1 in setup]
    machine["speed_samples"] = len(probe.durations)
    machine["probe_median_s"] = statistics.median(probe.durations)
    machine["operations_per_repetition"] = len(reps[0][0]["ops"])
    machine["digest"] = digest
    print(json.dumps({"machine": machine}), file=sys.stderr)
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} ({failed} of {attempted})", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
