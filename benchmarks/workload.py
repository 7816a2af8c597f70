"""One benchmark workload in one fresh process.

    PYTHONPATH=src python3 benchmarks/workload.py --workload soergel-r4 --seed 1 [--trace] [--setup-only]

Imports soergelkit, generates the workload's inputs from the seed, then runs
every operation and checks its result by exact equality against a second,
independent route.  The last line of stdout is one JSON object: each
operation's start, end and outcome, the start of the first library call and
the end of the last verified result, a digest of every output and, with
``--trace``, the per-layer metrics.  ``--setup-only`` stops after generating
the inputs.
``benchmarks/run.py`` starts this script; it is not meant to be timed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext

import soergelkit
from soergelkit import selftest
from soergelkit.coinvariant import coinvariant_ring
from soergelkit.laurent import LaurentPoly
from soergelkit.soergel import soergel_category
from tracing import Tracer, installed, layer_metrics

clock = time.perf_counter


class Recorder:
    """Latency, outcome and output of each operation of one workload run."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        #: (label, start, end, ok, output, error); times are perf_counter
        #: readings, which are system-wide, so the caller can place them
        self.ops: list[tuple[str, float, float, bool, object, str | None]] = []

    def run(self, label: str, fn, *args) -> None:
        """Time ``fn(*args)``, which returns ``(ok, output)``.  An operation that
        raises (a refused size cap included) is recorded as failed."""
        t0 = clock()
        try:
            with self.tracer.span("workload.op") if self.tracer else nullcontext():
                ok, output = fn(*args)
            error = None
        except Exception as exc:  # one failing operation must not end the run
            traceback.print_exc(file=sys.stderr)
            ok, output, error = False, None, f"{type(exc).__name__}: {exc}"
        self.ops.append((label, t0, clock(), bool(ok), output, error))

    def digest(self) -> str:
        canon = json.dumps(
            [[op[0], op[4]] for op in self.ops],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()


# -- second routes ---------------------------------------------------------------


def perm_length(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def staircase_counts(n: int) -> dict[int, int]:
    """Graded dimensions of the rank-n coinvariant algebra, keyed by doubled
    degree, as the coefficients of prod_{i<=n} (1 + q + ... + q^(i-1))."""
    coeffs = [1]
    for i in range(1, n + 1):
        nxt = [0] * (len(coeffs) + i - 1)
        for d, c in enumerate(coeffs):
            for e in range(i):
                nxt[d + e] += c
        coeffs = nxt
    return {2 * d: c for d, c in enumerate(coeffs) if c}


def check_ring(ring, n: int):
    dims = ring.graded_dims()
    top = max(dims)
    palindromic = all(dims[d] == dims[top - d] for d in dims)
    ok = ring.dim == math.factorial(n) and palindromic and dims == staircase_counts(n)
    return ok, {"n": n, "dim": ring.dim, "graded_dims": sorted(dims.items())}


def kl_character(hecke, w) -> LaurentPoly:
    """Graded dimension of D_w from the Hecke side: b_w under the algebra map
    H_x -> v^-l(x), which sends b_s = H_s + v to v^-1 + v."""
    out = LaurentPoly.zero()
    for x, p in hecke.kl_basis(w).terms():
        out = out + p.shift(-perm_length(x))
    return out


def check_decomposition(cat, word):
    expected = cat.expected_summands(word)
    dec = cat.decompose(cat.bott_samelson(word), expected=expected)
    multiset = dec.multiset()
    oracle = tuple(sorted(expected, key=lambda t: (perm_length(t[0]), t[0], t[1])))
    chars = LaurentPoly.zero()
    for x, k in multiset:
        chars = chars + kl_character(cat.hecke, x).shift(-k)
    bs_char = LaurentPoly.one()
    for _ in word:
        bs_char = bs_char * (LaurentPoly.v(1) + LaurentPoly.v(-1))
    ok = multiset == oracle and chars == bs_char
    return ok, {"word": list(word), "summands": [[list(x), k] for x, k in multiset]}


def check_indecomposable(cat, w):
    char = cat.indecomposable(w).character()
    return char == kl_character(cat.hecke, w), {"w": list(w), "character": str(char)}


def check_hom(cat, x, y):
    lhs = cat.hom_poly(x, y)
    rhs = cat.hecke.pairing(cat.hecke.kl_basis(x), cat.hecke.kl_basis(y))
    return lhs == rhs, {"x": list(x), "y": list(y), "hom": str(lhs)}


def check_endo(cat, words, shifts):
    summands = [(cat.group.evaluate(word), k) for word, k in zip(words, shifts)]
    alg = cat.endo_algebra(summands)
    hecke = cat.hecke
    ok = True
    for a, (wa, ka) in enumerate(summands):
        for b, (wb, kb) in enumerate(summands):
            pairing = hecke.pairing(hecke.kl_basis(wa), hecke.kl_basis(wb))
            ok = ok and alg.block_poly(a, b) == pairing.shift(ka - kb)
    table = sorted((i, j, [[t, str(c)] for t, c in entry]) for (i, j), entry in alg.table.items())
    return ok, {
        "summands": [[list(w), k] for w, k in summands],
        "graded_dims": sorted(alg.graded_dims().items()),
        "table": hashlib.sha256(json.dumps(table).encode()).hexdigest(),
    }


# -- workloads: inputs from the seed, then the timed operations ------------------


def selftest_inputs(seed: int) -> dict:
    return {"seed": seed}


def run_selftest(rec: Recorder, inputs: dict) -> None:
    """``selftest.run_battery(seed)``, which ``soergelkit selftest --seed S``
    runs, as one operation that passes only if ``all_passed`` holds."""

    def battery():
        report = selftest.battery_report(selftest.run_battery(inputs["seed"]))
        return report["all_passed"], report

    rec.run("battery", battery)


R4_ENDO_WORD = (1, 2, 3, 2)


def soergel_r4_inputs(seed: int) -> dict:
    perms = sorted(itertools.permutations(range(4)), key=lambda w: (perm_length(w), w))
    # The seed arranges a workload of fixed size, so that run-to-run spread
    # is the machine's and not the sample's: the Hom pairs are one fixed
    # sample of 40 of the 576 pairs, taken in a seeded order, and the
    # endomorphism algebra is always that of D_w for the length 1..4
    # prefixes of R4_ENDO_WORD, with seeded slots and shifts.
    pairs = random.Random(0).sample([(x, y) for x in perms for y in perms], 40)
    rng = random.Random(seed)
    order = rng.sample(range(len(R4_ENDO_WORD)), len(R4_ENDO_WORD))
    return {
        "perms": perms,
        "words": [w for n in range(1, 5) for w in itertools.product((1, 2, 3), repeat=n)],
        "pairs": rng.sample(pairs, len(pairs)),
        "endo_words": [R4_ENDO_WORD[: i + 1] for i in order],
        "endo_shifts": [rng.randint(-2, 2) for _ in order],
    }


def run_soergel_r4(rec: Recorder, inputs: dict) -> None:
    rec.run("category", lambda: check_ring(soergel_category(4).ring, 4))
    cat = soergel_category(4)
    for w in inputs["perms"]:
        rec.run("indecomposable", check_indecomposable, cat, w)
    for word in inputs["words"]:
        rec.run("decompose", check_decomposition, cat, word)
    for x, y in inputs["pairs"]:
        rec.run("hom", check_hom, cat, x, y)
    rec.run("endo_algebra", check_endo, cat, inputs["endo_words"], inputs["endo_shifts"])


FRONTIER_WORD = (1, 2, 1, 3, 2)


def frontier_r5_inputs(seed: int) -> dict:
    # the fixed frontier set: the seed changes no input here
    return {"word": FRONTIER_WORD}


def run_frontier_r5(rec: Recorder, inputs: dict) -> None:
    rec.run("ring", lambda: check_ring(coinvariant_ring(5), 5))
    rec.run("decompose", lambda: check_decomposition(soergel_category(5), inputs["word"]))


WORKLOADS = {
    "selftest": (selftest_inputs, run_selftest),
    "soergel-r4": (soergel_r4_inputs, run_soergel_r4),
    "frontier-r5": (frontier_r5_inputs, run_frontier_r5),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_only": True, "version": soergelkit.__version__}))
        return 0

    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)
    with installed(tracer) if tracer else nullcontext():
        begin = clock()
        run(rec, inputs)
        end = clock()
    result = {
        "begin": begin,
        "end": end,
        "ops": [[label, t0, t1, ok, error] for label, t0, t1, ok, _, error in rec.ops],
        "digest": rec.digest(),
    }
    if tracer:
        result["spans"] = len(tracer.name)
        result["layers"] = layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
