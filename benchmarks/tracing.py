"""Per-layer tracing of soergelkit from outside the library.

Wrappers are installed on the public functions and methods of each layer
for the duration of a traced run and removed afterwards.  A function that
consumer modules import by name (``from .linalg import rref``) is replaced
in every soergelkit module that holds it, so calls made through any
binding are seen.  The library's code and output are untouched.

Every wrapped call records one span: a name, a start, an end and the span
that was open when it began.  Spans are kept in memory in flat arrays and
turned into per-layer numbers only when the run ends.  A span's self time
is its duration minus the durations of its direct children, minus the time
the tracer spent computing counters inside it (scanning a matrix, say), so
instrumentation cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager

ROOT = -1


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excl = array("d")
        self.stack = [ROOT]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.keys: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        if value > self.maxima.get(counter, 0):
            self.maxima[counter] = value

    def key(self, counter: str, key) -> None:
        self.keys.setdefault(counter, set()).add(key)

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. one benchmark operation."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.excl.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(tracer, args, kwargs)`` and ``after(tracer, args, result)``
        update counters; the time they take is excluded from the enclosing
        span's self time.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends, excl, stack = (
            self.name, self.parent, self.start, self.end, self.excl, self.stack,
        )

        # _open and _close are inlined: this runs on every wrapped call
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p = stack[-1]
            if before is not None:
                t = clock()
                before(self, args, kwargs)
                if p != ROOT:
                    excl[p] += clock() - t
            i = len(names)
            names.append(nid)
            parents.append(p)
            ends.append(0.0)
            excl.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                t = clock()
                after(self, args, result)
                if p != ROOT:
                    excl[p] += clock() - t
            return result

        return wrapper


def self_times(parent, start, end, excl) -> list[float]:
    """Duration of each span minus its direct children and its excluded time."""
    own = [e - s - x for s, e, x in zip(start, end, excl)]
    for i, p in enumerate(parent):
        if p != ROOT:
            own[p] -= end[i] - start[i]
    return own


def under(parent, name, ancestor_ids) -> list[bool]:
    """For each span, whether it or an enclosing span has a name in
    ``ancestor_ids``.  Parents precede their children in the arrays."""
    flags: list[bool] = []
    for i, p in enumerate(parent):
        flags.append(name[i] in ancestor_ids or (p != ROOT and flags[p]))
    return flags


# -- counters computed at layer boundaries -------------------------------------


def _rref_input(tracer, args, kwargs):
    m = args[0] if args else kwargs["m"]
    cells = m.rows * m.cols
    nonzero = nonintegral = 0
    for row in m.data:
        for x in row:
            if x:
                nonzero += 1
                if x.denominator != 1:
                    nonintegral += 1
    tracer.add("linalg.rref.cells", cells)
    tracer.peak("linalg.rref.max_cells", cells)
    tracer.add("linalg.rref.nonzero", nonzero)
    tracer.add("linalg.rref.nonintegral", nonintegral)


def _matmul_input(tracer, args, kwargs):
    a, b = args
    if hasattr(b, "rows"):
        tracer.add("linalg.matmul.cells", a.rows * a.cols + b.rows * b.cols)


def _induct_input(tracer, args, kwargs):
    cat, _, module = args
    dim = cat.ring.dim * module.total_dim()
    tracer.add("soergel.induct.tensor_dim_sum", dim)
    tracer.peak("soergel.induct.tensor_dim_max", dim)


def _keyed(counter):
    def before(tracer, args, kwargs):
        owner, key = args[0], args[1]
        tracer.key(counter, (id(owner), tuple(key)))

    return before


def _peel_result(tracer, args, result):
    if result is not None:
        tracer.add("soergel.peel.splits", 1)


def _hom_graded_input(tracer, args, kwargs):
    M, N, degree = args
    tracer.add(
        "gradedmod.hom_graded.unknowns",
        sum(M.dim_at(a) * N.dim_at(a + degree) for a in M.degrees()),
    )


def _hom_graded_result(tracer, args, result):
    if result:
        tracer.add("gradedmod.hom_graded.nonempty", 1)


def _endo_result(tracer, args, result):
    tracer.add("soergel.endo_algebra.dim", len(args[0].basis))


#: (span name, targets, before, after).  A target is ``module:function`` or
#: ``module:Class.method``.  ``laurent`` and ``multipoly`` are left out: their
#: calls are too fine to time without the wrappers dominating the run.
LAYERS = (
    ("linalg.rref", ["linalg:rref"], _rref_input, None),
    ("linalg.kernel_basis", ["linalg:kernel_basis"], None, None),
    ("linalg.qmatrix", ["linalg:QMatrix.__init__"], None, None),
    ("linalg.solve", ["linalg:solve"], None, None),
    ("linalg.matmul", ["linalg:QMatrix.__mul__"], _matmul_input, None),
    ("linalg.span_solver.build", ["linalg:SpanSolver.__init__"], None, None),
    ("linalg.span_solver.coords", ["linalg:SpanSolver.coords"], None, None),
    ("coinvariant.ring_build", ["coinvariant:CoinvariantRing.__init__"], None, None),
    ("coinvariant.normal_form", ["coinvariant:CoinvariantRing.normal_form"], None, None),
    ("coinvariant.demazure", ["coinvariant:CoinvariantRing.demazure"], None, None),
    ("soergel.induct", ["soergel:SoergelCategory.induct"], _induct_input, None),
    (
        "soergel.bott_samelson",
        ["soergel:SoergelCategory.bott_samelson"],
        _keyed("soergel.bott_samelson"),
        None,
    ),
    (
        "soergel.indecomposable",
        ["soergel:SoergelCategory.indecomposable"],
        _keyed("soergel.indecomposable"),
        None,
    ),
    ("soergel.decompose", ["soergel:SoergelCategory.decompose"], None, None),
    ("soergel.peel", ["soergel:SoergelCategory._try_peel"], None, _peel_result),
    ("soergel.expected_summands", ["soergel:SoergelCategory.expected_summands"], None, None),
    ("soergel.endo_algebra", ["soergel:EndoAlgebra.__init__"], None, _endo_result),
    ("gradedmod.hom_graded", ["gradedmod:hom_graded"], _hom_graded_input, _hom_graded_result),
    ("gradedmod.hom_ungraded_dim", ["gradedmod:hom_ungraded_dim"], None, None),
    ("gradedmod.kernel_module", ["gradedmod:kernel_module"], None, None),
    ("hecke.kl_basis", ["hecke:HeckeAlgebra.kl_basis"], _keyed("hecke.kl_basis"), None),
    ("hecke.product_bs", ["hecke:HeckeAlgebra.product_bs"], None, None),
    ("hecke.kl_expand", ["hecke:HeckeAlgebra.kl_expand"], None, None),
    ("hecke.pairing", ["hecke:HeckeAlgebra.pairing"], None, None),
    ("weyl.a_reduced_word", ["weyl:WeylGroup.a_reduced_word"], None, None),
    ("weyl.bruhat_leq", ["weyl:WeylGroup.bruhat_leq"], None, None),
    ("tate.random_complex", ["tate:random_complex"], None, None),
    ("tate.hom_homotopy", ["tate:hom_homotopy"], None, None),
    (
        "tate.truncate",
        ["tate:t_truncate_leq", "tate:t_truncate_geq", "tate:w_truncate_leq", "tate:w_truncate_geq"],
        None,
        None,
    ),
    ("tate.minimize", ["tate:Complex.minimize"], None, None),
    ("tate.check_axioms", ["tate:check_t_axioms", "tate:check_w_axioms"], None, None),
    ("formal.random_complex", ["formal:FormalCategory.random_complex"], None, None),
    ("formal.square_check", ["formal:FormalCategory.square_check"], None, None),
    ("formal.dsquare_check", ["formal:FormalCategory.dsquare_check"], None, None),
    ("formal.hom_homotopy", ["formal:FormalCategory.hom_homotopy"], None, None),
    ("dualalg.build", ["dualalg:DualAlgebra.__init__"], None, None),
    ("dualalg.projective_resolution", ["dualalg:DualAlgebra.projective_resolution"], None, None),
    ("dualalg.koszulity_check", ["dualalg:DualAlgebra.koszulity_check"], None, None),
)


def _load_package() -> list:
    root = importlib.import_module("soergelkit")
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"soergelkit.{info.name}")
    return [m for n, m in sys.modules.items() if n == "soergelkit" or n.startswith("soergelkit.")]


def install(tracer: Tracer) -> list:
    """Wrap every layer target; returns the undo list for :func:`uninstall`."""
    modules = _load_package()
    undo = []
    for span_name, targets, before, after in LAYERS:
        for target in targets:
            modname, qualname = target.split(":")
            module = importlib.import_module(f"soergelkit.{modname}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(original, span_name, before, after))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(original, span_name, before, after)
            for consumer in modules:
                for attr, value in list(vars(consumer).items()):
                    if value is original:
                        setattr(consumer, attr, wrapper)
                        undo.append((consumer, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


# -- per-layer metrics -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "density", "_frac")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` by name."""
    own = self_times(tracer.parent, tracer.start, tracer.end, tracer.excl)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for nid, t in zip(tracer.name, own):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + t

    peel_roots = {tracer._ids[n] for n in ("soergel.decompose", "soergel.indecomposable") if n in tracer._ids}
    hom_id = tracer._ids.get("gradedmod.hom_graded")
    flags = under(tracer.parent, tracer.name, peel_roots)
    peel_homs = sum(1 for nid, f in zip(tracer.name, flags) if f and nid == hom_id)

    c, mx = tracer.counters, tracer.maxima

    def hit_ratio(name):
        return _ratio(calls.get(name, 0) - len(tracer.keys.get(name, ())), calls.get(name, 0))

    out: dict[str, float] = {}
    for span_name, _, _, _ in LAYERS:
        out[f"{span_name}.calls"] = calls.get(span_name, 0)
        out[f"{span_name}.self_s"] = busy.get(span_name, 0.0)
    cells = c.get("linalg.rref.cells", 0)
    out.update(
        {
            "linalg.rref.cells": cells,
            "linalg.rref.max_cells": mx.get("linalg.rref.max_cells", 0),
            "linalg.rref.density": _ratio(c.get("linalg.rref.nonzero", 0), cells),
            "linalg.rref.nonintegral_frac": _ratio(c.get("linalg.rref.nonintegral", 0), cells),
            "linalg.matmul.cells": c.get("linalg.matmul.cells", 0),
            "soergel.induct.tensor_dim_sum": c.get("soergel.induct.tensor_dim_sum", 0),
            "soergel.induct.tensor_dim_max": mx.get("soergel.induct.tensor_dim_max", 0),
            "soergel.bott_samelson.hit_ratio": hit_ratio("soergel.bott_samelson"),
            "soergel.indecomposable.hit_ratio": hit_ratio("soergel.indecomposable"),
            "soergel.peel.useful_ratio": _ratio(c.get("soergel.peel.splits", 0), peel_homs),
            "soergel.endo_algebra.dim": c.get("soergel.endo_algebra.dim", 0),
            "gradedmod.hom_graded.unknowns": c.get("gradedmod.hom_graded.unknowns", 0),
            "gradedmod.hom_graded.nonempty_ratio": _ratio(
                c.get("gradedmod.hom_graded.nonempty", 0), calls.get("gradedmod.hom_graded", 0)
            ),
            "hecke.kl_basis.misses": len(tracer.keys.get("hecke.kl_basis", ())),
        }
    )
    renamed = {
        "linalg.qmatrix.calls": "linalg.qmatrix.constructions",
        "linalg.span_solver.build.calls": "linalg.span_solver.builds",
        "linalg.span_solver.build.self_s": "linalg.span_solver.build_s",
        "linalg.span_solver.coords.calls": "linalg.span_solver.coords_calls",
        "linalg.span_solver.coords.self_s": "linalg.span_solver.coords_s",
    }
    out = {renamed.get(k, k): v for k, v in out.items()}
    return {name: out[name] for name in PER_LAYER}


#: The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.rref.cells",
    "linalg.rref.max_cells",
    "linalg.rref.density",
    "linalg.rref.nonintegral_frac",
    "linalg.kernel_basis.calls",
    "linalg.kernel_basis.self_s",
    "linalg.qmatrix.constructions",
    "linalg.qmatrix.self_s",
    "linalg.solve.calls",
    "linalg.solve.self_s",
    "linalg.matmul.calls",
    "linalg.matmul.self_s",
    "linalg.matmul.cells",
    "linalg.span_solver.builds",
    "linalg.span_solver.build_s",
    "linalg.span_solver.coords_calls",
    "linalg.span_solver.coords_s",
    "coinvariant.ring_build.calls",
    "coinvariant.ring_build.self_s",
    "coinvariant.normal_form.calls",
    "coinvariant.normal_form.self_s",
    "coinvariant.demazure.calls",
    "coinvariant.demazure.self_s",
    "soergel.induct.calls",
    "soergel.induct.self_s",
    "soergel.induct.tensor_dim_sum",
    "soergel.induct.tensor_dim_max",
    "soergel.bott_samelson.calls",
    "soergel.bott_samelson.hit_ratio",
    "soergel.indecomposable.calls",
    "soergel.indecomposable.hit_ratio",
    "soergel.indecomposable.self_s",
    "soergel.decompose.calls",
    "soergel.decompose.self_s",
    "soergel.peel.useful_ratio",
    "soergel.expected_summands.self_s",
    "soergel.endo_algebra.self_s",
    "soergel.endo_algebra.dim",
    "gradedmod.hom_graded.calls",
    "gradedmod.hom_graded.self_s",
    "gradedmod.hom_graded.unknowns",
    "gradedmod.hom_graded.nonempty_ratio",
    "gradedmod.hom_ungraded_dim.calls",
    "gradedmod.hom_ungraded_dim.self_s",
    "gradedmod.kernel_module.calls",
    "gradedmod.kernel_module.self_s",
    "hecke.kl_basis.calls",
    "hecke.kl_basis.misses",
    "hecke.kl_basis.self_s",
    "hecke.product_bs.self_s",
    "hecke.kl_expand.self_s",
    "hecke.pairing.calls",
    "hecke.pairing.self_s",
    "weyl.a_reduced_word.calls",
    "weyl.a_reduced_word.self_s",
    "weyl.bruhat_leq.calls",
    "weyl.bruhat_leq.self_s",
    "tate.random_complex.calls",
    "tate.random_complex.self_s",
    "tate.hom_homotopy.calls",
    "tate.hom_homotopy.self_s",
    "tate.truncate.calls",
    "tate.truncate.self_s",
    "tate.minimize.calls",
    "tate.minimize.self_s",
    "tate.check_axioms.self_s",
    "formal.random_complex.calls",
    "formal.random_complex.self_s",
    "formal.square_check.calls",
    "formal.square_check.self_s",
    "formal.dsquare_check.self_s",
    "formal.hom_homotopy.calls",
    "formal.hom_homotopy.self_s",
    "dualalg.build.self_s",
    "dualalg.projective_resolution.calls",
    "dualalg.projective_resolution.self_s",
    "dualalg.koszulity_check.self_s",
)
