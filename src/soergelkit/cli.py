"""Command line front end.

Every computation is exposed as a subcommand with deterministic output:
identical invocations produce byte-identical bytes, and randomised suites
are pinned by ``--seed``.  Output goes to stdout in one of three formats
(json, csv, text); diagnostics go to stderr.  Exit codes: 0 on success, 1
when a verification fails (a commuting-square failure, a Hom mismatch, a
failed selftest), 2 on usage errors or refused oversize computations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .laurent import LaurentPoly
from .linalg import SizeCapError
from .weyl import format_perm, format_word, length, parse_word

FORMATS = ("json", "csv", "text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soergelkit",
        description="Exact computations with coinvariant algebras, canonical bases, "
        "graded modules and their formal homotopy categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--format", choices=FORMATS, default="json", help="output format")
        return p

    p = add("kl", "canonical-basis coefficients for one group element")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--w", required=True, help="word for the element, e.g. 1,2,1")

    p = add("bs", "Bott-Samelson module of a word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word", required=True, help="comma-separated word")
    p.add_argument("--decompose", action="store_true", help="also split into summands")

    p = add("decompose", "split a Bott-Samelson module into indecomposables")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--word", required=True)

    p = add("hom", "graded Hom between two indecomposables, checked against the pairing")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--x", required=True, help="word for the source element")
    p.add_argument("--y", required=True, help="word for the target element")

    p = add("coinv", "coinvariant algebra dimensions")
    p.add_argument("--rank", type=int, required=True)

    p = add("endo", "endomorphism algebra of a sum of indecomposables")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--w", help="restrict to the single element of this word")

    p = add("tate", "toy Tate category witnesses and axiom checks")
    p.add_argument("--demo", action="store_true", required=True, help="run the fixed battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=100)

    p = add("koszul-square", "check the duality square on a random corpus")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=100)

    p = add("ext", "Ext table between two simples of the dual algebra")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--x", required=True, help="word for the first element")
    p.add_argument("--y", required=True, help="word for the second element")

    p = add("koszulity", "purity of the Ext grading for the dual algebra")
    p.add_argument("--rank", type=int, required=True)

    p = add("selftest", "run the acceptance battery")
    p.add_argument("--seed", type=int, default=42)
    return parser


# -- emission -------------------------------------------------------------------


def emit(result: dict, fmt: str, table=None) -> str:
    """Serialise a result deterministically.

    ``table`` is an optional (columns, rows) pair used by the csv format;
    without it the csv is a flat key,value listing.
    """
    if fmt == "json":
        return json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if table is not None:
            columns, rows = table
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_plain(row.get(c, "")) for c in columns])
        else:
            writer.writerow(["key", "value"])
            for key, value in sorted(_flatten(result).items()):
                writer.writerow([key, _plain(value)])
        return out.getvalue()
    if fmt == "text":
        lines = []
        _render_text(result, lines, indent=0)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def _flatten(obj, prefix="") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            flat.update(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            flat.update(_flatten(value, f"{prefix}{i}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _render_text(obj, lines, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render_text(value, lines, indent + 1)
            else:
                lines.append(f"{pad}{key}: {_plain(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(value, lines, indent + 1)
            else:
                lines.append(f"{pad}- {_plain(value)}")
    else:
        lines.append(f"{pad}{_plain(obj)}")


def _laurent_dict(poly: LaurentPoly) -> dict:
    return {str(k): str(c) if c.denominator != 1 else int(c) for k, c in poly.items()}


def _dims_dict(dims: dict) -> dict:
    return {str(d): int(m) for d, m in sorted(dims.items())}


# -- command handlers --------------------------------------------------------------


def cmd_kl(args) -> tuple[dict, bool, tuple | None]:
    from .soergel import soergel_category

    cat = soergel_category(args.rank)
    word = parse_word(args.w, args.rank)
    w = cat.group.evaluate(word)
    b = cat.hecke.kl_basis(w)
    polys = {format_perm(x): str(p) for x, p in b.terms()}
    result = {
        "rank": args.rank,
        "word": format_word(word),
        "w": format_perm(w),
        "length": length(w),
        "polys": polys,
        "element": b.to_json_dict(),
    }
    rows = [{"x": x, "poly": p} for x, p in sorted(polys.items())]
    return result, True, (["x", "poly"], rows)


def cmd_bs(args, force_decompose=False) -> tuple[dict, bool, tuple | None]:
    from .soergel import soergel_category

    cat = soergel_category(args.rank)
    word = parse_word(args.word, args.rank)
    decompose = force_decompose or getattr(args, "decompose", False)
    module = cat.bott_samelson(word)
    result = {
        "rank": args.rank,
        "word": format_word(word),
        "dim": module.total_dim(),
        "dims": _dims_dict(module.dims),
        "character": str(module.character()),
    }
    table = None
    if decompose:
        dec = cat.decompose(module, expected=cat.expected_summands(word))
        summands = [{"w": format_perm(w), "shift": k} for w, k in dec.multiset()]
        result["summands"] = summands
        table = (["w", "shift"], summands)
    return result, True, table


def cmd_decompose(args):
    return cmd_bs(args, force_decompose=True)


def cmd_hom(args) -> tuple[dict, bool, tuple | None]:
    from .soergel import soergel_category

    cat = soergel_category(args.rank)
    x = cat.group.evaluate(parse_word(args.x, args.rank))
    y = cat.group.evaluate(parse_word(args.y, args.rank))
    poly = cat.hom_poly(x, y)
    pairing = cat.hecke.pairing(cat.hecke.kl_basis(x), cat.hecke.kl_basis(y))
    match = poly == pairing
    result = {
        "rank": args.rank,
        "x": format_perm(x),
        "y": format_perm(y),
        "graded": _laurent_dict(poly),
        "total": int(poly.at_one()),
        "pairing": str(pairing),
        "match": match,
    }
    rows = [{"degree": d, "dim": int(c)} for d, c in poly.items()]
    return result, match, (["degree", "dim"], rows)


def cmd_coinv(args) -> tuple[dict, bool, tuple | None]:
    from .coinvariant import coinvariant_ring

    ring = coinvariant_ring(args.rank)
    graded = ring.graded_dims()
    top = max(graded)
    palindromic = all(graded[d] == graded[top - d] for d in graded)
    result = {
        "rank": args.rank,
        "dim": ring.dim,
        "graded": _dims_dict(graded),
        "poincare": str(ring.poincare()),
        "palindromic": palindromic,
    }
    rows = [{"degree": d, "dim": m} for d, m in sorted(graded.items())]
    return result, True, (["degree", "dim"], rows)


def cmd_endo(args) -> tuple[dict, bool, tuple | None]:
    from .soergel import soergel_category

    cat = soergel_category(args.rank)
    if args.w is not None:
        w = cat.group.evaluate(parse_word(args.w, args.rank))
        summands = [(w, 0)]
    else:
        summands = [(w, 0) for w in cat.group.elements()]
    alg = cat.endo_algebra(summands)
    result = {
        "rank": args.rank,
        "summands": [format_perm(w) for w, _ in summands],
        "dim": alg.dim,
        "graded": _dims_dict(alg.graded_dims()),
    }
    rows = [{"degree": d, "dim": m} for d, m in sorted(alg.graded_dims().items())]
    return result, True, (["degree", "dim"], rows)


def cmd_tate(args) -> tuple[dict, bool, tuple | None]:
    import random as _random

    from .selftest import tate_battery

    report, ok = tate_battery(_random.Random(args.seed), args.cases)
    return {"seed": args.seed, **report}, ok, None


def cmd_koszul_square(args) -> tuple[dict, bool, tuple | None]:
    import random as _random

    from .selftest import square_failures

    failures = square_failures(args.rank, _random.Random(args.seed), args.cases)
    result = {
        "rank": args.rank,
        "seed": args.seed,
        "cases": args.cases,
        "failures": failures,
    }
    return result, failures == 0, None


def cmd_ext(args) -> tuple[dict, bool, tuple | None]:
    from .dualalg import dual_algebra

    alg = dual_algebra(args.rank)
    cat = alg.cat
    x = cat.group.evaluate(parse_word(args.x, args.rank))
    y = cat.group.evaluate(parse_word(args.y, args.rank))
    res = alg.projective_resolution(x)
    rows = []
    for k in range(len(res.steps)):
        total, graded = alg.ext_dims(x, y, k)
        if total:
            rows.append({"k": k, "dim": total, "graded": {str(d): m for d, m in graded.items()}})
    result = {
        "rank": args.rank,
        "x": format_perm(x),
        "y": format_perm(y),
        "resolution_length": res.length(),
        "complete": res.complete,
        "table": rows,
    }
    return result, res.complete, (["k", "dim", "graded"], rows)


def cmd_koszulity(args) -> tuple[dict, bool, tuple | None]:
    from .dualalg import dual_algebra

    report = dual_algebra(args.rank).koszulity_check()
    result = {"rank": args.rank, **report}
    return result, report["koszul"], None


def cmd_selftest(args) -> tuple[dict, bool, tuple | None]:
    from .selftest import battery_report, run_battery

    results = run_battery(args.seed)
    report = battery_report(results)
    report["seed"] = args.seed
    rows = [
        {"number": r.number, "status": "PASS" if r.passed else "FAIL", "name": r.name}
        for r in results
    ]
    return report, report["all_passed"], (["number", "status", "name"], rows)


HANDLERS = {
    "kl": cmd_kl,
    "bs": cmd_bs,
    "decompose": cmd_decompose,
    "hom": cmd_hom,
    "coinv": cmd_coinv,
    "endo": cmd_endo,
    "tate": cmd_tate,
    "koszul-square": cmd_koszul_square,
    "ext": cmd_ext,
    "koszulity": cmd_koszulity,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "cases", 1) < 1:
            raise ValueError(f"--cases must be at least 1, got {args.cases}")
        if args.command == "selftest" and args.format == "text":
            from .selftest import run_battery

            results = run_battery(args.seed)
            passed = sum(r.passed for r in results)
            lines = [r.line() for r in results]
            lines.append(f"passed {passed} of {len(results)} criteria")
            sys.stdout.write("\n".join(lines) + "\n")
            return 0 if passed == len(results) else 1
        handler = HANDLERS[args.command]
        result, ok, table = handler(args)
        sys.stdout.write(emit(result, args.format, table))
        return 0 if ok else 1
    except SizeCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
