"""Execution audit: every function the library defines runs.

Tier 1 runs in this one process under a call-only trace hook, and after it
each golden command of ``tests/test_cli.py`` and one csv listing of a
command without a table run through ``cli.main``.  Every ``def`` under
``src/soergelkit``, nested ones included, that never ran is reported unless
``ALLOWED_UNRUN`` names it with its reason.  Run from the repository root:

    PYTHONPATH=src python3 tests/execution_audit.py

The exit status is 1 when a function never ran, when an allowed entry did
run, or when a test or a command fails.
"""

import ast
import io
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: library functions that no test or CLI path runs, each with the reason it
#: stays; user API gets a test, not an entry
ALLOWED_UNRUN: dict[str, str] = {}


def definitions(paths):
    """(file, lines, qualified name) for every def in the files ``paths``,
    nested ones included.  Its code object starts on one of the lines: the
    def's own, or its first decorator's when it has any."""
    found = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found.append((path, {child.lineno, *(d.lineno for d in child.decorator_list[:1])}, name))
                visit(child, name, path)
            else:
                visit(child, owner, path)

    for path in paths:
        path = Path(path).resolve()
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, path)
    return found


def unrun(paths, run):
    """The qualified names, sorted, of the defs in the files ``paths`` that
    no call made while ``run()`` runs reaches, in any thread."""
    seen = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    ran = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen}
    return sorted(name for path, lines, name in definitions(paths) if not any((path, line) in ran for line in lines))


def findings(never, allowed):
    """The audit's complaints: each function in ``never`` that ``allowed``
    does not name, then each name in ``allowed`` that is not in ``never``."""
    return [f"never ran: {name}" for name in never if name not in allowed] + [
        f"allowed as unrun, but ran: {name}" for name in sorted(set(allowed) - set(never))
    ]


def tier_one_and_goldens():
    """Tier 1, then the golden CLI commands; the list of what failed."""
    import pytest

    failed = []
    if pytest.main(["-q", "--continue-on-collection-errors", str(ROOT)]) != 0:
        failed.append("tier 1")
    from soergelkit import cli
    from test_cli import GOLDEN

    commands = {**GOLDEN, "koszulity --rank 2 --format csv": None}
    for command, expected in commands.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(command.split())
        if code != 0 or expected not in (None, out.getvalue()):
            failed.append(command)
    return failed


def main():
    import soergelkit

    failed = []
    paths = sorted(Path(soergelkit.__file__).resolve().parent.glob("*.py"))
    never = unrun(paths, lambda: failed.extend(tier_one_and_goldens()))
    lines = [f"failed: {name}" for name in failed] + findings(never, ALLOWED_UNRUN)
    for line in lines:
        print(line)
    print(f"execution audit: {len(paths)} modules, {len(never)} functions never ran, {len(ALLOWED_UNRUN)} allowed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
