"""Package structure: modules share only their public names."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import soergelkit
from execution_audit import findings, unrun

PACKAGE = Path(soergelkit.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _private_imports(path):
    """(line, module, name) for each underscore name that ``path`` imports
    from a soergelkit module, at any nesting depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "soergelkit":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, node.module, alias.name


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.name}:{line}: {name} from {module}"
        for path in modules
        for line, module, name in _private_imports(path)
    ]
    assert found == []


def test_only_linalg_names_its_stored_rows_type():
    # QMatrix keeps rows given in this type without checking them, so a
    # module that named it could store rows it built itself unchecked
    name = soergelkit.linalg._StoredRows.__name__
    pattern = re.compile(rf"\b{name}\b")
    src = ROOT / "src"
    named = sorted(path.relative_to(src).as_posix() for path in src.rglob("*.py") if pattern.search(path.read_text()))
    assert named == ["soergelkit/linalg.py"]


DENSE_VIEWS = {"row", "col", "data", "times_vector", "solve", "SpanSolver"}


def _dense_view_uses(path):
    """(line, enclosing definition, name) for each use of a dense view of
    :mod:`soergelkit.linalg` in ``path``: a call of ``row``, ``col``,
    ``times_vector``, ``solve`` or ``SpanSolver``, or a read of ``.data``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            name = None
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            elif isinstance(child, ast.Attribute) and child.attr == "data":
                name = "data"
            if name in DENSE_VIEWS:
                found.append((child.lineno, owner, name))
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_no_library_routine_uses_a_dense_view():
    # the dense views are the test-facing forms and reference routes; the
    # library reads stored nonzeros, except inside the views themselves
    allowed = ("QMatrix.data", "SpanSolver")
    found = [
        f"{path.name}:{line}: {name} in {owner or 'module scope'}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, owner, name in _dense_view_uses(path)
        if not (path.name == "linalg.py" and owner.startswith(allowed))
    ]
    assert found == []
    # the scan sees the uses it allows
    linalg_uses = {(owner, name) for _, owner, name in _dense_view_uses(PACKAGE / "linalg.py")}
    assert {("QMatrix.data", "row"), ("SpanSolver.coords", "times_vector")} <= linalg_uses


#: modules that a fresh process must not load for the library: dataclasses
#: and the introspection it pulls in, and typing
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "typing")


def _modules_after(code):
    """The names in ``sys.modules`` once a new interpreter, with the package
    on its path, has run ``code``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    listing = "\nimport sys; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code + listing], capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_a_fresh_process_imports_no_introspection_module():
    # cold start: the package, the CLI and the battery add none of these to
    # what a bare interpreter on the same Python (site included) loads
    bare = _modules_after("")
    loaded = _modules_after("import soergelkit, soergelkit.cli, soergelkit.selftest")
    assert {"soergelkit.cli", "soergelkit.selftest", "fractions"} <= loaded - bare
    assert sorted((loaded - bare) & set(NOT_IMPORTED)) == []


#: public names that nothing in the library, the benchmark, CI or the
#: package metadata calls, each with the reason it stays
UNCALLED_PUBLIC_NAMES = {
    "hecke.HeckeAlgebra.kl_poly": "user API: one Kazhdan-Lusztig polynomial",
    "soergel.SoergelCategory.hecke_class": "user API: the Hecke class of a module, read off its decomposition",
    "hecke.HeckeAlgebra.std": "elementary operation: the standard basis element H_w",
    "linalg.QMatrix.from_rows": "elementary operation: a matrix from its rows",
    "weyl.multiply": "elementary operation: the group product",
    "formal.FormalCategory.stalk": "user API: the complex of one term, checked like any complex built from outside data",
    "hecke.HeckeElement.from_json_dict": "reads back the elements that the kl command prints",
}


def _public_definitions(tree, module):
    """(qualified name, name, node, is_method) for each public module-level
    function and class and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _uses(node):
    """Counts of the names read under ``node``: as bare names, as
    attributes, and as attributes of a bare name, keyed (that name,
    attribute), which is how ``module.name`` reads."""
    names, attributes, module_reads = Counter(), Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
            if isinstance(sub.value, ast.Name):
                module_reads[sub.value.id, sub.attr] += 1
    return names, attributes, module_reads


def test_every_public_name_has_a_caller_or_a_stated_reason():
    # a public function, class or method passes when the library refers to
    # it outside its own body (a method as an attribute, a module-level name
    # as a bare name or as ``module.name``, so that a method of the same
    # name does not count for it), or when the benchmark, a CI workflow, the
    # frontier checks CI runs or pyproject.toml names it; the rest must be
    # exactly the stated exceptions, so a reference route that only tests
    # call belongs in tests/reference.py
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    names, attributes, module_reads = Counter(), Counter(), Counter()
    for tree in trees.values():
        n, a, m = _uses(tree)
        names += n
        attributes += a
        module_reads += m
    outside = [
        *sorted(ROOT.glob("benchmarks/*.py")),
        *sorted(ROOT.glob(".github/workflows/*.yml")),
        ROOT / "tests" / "frontier.py",
        ROOT / "pyproject.toml",
    ]
    named_outside = {word for path in outside for word in re.findall(r"\w+", path.read_text())}
    uncalled = []
    for module, tree in trees.items():
        for qualified, name, node, is_method in _public_definitions(tree, module):
            own_names, own_attributes, own_module_reads = _uses(node)
            if is_method:
                inside = attributes[name] - own_attributes[name]
            else:
                read = (module, name)
                inside = names[name] - own_names[name] + module_reads[read] - own_module_reads[read]
            if not inside and name not in named_outside:
                uncalled.append(qualified)
    assert len(trees) > 10 and len(outside) > 3
    no_caller = sorted(set(uncalled) - set(UNCALLED_PUBLIC_NAMES))
    assert not no_caller, "no caller outside the tests: " + ", ".join(no_caller)
    # an exception that gained a caller leaves the list
    assert set(uncalled) == set(UNCALLED_PUBLIC_NAMES)


#: a heredoc, python reading its program from stdin, or a ``python -c``
#: program that runs over more than one line
INLINE_PYTHON = re.compile(r"<<|\bpython3?\s+-(?:\s|$)|\bpython3?\s+-c\s*(['\"])(?:(?!\1)[^\n])*\n")


def test_no_workflow_runs_inline_python():
    # each check CI runs is a function that the tests also call, so CI
    # holds no copy of it that the tests never run
    for inline in ("python3 - <<'PY'\n", "cat <<EOF\n", "python -c 'import os\nos.sep'", "python3 -\n"):
        assert INLINE_PYTHON.search(inline), inline
    assert not INLINE_PYTHON.search("python -c 'import soergelkit'\npython -m pytest -q\n")
    workflows = sorted(ROOT.glob(".github/workflows/*.yml"))
    found = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}"
        for path in workflows
        for text in [path.read_text()]
        for match in INLINE_PYTHON.finditer(text)
    ]
    assert workflows and found == []


PLANTED = """
def called():
    def inner():
        return 1

    def never():
        return 2

    return inner()


def planted():
    return 3


def in_thread():
    return 4


class Box:
    @staticmethod
    def method():
        return 5

    def spare(self):
        return 6
"""


def test_execution_audit_flags_each_function_that_never_runs(tmp_path):
    # the audit's core on a planted module: nested and decorated functions
    # and one run in another thread are seen, and only the unrun ones listed
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run():
        module.called()
        module.Box.method()
        thread = threading.Thread(target=module.in_thread)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    never = unrun([path], run)
    assert never == ["planted.Box.spare", "planted.called.never", "planted.planted"]
    # an allowed function that never ran passes; an allowed one that ran fails
    allowed = {"planted.planted": "kept for a reason", "planted.called.inner": "kept for a reason"}
    assert findings(never, allowed) == [
        "never ran: planted.Box.spare",
        "never ran: planted.called.never",
        "allowed as unrun, but ran: planted.called.inner",
    ]
