"""Package structure: modules share only their public names."""

import ast
import re
from collections import Counter
from pathlib import Path

import soergelkit

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


#: public names that nothing in the library, the benchmark, CI or the
#: package metadata calls, each with the reason it stays
UNCALLED_PUBLIC_NAMES = {
    "hecke.HeckeAlgebra.kl_poly": "user API: one Kazhdan-Lusztig polynomial",
    "soergel.SoergelCategory.hecke_class": "user API: the Hecke class of a module, read off its decomposition",
    "hecke.HeckeAlgebra.std": "elementary operation: the standard basis element H_w",
    "coinvariant.CoinvariantRing.variable": "elementary operation: the class of the generator x_i",
    "linalg.QMatrix.from_rows": "elementary operation: a matrix from its rows",
    "weyl.multiply": "elementary operation: the group product",
    "hecke.HeckeElement.from_json_dict": "reads back the elements that the kl command prints",
    "linalg.QMatrix.col": "dense view: the benchmark tracer binds the dense views, which leave with it",
    "linalg.SpanSolver.contains": "dense view: the benchmark tracer binds the dense views, which leave with it",
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
    """Counts of the names read under ``node``, as bare names and as attributes."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return names, attributes


def test_every_public_name_has_a_caller_or_a_stated_reason():
    # a public function, class or method passes when the library refers to
    # it outside its own body (a method only as an attribute), or when the
    # benchmark, a CI workflow or pyproject.toml names it; the rest must be
    # exactly the stated exceptions, so a reference route that only tests
    # call belongs in tests/reference.py
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names += n
        attributes += a
    outside = [
        *sorted(ROOT.glob("benchmarks/*.py")),
        *sorted(ROOT.glob(".github/workflows/*.yml")),
        ROOT / "pyproject.toml",
    ]
    named_outside = {word for path in outside for word in re.findall(r"\w+", path.read_text())}
    uncalled = []
    for module, tree in trees.items():
        for qualified, name, node, is_method in _public_definitions(tree, module):
            own_names, own_attributes = _uses(node)
            inside = attributes[name] - own_attributes[name]
            if not is_method:
                inside += names[name] - own_names[name]
            if not inside and name not in named_outside:
                uncalled.append(qualified)
    assert len(trees) > 10 and len(outside) > 3
    no_caller = sorted(set(uncalled) - set(UNCALLED_PUBLIC_NAMES))
    assert not no_caller, "no caller outside the tests: " + ", ".join(no_caller)
    # an exception that gained a caller leaves the list
    assert set(uncalled) == set(UNCALLED_PUBLIC_NAMES)
