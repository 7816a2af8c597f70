"""Package structure: modules share only their public names."""

import ast
from pathlib import Path

import soergelkit

PACKAGE = Path(soergelkit.__file__).parent


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
