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
