import ast
from pathlib import Path

import larinfer

PACKAGE = Path(larinfer.__file__).resolve().parent


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement names, resolved within larinfer."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            base = f"larinfer.{module}".rstrip(".") if node.level else module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_identities():
    """The reference formulas are for the tests: no module of the package,
    its root included, imports ``larinfer.identities``."""
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "identities.py"
        and "larinfer.identities" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_only_the_path_module_names_step_records():
    """Production code reads a path's arrays: no module but ``path.py`` names
    ``LarStep`` or reads a ``.steps`` attribute."""

    def offends(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "LarStep"
        if isinstance(node, ast.alias):
            return node.name == "LarStep"
        if isinstance(node, ast.Attribute):
            return node.attr in ("LarStep", "steps")
        return False

    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "path.py"
        and any(offends(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert offenders == []
