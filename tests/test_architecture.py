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


def test_only_the_package_root_imports_identities():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("__init__.py", "identities.py")
        and "larinfer.identities" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert offenders == []
