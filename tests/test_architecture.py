import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import larinfer
from larinfer.io import diabetes_fixture_path

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


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
needs_threads = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task on a machine with 2 or more CPUs",
)


def _child_env(**variables: str) -> dict[str, str]:
    """The test's environment without the BLAS thread variables, plus
    ``variables``, with the package on the import path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return {**env, **variables}


def _run_python(code: str, env: dict[str, str]) -> list:
    """The JSON value that ``code`` prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return json.loads(out.stdout)


# [threads of the process, environment unchanged, OPENBLAS_NUM_THREADS]
_THREADS_AFTER_IMPORT = (
    "import json, os; before = dict(os.environ); import larinfer; "
    "print(json.dumps([len(os.listdir('/proc/self/task')), "
    "dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


@needs_threads
def test_import_loads_blas_with_one_thread():
    """By default the package loads OpenBLAS with one thread and leaves the
    environment as it found it."""
    assert _run_python(_THREADS_AFTER_IMPORT, _child_env()) == [1, True, None]


@needs_threads
def test_the_callers_thread_count_wins():
    env = _child_env(OPENBLAS_NUM_THREADS="2")
    assert _run_python(_THREADS_AFTER_IMPORT, env) == [2, True, "2"]


def test_import_after_numpy_leaves_the_environment_alone():
    """Once numpy is loaded its BLAS threads are set, and the package does
    not touch the environment."""
    code = ("import os, numpy; before = dict(os.environ); import larinfer; "
            "print(int(dict(os.environ) == before))")
    assert _run_python(code, _child_env()) == 1


def test_infer_output_does_not_depend_on_blas_threads(tmp_path):
    """``infer`` writes the same bytes with two BLAS threads as with one."""
    reports = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"report{len(reports)}.json"
        subprocess.run(
            [sys.executable, "-m", "larinfer.cli", "infer", str(diabetes_fixture_path()),
             "--response", "progression", "--draws", "100", "--out", str(out)],
            check=True, env=_child_env(**variables),
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
