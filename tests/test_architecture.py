import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import child_env, diabetes_fixture_path, run_python

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


def _trees(skip: str) -> dict[str, ast.Module]:
    """The parsed modules of the package, by file name, without ``skip``."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != skip}


def test_no_module_imports_identities():
    """The reference formulas are for the tests: no module of the package,
    its root included, imports ``larinfer.identities``."""
    offenders = [name for name, tree in _trees("identities.py").items()
                 if "larinfer.identities" in _imported_modules(tree)]
    assert offenders == []


def test_bootstrap_imports_nothing_from_linalg():
    """The path engine's full step gives every least-squares refit the
    bootstrap needs, for the sample and for each replica: ``bootstrap.py``
    has no solver of its own to import from ``larinfer.linalg``."""
    imported = _imported_modules(ast.parse((PACKAGE / "bootstrap.py").read_text()))
    assert sorted(m for m in imported if m.startswith("larinfer.linalg")) == []


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

    offenders = [name for name, tree in _trees("path.py").items()
                 if any(offends(node) for node in ast.walk(tree))]
    assert offenders == []


def test_stopping_rule_lives_in_inference():
    """σ̂, the tail sums, their thresholds and m̄ come from one rule,
    ``inference.build_inference_report``: no production module but
    ``inference.py`` calls ``tail_sums``, ``estimate_m`` or ``chi2_thresholds``."""
    rule = {"tail_sums", "estimate_m", "chi2_thresholds"}
    offenders = []
    for name, tree in _trees("inference.py").items():
        if name == "identities.py":
            continue
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee in rule:
                offenders.append(f"{name}: {callee}")
    assert offenders == []


# Reached only from outside the package: the benchmark's trace worker
# (``bench/trace_worker.py``) counts a traced path's steps as ``len(path.steps)``.
OUTSIDE_CALLERS = {"LarPath.steps"}


def test_every_definition_has_a_production_caller():
    """Each module-level function or class, and each public method, outside
    ``identities.py`` is named in the package's code outside ``identities.py``
    or re-exported by the package root: code that only the tests call lives
    with the tests or in ``larinfer.identities``."""
    trees = _trees("identities.py").values()

    def name(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return node.id
        return getattr(node, "attr", None) or getattr(node, "name", None)

    named = {name(node) for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    defined = {}
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            defined.update((f"{node.name}.{item.name}", item.name) for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name[0] != "_")
    unused = [qualified for qualified, bare in defined.items()
              if bare not in named and not bare.startswith("__")
              and qualified not in {*larinfer.__all__, *OUTSIDE_CALLERS}]
    assert unused == []


# Passed only from outside the package: the trace worker replays the command
# line through ``main(argv)``.
OUTSIDE_ARGUMENTS = {"main(argv)"}


def test_every_defaulted_parameter_is_passed_in_production():
    """Each defaulted parameter of a module-level function or a method outside
    ``identities.py`` is passed, by position or by keyword, by some call of
    that name in the package's code outside ``identities.py``: a switch that
    only the tests set belongs with the tests or in ``larinfer.identities``."""
    trees = _trees("identities.py").values()
    # per callee name: the most positional arguments of a call, and the keywords
    positional: dict[str, float] = {}
    keywords: dict[str, set[str]] = {}
    for call in (node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.Call)):
        callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        spread = any(isinstance(arg, ast.Starred) for arg in call.args)
        positional[callee] = max(positional.get(callee, 0),
                                 math.inf if spread else len(call.args))
        keywords.setdefault(callee, set()).update(kw.arg or "**" for kw in call.keywords)

    unpassed = []
    for node in (node for tree in trees for node in tree.body):
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            # a method's first parameter is bound by the attribute lookup
            bound = int(is_class and "staticmethod" not in
                        [getattr(d, "id", None) for d in fn.decorator_list])
            ordered = fn.args.posonlyargs + fn.args.args
            first_default = len(ordered) - len(fn.args.defaults)
            defaulted = [(i - bound, arg.arg) for i, arg in enumerate(ordered)
                         if i >= first_default]
            defaulted += [(math.inf, arg.arg) for arg, default
                          in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            passed = keywords.get(fn.name, set())
            unpassed += [f"{node.name + '.' if is_class else ''}{fn.name}({param})"
                         for index, param in defaulted
                         if positional.get(fn.name, 0) <= index
                         and not {param, "**"} & passed]
    assert sorted(set(unpassed) - OUTSIDE_ARGUMENTS) == []


# Records or fields that production never reads as attributes, each with why it stays.
UNREAD_FIELDS = {
    # deprecated and ignored, kept so that old callers and scenario files load
    "BootstrapConfig.parallel", "BootstrapConfig.threads", "ScenarioSpec.threads",
    # ``cmd_simulate`` writes the whole record through ``dataclasses.astuple``
    "CoverageResult",
}


def test_every_record_field_is_read_in_production():
    """Each field of a dataclass outside ``identities.py`` is read as an
    attribute, under its name, somewhere in the package's code outside
    ``identities.py``: a field that only the tests read, or nothing reads,
    goes, and a record left with nothing to carry goes with it."""
    trees = _trees("identities.py").values()
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(node: ast.ClassDef) -> bool:
        return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                   for d in node.decorator_list)

    unread = [f"{node.name}.{item.target.id}"
              for tree in trees for node in tree.body
              if isinstance(node, ast.ClassDef) and is_dataclass(node)
              and node.name not in UNREAD_FIELDS
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert sorted(set(unread) - UNREAD_FIELDS) == []


needs_threads = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task on a machine with 2 or more CPUs",
)


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
    assert run_python(_THREADS_AFTER_IMPORT) == [1, True, None]


@needs_threads
def test_the_callers_thread_count_wins():
    assert run_python(_THREADS_AFTER_IMPORT, OPENBLAS_NUM_THREADS="2") == [2, True, "2"]


def test_import_after_numpy_leaves_the_environment_alone():
    """Once numpy is loaded its BLAS threads are set, and the package does
    not touch the environment."""
    code = ("import os, numpy; before = dict(os.environ); import larinfer; "
            "print(int(dict(os.environ) == before))")
    assert run_python(code) == 1


def test_infer_output_does_not_depend_on_blas_threads(tmp_path):
    """``infer`` writes the same bytes with two BLAS threads as with one."""
    reports = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"report{len(reports)}.json"
        subprocess.run(
            [sys.executable, "-m", "larinfer.cli", "infer", str(diabetes_fixture_path()),
             "--response", "progression", "--draws", "100", "--out", str(out)],
            check=True, env=child_env(**variables),
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@needs_threads
def test_tie_demo_output_does_not_depend_on_blas_threads(tmp_path):
    """``tie-demo`` writes the same bytes with two BLAS threads as with one."""
    outputs = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"ties{len(outputs)}.csv"
        subprocess.run(
            [sys.executable, "-m", "larinfer.cli", "tie-demo", "--n", "500", "--reps", "2000",
             "--seed", "1", "--out", str(out)],
            check=True, capture_output=True, env=child_env(**variables),
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# sha256 of the starting correlations of the coverage study's first block of
# 128 replications (a full block), then the study aborts
_STUDY_STARTS = (
    "import hashlib, json, larinfer.simulate as simulate\n"
    "class Done(Exception): pass\n"
    "def hashed(start, *args, **kwargs):\n"
    "    print(json.dumps(hashlib.sha256(start.tobytes()).hexdigest()))\n"
    "    raise Done\n"
    "simulate.lar_batch = hashed\n"
    "try:\n"
    "    simulate.run_coverage(simulate.ScenarioSpec(\n"
    "        n=1000, p=20, m=3, delta0=0.2, reps=130, boot_draws=40, seed=1))\n"
    "except Done:\n"
    "    pass\n"
)


@needs_threads
def test_study_starts_do_not_depend_on_blas_threads():
    """The sample paths of a coverage study start from the same bits with
    two BLAS threads as with one."""
    assert run_python(_STUDY_STARTS) == run_python(_STUDY_STARTS, OPENBLAS_NUM_THREADS="2")


# The names the package root re-exports, by the module that defines them.
ROOT_NAMES = {
    "bootstrap": ["BootstrapConfig", "IntervalSet", "bootstrap_intervals",
                  "membership_curves"],
    "exceptions": ["CsvParseError", "DegenerateResponse", "DimensionMismatch", "InvalidTail",
                   "LarInferError", "NoPositiveCandidate", "NonFiniteValue",
                   "NonPositiveScale", "NotPositiveDefinite", "NotPrototypical",
                   "RankDeficient", "RejectionBudgetExceeded", "ZeroColumn"],
    "inference": ["InferenceReport", "build_inference_report", "chi2_thresholds",
                  "chi2_upper_quantile", "estimate_m", "sigma_hat", "tail_sums"],
    "linalg": ["solve_spd"],
    "path": ["LarBatch", "LarPath", "StandardizedData", "lar_batch",
             "lar_path", "margins", "standardize"],
    "simulate": ["CoverageResult", "ScenarioSpec", "generate_scenario", "run_coverage",
                 "tie_demo"],
}
ALL_NAMES = sorted(name for names in ROOT_NAMES.values() for name in names)


def _loaded_after(statement: str) -> list[str]:
    """The modules of the package that a fresh ``statement`` leaves loaded."""
    return run_python(f"import json, sys; {statement}; print(json.dumps(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'larinfer')))")


def test_import_loads_numpy_and_no_module_of_the_package():
    code = ("import json, sys, larinfer; print(json.dumps(['numpy' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('larinfer.'))]))")
    assert run_python(code) == [True, []]


def test_root_names_are_the_defining_modules_objects():
    """Each name resolves to its module's object and is then kept in the
    package namespace."""
    code = (f"import importlib, json, larinfer; table = {ROOT_NAMES!r}; "
            "print(json.dumps([name for module, names in table.items() for name in names "
            "if getattr(larinfer, name) is not "
            "getattr(importlib.import_module('larinfer.' + module), name) "
            "or name not in vars(larinfer)]))")
    assert run_python(code) == []


def test_all_lists_the_root_names():
    assert sorted(larinfer.__all__) == ALL_NAMES


def test_star_import_and_dir_cover_the_root_names():
    code = ("import json, larinfer; listed = dir(larinfer); namespace = {}; "
            "exec('from larinfer import *', namespace); "
            "print(json.dumps([sorted(set(namespace) - {'__builtins__'}), listed]))")
    bound, listed = run_python(code)
    assert bound == ALL_NAMES
    assert set(ALL_NAMES) <= set(listed)


def test_submodules_resolve_on_first_use():
    code = (f"import json, larinfer; print(json.dumps("
            f"[getattr(larinfer, m).__name__ for m in {sorted(ROOT_NAMES)!r}]))")
    assert run_python(code) == [f"larinfer.{m}" for m in sorted(ROOT_NAMES)]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        larinfer.nope  # noqa: B018
    assert str(err.value) == "module 'larinfer' has no attribute 'nope'"


def test_identities_stays_unbound_until_imported():
    code = ("import json, sys, larinfer; from larinfer import *; "
            "before = [hasattr(larinfer, 'identities'), 'larinfer.identities' in sys.modules]; "
            "import larinfer.identities; "
            "print(json.dumps(before + [larinfer.identities is sys.modules['larinfer.identities']]))")
    assert run_python(code) == [False, False, True]


def test_first_name_leaves_the_environment_alone():
    code = ("import json, os, larinfer; before = dict(os.environ); larinfer.lar_path; "
            "print(json.dumps(dict(os.environ) == before))")
    assert run_python(code) is True


def test_io_loads_no_inference_machinery():
    """``read_csv`` needs neither the bootstrap nor the path engine; ``io``
    names their types for annotations only."""
    loaded = set(_loaded_after("import larinfer.io"))
    assert loaded.isdisjoint({"larinfer.bootstrap", "larinfer.inference", "larinfer.simulate"})


def test_cli_loads_every_module():
    """The benchmark's trace worker (``bench/trace_worker.py``) looks up each
    trace target's module in ``sys.modules`` right after ``import
    larinfer.cli``, so the command line must keep importing every module it
    uses eagerly: a lazy import there breaks ``bench/run.py --trace 1``."""
    loaded = set(_loaded_after("import larinfer.cli"))
    assert {f"larinfer.{m}" for m in
            ("io", "path", "linalg", "inference", "bootstrap", "simulate")} <= loaded
