"""Source hygiene: every imported name is used in the file importing it,
every private module-level name of the package is read somewhere in it,
only ``mapping`` names the residue kernel, every function the benchmark's
tracer patches still exists, no module reads a pole hit's ``exact`` flag,
and the command line imports no module it does not need.

No lint tool is assumed; the scan uses only the standard library.
Package ``__init__.py`` files are exempt, since their imports are the
package's re-exports, and so is ``from __future__ import annotations``.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the file reads, including names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_files_found():
    assert any(path.parent.name == "tests" for path in FILES)
    assert any(path.parent.name == "demos" for path in FILES)
    assert any(path.name == "padic.py" for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


def module_names(tree):
    """(name, line) for every name a module binds at its top level: a
    function, class or assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        for name in targets:
            yield name, node.lineno


def module_private_names(tree):
    """(name, line) for every ``_private`` name of ``module_names``."""
    return [(name, line) for name, line in module_names(tree)
            if name.startswith("_") and not name.startswith("__")]


def read_names(tree):
    """Every name the module reads: a loaded name, an attribute, or a
    name imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(folder):
    """"file:line name" for each private module-level name of the .py
    files under ``folder`` that no file there reads."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(folder.rglob("*.py"))}
    read = {name for tree in trees.values() for name in read_names(tree)}
    return [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for name, line in module_private_names(tree) if name not in read]


def test_private_names_are_read():
    # a deletion that leaves a private helper or constant without a reader
    # leaves dead code behind
    unread = unread_private_names(ROOT / "src")
    assert not unread, f"unread private names: {', '.join(unread)}"


def test_only_mapping_names_the_residue_kernel():
    # eval_f alone decides which x it maps on residues; a second module
    # that reads the kernel's predicate or its inputs holds a second copy
    # of that decision
    kernel = {"on_residue_kernel", "_eval_f_residues", "q_bits"}
    named = [f"{path.name}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "mapping.py"
             for name in read_names(ast.parse(path.read_text()))
             if name in kernel]
    assert not named, f"the residue kernel named outside mapping: {named}"


def test_one_budget_constant():
    # one knob, mapping.WORK_BUDGET, bounds every loop that grows with kappa
    # or kappa**depth; a second one would let a loop escape the first
    budgets = [f"{path.name}:{name}"
               for path in sorted((ROOT / "src").rglob("*.py"))
               for name, _ in module_names(ast.parse(path.read_text()))
               if name.endswith("_BUDGET")]
    assert budgets == ["mapping.py:WORK_BUDGET"]


def test_unread_private_name_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import math\n_USED = 1\n_MAX_NEWTON = 64\n"
        "def _helper():\n    return math.pi\n"
        "def f():\n    return _USED + _helper()\n")
    assert unread_private_names(tmp_path) == ["mod.py:3 _MAX_NEWTON"]


def _bench_tracer():
    """``bench/tracer.py``, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_targets_exist():
    # a refactor that renames or moves a traced function breaks the traced
    # benchmark runs, which the tier-1 suite does not run
    tracer = _bench_tracer()
    paths = [path for spans in tracer.SPANS.values() for path in spans]
    for path in paths + list(tracer.PADIC_ARITH + tracer.POLY_EVALS):
        assert callable(tracer.resolve(path)), path
    # the tracer reads the partition cache's hit and miss counts
    assert hasattr(tracer.resolve("mapping.build_partition"), "cache_info")


def test_pole_hits_are_told_apart_by_type():
    # a near hit is a NearPoleHit, which is a PrecisionError, and every
    # layer catches by type; the class flag ``exact`` is left for the
    # tracer's count of inexact hits, and no module of the package reads it
    from pottsbethe.mapping import NearPoleHit, PoleHit
    assert (PoleHit.exact, NearPoleHit.exact) == (True, False)
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "exact"], path


def test_cli_import_loads_no_process_pool_module():
    # the CLI's set-up time is its import time: the forked sweep uses only
    # os and marshal, the records are _Frozen rather than dataclasses, csv
    # is imported only to write CSV, and these heavier modules must stay
    # unloaded
    heavy = ("pickle", "multiprocessing", "concurrent.futures",
             "dataclasses", "inspect", "csv")
    probe = ("import sys, pottsbethe.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
