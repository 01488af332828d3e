"""Source hygiene: every imported name is used in the file importing it,
and every function the benchmark's tracer patches still exists.

No lint tool is assumed; the scan uses only the standard library.
Package ``__init__.py`` files are exempt, since their imports are the
package's re-exports, and so is ``from __future__ import annotations``.
"""

import ast
import importlib.util
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
