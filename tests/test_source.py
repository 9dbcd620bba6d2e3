"""Source-level properties of the package that no behavioural test pins down."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import walkmaps

SOURCE_DIR = Path(walkmaps.__file__).parent


def _self_calls(tree: ast.AST):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            by_self = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            )
            if by_name or by_self:
                yield f"{fn.name} (line {node.lineno})"


def test_no_function_calls_itself():
    # deep inputs must not hit the interpreter's recursion limit
    modules = sorted(SOURCE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}: {call}"
        for path in modules
        for call in _self_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def _call_sites(tree: ast.AST, callee: str):
    """The qualified name of the function around each call of ``callee``, bare or as an attribute."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == callee) or (
                isinstance(f, ast.Attribute) and f.attr == callee
            ):
                yield scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_homotopy_searches_and_reads_euler_in_one_place():
    # a failed pair search has one hook: _Certifier.prove raising _Blocked
    path = SOURCE_DIR / "homotopy.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert set(_call_sites(tree, "_Blocked")) == {"_Certifier.prove"}
    assert list(_call_sites(tree, "euler_characteristic")) == ["check_spherical_euler"]
    # normal forms come from one loop-erasure pass; rewrite.normalize runs
    # only for the trace normalize_homotopy returns, and no reduction step is read
    assert list(_call_sites(tree, "normalize")) == ["normalize_homotopy"]
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attributes & {"depth", "before", "after"} == set()


def _reads(tree: ast.AST):
    """Every name the code reads: a loaded ``Name`` or the name of an ``Attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_is_used():
    # a public name that the library, the benchmark and the acceptance tests
    # never read is dead code kept alive by the export list; unit tests,
    # docstrings, messages and imports do not count
    root = Path(__file__).resolve().parent.parent
    files = [
        *(path for path in sorted(SOURCE_DIR.glob("*.py")) if path.name != "__init__.py"),
        *sorted((root / "bench").rglob("*.py")),
        root / "tests" / "test_acceptance.py",
    ]
    read = {
        name
        for path in files
        for name in _reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    }
    exported = [name for name in walkmaps.__all__ if not inspect.ismodule(getattr(walkmaps, name))]
    assert [name for name in exported if name not in read] == []
