"""Package structure: module imports stay at module level."""

import ast
from pathlib import Path

import treexplore

PACKAGE = Path(treexplore.__file__).parent


def _imports_in_functions(source: str) -> list[int]:
    """Line numbers of the import statements inside a function body."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
    return lines


def test_no_module_imports_inside_a_function():
    # an import in a function body hides a dependency, often an import cycle
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = {
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in _imports_in_functions(path.read_text(encoding="utf-8"))
    }
    assert not found
