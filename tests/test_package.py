"""Package structure: module imports stay at module level, plain ints are tested by type."""

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


def _isinstance_int_calls(source: str) -> list[int]:
    """Line numbers of the ``isinstance(x, int)`` calls, ``int`` alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                lines.append(node.lineno)
    return lines


def test_no_isinstance_int_under_src():
    # isinstance(True, int) holds, so a JSON true would pass as the integer 1;
    # every integer check under src/ is type(x) is int
    found = {
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _isinstance_int_calls(path.read_text(encoding="utf-8"))
    }
    assert not found
