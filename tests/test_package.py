"""Package structure: module imports stay at module level and are all read,
plain ints are tested by type, and the README's limits table gives the limits
the code enforces."""

import ast
import inspect
import re
from pathlib import Path

import treexplore
from treexplore import adversary, game, offline, tree

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


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, as ``name:line``."""
    module = ast.parse(source)
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in read]


def test_no_unused_import_under_src():
    # a package __init__ imports to re-export; every other module reads what it imports
    found = {
        f"{path.relative_to(PACKAGE)}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not found


def test_unused_import_scan_sees_a_plain_and_a_dotted_read():
    source = "import heapq\nimport os.path\nfrom x import A, B\nos.path.join(A)\n"
    assert _unused_imports(source) == ["heapq:1", "B:3"]


README = Path(__file__).resolve().parent.parent / "README.md"

LIMITS = {
    "`game.MAX_TEAM_SIZE`": game.MAX_TEAM_SIZE,
    "`tree.MAX_PATH_STAR_VERTICES`": tree.MAX_PATH_STAR_VERTICES,
    "`game.MAX_ROUNDS`": game.MAX_ROUNDS,
    "`offline.brute_opt` `state_limit`": inspect.signature(offline.brute_opt).parameters["state_limit"].default,
    "`adversary._BUILDABLE_BITS`": adversary._BUILDABLE_BITS,
}


def test_readme_limits_table_gives_the_enforced_values():
    section = README.read_text(encoding="utf-8").split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert {row[0].strip() for row in rows} == LIMITS.keys()
    for row in rows:
        value = row[1]
        # every number in the value column: powers of two, and decimals with thousands commas
        numbers = [2 ** int(e) for e in re.findall(r"2\^(\d+)", value)]
        numbers += [int(d.replace(",", "")) for d in re.findall(r"\b\d{1,3}(?:,\d{3})+\b", value)]
        assert numbers and set(numbers) == {LIMITS[row[0].strip()]}, row
