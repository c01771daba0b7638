"""Rules on the package source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "stratagraph").glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert, so a safety check written as one vanishes.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_plan_searches_are_loops_without_recursion():
    # The exact plan searches keep their own stack, so a defense list longer
    # than the interpreter's recursion limit still gets an answer.
    path = next(p for p in SOURCES if p.name == "defense.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    searches = {f.name: f for f in functions if f.name in ("_choose", "_hitting_set_exact")}
    assert sorted(searches) == ["_choose", "_hitting_set_exact"]
    for name, search in searches.items():
        nested = [n for n in ast.walk(search) if n is not search and isinstance(n, (ast.FunctionDef, ast.Lambda))]
        assert nested == [], name
    calls_self = [
        f.name
        for f in functions
        for n in ast.walk(f)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == f.name
    ]
    assert calls_self == []
