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
