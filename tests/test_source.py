"""Rules checked on the library source itself."""

import ast
from pathlib import Path

import contrablock

SRC = Path(contrablock.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a self-check must raise instead
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the library: " + ", ".join(found)
