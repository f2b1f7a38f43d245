"""No check in the package may rest on ``assert``: ``python -O`` strips it."""
import ast
from pathlib import Path

import latslice

PACKAGE = Path(latslice.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
