import ast
from pathlib import Path

import holefinder


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library checks must raise.
    modules = sorted(Path(holefinder.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
