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


def test_one_chain_engine():
    # Every angle-ordered chain walk runs in convexity._convex_walk.
    callers = set()
    for path in sorted(Path(holefinder.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # ast.walk goes outside in, so a nested function overwrites its parent.
        scope = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    scope[node] = getattr(func, "name", "<lambda>")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "angle_order" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                callers.add(f"{path.stem}.{scope.get(node, '<module>')}")
    assert callers == {"convexity._convex_walk"}
