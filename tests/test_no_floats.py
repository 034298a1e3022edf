"""The library's arithmetic stays exact: no true division and no float() anywhere in it.

An int divided by an int with ``/`` is a float, so every quotient in
``src/qaoadepth`` is a floor division, an integer ceiling ``-(-a // b)`` or
an explicit ``Fraction``.  The check parses each module; there is no
allowlist.
"""

import ast
from pathlib import Path

import pytest

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "qaoadepth"
MODULES = sorted(SOURCE_DIR.glob("*.py"))


def float_hazards(tree: ast.AST) -> list[str]:
    """Each true division and float() call in ``tree``, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float() call")
    return sorted(found)


def test_the_library_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"poly.py", "dualize.py", "coloring.py", "io.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_true_division_or_float_calls(path):
    assert float_hazards(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_check_finds_each_hazard():
    source = "a = b / c\nd /= 2\ne = float(f)\ng = h // i\nj = -(-k // l)\n"
    assert float_hazards(ast.parse(source)) == [
        "line 1: true division", "line 2: true division", "line 3: float() call",
    ]
