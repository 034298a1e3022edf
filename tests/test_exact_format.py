"""The ``{"num", "den"}`` format of exact numbers stays behind the JSON encoder.

The section builders pass ints and Fractions through as they are, and
``io.dumps`` writes each Fraction with ``io.rational_to_json``.  The check
parses each module of ``src/qaoadepth`` and requires that no module but
``io`` names ``rational_to_json``; there is no other allowlist.
"""

import ast
from pathlib import Path

import pytest

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "qaoadepth"
MODULES = sorted(path for path in SOURCE_DIR.glob("*.py") if path.name != "io.py")


def format_references(tree: ast.AST) -> list[str]:
    """Each name, attribute or import of ``rational_to_json`` in ``tree``, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "rational_to_json":
            found.append(f"line {node.lineno}: name")
        elif isinstance(node, ast.Attribute) and node.attr == "rational_to_json":
            found.append(f"line {node.lineno}: attribute")
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "rational_to_json" for alias in node.names
        ):
            found.append(f"line {node.lineno}: import")
    return sorted(found)


def test_the_library_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"cli.py", "pipeline.py", "schedule.py"}
    assert (SOURCE_DIR / "io.py").exists()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_encoder_writes_exact_numbers(path):
    assert format_references(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_the_check_finds_each_reference():
    source = (
        "from .io import rational_to_json\n"
        "a = io_mod.rational_to_json(b)\n"
        "c = rational_to_json(d)\n"
        "e = rational_from_json(f, 'g')\n"
    )
    assert format_references(ast.parse(source)) == [
        "line 1: import", "line 2: attribute", "line 3: name",
    ]
