"""Byte gate: CLI artifacts for the committed fixtures match tests/golden/.

The artifacts record the problem path as given on the command line, so the
commands run from the repository root with relative paths.  An intended
change to an artifact is made by regenerating its golden file and saying why
in CHANGES.md.
"""

from pathlib import Path

import pytest

from qaoadepth.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze_maxcut_w6": ("analyze", "--family", "maxcut", "--graph", "fixtures/w6.dimacs"),
    "analyze_indset_w6": ("analyze", "--problem", "fixtures/indset_w6.json"),
    "analyze_general_example": (
        "analyze", "--problem", "fixtures/general_example.json", "--gate-width", "3",
    ),
    "color_exact_general_example": (
        "color", "--problem", "fixtures/general_example.json",
        "--method", "exact", "--gate-width", "3",
    ),
    "color_merge_exact_general_example": (
        "color", "--problem", "fixtures/general_example.json",
        "--method", "merge-exact", "--gate-width", "3",
    ),
    "verify_indset_w6": ("verify", "--problem", "fixtures/indset_w6.json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
