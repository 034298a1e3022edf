"""Byte gate: CLI output for the committed fixtures matches tests/golden/.

Every subcommand is covered in each output format it supports; the golden
file's suffix is the format (``.json``, ``.txt`` for text, ``.dot``).  The
artifacts record the problem path as given on the command line, so the
commands run from the repository root with relative paths.  An intended
change to an output is made by regenerating its golden file and saying why
in CHANGES.md.
"""

from pathlib import Path

import pytest

from qaoadepth.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

W6 = ("--family", "maxcut", "--graph", "fixtures/w6.dimacs")
INDSET_W6 = ("--problem", "fixtures/indset_w6.json")
GENERAL_W3 = ("--problem", "fixtures/general_example.json", "--gate-width", "3")
KNAPSACK = (
    "--family", "knapsack", "--values", "1,2,3", "--weights", "1,2,3",
    "--capacity", "4", "--preprocess",
)
TEXT = ("--format", "text")
DOT = ("--format", "dot")

#: name -> (expected exit code, command line)
CASES = {
    "dualize_knapsack": (0, ("dualize", *KNAPSACK)),
    "dualize_general_example_text": (
        0, ("dualize", "--problem", "fixtures/general_example.json", *TEXT),
    ),
    "graph_general_example": (0, ("graph", *GENERAL_W3)),
    "graph_general_example_text": (0, ("graph", *GENERAL_W3, *TEXT)),
    "graph_general_example_dot": (0, ("graph", *GENERAL_W3, *DOT)),
    "color_exact_general_example": (0, ("color", *GENERAL_W3, "--method", "exact")),
    "color_merge_exact_general_example": (
        0, ("color", *GENERAL_W3, "--method", "merge-exact"),
    ),
    "color_maxcut_w6_text": (0, ("color", *W6, *TEXT)),
    "color_maxcut_w6_dot": (0, ("color", *W6, *DOT)),
    "schedule_maxcut_w6": (0, ("schedule", *W6, "--iterations", "3")),
    "schedule_maxcut_w6_text": (0, ("schedule", *W6, "--iterations", "3", *TEXT)),
    "analyze_maxcut_w6": (0, ("analyze", *W6)),
    "analyze_indset_w6": (0, ("analyze", *INDSET_W6)),
    "analyze_indset_w6_text": (0, ("analyze", *INDSET_W6, *TEXT)),
    "analyze_general_example": (0, ("analyze", *GENERAL_W3)),
    # The exact search runs out of budget: exit 4 with the best coloring it found.
    "analyze_maxcut_petersen_budget": (
        4, ("analyze", "--family", "maxcut", "--graph", "fixtures/petersen.dimacs",
            "--budget", "5"),
    ),
    "verify_indset_w6": (0, ("verify", *INDSET_W6)),
    "verify_indset_w6_text": (0, ("verify", *INDSET_W6, *TEXT)),
}


def golden_path(name: str) -> Path:
    argv = CASES[name][1]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN_DIR / f"{name}.{'txt' if fmt == 'text' else fmt}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, capsys, monkeypatch):
    code, argv = CASES[name]
    monkeypatch.chdir(REPO_ROOT)
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert out == golden_path(name).read_text(encoding="utf-8")
