"""The names the benchmark tracer wraps still exist and are still called.

``perfbench/benchtrace.py`` patches functions where their callers look them
up (``cli.run_pipeline``, ``pipeline.dualize``, ``io.dumps``, ...).  A
rename that breaks one of those lookups would otherwise show only when the
benchmark runs with ``--trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "pipeline", "io", "problems", "hypergraph", "coloring", "poly")


@pytest.fixture
def benchtrace(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    module = importlib.import_module("benchtrace")
    yield module
    sys.modules.pop("benchtrace", None)


def test_tracer_records_a_span_for_every_layer(benchtrace, capsys, fixture_dir):
    modules = {name: importlib.import_module(f"qaoadepth.{name}") for name in MODULES}
    tracer = benchtrace.Tracer()
    tracer.install(modules)
    general = ("--problem", str(fixture_dir / "general_example.json"), "--gate-width", "3")
    petersen = ("--family", "maxcut", "--graph", str(fixture_dir / "petersen.dimacs"))
    runs = (  # each with its exit code
        (0, "analyze", "--problem", str(fixture_dir / "indset_w6.json")),
        (0, "verify", "--problem", str(fixture_dir / "indset_w6.json")),
        (0, "analyze", *general, "--method", "exact"),
        (0, "analyze", *general, "--method", "merge-exact"),
        (0, "analyze", *general, "--method", "greedy"),
        (0, "analyze", *petersen, "--method", "misra-gries"),
    )
    try:
        code, *argv = runs[0]
        assert modules["cli"].main(argv) == code
        penalty_run = {span.name for span in tracer.spans}
        for code, *argv in runs[1:]:
            assert modules["cli"].main(argv) == code
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # The penalty form of indset_w6 squares each edge constraint and bounds its lhs.
    assert penalty_run >= {"poly.square", "poly.cube_min"}
    recorded = {span.name for span in tracer.spans}
    assert recorded >= {
        "cli.main",
        "pipeline.run_pipeline",
        "dualize.dualize",
        "dualize.verify_penalty",
        "phasesim.check_equivalence",
        "io.write",
        "schedule.schedule",
        "coloring.exact",
        "coloring.misra_gries",
        "coloring.greedy",
        "hypergraph.merge_exact",
    }
    merges = [span for span in tracer.spans if span.name == "hypergraph.merge_exact"]
    assert merges and all(span.counts["nodes"] > 0 for span in merges)
