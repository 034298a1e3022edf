"""Tests of the benchmark's own generators and checker.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

import benchcheck
import benchgen
import benchref
import benchwork
import run
from qaoadepth import cli, io, problems


def _write_inputs(workload: str, seed: int, directory):
    inputs = benchwork.Inputs(directory, problems, io)
    benchwork.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), inputs)
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return inputs.ops, files


@pytest.mark.parametrize("workload", sorted(benchwork.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(workload, tmp_path):
    ops_a, files_a = _write_inputs(workload, 7, tmp_path / "a")
    ops_b, files_b = _write_inputs(workload, 7, tmp_path / "b")
    _, files_c = _write_inputs(workload, 8, tmp_path / "c")
    assert ops_a == ops_b
    assert files_a == files_b
    assert files_a != files_c


def test_general_problems_draw_every_constraint_form():
    rng = random.Random(3)
    constraints = [
        con
        for _ in range(20)
        for con in benchgen.general_problem(rng, 10, 4, 3)[0]["constraints"]
    ]
    assert any("lower" in con for con in constraints)
    assert any(len(term["vars"]) == 2 for con in constraints for term in con["terms"])
    assert any(isinstance(term["coeff"], dict) for con in constraints for term in con["terms"])


def test_general_problems_fill_up_to_the_requested_size():
    rng = random.Random(4)
    for _ in range(20):
        problem, count = benchgen.general_problem(rng, rng.randint(7, 10), 3, 3, 12)
        assert count == 12
        assert len(problem["variables"]) <= 12


def test_known_defects_match_the_minimal_cases():
    two_sided = {"constraints": [{"terms": [{"vars": ["x1"], "coeff": 3}], "rhs": 3, "lower": 1}]}
    rational = {"constraints": [{"terms": [{"vars": ["x1"], "coeff": {"num": 1, "den": 2}}], "rhs": 0}]}
    exact_range = {"constraints": [{"terms": [{"vars": ["x1"], "coeff": 3}], "rhs": 3, "lower": 0}]}
    assert benchgen.known_defect(two_sided)
    assert benchgen.known_defect(rational)
    assert benchgen.known_defect(exact_range) is None


@pytest.fixture
def artifact(tmp_path, monkeypatch) -> dict:
    """An analyze artifact for vertex cover on the six-vertex wheel."""
    monkeypatch.chdir(tmp_path)
    edges = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]
    (tmp_path / "w6.dimacs").write_text(benchgen.dimacs(6, edges))
    argv = ["analyze", "--family", "vertex_cover", "--graph", "w6.dimacs", "--out", "a.json"]
    assert cli.main(argv) == 0
    return json.loads((tmp_path / "a.json").read_text())


def test_checker_accepts_the_program_output(artifact):
    benchcheck.check_analyze(artifact)


def test_checker_rejects_a_dropped_gate(artifact):
    broken = copy.deepcopy(artifact)
    layer = next(l for l in broken["schedule"]["layers"] if l["kind"] == "cost")
    layer["gates"].pop()
    with pytest.raises(benchcheck.CheckError, match="differs from the objective"):
        benchcheck.check_analyze(broken)


def test_checker_rejects_a_duplicated_gate(artifact):
    broken = copy.deepcopy(artifact)
    layers = broken["schedule"]["layers"]
    layers[1]["gates"].append(copy.deepcopy(layers[0]["gates"][0]))
    with pytest.raises(benchcheck.CheckError):
        benchcheck.check_analyze(broken)
    layers[1]["gates"].pop()
    layers.insert(0, copy.deepcopy(layers[0]))
    with pytest.raises(benchcheck.CheckError):
        benchcheck.check_analyze(broken)


def test_checker_rejects_an_overlapping_color_class(artifact):
    broken = copy.deepcopy(artifact)
    edges = [set(e["support"]) for e in broken["hypergraph"]["edges"]]
    classes = broken["coloring"]["classes"]
    for source, cls in enumerate(classes):
        for target, other in enumerate(classes):
            clash = [e for e in cls if target != source and any(edges[e] & edges[o] for o in other)]
            if clash:
                cls.remove(clash[0])
                other.append(clash[0])
                with pytest.raises(benchcheck.CheckError, match="overlapping"):
                    benchcheck.check_analyze(broken)
                return
    pytest.fail("no two classes to make overlap")


def _search_op(method: str) -> benchwork.Op:
    argv = ("analyze", "--problem", "in000.json", "--method", method, "--budget", "5000")
    return benchwork.Op("analyze", argv, "pubo", "vars=16")


def test_a_search_out_of_budget_takes_the_depth_of_the_greedy_fallback():
    op = _search_op("merge-exact")
    record = run.judge(op, run.Outcome(4, None, 1))
    assert record["budget_exceeded"] and not record["failure"]
    twin = run.depth_twin(op, record)
    assert twin.argv == ("analyze", "--problem", "in000.json", "--method", "greedy", "--budget", "5000")
    finished = run.judge(op, run.Outcome(0, b"{}", 1))
    assert run.depth_twin(op, finished) is None


@pytest.mark.parametrize("artifact", [b'{"coloring": ', b"[]", b"{}", b"\xff"])
def test_a_malformed_artifact_is_a_failed_operation(artifact):
    record = run.judge(_search_op("exact"), run.Outcome(0, artifact, 1))
    assert record["failure"].startswith("checker:")


def test_each_operation_is_scaled_by_the_reference_times_around_it():
    assert benchref.scales([1.0, 3.0, 2.0, 2.0]) == [2.0, 2.5, 2.0]
    assert benchref.reference() == benchref.reference()
