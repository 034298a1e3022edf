import argparse
import gc
import importlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qaoadepth import absorb_subsets, build, cli, color_greedy, color_misra_gries, dualize
from qaoadepth import io as io_mod
from qaoadepth.cli import main
from qaoadepth.io import dumps, problem_to_json, write_problem
from qaoadepth.problems import (
    Constraint,
    InstanceGraph,
    Problem,
    make_knapsack,
    make_maxcut,
    make_sat,
    make_tsp,
)
from qaoadepth.poly import Polynomial

from bruteforce import random_hypergraph_supports
from test_golden import CASES, REPO_ROOT, golden_path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_wheel_maxcut(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "maxcut", "--graph", str(fixture_dir / "w6.dimacs")
    )
    assert code == 0
    artifact = json.loads(out)
    assert artifact["coloring"]["num_colors"] == 5
    assert artifact["depth"]["structural_depth"] == 6
    assert artifact["depth"]["coloring_depth"] == 5
    assert artifact["flags"]["coloring_exact"] is True
    assert len(artifact["hypergraph"]["edges"]) == 10


def test_analyze_general_fixture_flags_reference_divergence(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--problem", str(fixture_dir / "general_example.json"),
        "--gate-width", "3",
    )
    assert code == 0
    artifact = json.loads(out)
    assert artifact["coloring"]["num_colors"] == 7
    record = artifact["pubo"]["dualization"][0]
    assert record["slack_bits"] == 2
    assert record["slack_range"] == 3
    diff = record["expansion_diff"]
    assert diff["has_differences"] is True
    assert {"vars": ["s1_2", "x1", "x3"], "coeff": 8} in diff["missing_in_reference"]


def test_verify_indset_fixture(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys, "verify", "--problem", str(fixture_dir / "indset_w6.json")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["penalty_oracle"]["passed"] is True
    assert payload["phase_oracle"]["passed"] is True


def test_verify_enforces_a_two_sided_lower_bound(capsys, tmp_path):
    # max -2*x1 s.t. 2 <= 1 + 3*x1 <= 4: only x1 = 1 is feasible.  The slack
    # range is capped at rhs - lower = 2; slack bits 1, 2 would reach 3 and
    # let x1 = 0 (lhs 1, below the lower bound) reach penalty zero.
    problem = Problem(
        sense="max",
        objective=Polynomial({("x1",): -2}),
        constraints=(
            Constraint(lhs=Polynomial({(): 1, ("x1",): 3}), rhs=Fraction(4), lower=Fraction(2)),
        ),
        variables=("x1",),
    )
    path = tmp_path / "two_sided.json"
    write_problem(problem, str(path))
    code, out, _ = run_cli(capsys, "verify", "--problem", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["penalty_oracle"]["passed"] is True
    assert payload["penalty_oracle"]["optima"] == [[1]]
    assert payload["phase_oracle"]["passed"] is True


def test_verify_default_weight_covers_a_mixed_sign_objective(capsys, tmp_path):
    # min -3*x1 + 3*x2 s.t. -x2 <= -1 and x1 + x2 <= 1: only (0, 1) is
    # feasible, with objective 3.  The weight must exceed high - low = 6:
    # at 4 the infeasible (1, 0), one unit short, would score -3 + 4 = 1.
    term = lambda name, coeff: {"vars": [name], "coeff": coeff}  # noqa: E731
    problem = {
        "sense": "min",
        "variables": ["x1", "x2"],
        "objective": [term("x1", -3), term("x2", 3)],
        "constraints": [
            {"terms": [term("x2", -1)], "rhs": -1},
            {"terms": [term("x1", 1), term("x2", 1)], "rhs": 1},
        ],
    }
    path = tmp_path / "mixed_sign.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--problem", str(path), "--format", "text")
    assert code == 0
    assert out == "penalty oracle: pass\nphase oracle: pass\n"


def test_repeated_runs_are_byte_identical(capsys, fixture_dir):
    args = ("analyze", "--family", "maxcut", "--graph", str(fixture_dir / "w6.dimacs"))
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_analyze_checks_the_coloring_once(capsys, monkeypatch, fixture_dir):
    coloring_mod = importlib.import_module("qaoadepth.coloring")
    schedule_mod = importlib.import_module("qaoadepth.schedule")
    checked = []
    check_proper = coloring_mod.check_proper

    def counting(h, classes):
        checked.append(classes)
        return check_proper(h, classes)

    monkeypatch.setattr(coloring_mod, "check_proper", counting)
    monkeypatch.setattr(schedule_mod, "check_proper", counting, raising=False)
    general = ("--problem", str(fixture_dir / "general_example.json"), "--gate-width", "3")
    for expected_code, argv in (
        (0, ("--family", "maxcut", "--graph", str(fixture_dir / "w6.dimacs"))),
        (4, ("--family", "maxcut", "--graph", str(fixture_dir / "petersen.dimacs"), "--budget", "5")),
        (0, general),
        (0, (*general, "--method", "merge-exact")),
        (0, (*general, "--method", "greedy")),
    ):
        checked.clear()
        code, _, _ = run_cli(capsys, "analyze", *argv)
        assert code == expected_code
        assert len(checked) == 1, argv


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """Golden runs, argparse errors and --version in one process, parser built once.

    Each golden run must print its golden artifact; each call that argparse
    ends must exit with the code and print the text of a fresh process.
    """
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.chdir(REPO_ROOT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    bad_width = ("analyze", "--family", "maxcut", "--gate-width", "two")
    no_command = ("--problem", "fixtures/indset_w6.json")
    plan = (
        "analyze_maxcut_w6", bad_width, "dualize_knapsack", ("--version",),
        "verify_indset_w6_text", no_command, "analyze_maxcut_petersen_budget",
        ("--version",), "color_exact_general_example", bad_width, "analyze_maxcut_w6",
    )
    for step in plan:
        if isinstance(step, str):
            code, argv = CASES[step]
            assert main(list(argv)) == code
            assert capsys.readouterr().out == golden_path(step).read_text(encoding="utf-8")
            continue
        with pytest.raises(SystemExit) as exit_info:
            main(list(step))
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "qaoadepth.cli", *step], capture_output=True, text=True, env=env
        )
        assert exit_info.value.code == fresh.returncode
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
    assert built == [1]


def test_dualize_text_output(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "dualize",
        "--problem", str(fixture_dir / "general_example.json"),
        "--format", "text",
    )
    assert code == 0
    assert "slack range 3" in out
    assert "2 slack bits" in out
    assert "reference expansion differs" in out


def test_graph_dot_output(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "graph",
        "--problem", str(fixture_dir / "general_example.json"),
        "--gate-width", "3",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph interactions {")
    assert "shape=box" in out


def test_schedule_text_output(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "schedule",
        "--family", "maxcut",
        "--graph", str(fixture_dir / "w6.dimacs"),
        "--iterations", "3",
        "--format", "text",
    )
    assert code == 0
    assert "repeated 3 times" in out
    assert "B(x1)" in out


def test_color_text_output(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "color",
        "--family", "maxcut",
        "--graph", str(fixture_dir / "w6.dimacs"),
        "--format", "text",
    )
    assert code == 0
    assert "5 color classes (exact)" in out


def test_knapsack_family_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--family", "knapsack",
        "--values", "1,2,3",
        "--weights", "1,2,3",
        "--capacity", "4",
        "--preprocess",
    )
    assert code == 0
    artifact = json.loads(out)
    assert artifact["pubo"]["dualization"][0]["slack_bits"] == 2


def test_output_file_writing(tmp_path, capsys, fixture_dir):
    out_path = tmp_path / "artifact.json"
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--family", "maxcut",
        "--graph", str(fixture_dir / "w6.dimacs"),
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["depth"]["structural_depth"] == 6


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "error"])
def test_main_pauses_the_collector_and_restores_the_callers_state(
        enabled, outcome, capsys, monkeypatch, fixture_dir):
    seen = []
    run_pipeline = cli.run_pipeline
    monkeypatch.setattr(
        cli, "run_pipeline", lambda *a, **k: seen.append(gc.isenabled()) or run_pipeline(*a, **k))
    argv = ["analyze", "--problem", str(fixture_dir / "indset_w6.json")]
    if outcome == "error":
        argv += ["--lambda", "-1"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, out, err = run_cli(capsys, *argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if outcome == "ok" else [])  # the pipeline ran with it paused
    if outcome == "ok":
        assert (code, err) == (0, "")
    else:
        assert code == 1 and out == "" and err.startswith("error: ")


def test_unwritable_output_path_is_invalid_input(tmp_path, capsys, fixture_dir):
    out_path = tmp_path / "missing" / "artifact.json"
    code, out, err = run_cli(
        capsys,
        "analyze",
        "--problem", str(fixture_dir / "indset_w6.json"),
        "--out", str(out_path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err


def test_exit_code_invalid_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--problem", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"sense": "min", "variables": ["x1"], "objective": [{"vars": ["zz"], "coeff": 1}]}')
    code, _, err = run_cli(capsys, "analyze", "--problem", str(bad))
    assert code == 1 and "zz" in err

    code, out, err = run_cli(
        capsys, "analyze", "--family", "knapsack",
        "--values", "", "--weights", "", "--capacity", "4",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: knapsack needs at least one item")
    assert "Traceback" not in err

    code, _, err = run_cli(capsys, "analyze")
    assert code == 1

    code, _, err = run_cli(
        capsys, "analyze", "--family", "maxcut", "--graph", "x", "--problem", "y"
    )
    assert code == 1


def test_float_in_family_info_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "float_info.json"
    path.write_text(
        '{"sense": "min", "variables": ["a", "b"],'
        ' "objective": [{"vars": ["a", "b"], "coeff": 1}], "family_info": {"p": 0.3}}'
    )
    for command in ("analyze", "dualize"):
        code, out, err = run_cli(capsys, command, "--problem", str(path), "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: problem.family_info.p: floats are not accepted")
        assert "Traceback" not in err


_SMALL_PROBLEM = {"sense": "min", "variables": ["a", "b"], "objective": [{"vars": ["a", "b"], "coeff": 1}]}


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("bad.json", b'{"sense": "min", "variables": ["a\xff"]}', "{path}: not UTF-8 text"),
        ("bad.dimacs", b"p edge 2 1\ne 1 2\nc \xff\n", "{path}: not UTF-8 text"),
        ("deep.json", b"[" * 100_000, "{path}: JSON nested too deeply to read"),
        ("info.json", json.dumps({**_SMALL_PROBLEM, "family_info": {"x": "@"}}).replace(
            '"@"', "[" * 700 + "]" * 700).encode(),
         "problem.family_info.x" + "[0]" * (io_mod.FAMILY_INFO_MAX_DEPTH - 1) + ": nested deeper than"),
    ],
    ids=["undecodable-problem", "undecodable-dimacs", "over-deep-json", "over-deep-family-info"],
)
def test_undecodable_or_over_deep_input_is_invalid_input(capsys, tmp_path, name, content, message):
    path, artifact = tmp_path / name, tmp_path / "artifact.json"
    path.write_bytes(content)
    source = ["--family", "maxcut", "--graph"] if name.endswith(".dimacs") else ["--problem"]
    code, out, err = run_cli(capsys, "analyze", *source, str(path), "--out", str(artifact))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not artifact.exists()


def test_family_info_at_the_nesting_limit_is_written(capsys, tmp_path):
    # A list that mixes a list with three other kinds takes the encoder's
    # longest path per level; at the limit it is still written canonically.
    info = {}  # at depth FAMILY_INFO_MAX_DEPTH, below family_info and its key "x"
    for _ in range(io_mod.FAMILY_INFO_MAX_DEPTH - 2):
        info = [info, "s", None, True]
    problem = {**_SMALL_PROBLEM, "family_info": {"x": info}}
    path, artifact = tmp_path / "info.json", tmp_path / "artifact.json"
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(capsys, "analyze", "--problem", str(path), "--out", str(artifact))
    assert (code, err) == (0, "")
    text = artifact.read_text()
    assert json.loads(text)["problem"]["family_info"] == problem["family_info"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    problem["family_info"] = {"x": [info]}
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(capsys, "analyze", "--problem", str(path), "--out", str(artifact))
    assert code == 1 and f"nested deeper than {io_mod.FAMILY_INFO_MAX_DEPTH}" in err


@pytest.mark.parametrize("command", ["analyze", "verify", "dualize", "graph"])
def test_empty_name_in_reference_expansion_is_invalid_input(capsys, tmp_path, command):
    # reference_expansion may name slack bits, so its names are not checked
    # against the variables; an empty one still ends in one error line.
    path = tmp_path / "empty_name.json"
    path.write_text(json.dumps({
        "sense": "max", "variables": ["a", "b"],
        "objective": [{"vars": ["a", "b"], "coeff": 1}],
        "constraints": [{"terms": [{"vars": ["a"], "coeff": 1}], "rhs": 1,
                         "reference_expansion": [{"vars": [""], "coeff": 1}]}],
    }))
    artifact = tmp_path / "artifact.json"
    code, out, err = run_cli(capsys, command, "--problem", str(path), "--out", str(artifact))
    assert (code, out) == (1, "")
    assert err.startswith("error: problem.constraints[0].reference_expansion[0].vars: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not artifact.exists()


def test_malformed_family_edges_are_passed_through(capsys, tmp_path):
    # family_info is metadata: a triple "edge" is neither checked nor read.
    info = {"n": 3, "edges": [[1, 2, 3]]}
    path = tmp_path / "triple_edge.json"
    path.write_text(
        '{"sense": "min", "variables": ["a", "b"],'
        ' "objective": [{"vars": ["a"], "coeff": 1}], "family": "vertex_cover",'
        ' "family_info": ' + json.dumps(info) + "}"
    )
    code, out, err = run_cli(capsys, "analyze", "--problem", str(path))
    assert (code, err) == (0, "")
    artifact = json.loads(out)
    assert artifact["problem"]["family_info"] == info
    assert artifact["depth"]["family_bound"]["details"] == {"instance_max_degree": 0}


def analyze_tagged(capsys, tmp_path, problem, family_info, *flags) -> dict:
    """The analyze artifact of ``problem`` carrying ``family_info`` as its metadata."""
    data = json.loads(dumps(problem_to_json(problem)))
    data["family_info"] = family_info
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "analyze", "--problem", str(path), *flags)
    assert (code, err) == (0, ""), err
    artifact = json.loads(out)
    assert artifact["problem"]["family_info"] == family_info
    return artifact["depth"]["family_bound"]


SAT_FORMULA = "|union(c in C_x)| - 1 + 2*|C_x| per variable"


@pytest.mark.parametrize(
    "problem, info, formula, value",
    [
        (make_knapsack((1, 2, 3), (1, 2, 3), 4), {"n": "x"}, "n + ln(capacity)", 6),
        (make_sat([(1, 2, -3)]), {"clauses": [[1, "a"]]}, SAT_FORMULA, 5),
        (make_sat([(1, 2, -3)]), {"clauses": 5}, SAT_FORMULA, 5),
        (
            make_tsp(InstanceGraph(3, ((1, 2), (1, 3), (2, 3)), weights=(1, 1, 1))),
            {"n_edge_vars": "3"},
            "n - 1 + 2*N_c",
            8,
        ),
        (make_maxcut(InstanceGraph(2, ((1, 2),))), {"n": "2"}, "n", 2),
        (make_maxcut(InstanceGraph(2, ((1, 2),))), {"n": [2]}, "n", 2),
    ],
    ids=["knapsack-n-str", "sat-clause-str", "sat-clauses-int", "tsp-n-str", "maxcut-n-str",
         "maxcut-n-list"],
)
def test_family_info_values_are_never_read(capsys, tmp_path, problem, info, formula, value):
    bound = analyze_tagged(capsys, tmp_path, problem, info)
    assert (bound["family"], bound["formula"], bound["value"]) == (problem.family, formula, value)
    if problem.family == "sat":
        assert bound["details"]["degrees"]["x1"] == {"formula": 5, "derived_graph": 5}


@pytest.mark.parametrize("flags", [(), ("--method", "merge-exact", "--gate-width", "3")],
                         ids=["auto", "merge-exact"])
def test_star_figure_follows_the_structure_not_the_metadata(capsys, tmp_path, flags):
    star = make_maxcut(InstanceGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5))))
    bound = analyze_tagged(capsys, tmp_path, star, {"n": 99}, *flags)
    assert (bound["formula"], bound["value"]) == ("n", 5)


def test_exit_code_infeasible(capsys, tmp_path):
    problem = Problem(
        sense="min",
        objective=Polynomial.zero(),
        constraints=(
            Constraint(lhs=-Polynomial.variable("x1"), rhs=Fraction(-2)),
        ),
        variables=("x1",),
    )
    path = tmp_path / "infeasible.json"
    write_problem(problem, str(path))
    code, _, err = run_cli(capsys, "analyze", "--problem", str(path))
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_an_infeasible_two_sided_constraint_exits_2(capsys, tmp_path, command):
    # -x2 lies in [-1, 0], so 1 <= -x2 <= 2 holds nowhere; its one-sided
    # mirror, x2 <= -1, has always exited 2.
    problem = Problem(
        sense="min",
        objective=Polynomial.variable("x1"),
        constraints=(Constraint(lhs=-Polynomial.variable("x2"), rhs=2, lower=1),),
        variables=("x1", "x2"),
    )
    path, artifact = tmp_path / "two-sided.json", tmp_path / "artifact.json"
    write_problem(problem, str(path))
    code, out, err = run_cli(capsys, command, "--problem", str(path), "--out", str(artifact))
    assert (code, out) == (2, "")
    assert err == (
        "error: constraint 1 is infeasible: max over the cube is at most 0, "
        "which is below the lower bound 1\n"
    )
    assert not artifact.exists()


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_an_infeasible_two_sided_constraint_on_overlapping_supports_exits_2(capsys, tmp_path, command):
    # x1*x2 - 2*x1 takes 0, -2 and -1, so 1 <= x1*x2 - 2*x1 <= 2 holds
    # nowhere, though the closed-form bound on its maximum, 1, reaches
    # lower.  Within the enumeration limit the maximum is enumerated.
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    problem = Problem(
        sense="min",
        objective=x1,
        constraints=(Constraint(lhs=x1 * x2 - 2 * x1, rhs=2, lower=1),),
        variables=("x1", "x2"),
    )
    path, artifact = tmp_path / "two-sided.json", tmp_path / "artifact.json"
    write_problem(problem, str(path))
    code, out, err = run_cli(
        capsys, command, "--problem", str(path), "--gate-width", "3", "--format", "text",
        "--out", str(artifact),
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: constraint 1 is infeasible: max over the cube is at most 0, "
        "which is below the lower bound 1\n"
    )
    assert not artifact.exists()


def test_family_info_too_deep_to_write_exits_1(capsys, tmp_path, monkeypatch):
    # Files cap family_info's nesting when read; a Problem built in code
    # does not, and its artifact is refused rather than ending in a traceback.
    info = []
    for _ in range(2000):
        info = [info]
    problem = Problem("min", Polynomial.variable("a"), (), ("a",), family_info={"x": info})
    monkeypatch.setattr(cli, "_load_problem", lambda args: problem)
    artifact = tmp_path / "artifact.json"
    code, out, err = run_cli(capsys, "analyze", "--problem", "unread.json", "--out", str(artifact))
    assert (code, out) == (1, "")
    assert err == "error: value nested too deeply to write as JSON\n"
    assert not artifact.exists()


def test_exit_code_gate_width(capsys, fixture_dir):
    code, _, err = run_cli(
        capsys,
        "analyze",
        "--problem", str(fixture_dir / "general_example.json"),
        "--gate-width", "2",
    )
    assert code == 3
    assert "gate width" in err


def test_exit_code_budget_exceeded_emits_the_best_coloring_found(capsys, fixture_dir):
    # Petersen's 15 edges are under the auto cutoff, so every method searches,
    # and Petersen is class 2: no search reaches the lower bound Delta.
    petersen = ("--family", "maxcut", "--graph", str(fixture_dir / "petersen.dimacs"))
    for method in ("auto", "exact", "merge-exact"):
        code, out, err = run_cli(capsys, "analyze", *petersen, "--method", method, "--budget", "2")
        assert (code, err) == (4, ""), method
        artifact = json.loads(out)
        assert artifact["flags"]["budget_exceeded"] is True
        assert artifact["flags"]["coloring_exact"] is False
        assert any("2-node budget" in note for note in artifact["flags"]["notes"])
        coloring = artifact["coloring"]
        assert coloring["method"] == "exact"
        assert (coloring["lower_bound"], coloring["num_colors"]) == (3, 4)


def test_forced_exact_budget_exhaustion_emits_its_best_coloring(capsys, fixture_dir):
    # Petersen is class 2, so the search runs: the constructive Delta + 1
    # coloring does not meet the lower bound Delta.  The stopped search
    # still prints the coloring, with the lower bound it fell short of.
    code, out, err = run_cli(
        capsys,
        "color",
        "--family", "maxcut",
        "--graph", str(fixture_dir / "petersen.dimacs"),
        "--method", "exact",
        "--budget", "2",
    )
    assert (code, err) == (4, "")
    coloring = json.loads(out)["coloring"]
    assert (coloring["method"], coloring["lower_bound"], coloring["num_colors"]) == ("exact", 3, 4)


def test_a_search_deeper_than_the_recursion_limit_stops_like_a_budget_stop(capsys, tmp_path):
    # A random cubic graph on 1,000 vertices (three random perfect matchings;
    # one repeated edge leaves 1,514 edges in all) plus a disjoint Petersen
    # graph, so the search cannot stop at Delta colors.  The search places
    # one edge per stack frame, and its first dive passes Python's recursion
    # limit, which used to end in a RecursionError traceback.
    rng = random.Random(3)
    edges = set()
    for _ in range(3):
        perm = list(range(1, 1001))
        rng.shuffle(perm)
        edges |= {tuple(sorted(perm[i:i + 2])) for i in range(0, 1000, 2)}
    petersen = [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
    petersen += [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    edges |= {(u + 1000, v + 1000) for u, v in petersen}
    path = tmp_path / "deep.dimacs"
    path.write_text(f"p edge 1010 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges)))
    assert len(edges) == 1514
    for method in ("exact", "merge-exact"):
        argv = ("analyze", "--family", "maxcut", "--graph", str(path), "--method", method)
        code, out, err = run_cli(capsys, *argv, "--budget", "50000")
        assert (code, err) == (4, ""), method
        artifact = json.loads(out)
        assert artifact["flags"]["budget_exceeded"] is True
        assert artifact["flags"]["coloring_exact"] is False
        assert artifact["coloring"]["lower_bound"] < artifact["coloring"]["num_colors"]


@pytest.fixture
def benchcheck(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    module = importlib.import_module("benchcheck")
    yield module
    sys.modules.pop("benchcheck", None)


def test_a_stopped_search_is_never_worse_than_the_old_fallback(capsys, tmp_path, benchcheck):
    # Out of budget, auto and exact used to report Misra-Gries (2-uniform) or
    # first-fit, and merge-exact nothing, so --method greedy (first-fit) stood
    # in.  A stopped search starts from those colorings and keeps its best.
    rng = random.Random(2708)
    stopped = dict.fromkeys(("auto", "exact", "merge-exact"), 0)
    for index in range(60):
        width = 2 + index % 3
        supports = random_hypergraph_supports(rng, rng.randint(10, 14), rng.randint(12, 20), width)
        problem = Problem(
            sense="min",
            objective=Polynomial.from_terms((s, rng.choice((-2, -1, 1, 3))) for s in supports),
            variables=tuple(sorted({name for s in supports for name in s})),
        )
        path = tmp_path / f"in{index}.json"
        write_problem(problem, str(path))
        argv = ("analyze", "--problem", str(path), "--gate-width", str(width))
        h = absorb_subsets(build(dualize(problem)), width)  # the pipeline's hypergraph
        greedy = color_greedy(h).num_colors
        old = color_misra_gries(h).num_colors if h.uniform_size() == 2 else greedy
        budget = str(rng.randint(0, 50))
        for method, fallback in (("auto", old), ("exact", old), ("merge-exact", greedy)):
            code, out, _ = run_cli(capsys, *argv, "--method", method, "--budget", budget)
            artifact = json.loads(out)
            benchcheck.check_analyze(artifact)
            coloring, flags = artifact["coloring"], artifact["flags"]
            assert coloring["num_colors"] <= fallback
            assert flags["budget_exceeded"] is (code == 4)
            if code == 4:
                stopped[method] += 1
                assert coloring["method"] == "exact" and not flags["coloring_exact"]
                assert coloring["lower_bound"] < coloring["num_colors"]
    assert min(stopped.values()) >= 3, stopped


@pytest.mark.parametrize("method", ["exact", "merge-exact", "auto"])
def test_negative_budget_is_invalid_input(capsys, fixture_dir, method):
    # A node count below zero is a malformed option, not a search that ran
    # out of budget: exit 1, not 4.  A budget of 0 stays valid.
    graph = str(fixture_dir / "petersen.dimacs")
    argv = ("analyze", "--family", "maxcut", "--graph", graph, "--method", method)
    code, out, err = run_cli(capsys, *argv, "--budget", "-3")
    assert (code, out) == (1, "")
    assert "budget must be >= 0" in err
    code, _, err = run_cli(capsys, *argv, "--budget", "0")
    assert code in (0, 4) and "budget must be" not in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--budget", "-3", "search budget must be >= 0, got -3"),
        ("--gate-width", "1", "gate width limit must be >= 2, got 1"),
        ("--iterations", "0", "iteration count must be >= 1, got 0"),
    ],
)
def test_every_subcommand_rejects_a_bad_setting_alike(capsys, fixture_dir, option, value, message):
    # dualize used to exit 0 and echo the bad value into its config.
    graph = str(fixture_dir / "petersen.dimacs")
    for command in ("dualize", "graph", "color", "schedule", "analyze", "verify"):
        argv = (command, "--family", "maxcut", "--graph", graph, option, value)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_dot_rejected_for_other_commands(capsys, fixture_dir):
    code, _, err = run_cli(
        capsys,
        "analyze",
        "--family", "maxcut",
        "--graph", str(fixture_dir / "w6.dimacs"),
        "--format", "dot",
    )
    assert code == 1
    assert "dot" in err


def test_dot_rejected_before_the_pipeline_runs(capsys, fixture_dir):
    # At the default gate width this problem fails the pipeline with exit 3;
    # the format is checked first, so the run stops at invalid input.
    for command in ("schedule", "analyze", "verify", "dualize"):
        code, out, err = run_cli(
            capsys,
            command,
            "--problem", str(fixture_dir / "general_example.json"),
            "--format", "dot",
        )
        assert (code, out) == (1, "")
        assert f"--format dot applies to 'graph' and 'color' only, not '{command}'" in err


def test_lambda_reaches_problem_and_pubo_in_dualize_and_analyze(capsys, fixture_dir):
    artifacts = {}
    for command in ("dualize", "analyze"):
        code, out, _ = run_cli(
            capsys,
            command,
            "--problem", str(fixture_dir / "general_example.json"),
            "--gate-width", "3",
            "--lambda", "7",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["problem"]["constraints"]
        assert all(c["lambda"] == 7 for c in artifact["problem"]["constraints"])
        assert all(r["penalty_weight"] == 7 for r in artifact["pubo"]["dualization"])
        artifacts[command] = artifact
    assert artifacts["dualize"]["pubo"] == artifacts["analyze"]["pubo"]


def test_nonpositive_lambda_is_invalid_input(capsys, fixture_dir):
    for weight in ("0", "-1"):
        code, out, err = run_cli(
            capsys,
            "dualize",
            "--family", "maxindset",
            "--graph", str(fixture_dir / "w6.dimacs"),
            "--lambda", weight,
        )
        assert (code, out) == (1, "")
        assert "penalty weight must be positive" in err


def test_merge_exact_method_via_cli(capsys, fixture_dir):
    code, out, _ = run_cli(
        capsys,
        "color",
        "--problem", str(fixture_dir / "general_example.json"),
        "--gate-width", "3",
        "--method", "merge-exact",
    )
    assert code == 0
    assert json.loads(out)["coloring"]["num_colors"] == 7


def test_readme_lists_the_flags_the_parser_defines():
    # The "Command line" section of the README names every flag of every
    # subcommand, and no flag the parser does not define.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        option
        for command in (parser, *commands.choices.values())
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--")
    } - {"--help", "--version"}
    assert documented == defined
