"""One variable order from the problem to the schedule.

A problem lists its variables by name.  Dualization keeps that order and
appends each constraint's slack bits in constraint order, which the
per-constraint records list; the hypergraph's vertices and the schedule's
variables are the same tuple.  Checked on every fixture, on each family
builder and on generated problems.
"""

import random

from hypothesis import given, settings

from qaoadepth import (
    Constraint,
    InstanceGraph,
    Polynomial,
    Problem,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    run_pipeline,
)
from qaoadepth.io import read_dimacs_graph, read_problem

from bruteforce import random_graph
from test_oracle_properties import integer_problems, unit_violation_problems


def assert_one_variable_order(problem: Problem, gate_width: int = 2):
    """Run the pipeline on ``problem``, check the order at every stage, return the PUBO."""
    result = run_pipeline(problem, gate_width=gate_width, method="greedy")
    pubo, h, sched = result.pubo, result.hypergraph, result.schedule
    n = len(problem.variables)
    slack = tuple(name for record in pubo.dualizations for name in record.slack_vars)
    assert pubo.variables[:n] == problem.variables
    assert pubo.variables[n:] == slack
    assert pubo.slack_names() == slack
    assert all(record.bit_count == len(record.slack_vars) for record in pubo.dualizations)
    assert h.vertices == pubo.variables
    assert sched.variables == h.vertices
    return pubo


def test_fixtures_keep_one_variable_order(fixture_dir):
    assert_one_variable_order(read_problem(str(fixture_dir / "general_example.json")), 3)
    assert_one_variable_order(read_problem(str(fixture_dir / "indset_w6.json")))
    for name in ("w6.dimacs", "petersen.dimacs"):
        g = read_dimacs_graph(str(fixture_dir / name))
        for make in (make_maxcut, make_maxindset, make_vertex_cover):
            assert_one_variable_order(make(g))


def test_family_builders_keep_one_variable_order():
    rng = random.Random(12)
    for _ in range(5):
        g = random_graph(rng, rng.randint(4, 9), 0.5)
        for make in (make_maxcut, make_maxindset, make_vertex_cover):
            assert_one_variable_order(make(g))
    k4 = InstanceGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), weights=(1, 2, 3, 4, 5, 6))
    assert_one_variable_order(make_tsp(k4, subtour_subsets=[(1, 2, 3)]), 4)
    assert_one_variable_order(make_sat([(1, -2, 3), (-1, 2), (2, 3, -4)]), 4)
    assert_one_variable_order(make_knapsack([3, 4, 5], [2, 3, 4], 5, preprocess=True), 2)


def test_slack_names_that_dodge_a_taken_name_keep_the_order():
    # The first slack bit's natural name is taken, so it becomes "_s1_1".
    problem = Problem(
        sense="min",
        objective=Polynomial.variable("s1_1"),
        constraints=(Constraint(lhs=Polynomial({("x1",): 1, ("s1_1",): 1}), rhs=1),),
        variables=("x1", "s1_1"),
    )
    assert assert_one_variable_order(problem).slack_names() == ("_s1_1",)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(integer_problems())
def test_generated_problems_keep_one_variable_order(case):
    problem, width, _ = case
    assert_one_variable_order(problem, width)


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(unit_violation_problems())
def test_unit_violation_problems_keep_one_variable_order(problem):
    assert_one_variable_order(problem)
