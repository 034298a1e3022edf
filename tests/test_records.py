"""The constraint and dualization records and their contract.

``Constraint`` and ``ConstraintDualization`` are named tuples with fixed
field names, order, defaults, keyword construction and repr.
``Constraint`` coerces and checks its numbers in every constructor that
takes caller data, and the generators that build theirs at tuple cost give
records equal, field by field and in type, to checked ones.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

import pytest

from qaoadepth import Constraint, ConstraintDualization, InstanceGraph, Polynomial, Problem
from qaoadepth.cli import main
from qaoadepth.dualize import dualize
from qaoadepth.errors import InvalidInputError
from qaoadepth.io import dumps, problem_from_json
from qaoadepth.problems import (
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    with_penalty_weight,
)

from bruteforce import random_graph

dualize_module = importlib.import_module("qaoadepth.dualize")  # the package exports the function

LHS = Polynomial({("x1",): 1, ("x2",): 1})


def test_constraint_fields_defaults_and_repr():
    assert Constraint._fields == (
        "lhs", "rhs", "weight", "lower", "slack_bound", "label", "reference_expansion")
    con = Constraint(lhs=LHS, rhs=1)
    assert con == (LHS, 1, None, None, None, "", None)
    assert repr(con) == (
        f"Constraint(lhs={LHS!r}, rhs=1, weight=None, lower=None, slack_bound=None, "
        "label='', reference_expansion=None)"
    )
    assert Constraint(LHS, 1, 2, 0, 1, "c", LHS) == Constraint(
        lhs=LHS, rhs=1, weight=2, lower=0, slack_bound=1, label="c", reference_expansion=LHS)
    assert not hasattr(con, "__dict__")
    with pytest.raises(TypeError):
        Constraint(lhs=LHS)


def test_dualization_fields_defaults_repr_and_bit_count():
    assert ConstraintDualization._fields == (
        "index", "label", "dropped", "reason", "cube_min", "cube_min_exact", "slack_range",
        "slack_vars", "weight", "square", "penalty", "notes", "expansion_diff")
    record = ConstraintDualization(index=3, label="c")
    assert record == (3, "c", False, "", None, True, 0, (), None, None, None, (), None)
    assert repr(record) == (
        "ConstraintDualization(index=3, label='c', dropped=False, reason='', cube_min=None, "
        "cube_min_exact=True, slack_range=0, slack_vars=(), weight=None, square=None, "
        "penalty=None, notes=(), expansion_diff=None)"
    )
    assert record._replace(slack_vars=("s1", "s2")).bit_count == 2
    assert record.bit_count == 0


def test_constraint_coerces_and_checks_every_number():
    con = Constraint(LHS, Fraction(4, 2), weight=Fraction(6, 3), lower=Fraction(1, 2),
                     slack_bound=Fraction(3, 1))
    assert con[1:5] == (2, 2, Fraction(1, 2), 3)
    assert [type(value) for value in con[1:5]] == [int, int, Fraction, int]
    for kwargs, message in (
        ({"weight": 0}, "penalty weight must be positive, got 0"),
        ({"weight": Fraction(-1, 2)}, "penalty weight must be positive, got -1/2"),
        ({"lower": 1}, "two-sided constraint needs lower < rhs, got 1 >= 1"),
        ({"slack_bound": -1}, "slack_bound must be nonnegative"),
    ):
        with pytest.raises(InvalidInputError, match=message.replace("(", r"\(")):
            Constraint(LHS, 1, **kwargs)
    for kwargs in ({"rhs": 1.0}, {"rhs": True}, {"rhs": 1, "weight": 2.5}, {"rhs": 1, "lower": "0"}):
        with pytest.raises(TypeError, match="exact numbers must be int or Fraction"):
            Constraint(LHS, **kwargs)


def _problem_json(**extra) -> dict:
    constraint = {"terms": [{"vars": ["x1"], "coeff": 1}, {"vars": ["x2"], "coeff": 1}], "rhs": 1}
    return {"sense": "min", "variables": ["x1", "x2"], "objective": [],
            "constraints": [{**constraint, **extra}]}


def test_problem_from_json_keeps_the_constraint_checks():
    con = problem_from_json(_problem_json(
        rhs={"num": 4, "den": 2}, **{"lambda": {"num": 3, "den": 1}}, slack_bound=1)).constraints[0]
    assert type(con) is Constraint
    assert (con.rhs, con.weight, con.slack_bound) == (2, 3, 1)
    assert type(con.rhs) is int and type(con.weight) is int
    for extra, message in (
        ({"lambda": 0}, "penalty weight must be positive"),
        ({"lambda": -1}, "penalty weight must be positive"),
        ({"lower": 1}, "two-sided constraint needs lower < rhs"),
        ({"slack_bound": -1}, "slack_bound must be nonnegative"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            problem_from_json(_problem_json(**extra))


def test_make_knapsack_builds_checked_constraints():
    plain = make_knapsack([1, 2, 3], [Fraction(2, 2), 2, 3], Fraction(8, 2)).constraints[0]
    assert plain == Constraint(plain.lhs, 4, label="capacity")
    assert type(plain.rhs) is int
    two_sided = make_knapsack([1, 2, 3], [1, 2, 3], Fraction(9, 2), preprocess=True).constraints[0]
    assert (two_sided.rhs, two_sided.lower, two_sided.slack_bound) == (Fraction(9, 2), Fraction(3, 2), 3)
    assert type(two_sided.slack_bound) is int
    with pytest.raises(TypeError):
        make_knapsack([1, 2], [1, 2], 2.5)


@pytest.mark.parametrize("weight", ["0", "-1"])
@pytest.mark.parametrize("source", [
    ("--problem", "fixtures/general_example.json"),
    ("--family", "vertex_cover", "--graph", "fixtures/w6.dimacs"),
    ("--family", "knapsack", "--values", "1,2,3", "--weights", "1,2,3", "--capacity", "4"),
    ("--family", "maxcut", "--graph", "fixtures/w6.dimacs"),  # no constraint to take the weight
])
def test_cli_rejects_a_nonpositive_lambda(weight, source, capsys, monkeypatch, fixture_dir):
    monkeypatch.chdir(fixture_dir.parent)
    assert main(["dualize", *source, "--lambda", weight]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"penalty weight must be positive, got {weight}" in err


def test_with_penalty_weight_checks_once_and_sets_every_weight(w6):
    problem = make_vertex_cover(w6)
    weighted = with_penalty_weight(problem, Fraction(6, 2))
    assert [c.weight for c in weighted.constraints] == [3] * len(problem.constraints)
    assert all(type(c.weight) is int for c in weighted.constraints)
    assert [c._replace(weight=None) for c in weighted.constraints] == list(problem.constraints)
    for weight in (0, -1, Fraction(-1, 3)):
        for unweighted in (problem, make_maxcut(w6)):
            with pytest.raises(InvalidInputError, match="penalty weight must be positive"):
                with_penalty_weight(unweighted, weight)
    with pytest.raises(TypeError):
        with_penalty_weight(problem, 1.5)


def _generated() -> list[Problem]:
    rng = random.Random(5)
    problems = []
    for n in (1, 2, 6, 15):
        g = random_graph(rng, n, 0.4)
        problems += [make_maxindset(g), make_vertex_cover(g)]
    weighted = InstanceGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (2, 4)),
                             weights=(1, 2, 3, 4, 5, 6, 7))
    problems.append(make_tsp(weighted, subtour_subsets=[(1, 2, 3), (2, 3, 4, 5)]))
    problems.append(make_sat([[1, -2, 3], [-1], [2, 3], [-3, 1, 4, -5]]))
    return problems


def test_generator_constraints_equal_checked_ones_field_by_field():
    seen = 0
    for problem in _generated():
        for con in problem.constraints:
            checked = Constraint(**con._asdict())
            assert type(con) is Constraint
            assert con == checked and repr(con) == repr(checked)
            assert [type(value) for value in con] == [type(value) for value in checked]
            seen += 1
    assert seen > 50


def test_records_are_not_json_values():
    problem = _generated()[-1]
    con = problem.constraints[0]
    record = dualize(problem).dualizations[0]
    for value in (con, record, [con, con], (con,), {"c": con}, [record, record], {"r": [record]}):
        with pytest.raises(TypeError):
            dumps(value)


def test_a_zero_span_takes_no_slack_sizing(monkeypatch, w6):
    calls = []
    sizing = dualize_module._slack_coefficients
    monkeypatch.setattr(dualize_module, "_slack_coefficients",
                        lambda span: calls.append(span) or sizing(span))
    records = dualize(make_maxindset(w6)).dualizations
    assert calls == [] and len(records) == len(w6.edges)
    assert all(r.slack_range == 0 and r.notes == () and r.slack_vars == () for r in records)
    dualize(make_vertex_cover(w6))
    assert calls == [1] * len(w6.edges)
