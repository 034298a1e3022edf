from fractions import Fraction

import pytest

from qaoadepth import (
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    color_exact,
    build,
    dualize,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    pubo_from_polynomial,
    schedule,
    with_penalty_weight,
)
from qaoadepth.io import (
    dumps,
    hypergraph_to_dot,
    polynomial_from_json,
    polynomial_to_json,
    problem_from_json,
    problem_to_json,
    rational_from_json,
    rational_to_json,
    read_dimacs_graph,
    read_problem,
    render_schedule_text,
    schedule_to_json,
    write_problem,
)


def roundtrip_canonical(problem) -> None:
    """write(read(write(p))) must equal write(p) byte for byte."""
    first = dumps(problem_to_json(problem))
    again = dumps(problem_to_json(problem_from_json(__import__("json").loads(first))))
    assert first == again


def test_roundtrip_all_families(w6):
    triangle = InstanceGraph(3, ((1, 2), (1, 3), (2, 3)), weights=(1, 2, 3))
    problems = [
        make_maxcut(w6),
        with_penalty_weight(make_maxindset(w6), 2),
        with_penalty_weight(make_vertex_cover(w6), 3),
        make_knapsack((1, 2, 3), (1, 2, 3), 4),
        make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True),
        make_tsp(triangle),
        make_sat([(1, 2, -3), (2, 3, 4)]),
    ]
    for problem in problems:
        roundtrip_canonical(problem)


def test_roundtrip_preserves_semantics(tmp_path, general_problem):
    path = tmp_path / "p.json"
    write_problem(general_problem, str(path))
    loaded = read_problem(str(path))
    assert loaded.sense == general_problem.sense
    assert loaded.objective == general_problem.objective
    assert len(loaded.constraints) == 1
    assert loaded.constraints[0].lhs == general_problem.constraints[0].lhs
    assert loaded.constraints[0].rhs == general_problem.constraints[0].rhs


def test_rationals_survive_the_json_trip():
    poly = Polynomial({("x1",): Fraction(1, 3), (): Fraction(-5, 2)})
    data = polynomial_to_json(poly)
    assert {"vars": ["x1"], "coeff": {"num": 1, "den": 3}} in data
    assert polynomial_from_json(data, {"x1"}, "poly") == poly


def test_rational_parsing_errors():
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_from_json({"num": 1, "den": 2}, "x") == Fraction(1, 2)
    with pytest.raises(InvalidInputError, match="floats"):
        rational_from_json(0.5, "x")
    with pytest.raises(InvalidInputError):
        rational_from_json({"num": 1}, "x")
    with pytest.raises(InvalidInputError):
        rational_from_json({"num": 1, "den": 0}, "x")
    with pytest.raises(InvalidInputError):
        rational_from_json(True, "x")


def test_unknown_variable_error_names_the_culprit():
    data = {
        "sense": "min",
        "variables": ["x1"],
        "objective": [{"vars": ["x1", "y9"], "coeff": 1}],
        "constraints": [],
    }
    with pytest.raises(InvalidInputError, match=r"objective\[0\].vars\[1\].*y9"):
        problem_from_json(data)


def test_schema_violations_are_pinpointed():
    with pytest.raises(InvalidInputError, match="sense"):
        problem_from_json({"sense": "best", "variables": [], "objective": []})
    with pytest.raises(InvalidInputError, match="unique"):
        problem_from_json({"sense": "min", "variables": ["a", "a"], "objective": []})
    with pytest.raises(InvalidInputError, match=r"constraints\[0\]: missing rhs"):
        problem_from_json(
            {"sense": "min", "variables": ["a"], "objective": [], "constraints": [{"terms": []}]}
        )
    with pytest.raises(InvalidInputError, match="unknown fields"):
        problem_from_json({"sense": "min", "variables": [], "objective": [], "bogus": 1})


def test_empty_constraint_list_is_unconstrained():
    problem = problem_from_json(
        {"sense": "min", "variables": ["x1"], "objective": [{"vars": ["x1"], "coeff": 1}]}
    )
    assert problem.constraints == ()


def test_dimacs_wheel_roundtrip(fixture_dir):
    g = read_dimacs_graph(str(fixture_dir / "w6.dimacs"))
    assert g.n == 6
    assert len(g.edges) == 10
    assert g.max_degree() == 5
    assert g.weights is None


def test_dimacs_error_reporting(tmp_path):
    cases = {
        "no_header.dimacs": ("e 1 2\n", "edge before the problem line"),
        "bad_header.dimacs": ("p vertex 3 1\ne 1 2\n", "expected 'p edge"),
        "dup.dimacs": ("p edge 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        "bad_weight.dimacs": ("p edge 2 1\ne 1 2 heavy\n", "bad weight"),
        "count.dimacs": ("p edge 2 5\ne 1 2\n", "declares 5 edges"),
        "junk.dimacs": ("p edge 2 1\nq 1 2\n", "unknown record"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(InvalidInputError, match=message):
            read_dimacs_graph(str(path))


def test_dimacs_weighted_edges(tmp_path):
    path = tmp_path / "weighted.dimacs"
    path.write_text("p edge 3 2\ne 1 2 3\ne 2 3 1/2\n")
    g = read_dimacs_graph(str(path))
    assert g.weights == (Fraction(3), Fraction(1, 2))


def test_dot_export_plain_and_hyper(w6, general_problem):
    h2 = build(dualize(make_maxcut(w6)))
    dot = hypergraph_to_dot(h2)
    assert '"x1" -- "x2";' in dot
    assert "shape=box" not in dot

    from qaoadepth import absorb_subsets

    h3 = absorb_subsets(build(dualize(general_problem)), 3)
    dot3 = hypergraph_to_dot(h3, color_exact(h3))
    assert "shape=box" in dot3
    assert 'label="c' in dot3


def test_dot_export_escapes_quotes_and_backslashes():
    poly = Polynomial.from_terms([(('a"b', "c"), 1), (("c", "d\\", "e"), 1)])
    h = build(pubo_from_polynomial(poly))
    dot = hypergraph_to_dot(h)
    assert '  "a\\"b" -- "c";' in dot
    assert '  "d\\\\";' in dot
    assert 'label="c,d\\\\,e"' in dot
    assert '  "gate0" -- "d\\\\";' in dot


def test_schedule_json_shape(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    sched = schedule(h, color_exact(h), p=2)
    data = schedule_to_json(sched)
    assert data["iterations"] == 2
    assert data["structural_depth"] == 7
    assert data["total_depth"] == 14
    assert [layer["kind"] for layer in data["layers"]] == (
        ["cost"] * 5 + ["singleton", "mixer"]
    )
    assert data["layers"][-1]["angle"] == "beta"
    assert all(layer["angle"] == "gamma" for layer in data["layers"][:-1])
    mixer_gates = data["layers"][-1]["gates"]
    assert all("terms" not in gate for gate in mixer_gates)


def test_render_schedule_text_plain_and_ansi(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    sched = schedule(h, color_exact(h))
    plain = render_schedule_text(sched, color=False)
    assert "B(x1)" in plain and "C(x1)" in plain
    assert "\x1b[" not in plain
    colored = render_schedule_text(sched, color=True)
    assert "\x1b[" in colored


def test_dumps_is_deterministic(general_problem):
    assert dumps(problem_to_json(general_problem)) == dumps(problem_to_json(general_problem))
