import json
import random
from dataclasses import replace
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaoadepth import (
    CircuitLayer,
    CircuitSchedule,
    Constraint,
    Hyperedge,
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    Problem,
    color_exact,
    build,
    dualize,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    merge_exact,
    schedule,
    with_penalty_weight,
)
from qaoadepth import io as io_module
from qaoadepth.cli import main as cli_main
from qaoadepth.io import (
    _Runs,
    _Table,
    _Terms,
    coloring_to_json,
    depth_report_to_json,
    dumps,
    hypergraph_to_dot,
    hypergraph_to_json,
    polynomial_from_json,
    polynomial_to_json,
    problem_from_json,
    problem_to_json,
    pubo_to_json,
    rational_from_json,
    rational_to_json,
    read_dimacs_graph,
    read_problem,
    render_schedule_text,
    schedule_to_json,
    write_problem,
)
from qaoadepth.pipeline import run_pipeline

from bruteforce import (
    polynomial_from_json_twice_checked,
    problem_to_json_reference,
    pubo_from_polynomial,
    pubo_to_json_reference,
    random_graph,
    random_polynomial,
    render_schedule_text_reference,
    schedule_to_json_reference,
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
    data = json.loads(dumps(polynomial_to_json(poly)))
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


def test_floats_in_family_info_are_rejected():
    base = {"sense": "min", "variables": ["a"], "objective": []}
    with pytest.raises(InvalidInputError, match=r"family_info\.p: floats"):
        problem_from_json({**base, "family_info": {"p": 0.3}})
    with pytest.raises(InvalidInputError, match=r"family_info\.edges\[1\]\[0\]: floats"):
        problem_from_json({**base, "family_info": {"edges": [[0, 1], [2.0, 3]]}})
    info = {"n": 3, "edges": [[0, 1]], "name": "w", "flag": True, "none": None, "sub": {}}
    assert problem_from_json({**base, "family_info": info}).family_info == info


@pytest.mark.parametrize(
    "edges",
    [{"u": 1}, None, [[0, 1], [1, 2, 3]], [[0]], [[0, "1"]], [[True, 1]], [7]],
    ids=["object", "null", "triple", "single", "string-end", "bool-end", "bare-int"],
)
def test_family_edges_are_metadata(tmp_path, edges):
    # Any float-free family_info loads, is never read and reaches the artifact unchanged.
    info = {"n": 3, "edges": edges}
    data = {"sense": "min", "variables": ["a"], "objective": [], "family": "maxcut",
            "family_info": info}
    assert problem_from_json(data).family_info == info
    problem_path, out_path = tmp_path / "problem.json", tmp_path / "artifact.json"
    problem_path.write_text(json.dumps(data))
    assert cli_main(["analyze", "--problem", str(problem_path), "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["problem"]["family_info"] == info


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
    # Comment, blank and CRLF lines come first, so every message's line
    # number is checked: the problem line is line 6, the first edge line 8.
    lead = "c made by hand\r\n\r\n   \n  comment after spaces\nc\n"
    head = lead + "p edge 3 2\r\nc between\n"
    header = "expected 'p edge <vertices> <edges>'"
    counts = "vertex/edge counts must be integers"
    duplicate = "duplicate edge (2,1); multigraphs are rejected"
    cases = {  # name: (content, message after the path)
        "no_header.dimacs": (lead + "e 1 2\n", ":6: edge before the problem line"),
        "bad_header.dimacs": (lead + "p vertex 3 1\ne 1 2\n", f":6: {header}"),
        "short_header.dimacs": (lead + "p edge 3\n", f":6: {header}"),
        "second_header.dimacs": (head + "p edge 3 2\n", ":8: duplicate problem line"),
        "float_count.dimacs": (lead + "p edge 3 2.0\n", f":6: {counts}"),
        "word_count.dimacs": (lead + "p edge three 2\n", f":6: {counts}"),
        "negative_n.dimacs": (lead + "p edge -1 0\n", ": vertex count must be nonnegative"),
        "missing_header.dimacs": (lead, ": missing 'p edge' problem line"),
        "two_fields.dimacs": (head + "e 1 2\r\ne 1\n", ":9: expected 'e <u> <v> [weight]'"),
        "five_fields.dimacs": (head + "e 1 2 3 4\n", ":8: expected 'e <u> <v> [weight]'"),
        "word_end.dimacs": (head + "e 1 2\r\ne 1 b\n", ":9: endpoints must be integers"),
        "float_end.dimacs": (head + "e 1.0 2\n", ":8: endpoints must be integers"),
        "bad_weight.dimacs": (head + "e 1 2\ne 2 3 heavy\n", ":9: bad weight 'heavy'"),
        "zero_den.dimacs": (head + "e 1 2 1/0\n", ":8: bad weight '1/0'"),
        "junk.dimacs": (head + "e 1 2\r\nq 1 2\n", ":9: unknown record 'q'"),
        "edge_word.dimacs": (head + "edge 1 2\n", ":8: unknown record 'edge'"),
        # \f and \x1c end no line: they are whitespace within the comment
        "form_feed.dimacs": (head + "c page\fbreak\x1c\nq 1 2\n", ":9: unknown record 'q'"),
        "count.dimacs": (head + "e 1 2\n", ": header declares 2 edges but 1 found"),
        "loop.dimacs": (head + "e 1 2\ne 2 2\n", ": loop edge (2,2) not allowed"),
        "low_u.dimacs": (head + "e 1 2\ne 0 2\n", ": edge (0,2) outside vertex range 1..3"),
        "high_v.dimacs": (head + "e 1 2\ne 1 4\n", ": edge (1,4) outside vertex range 1..3"),
        "low_v.dimacs": (head + "e 1 2\ne 3 -1\n", ": edge (3,-1) outside vertex range 1..3"),
        "high_u.dimacs": (head + "e 1 2\ne 4 1\n", ": edge (4,1) outside vertex range 1..3"),
        "range_first.dimacs": (head + "e 4 4\ne 1 1\n", ": edge (4,4) outside vertex range 1..3"),
        "dup.dimacs": (head + "e 1 2\ne 2 1\n", f": {duplicate}"),
        "first_offender.dimacs": (lead + "p edge 3 3\ne 1 2\ne 2 1\ne 3 3\n", f": {duplicate}"),
        "not_utf8.dimacs": (b"p edge 2 1\ne 1 2\nc \xff\n", ": not UTF-8 text (invalid start byte)"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        # as bytes, so the CRLF line ends stay as written
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(InvalidInputError) as caught:
            read_dimacs_graph(str(path))
        assert str(caught.value) == f"{path}{message}", name
    missing = tmp_path / "missing.dimacs"
    with pytest.raises(InvalidInputError) as caught:
        read_dimacs_graph(str(missing))
    assert str(caught.value) == (
        f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    )
    with pytest.raises(InvalidInputError) as caught:
        InstanceGraph(n=3, edges=((1, 2), (2, 3)), weights=(1,))
    assert str(caught.value) == "weights must match edges one-to-one"


def test_dimacs_weighted_edges(tmp_path):
    path = tmp_path / "weighted.dimacs"
    path.write_text("p edge 3 2\ne 1 2 3\ne 2 3 1/2\n")
    g = read_dimacs_graph(str(path))
    assert g.weights == (Fraction(3), Fraction(1, 2))


def test_dimacs_weights_on_some_lines_only(tmp_path):
    # Unweighted edges read as 1, before the first weight and after it.
    path = tmp_path / "some.dimacs"
    path.write_text("p edge 5 5\ne 1 2\ne 3 2\ne 2 4 -3/2\nc\ne 4 5\ne 1 5 7\n")
    g = read_dimacs_graph(str(path))
    assert g.edges == ((1, 2), (2, 3), (2, 4), (4, 5), (1, 5))
    assert g.weights == (1, 1, Fraction(-3, 2), 1, 7)
    path.write_text("p edge 3 2\ne 1 2\ne 3 2\n")
    assert read_dimacs_graph(str(path)).weights is None


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


def test_dot_box_names_avoid_vertex_names():
    poly = Polynomial.from_terms(
        [(("gate0", "a"), 1), (("a", "b", "c"), 1), (("b", "c", "gate2"), 1)]
    )
    dot = hypergraph_to_dot(build(pubo_from_polynomial(poly)))
    assert '  "gate1" [shape=box, label="a,b,c"];' in dot
    assert '  "gate3" [shape=box, label="b,c,gate2"];' in dot
    assert '  "a" -- "gate0";' in dot
    assert '  "gate1" -- "a";' in dot and '  "gate3" -- "gate2";' in dot
    # every vertex and every box is declared exactly once
    declared = [line for line in dot.splitlines() if "--" not in line and line.startswith("  \"")]
    assert len(declared) == len(set(declared)) == 5 + 2


@pytest.mark.parametrize("known", [None, {"a"}, {"", "a"}])
def test_polynomial_from_json_rejects_an_empty_name(known):
    with pytest.raises(InvalidInputError, match=r"p\[1\]\.vars: expected a list of non-empty"):
        polynomial_from_json([{"vars": ["a"]}, {"vars": ["a", ""], "coeff": 2}], known, "p")


def test_polynomial_from_json_checks_each_term_once_with_the_same_verdicts():
    # The terms are checked once and summed straight into the canonical
    # dict; the reference checks them and then Polynomial.from_terms checks
    # every name and coefficient again.  Both must give the same polynomial,
    # or the same message about the same first bad term.
    good = [
        {"vars": ["a", "b"], "coeff": 2}, {"vars": ["b", "a"], "coeff": -2}, {"vars": ["c"]},
        {"vars": ["a", "a", "c"], "coeff": {"num": 3, "den": 4}}, {"coeff": 5}, {"vars": []},
        {"vars": ["b", "c"], "coeff": {"num": 4, "den": 2}},
        {"vars": ["c", "b"], "coeff": {"num": 1, "den": -4}},
    ]
    bad = [
        7, {"vars": ["a"], "coef": 1}, {"vars": "ab"}, {"vars": ["a", ""]}, {"vars": ["a", 3]},
        {"vars": ["a", "z"]}, {"vars": ["z"], "coeff": 0.5}, {"vars": ["a"], "coeff": True},
        {"vars": ["a"], "coeff": {"num": 1}}, {"vars": ["a"], "coeff": {"num": 1, "den": 0}},
        {"vars": ["a"], "coeff": "1"}, {"vars": ["b"], "coeff": 1.0},
    ]
    rng = random.Random(97)
    verdicts = set()
    for trial in range(600):
        data = [rng.choice(good) for _ in range(rng.randint(0, 6))]
        for _ in range(trial % 3):
            data.insert(rng.randint(0, len(data)), rng.choice(bad))
        outcomes = []
        for parse in (polynomial_from_json, polynomial_from_json_twice_checked):
            try:
                poly = parse(data, None if trial % 5 == 0 else {"a", "b", "c"}, "p")
                outcomes.append([(s, c, type(c)) for s, c in poly.terms()])
            except InvalidInputError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        verdicts.add(outcomes[0] if isinstance(outcomes[0], str) else "ok")
    assert "ok" in verdicts and len(verdicts) > 40
    with pytest.raises(InvalidInputError, match=r"^p: expected a list of terms$"):
        polynomial_from_json({"vars": []}, None, "p")


def test_schedule_json_shape(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    sched = schedule(h, color_exact(h), p=2)
    data = json.loads(dumps(schedule_to_json(sched)))
    assert data["iterations"] == 2
    assert data["structural_depth"] == 6
    assert data["total_depth"] == 12
    assert [layer["kind"] for layer in data["layers"]] == ["cost"] * 5 + ["mixer"]
    assert data["layers"][-1]["angle"] == "beta"
    assert all(layer["angle"] == "gamma" for layer in data["layers"][:-1])
    mixer_gates = data["layers"][-1]["gates"]
    assert all("terms" not in gate for gate in mixer_gates)


def test_render_schedule_text_plain_and_ansi(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    sched = schedule(h, color_exact(h))
    plain = render_schedule_text(sched, color=False)
    assert "B(x1)" in plain and "C(x1,x2)" in plain
    assert "\x1b[" not in plain
    colored = render_schedule_text(sched, color=True)
    assert "\x1b[" in colored


def test_render_schedule_text_matches_the_per_qubit_scan():
    # Singleton layers, gates merged up to 4 qubits, up to 3 iterations, and
    # qubits idle in a layer.
    rng = random.Random(11)
    names = [f"q{i}" for i in range(7)] + ["long_name"]
    for trial in range(30):
        objective = random_polynomial(rng, names[: rng.randint(3, 8)], max_terms=14)
        h = build(pubo_from_polynomial(objective))
        if trial % 2:
            merged = merge_exact(h, rng.randint(3, 4))
            h, coloring = merged.hypergraph, merged.coloring
        else:
            coloring = color_exact(h)
        sched = schedule(h, coloring, p=rng.randint(1, 3))
        for color in (False, True):
            assert render_schedule_text(sched, color) == render_schedule_text_reference(sched, color)


def test_schedule_gate_records_match_one_record_per_gate():
    # Gates merged from several monomials sit next to one-monomial gates,
    # one-qubit phase gates and mixers; each gate gets its own terms, in order.
    rng = random.Random(13)
    sizes = set()
    for trial in range(20):
        objective = random_polynomial(rng, [f"q{i}" for i in range(rng.randint(3, 7))], max_terms=14)
        h = build(pubo_from_polynomial(objective))
        merged = merge_exact(h, rng.randint(3, 4))
        sched = schedule(merged.hypergraph, merged.coloring, p=rng.randint(1, 2))
        layers = json.loads(dumps(schedule_to_json(sched)))["layers"]
        assert len(layers) == len(sched.layers)
        for layer, record in zip(sched.layers, layers):
            expected = [
                {"qubits": gate.support}
                if layer.kind == "mixer"
                else {"qubits": gate.support, "terms": [{"vars": s, "coeff": c} for s, c in gate.monomials]}
                for gate in layer.gates
            ]
            assert record["gates"] == json.loads(dumps(expected))
            sizes.update(len(gate.monomials) for gate in layer.gates if layer.kind != "mixer")
    assert {1, 2} <= sizes


def test_a_hand_built_schedule_writes_its_layers_in_order(monkeypatch):
    # schedule() puts the one mixer last; a schedule built by hand may put
    # mixers anywhere, and its runs of layers with terms still write their
    # gate terms from the objective's kept texts.
    ab = Hyperedge(("a", "b"), ((("a", "b"), Fraction(1, 2)), (("b",), -1)))
    c, bc = Hyperedge(("c",), ((("c",), 3),)), Hyperedge(("b", "c"), ((("b", "c"), 2),))
    d = Hyperedge(("d",), ((("d",), Fraction(-5, 3)),))
    mixer = CircuitLayer("mixer", tuple(Hyperedge((name,), ()) for name in "abcd"))
    layers = (mixer, CircuitLayer("cost", (ab, c)), CircuitLayer("singleton", (d,)), mixer, mixer,
              CircuitLayer("cost", (bc,)), CircuitLayer("cost", ()))
    sched = CircuitSchedule(("a", "b", "c", "d"), layers, 2)
    problem = Problem("min", sched.covered_polynomial(), (), sched.variables)
    found = _gate_term_lookups(monkeypatch)
    for built, runs in ((sched, 2), (replace(sched, layers=layers[1:3]), 1), (replace(sched, layers=()), 0)):
        found.clear()
        sections = {"problem": problem_to_json(problem), "schedule": schedule_to_json(built)}
        assert dumps(sections) == dumps(dict(sections, schedule=schedule_to_json_reference(built)))
        assert found == [True] * runs
    assert dumps(schedule_to_json(sched)) == dumps(schedule_to_json_reference(sched))


def test_dumps_is_deterministic(general_problem):
    assert dumps(problem_to_json(general_problem)) == dumps(problem_to_json(general_problem))


# -- the canonical JSON encoder ------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_strings = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", 'q"uo\\te', "caf\u00e9", "\u2028\ud800", "\U0001f600", "a#", 'a"']
)
# Fractions: whole ones too, which are written as their ints.
_fractions = st.fractions(max_denominator=12) | st.integers(-5, 5).map(Fraction)
_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**300)
    | st.integers(max_value=-(2**64)) | _strings | _fractions
)
_keys = st.sampled_from(["a", "b", 'a"', "a#"])  # few keys, so key sets repeat and overlap


def _records(inner):
    """Lists of dicts that share one key set, and lists whose key sets differ."""
    shared = st.lists(_keys, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: inner for key in keys}), max_size=5)
    )
    return shared | st.lists(st.dictionaries(_keys, inner, max_size=3), max_size=5)


def _nested(inner):
    """Lists of lists, some or all empty, with tuples mixed in."""
    member = st.lists(inner, max_size=3) | st.just([]) | st.lists(inner, max_size=3).map(tuple)
    return st.lists(member, max_size=5) | st.lists(st.just([]), min_size=1, max_size=3)


def _flat(size, inner, depth):
    """A list, or while ``depth`` lasts a table or a run of two tables, of ``size`` values."""
    values = st.lists(inner, min_size=size, max_size=size)
    if not depth:
        return values
    runs = st.integers(0, size).flatmap(lambda first: st.tuples(
        _table_of(first, inner, depth - 1), _table_of(size - first, inner, depth - 1)).map(_Runs))
    return values | _table_of(size, inner, depth - 1) | runs


def _column(size, inner, depth):
    """A ``_Table`` column of ``size`` values: a list, a table or a (lengths, flat) pair."""
    lengths = st.lists(st.integers(0, 3), min_size=size, max_size=size)
    grouped = lengths.flatmap(lambda ls: _flat(sum(ls), inner, depth).map(lambda flat: (ls, flat)))
    return _flat(size, inner, depth) | grouped


def _table_of(size, inner, depth):
    """Tables of ``size`` records, with one to three keys."""
    return st.lists(_keys, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.tuples(*(_column(size, inner, depth) for _ in keys)).map(
            lambda columns: _Table(dict(zip(keys, columns)))))


def _tables(inner):
    """Tables of up to four records, which may hold tables and (lengths, flat) pairs."""
    return st.integers(0, 4).flatmap(lambda size: _table_of(size, inner, 1))


# One column mixing every kind a JSON value can take.
_mixed = st.integers() | _fractions | st.booleans() | st.none() | _strings
_mixed_column = st.lists(
    st.fixed_dictionaries(
        {"k": _mixed | st.dictionaries(_keys, _mixed, max_size=2) | st.lists(_mixed, max_size=2)}
    ),
    max_size=6,
)

_json_values = st.recursive(
    _scalars
    | st.lists(st.booleans() | st.integers(), max_size=6)
    | st.lists(st.integers() | _fractions, max_size=6)
    | st.just([]) | st.just({}) | st.just([[], {}, [[]]]) | _mixed_column,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_strings, inner, max_size=5)
    | _records(inner)
    | _nested(inner)
    | _tables(inner)
    | st.lists(_tables(inner), max_size=5)
    | st.lists(_tables(inner), max_size=3).map(_Runs),
    max_leaves=25,
)


def _values(column):
    """The values a ``_Table`` column stands for: dicts for a table, for each table of a
    run or for gate terms' ``(support, coefficient)`` pairs, lists for a pair."""
    if isinstance(column, _Terms):
        return [{"vars": support, "coeff": coeff} for support, coeff in column]
    if isinstance(column, _Runs):
        return [record for table in column for record in _values(table)]
    if isinstance(column, _Table):
        return [dict(zip(column.keys, row)) for row in zip(*map(_values, column.columns))]
    if isinstance(column, tuple):
        lengths, flat = column
        flat = iter(_values(flat))
        return [list(islice(flat, n)) for n in lengths]
    return column


def _plain(value):
    """``value`` with each Fraction as its int or ``{"num", "den"}``, each tuple a list,
    each table its list of dicts and each run of tables the list of all their dicts."""
    if isinstance(value, _Runs):
        return [record for table in value for record in _plain(table)]
    if isinstance(value, _Table):
        return _plain(_values(value))
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_json_values)
@example({'a"': 1, "a#": [True, 1], "caf\u00e9": {}, "z": ()})  # raw and escaped key orders differ
@example([1, True, 0])  # a bool is not encoded as an int
@example({"a": False, "b": 0})
@example((("a", 'q"'), ("", "caf\u00e9")))
# Lists of dicts, written one dict at a time: one key set in any insertion
# order, key sets that differ, and every dict with the first's keys, one with more
@example([{"a#": 1, 'a"': [2]}, {'a"': [], "a#": "x"}])
@example([{"a": 1}, {"b": 2}, {"a": 3}, {}, {"a": 4, "b": 5}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([[1, 2], [], [3], [], [[]]])  # some members empty
@example([[], [], ()])  # all members empty
@example([True, False, False, True])  # bools only: one map, as a record's dropped column
# A table's bool column, and a column of lists that are all empty, as
# dualization records' dropped, cube_min_exact and slack_vars
@example(_Table({"dropped": [False, True, False], "exact": [True, True, True], "vars": [(), [], ()]}))
@example([{"k": 1}, {"k": True}, {"k": None}, {"k": "s"}, {"k": {"a": 0}}, {"k": [False]},
          {"k": 2}, {"k": {}}, {"k": []}, {"k": False}])  # one column of every kind
@example([[1, "a"], ("b", 2), [], (), [[3]], ([4],)])  # lists and tuples in one list
@example(Fraction(4, 2))  # a whole Fraction is its int
@example([Fraction(-1, 3)])  # a list of one item takes the direct path
@example([Fraction(-1, 3), Fraction(7, 2), Fraction(5, 12)])  # no whole one: one {"num", "den"} table
@example([Fraction(1, 2), Fraction(4, 2), Fraction(-3), Fraction(-5, 4)])  # whole ones join the ints
@example([{"vars": ("x1",), "coeff": 2}, {"vars": (), "coeff": Fraction(-5, 2)},
          {"vars": ("x1", "x2"), "coeff": Fraction(1, 3)}])  # an int/Fraction coefficient column
# Fractions inside dicts of one key set
@example([{"a": Fraction(1, 2), "b": [Fraction(3)]}, {"b": (), "a": Fraction(-7, 4)}])
# Tables: empty ones, one record, empty groups, an int/Fraction coefficient column
@example(_Table({"a": []}))
@example({"t": _Table({"b": [], "a": ([], _Table({"c": []}))})})
@example(_Table({"vars": [("x1", "x2")], "coeff": [Fraction(1, 2)]}))
@example(_Table({"terms": ([0, 2, 0], _Table({"vars": [("a",), ()], "coeff": [1, Fraction(-1, 3)]}))}))
@example(_Table({"a": ([0, 0], []), "b": ["x", "y"]}))
@example(_Table({"vars": [("x1",), (), ("x1", "x2")], "coeff": [2, Fraction(-5, 2), Fraction(4, 2)]}))
# Layer dicts whose gates are tables of differing key sets, written one dict at a time
@example([
    {"kind": "cost", "gates": _Table({"qubits": [("a", "b"), ("c",)], "terms": (
        [1, 2], _Table({"vars": [("a", "b"), ("c",), ()], "coeff": [1, Fraction(1, 2), -3]}))})},
    {"kind": "cost", "gates": _Table({"qubits": [("b", "c")], "terms": (
        [1], _Table({"vars": [("b", "c")], "coeff": [Fraction(-7, 4)]}))})},
    {"kind": "mixer", "gates": _Table({"qubits": [("a",), ("b",), ("c",)]})},
])
# A (lengths, runs) column, as a schedule's gates: cost gates with terms, an
# empty run, then mixer gates
@example(_Table({"kind": ["cost", "cost", "none", "mixer"], "gates": ([2, 1, 0, 3], _Runs([
    _Table({"qubits": [("a", "b"), ("c",), ("b", "c")], "terms": ([1, 2, 1], _Table({
        "vars": [("a", "b"), ("c",), (), ("b", "c")], "coeff": [1, Fraction(1, 2), -3, Fraction(-7, 4)]}))}),
    _Table({"qubits": []}),
    _Table({"qubits": [("a",), ("b",), ("c",)]})]))}))
# Lists of tables, written one table at a time: empty ones, one key set, and
# one key set whose columns differ in form or in a nested key set
@example([_Table({"a": []}), _Table({"a": ([], [])}), _Table({"b": []})])
@example([_Table({"a": [1]}), _Table({"a": [2]}), [_Table({"a": [3]})]])
@example([_Table({"a": [1]}), _Table({"a": ([1], [2])}), _Table({"a": _Table({"b": [3]})}),
          _Table({"a": ([2], _Table({"b": [5, 6]}))})])
@example([_Table({"a": _Table({"b": [3]})}), _Table({"a": _Table({"c": [4]})})])
@example([_Table({"a": ([1], _Table({"b": [3]}))}), _Table({"a": ([1], _Table({"c": [4]}))})])
# Runs of tables: none, only empty ones, key sets that differ, and runs inside a list
@example(_Runs())
@example(_Runs([_Table({"a": []}), _Table({"b": []})]))
@example({"c": _Runs([_Table({"a": [1, 2], "t": ([1, 0], _Table({"v": [("x",)]}))}),
                      _Table({"b": [Fraction(1, 2)]}), _Table({"a": [3]})])})
@example([_Runs([_Table({"a": [1]})]), _Runs(), [_Table({"a": [2]})], _Runs([_Table({"b": [3]})])])
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"


def _count_calls(monkeypatch, name: str) -> list:
    """The first argument of each call ``dumps`` makes to ``io.<name>`` from now on."""
    calls = []
    function = getattr(io_module, name)

    def counting(value, *args):
        calls.append(value)
        return function(value, *args)

    monkeypatch.setattr(io_module, name, counting)
    return calls


def test_sections_sharing_a_polynomial_and_names_write_them_once(monkeypatch, w6):
    problem = make_maxcut(w6)
    result = run_pipeline(problem)
    assert result.pubo.objective is problem.objective
    names = problem.variables
    assert result.pubo.variables is names and result.hypergraph.vertices is names
    assert result.schedule.variables is names
    sections = {
        "problem": problem_to_json(problem), "pubo": pubo_to_json(result.pubo),
        "hypergraph": hypergraph_to_json(result.hypergraph),
        "schedule": schedule_to_json(result.schedule),
    }
    tables, values = _count_calls(monkeypatch, "_rows"), _count_calls(monkeypatch, "_encode")
    text = dumps(sections)
    assert text == json.dumps(_plain(sections), indent=2, sort_keys=True) + "\n"
    assert sum(table.source is problem.objective for table in tables) == 1
    assert sum(value is names for value in values) == 1


def _gate_term_lookups(monkeypatch) -> list[bool]:
    """For each gate-terms table ``dumps`` writes from now on, whether it kept every term's text."""
    found = []
    texts = io_module._texts

    def watched(items, newline, memo):
        if type(items) is _Terms:
            found.append(all(map(memo.get, items)))
        return texts(items, newline, memo)

    monkeypatch.setattr(io_module, "_texts", watched)
    return found


def test_gate_terms_write_the_bytes_of_one_dict_per_term(monkeypatch, w6):
    # dumps writes a schedule's gate terms from the record texts it kept of
    # the problem and penalty objectives, re-indented, when it kept every
    # one, and column by column otherwise; both give the bytes of a dict per
    # gate and per term.  Rational coefficients make multi-line records.
    rng = random.Random(39)
    problems = [make_maxcut(w6), make_maxcut(random_graph(rng, 12, 0.4))]
    problems += [problem_from_json(_general_problem_json(rng)) for _ in range(3)]
    runs = [(run_pipeline(problem, gate_width=3, p=1 + i % 2), True) for i, problem in enumerate(problems)]
    runs += [(run_pipeline(problem, gate_width=4, method="merge-exact", p=2), True) for problem in problems]
    # A reference expansion is written with the constraints, before the
    # objectives and deeper, as part of its run's one terms table: it has no
    # source, so it keeps no texts and the objectives' terms are kept.
    general = problems[-1]
    for expansion, hit in ((Polynomial.variable("x1"), True), (dualize(general).objective, True)):
        constraints = (general.constraints[0]._replace(reference_expansion=expansion), *general.constraints[1:])
        runs.append((run_pipeline(replace(general, constraints=constraints), gate_width=3), hit))
    found = _gate_term_lookups(monkeypatch)
    rational = 0
    for result, hit in runs:
        sched = result.schedule
        cost = [i for i, layer in enumerate(sched.layers) if layer.kind == "cost"][0]
        gate = sched.layers[cost].gates[0]
        (support, coeff), *rest = gate.monomials
        perturbed = replace(sched, layers=tuple(
            replace(layer, gates=(gate._replace(monomials=((support, coeff + Fraction(1, 997)), *rest)),
                                  *layer.gates[1:])) if i == cost else layer
            for i, layer in enumerate(sched.layers)))
        for schedule_, hits in ((sched, [hit]), (perturbed, [False])):
            sections = {"problem": problem_to_json(result.problem), "pubo": pubo_to_json(result.pubo)}
            reference = dict(sections, schedule=schedule_to_json_reference(schedule_))
            sections["schedule"] = schedule_to_json(schedule_)
            found.clear()
            assert dumps(sections) == dumps(reference)
            assert found == hits
            alone = {"schedule": schedule_to_json(schedule_)}
            assert dumps(alone) == dumps({"schedule": schedule_to_json_reference(schedule_)})
            assert found == hits + [False]
            assert dumps(schedule_to_json(schedule_)) == dumps(schedule_to_json_reference(schedule_))
        rational += any(type(c) is Fraction for gate in sched.layers[cost].gates for _, c in gate.monomials)
    assert rational >= 3


def test_one_object_at_two_indentations_is_written_at_each(monkeypatch):
    x = Polynomial({("a", "b"): Fraction(1, 2), ("b",): -3})
    names = ("a", "b")
    value = {"p": polynomial_to_json(x), "q": {"p": polynomial_to_json(x), "r": names},
             "r": names, "s": [names, 1]}
    tables, values = _count_calls(monkeypatch, "_rows"), _count_calls(monkeypatch, "_encode")
    assert dumps(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"
    assert [t.source is x for t in tables] == [True, True]  # at "p" and at "q.p"
    assert sum(v is names for v in values) == 3  # at "q.r", "r" and, in a list, "s[0]"


def test_equal_but_distinct_polynomials_are_each_written(monkeypatch):
    x = Polynomial({("a", "b"): Fraction(1, 2), ("b",): -3})
    y = Polynomial(dict(x.terms()))
    assert x == y and x is not y
    value = {"p": polynomial_to_json(x), "q": polynomial_to_json(y),
             "r": ("a", "b"), "s": tuple(["a", "b"])}
    tables, values = _count_calls(monkeypatch, "_rows"), _count_calls(monkeypatch, "_encode")
    assert dumps(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"
    assert [t.source is x for t in tables] == [True, False]
    assert [t.source is y for t in tables] == [False, True]
    assert sum(v == ("a", "b") for v in values) == 2


def test_family_info_with_a_non_str_key_is_rejected_on_write(tmp_path):
    problem = Problem("min", Polynomial.variable("a"), (), ("a",), family_info={1: "x"})
    with pytest.raises(TypeError):
        dumps(problem_to_json(problem))
    path = tmp_path / "problem.json"
    path.write_text("{}\n")
    with pytest.raises(TypeError):
        write_problem(problem, str(path))
    assert path.read_text() == "{}\n"


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_is_a_fixed_point_of_dumps(path):
    text = path.read_text(encoding="utf-8")
    assert dumps(json.loads(text)) == text


@pytest.mark.parametrize(
    "value",
    [
        1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "x"}, {"a": {True: 1}}, {None: 1}, b"x",
        {"a": 1, "b": 0.5}, [1, "x", 2.5],
        [{"a": 1}, {"a": 0.5}], [[1], [2.5]], [[], [0.5]], [{1: 2}, {1: 3}],
        [{"a": [1.5]}, {"a": [2]}],
        _Table({"a": [0.5]}), [_Table({"a": [1]}), _Table({"a": ([1], [2.5])})],
    ],
)
def test_dumps_rejects_values_json_cannot_hold_exactly(value):
    with pytest.raises(TypeError):
        dumps(value)


def _graph_1000(tmp_path) -> Path:
    """A DIMACS file of a random graph with 1000 vertices and 1500 edges."""
    rng = random.Random(1000)
    edges = set()
    while len(edges) < 1500:
        u, v = sorted(rng.sample(range(1, 1001), 2))
        edges.add((u, v))
    graph = tmp_path / "g1000.dimacs"
    graph.write_text("p edge 1000 1500\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges)))
    return graph


def test_write_problem_refuses_a_family_info_too_deep_to_write(tmp_path):
    info = []
    for _ in range(2000):
        info = [info]
    problem = Problem("min", Polynomial.variable("a"), (), ("a",), family_info={"x": info})
    path = tmp_path / "problem.json"
    with pytest.raises(InvalidInputError, match="nested too deeply to write"):
        write_problem(problem, str(path))
    assert not path.exists()


def test_dumps_peak_memory_stays_near_the_text_length(tmp_path):
    # A list's items stay lazy iterators until the list joins them once, with
    # its brackets folded into the first and last item, so the peak is about
    # twice the text (2.00x here).  Materialized columns, or brackets added
    # around a join, copy the text again and raise the process's peak RSS.
    graph = _graph_1000(tmp_path)
    out = tmp_path / "artifact.json"
    argv = ["analyze", "--family", "maxcut", "--graph", str(graph), "--out", str(out)]
    assert cli_main(argv) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    tracemalloc.start()
    try:
        text = dumps(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == out.read_text(encoding="utf-8")
    assert peak <= 2.5 * len(text)


def test_built_sections_are_small_beside_the_text(tmp_path):
    # The builders hand dumps tables whose columns are read from the model,
    # not a dict per term, edge and gate: the sections hold 0.14x the text
    # here (1.68x with a dict per record), and the peak of building and
    # writing them is 2.64x (4.18x).
    result = run_pipeline(make_maxcut(read_dimacs_graph(str(_graph_1000(tmp_path)))))
    builders = {
        "problem": (problem_to_json, result.problem), "pubo": (pubo_to_json, result.pubo),
        "hypergraph": (hypergraph_to_json, result.hypergraph),
        "coloring": (coloring_to_json, result.coloring),
        "depth": (depth_report_to_json, result.report),
        "schedule": (schedule_to_json, result.schedule),
    }
    tracemalloc.start()
    try:
        sections = {name: build_section(model) for name, (build_section, model) in builders.items()}
        built = tracemalloc.get_traced_memory()[0]
        text = dumps(sections)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 0.25 * len(text)
    assert peak < 3 * len(text)


def _random_coeff(rng):
    """A nonzero int or, half the time, a non-integral rational."""
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return num if rng.random() < 0.5 else {"num": 2 * num + 1, "den": rng.choice([2, 4])}


def _general_problem_json(rng) -> dict:
    """Six variables, rational data, one redundant constraint (dropped) and two kept."""
    names = [f"x{i}" for i in range(1, 7)]
    objective = [
        {"vars": sorted(rng.sample(names, rng.randint(1, 3))), "coeff": _random_coeff(rng)}
        for _ in range(8)
    ]
    pairs = [sorted(rng.sample(names, 2)) for _ in range(3)]
    constraints = [
        {"terms": [{"vars": pair, "coeff": 1} for pair in pairs], "rhs": 3, "label": "loose"},
        {"terms": [{"vars": [name], "coeff": {"num": 3, "den": 2}} for name in names[:3]],
         "rhs": 2, "label": "tight"},
        {"terms": [{"vars": pairs[0], "coeff": 2}, {"vars": [names[5]], "coeff": 1}],
         "rhs": 2, "lower": 1},
    ]
    return {"sense": "max", "variables": names, "objective": objective, "constraints": constraints}


def test_every_json_subcommand_writes_canonical_text(tmp_path):
    # Real artifacts hold every shape the encoder takes apart: coefficient
    # columns mixing ints and {"num", "den"}, dualization records whose key
    # sets differ (dropped or kept), mixer gates without terms, knapsack
    # slack bits and merged gates.
    rng = random.Random(2008)
    general = tmp_path / "general.json"
    general.write_text(json.dumps(_general_problem_json(rng)), encoding="utf-8")
    clauses = [[rng.choice([1, -1]) * v for v in rng.sample(range(1, 6), 3)] for _ in range(3)]
    sat = tmp_path / "sat.json"
    write_problem(make_sat(clauses), str(sat))
    edges = sorted({tuple(sorted(rng.sample(range(1, 9), 2))) for _ in range(12)})
    graph = tmp_path / "g.dimacs"
    graph.write_text(f"p edge 8 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    sources = {
        "general": ["--problem", str(general), "--gate-width", "3"],
        "sat": ["--problem", str(sat)],
        "maxindset": ["--family", "maxindset", "--graph", str(graph)],
        "knapsack": ["--family", "knapsack", "--values", "3,1/2,4,2", "--weights", "1,2,3,4",
                     "--capacity", "6", "--preprocess"],
    }
    flag_sets = [[], ["--iterations", "3"], ["--method", "merge-exact", "--gate-width", "4"]]
    seen_dropped = set()
    for name, source in sources.items():
        for command in ("dualize", "graph", "color", "schedule", "analyze", "verify"):
            for flags in flag_sets:
                out = tmp_path / f"{name}-{command}-{len(flags)}.json"
                assert cli_main([command, *source, *flags, "--out", str(out)]) == 0
                text = out.read_text(encoding="utf-8")
                data = json.loads(text)
                assert text == dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"
                for record in data.get("pubo", {}).get("dualization", []):
                    seen_dropped.add(record["dropped"])
    assert seen_dropped == {True, False} and {type(v) for v in seen_dropped} == {bool}
    analyze = json.loads((tmp_path / "general-analyze-0.json").read_text(encoding="utf-8"))
    coeffs = [term["coeff"] for term in analyze["problem"]["objective"]]
    assert {type(c) for c in coeffs} == {int, dict}


def _random_record_problem(rng) -> Problem:
    """A problem whose constraints take every optional key, some dropped, some rational."""
    names = ("x1", "x2", "x3", "x4")
    constraints = []
    for _ in range(rng.randint(0, 7)):
        lhs = random_polynomial(rng, names, max_terms=4, max_width=2)
        if rng.random() < 0.4:
            lhs = lhs * Fraction(rng.randint(1, 5), rng.randint(2, 4))
        low, high = lhs.minimum_over_cube()[0], lhs.maximum_over_cube()[0]
        gap = Fraction(rng.randint(0, 4), rng.choice((1, 2)))
        options = {}
        if rng.random() < 0.3:  # two-sided: lower within reach of the maximum
            options["lower"] = high - gap
            rhs = options["lower"] + Fraction(rng.randint(1, 4), rng.choice((1, 3)))
            rhs = max(rhs, low)
        elif rng.random() < 0.3:  # dropped: lhs never exceeds rhs
            rhs = high + gap
        else:
            rhs = low + gap
        if rng.random() < 0.4:
            options["weight"] = rng.choice((1, 3, Fraction(7, 2)))
        if rng.random() < 0.3:
            options["slack_bound"] = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        if rng.random() < 0.5:
            options["label"] = rng.choice(("cap", "edge(1,2)", 'q"'))
        if rng.random() < 0.3:
            options["reference_expansion"] = random_polynomial(rng, names, max_terms=3)
        constraints.append(Constraint(lhs=lhs, rhs=rhs, **options))
    return Problem(rng.choice(("min", "max")), random_polynomial(rng, names), tuple(constraints), names)


def test_records_read_by_column_match_one_dict_per_record():
    rng = random.Random(61)
    shapes, alternating = set(), 0
    for draw in range(300):
        problem = _random_record_problem(rng)
        assert dumps(problem_to_json(problem)) == dumps(problem_to_json_reference(problem))
        pubo = dualize(problem)
        records = list(pubo.dualizations)
        if draw % 3 == 0:  # shapes dualize never makes: a dropped record with notes, no cube_min
            records = [
                r._replace(notes=("by hand",)) if r.dropped and rng.random() < 0.5
                else r._replace(cube_min=None) if rng.random() < 0.2 else r
                for r in records
            ]
            pubo = replace(pubo, dualizations=tuple(records))
        reference = pubo_to_json_reference(pubo)
        assert dumps(pubo_to_json(pubo)) == dumps(reference)
        record_shapes = [table.keys for table in reference["dualization"]]
        shapes.update(record_shapes)
        alternating += len(record_shapes) > len(set(record_shapes))
        for table in problem_to_json_reference(problem)["constraints"]:
            shapes.add(table.keys)
    keys = set().union(*shapes)
    assert keys >= {"lambda", "lower", "slack_bound", "label", "reference_expansion",
                    "reason", "notes", "expansion_diff", "cube_min", "penalty"}
    assert any("reason" in keys and "notes" in keys for keys in shapes)
    assert any("penalty" in keys and "notes" not in keys for keys in shapes)
    assert any("penalty" in keys and "cube_min" not in keys for keys in shapes)
    assert alternating >= 20
