import itertools
import random
import warnings
from fractions import Fraction

import pytest

from qaoadepth import (
    Constraint,
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    Problem,
    dualize,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    with_penalty_weight,
)

from bruteforce import (
    constrained_argmin,
    cut_size,
    independent_sets,
    is_canonical,
    make_tsp_scan,
    maxcut_objective_reference,
    min_objective,
    pubo_argmin_reference,
    random_graph,
)

W6_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))


# -- instance graphs ----------------------------------------------------------


def test_instance_graph_rejects_loops_duplicates_and_range():
    with pytest.raises(InvalidInputError):
        InstanceGraph(3, ((1, 1),))
    with pytest.raises(InvalidInputError):
        InstanceGraph(3, ((1, 2), (2, 1)))
    with pytest.raises(InvalidInputError):
        InstanceGraph(3, ((1, 4),))


def test_instance_graph_normalizes_edges():
    g = InstanceGraph(3, ((3, 1), (2, 3)))
    assert g.edges == ((1, 3), (2, 3))
    assert g.max_degree() == 2


# -- maxcut -------------------------------------------------------------------


def test_maxcut_w6_objective_matches_published_sixteen_terms():
    problem = make_maxcut(InstanceGraph(6, W6_EDGES))
    expected = Polynomial.from_terms(
        [(("x%d" % u, "x%d" % v), 2) for u, v in W6_EDGES]
        + [(("x1",), -5)]
        + [((f"x{i}",), -3) for i in (2, 3, 4, 5, 6)]
    )
    assert problem.objective == expected
    assert problem.objective.num_terms() == 16
    assert problem.sense == "min"
    assert problem.constraints == ()


def test_maxcut_single_edge():
    problem = make_maxcut(InstanceGraph(2, ((1, 2),)))
    assert problem.objective == Polynomial({("x1", "x2"): 2, ("x1",): -1, ("x2",): -1})


def test_maxcut_empty_graph():
    problem = make_maxcut(InstanceGraph(4, ()))
    assert problem.objective.is_zero()
    assert len(problem.variables) == 4


def test_maxcut_objective_counts_cuts():
    rng = random.Random(23)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        problem = make_maxcut(g)
        names = [f"x{i}" for i in range(1, g.n + 1)]
        for bits in itertools.product((0, 1), repeat=g.n):
            value = problem.objective.evaluate(dict(zip(names, bits)))
            assert value == -cut_size(g.edges, bits)


def test_maxcut_weighted_edges():
    g = InstanceGraph(2, ((1, 2),), weights=(Fraction(3),))
    problem = make_maxcut(g)
    assert problem.objective == Polynomial({("x1", "x2"): 6, ("x1",): -3, ("x2",): -3})


def test_maxcut_matches_the_term_by_term_reference():
    rng = random.Random(29)
    weight_pool = (1, -1, 0, Fraction(3, 4), Fraction(-5, 2), 7)
    graphs = [
        # vertex 2: +1 and -1 cancel; vertex 4 is isolated; the 0 edge leaves no term
        InstanceGraph(5, ((1, 2), (2, 3), (3, 5)), weights=(1, -1, 0)),
        InstanceGraph(12, ((9, 10), (10, 11), (2, 12))),
    ]
    for trial in range(60):
        g = random_graph(rng, rng.randint(1, 16), rng.choice((0.1, 0.3, 0.6)))
        if trial % 2:
            weights = tuple(rng.choice(weight_pool) for _ in g.edges)
            g = InstanceGraph(g.n, g.edges, weights=weights)
        graphs.append(g)
    for g in graphs:
        objective = make_maxcut(g).objective
        reference = maxcut_objective_reference(g)
        assert list(objective.terms()) == list(reference.terms())
        assert all(is_canonical(c) and c for _, c in objective.terms())
    # lexical order: x10 sorts before x9, in supports and between terms
    assert make_maxcut(graphs[1]).objective.supports() == (
        ("x10",), ("x10", "x11"), ("x10", "x9"), ("x11",),
        ("x12",), ("x12", "x2"), ("x2",), ("x9",),
    )
    assert ("x2",) not in make_maxcut(graphs[0]).objective.supports()
    assert ("x4",) not in make_maxcut(graphs[0]).objective.supports()
    assert len(make_maxcut(graphs[0]).variables) == 5


# -- maxindset ----------------------------------------------------------------


def test_maxindset_single_vertex():
    problem = make_maxindset(InstanceGraph(1, ()))
    assert problem.sense == "max"
    assert problem.objective == Polynomial.variable("x1")
    assert problem.constraints == ()


def test_maxindset_triangle_has_three_pairwise_constraints():
    problem = with_penalty_weight(make_maxindset(InstanceGraph(3, ((1, 2), (1, 3), (2, 3)))), 2)
    assert len(problem.constraints) == 3
    for con in problem.constraints:
        assert con.rhs == 0
        assert con.lhs.degree() == 2
        assert con.weight == 2


def test_maxindset_pubo_minimum_is_max_independent_set():
    rng = random.Random(29)
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        problem = with_penalty_weight(make_maxindset(g), 2)
        pubo = dualize(problem)
        sets = independent_sets(g.n, g.edges)
        alpha = max(sum(bits) for bits in sets)
        names = [f"x{i}" for i in range(1, g.n + 1)]
        best = min(
            pubo.objective.evaluate(dict(zip(names, bits)))
            for bits in itertools.product((0, 1), repeat=g.n)
        )
        assert best == -alpha
        for bits in itertools.product((0, 1), repeat=g.n):
            value = pubo.objective.evaluate(dict(zip(names, bits)))
            if value == best:
                assert bits in sets and sum(bits) == alpha


# -- vertex cover -------------------------------------------------------------


def test_vertex_cover_single_edge_constraint_form():
    problem = with_penalty_weight(make_vertex_cover(InstanceGraph(2, ((1, 2),))), 3)
    con = problem.constraints[0]
    assert con.lhs == Polynomial({(): 2, ("x1",): -1, ("x2",): -1})
    assert con.rhs == 1
    # slack range is 1: the constraint value spans 2 - 0 - 0 = 2 down to 0
    assert con.lhs.minimum_over_cube() == (Fraction(0), True)


def test_vertex_cover_path_and_wheel_constraint_counts():
    assert len(make_vertex_cover(InstanceGraph(3, ((1, 2), (2, 3)))).constraints) == 2
    assert len(make_vertex_cover(InstanceGraph(6, W6_EDGES)).constraints) == 10


# -- knapsack -----------------------------------------------------------------


def test_knapsack_capacity_constraint_plain():
    problem = make_knapsack((1, 2, 3), (1, 2, 3), 4)
    assert len(problem.constraints) == 1
    con = problem.constraints[0]
    assert con.lower is None and con.slack_bound is None
    assert con.rhs == 4


def test_knapsack_preprocess_declares_two_sided_range():
    problem = make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True)
    con = problem.constraints[0]
    assert con.lower == 1  # capacity - heaviest item
    assert con.slack_bound == 3
    assert problem.family_info["preprocess"] is True


def test_knapsack_redundant_capacity_dropped_with_warning():
    with pytest.warns(UserWarning, match="redundant"):
        problem = make_knapsack((1, 1), (1, 1), 10)
    assert problem.constraints == ()


def test_knapsack_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        make_knapsack((1,), (0,), 4)
    with pytest.raises(InvalidInputError):
        make_knapsack((1, 2), (1,), 4)
    with pytest.raises(InvalidInputError, match="at least one item"):
        make_knapsack((), (), 4)
    with pytest.raises(InvalidInputError):
        make_knapsack((1, 2), (3, 1), 4, preprocess=True)  # weights not ascending
    with pytest.raises(InvalidInputError):
        make_knapsack((0, 1), (1, 2), 2, preprocess=True)  # nonpositive value


# -- tsp ----------------------------------------------------------------------


def _triangle() -> InstanceGraph:
    return InstanceGraph(3, ((1, 2), (1, 3), (2, 3)), weights=(1, 2, 3))


def test_tsp_triangle_degree_equalities_expand_to_pairs():
    problem = make_tsp(_triangle())
    assert len(problem.constraints) == 6  # one <= pair per vertex
    labels = [con.label for con in problem.constraints]
    for vertex in (1, 2, 3):
        assert f"degree({vertex})<=" in labels
        assert f"degree({vertex})>=" in labels
    assert problem.objective == Polynomial(
        {("e1_2",): 1, ("e1_3",): 2, ("e2_3",): 3}
    )


def test_tsp_vacuous_subtour_sets_dropped_with_warning():
    with pytest.warns(UserWarning, match="never bind"):
        problem = make_tsp(_triangle(), subtour_subsets=[(1, 2)])
    assert problem.family_info["n_subtour"] == 0


def test_tsp_rejects_bad_subtour_sets():
    with pytest.raises(InvalidInputError):
        make_tsp(_triangle(), subtour_subsets=[(1,)])
    with pytest.raises(InvalidInputError):
        make_tsp(_triangle(), subtour_subsets=[(1, 2, 3)])
    with pytest.raises(InvalidInputError):
        make_tsp(InstanceGraph(3, ((1, 2), (2, 3), (1, 3))))  # unweighted


def test_tsp_constraints_match_the_per_vertex_and_per_set_edge_scans():
    # make_tsp lists each vertex's edges in one pass over the edges; the
    # reference scans every edge for every vertex and every subtour set.
    # Isolated vertices and kept and dropped subtour sets are among the draws.
    rng = random.Random(101)
    isolated = kept = dropped = 0
    for trial in range(40):
        g = random_graph(rng, rng.randint(3, 12), rng.choice((0.2, 0.5, 0.9)))
        g = InstanceGraph(g.n, g.edges, weights=tuple(rng.randint(1, 9) for _ in g.edges))
        subsets = [rng.sample(range(1, g.n + 1), rng.randint(2, g.n - 1)) for _ in range(trial % 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem, reference = make_tsp(g, subsets), make_tsp_scan(g, subsets)
        assert problem == reference
        isolated += len({v for e in g.edges for v in e}) < g.n
        kept += problem.family_info["n_subtour"]
        dropped += len(subsets) - problem.family_info["n_subtour"]
    assert isolated and kept and dropped


def test_tsp_k4_subtour_constraint_kept_when_binding():
    g = InstanceGraph(
        4,
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        weights=(1, 1, 1, 1, 1, 1),
    )
    problem = make_tsp(g, subtour_subsets=[(1, 2, 3)])
    assert problem.family_info["n_subtour"] == 1
    subtour = [c for c in problem.constraints if c.label.startswith("subtour")][0]
    assert subtour.rhs == 2
    assert subtour.lhs == Polynomial({("e1_2",): 1, ("e1_3",): 1, ("e2_3",): 1})


# -- sat ----------------------------------------------------------------------


def test_sat_three_literal_clause_contrapositive_form():
    problem = make_sat([(1, 2, -3)])
    con = problem.constraints[0]
    assert con.lhs == Polynomial(
        {(): 2, ("x1",): -1, ("x2",): -1, ("x3",): 1, ("z1",): -1}
    )
    assert con.rhs == 2
    assert problem.objective == Polynomial.variable("z1")


def test_sat_unit_clause():
    problem = make_sat([(1,)])
    con = problem.constraints[0]
    assert con.lhs == Polynomial({(): 1, ("x1",): -1, ("z1",): -1})
    assert con.rhs == 0


def test_sat_rejects_degenerate_clauses():
    with pytest.raises(InvalidInputError):
        make_sat([])
    with pytest.raises(InvalidInputError):
        make_sat([()])
    with pytest.raises(InvalidInputError):
        make_sat([(1, 0)])
    with pytest.raises(InvalidInputError):
        make_sat([(1, -1)])


# -- problem plumbing ---------------------------------------------------------


def test_problem_rejects_unregistered_variables():
    with pytest.raises(InvalidInputError, match="unregistered"):
        Problem(sense="min", objective=Polynomial.variable("x1"), variables=())


def test_problem_rejects_duplicate_variable_names():
    with pytest.raises(InvalidInputError, match=r"unique.*x1"):
        Problem(sense="min", objective=Polynomial.variable("x1"), variables=("x1", "x1"))


def test_repeated_names_are_found_in_one_counting_pass():
    # 10^5 names with one repeat: counting each name by a scan of all of them
    # makes about 10^10 comparisons, minutes before the error is raised.
    comparisons = 0

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            nonlocal comparisons
            comparisons += 1
            assert comparisons <= 1000, "repeated names are found by a quadratic scan"
            return str.__eq__(self, other)

    n = 10**5
    names = [Name(f"x{i}") for i in range(n)] + [Name("x7")]
    with pytest.raises(InvalidInputError, match=r"unique, repeated: \['x7'\]$"):
        Problem(sense="min", objective=Polynomial.variable("x1"), variables=names)
    names.insert(0, Name("x99999"))
    with pytest.raises(InvalidInputError, match=r"repeated: \['x7', 'x99999'\]$"):
        Problem(sense="min", objective=Polynomial.variable("x1"), variables=names)


def test_max_problems_are_minimized_negated():
    problem = make_maxindset(InstanceGraph(2, ()))
    assert problem.sense == "max"
    assert min_objective(problem) == -problem.objective
    pubo = dualize(problem)
    assert pubo.objective == min_objective(problem)
    assert pubo.original_sense == "max"


def test_default_penalty_weight_ignores_the_sense():
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    variables = ("x1", "x2")
    for objective in (3 * x1 - x2, x1 + x2, -2 * x1 - x2):
        weights = {
            Problem(sense=sense, objective=objective, variables=variables).default_penalty_weight()
            for sense in ("min", "max")
        }
        negated = Problem(sense="min", objective=-objective, variables=variables)
        assert weights == {negated.default_penalty_weight()}


def test_default_penalty_weight_dominates_objective_range():
    problem = make_maxindset(InstanceGraph(4, ()))
    assert problem.default_penalty_weight() == 5  # 1 + |{-x1-x2-x3-x4}| bound


def test_default_penalty_weight_leaves_out_the_constant():
    # A constant shifts every assignment alike, so it does not widen the range
    # a violated constraint has to outweigh.
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    for constant in (0, 10, -10, Fraction(7, 2)):
        problem = Problem("min", constant + x1 - x2, (), ("x1", "x2"))
        assert problem.default_penalty_weight() == 3
        # x1 = x2 = 1 is infeasible; the penalty form must still price it out.
        constrained = Problem(
            "min", constant - x1 - x2, (Constraint(lhs=x1 + x2, rhs=1),), ("x1", "x2")
        )
        assert constrained.default_penalty_weight() == 3
        assert pubo_argmin_reference(dualize(constrained)) == constrained_argmin(constrained)


def test_constraint_validation():
    with pytest.raises(InvalidInputError):
        Constraint(lhs=Polynomial.variable("x1"), rhs=Fraction(1), weight=Fraction(-1))
    with pytest.raises(InvalidInputError):
        Constraint(lhs=Polynomial.variable("x1"), rhs=Fraction(1), lower=Fraction(2))


@pytest.mark.parametrize("value", [0.1, 0.5, True, "1/3"], ids=["float", "binary-float", "bool", "str"])
def test_constructors_reject_inexact_numbers(value):
    # Polynomial coefficients, constraint data, edge weights and knapsack
    # data follow one rule: an int or a Fraction, nothing else.
    x1 = Polynomial.variable("x1")
    for field in ("rhs", "weight", "lower", "slack_bound"):
        fields = {"rhs": 3, field: value}
        with pytest.raises(TypeError, match="int or Fraction"):
            Constraint(lhs=x1, **fields)
    with pytest.raises(TypeError, match="int or Fraction"):
        InstanceGraph(2, ((1, 2),), weights=(value,))
    for values, weights, capacity in (([value], [1], 1), ([1], [value], 1), ([1], [2], value)):
        with pytest.raises(TypeError, match="int or Fraction"):
            make_knapsack(values, weights, capacity)
    for make in (make_maxindset, make_maxcut):  # with and without constraints
        with pytest.raises(TypeError, match="int or Fraction"):
            with_penalty_weight(make(InstanceGraph(2, ((1, 2),))), value)


def test_constructors_keep_exact_numbers_canonical():
    con = Constraint(lhs=Polynomial.variable("x1"), rhs=Fraction(4, 2), lower=Fraction(1, 3))
    assert (con.rhs, con.lower) == (2, Fraction(1, 3))
    assert is_canonical(con.rhs) and is_canonical(con.lower)
    assert InstanceGraph(2, ((1, 2),), weights=(Fraction(6, 3),)).weights == (2,)
