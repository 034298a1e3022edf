import importlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qaoadepth import (
    Constraint,
    InfeasibleConstraintError,
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    Problem,
    Pubo,
    dualize,
    expansion_diff,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_vertex_cover,
    verify_penalty,
    with_penalty_weight,
)

from qaoadepth.dualize import _slack_coefficients
from qaoadepth.poly import pack_cube

from bruteforce import (
    assignments,
    constrained_argmin,
    evaluate_terms,
    is_canonical,
    penalty_fold,
    pubo_argmin_reference,
    random_graph,
    random_polynomial,
    verify_penalty_reference,
)

W6_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))

# The squared penalty of the quadratic-budget example, expanded by hand and
# confirmed below against direct evaluation over all 32 assignments.
GENERAL_SQUARE = Polynomial(
    {
        ("x1", "x2"): -5,
        ("x2", "x3"): -5,
        ("x1", "x3"): -8,
        ("x1", "x2", "x3"): 10,
        ("s1_1", "x1", "x2"): 2,
        ("s1_1", "x2", "x3"): 2,
        ("s1_1", "x1", "x3"): 4,
        ("s1_2", "x1", "x2"): 4,
        ("s1_2", "x2", "x3"): 4,
        ("s1_2", "x1", "x3"): 8,
        ("s1_1", "s1_2"): 4,
        ("s1_1",): -5,
        ("s1_2",): -8,
        (): 9,
    }
)

# The same expansion as printed in the external reference derivation, which
# uses the opposite slack sign, drops one cross term and flips one linear sign.
REFERENCE_EXPANSION = Polynomial(
    {
        ("x1", "x2"): -5,
        ("x1", "x2", "x3"): 10,
        ("x2", "x3"): -5,
        ("x1", "x3"): -8,
        ("s1_1", "x1", "x2"): -2,
        ("s1_1", "x2", "x3"): -2,
        ("s1_1", "x1", "x3"): -4,
        ("s1_2", "x1", "x2"): -4,
        ("s1_2", "x2", "x3"): -4,
        ("s1_1",): -7,
        ("s1_2",): 16,
        ("s1_1", "s1_2"): 4,
        (): 9,
    }
)


def test_maxindset_constraints_need_no_slack_bits(w6):
    pubo = dualize(with_penalty_weight(make_maxindset(w6), 2))
    assert all(rec.slack_range == 0 and rec.bit_count == 0 for rec in pubo.dualizations)
    assert pubo.slack_names() == ()
    # min form: -sum(x) + lambda * sum over edges of x_i x_j
    expected = Polynomial.from_terms(
        [((f"x{i}",), -1) for i in range(1, 7)]
        + [((f"x{u}", f"x{v}"), 2) for u, v in W6_EDGES]
    )
    assert pubo.objective == expected


def test_general_example_slack_accounting(general_problem):
    pubo = dualize(general_problem)
    record = pubo.dualizations[0]
    assert record.slack_range == 3
    assert record.bit_count == 2
    assert record.slack_vars == ("s1_1", "s1_2")
    # slack bits carry coefficients 1 and 2: the square has -2*b*coeff linear
    # contribution plus coeff^2, i.e. 1 - 6 = -5 and 4 - 12 = -8
    assert record.square == GENERAL_SQUARE


def test_general_square_confirmed_by_direct_evaluation(general_problem):
    lhs = general_problem.constraints[0].lhs
    slack = Polynomial({("s1_1",): 1, ("s1_2",): 2})
    names = ("s1_1", "s1_2", "x1", "x2", "x3")
    for assignment in assignments(names):
        direct = (
            evaluate_terms(lhs, assignment) + evaluate_terms(slack, assignment) - 3
        ) ** 2
        assert GENERAL_SQUARE.evaluate(assignment) == direct


def test_reference_expansion_slips_are_flagged(general_problem):
    """The reference derivation (minus-sign slack convention) drops the
    8*s1_2*x1*x3 cross term and flips the sign of the 7*s1_1 term; squaring
    its own convention independently must expose exactly those two slips."""
    lhs = general_problem.constraints[0].lhs
    minus_square = (lhs - Polynomial({("s1_1",): 1, ("s1_2",): 2}) - 3).square()
    diff = expansion_diff(minus_square, REFERENCE_EXPANSION)
    assert diff.missing_in_reference == ((("s1_2", "x1", "x3"), Fraction(-8)),)
    assert diff.unexpected_in_reference == ()
    assert diff.coefficient_mismatches == (
        (("s1_1",), Fraction(7), Fraction(-7)),
    )


def test_dualizer_reports_reference_divergence(general_problem):
    con = general_problem.constraints[0]
    tagged = Problem(
        sense=general_problem.sense,
        objective=general_problem.objective,
        constraints=(
            Constraint(
                lhs=con.lhs,
                rhs=con.rhs,
                label=con.label,
                reference_expansion=REFERENCE_EXPANSION,
            ),
        ),
        variables=general_problem.variables,
    )
    record = dualize(tagged).dualizations[0]
    assert record.expansion_diff is not None
    assert record.expansion_diff.has_differences
    missing = {support for support, _ in record.expansion_diff.missing_in_reference}
    assert ("s1_2", "x1", "x3") in missing


def test_vertex_cover_edge_penalty_vanishes_exactly_on_covers():
    problem = with_penalty_weight(make_vertex_cover(InstanceGraph(2, ((1, 2),))), 5)
    pubo = dualize(problem)
    record = pubo.dualizations[0]
    assert record.slack_range == 1 and record.bit_count == 1
    penalty = record.penalty
    for assignment in assignments(("s1_1", "x1", "x2")):
        value = penalty.evaluate(assignment)
        covered = assignment["x1"] or assignment["x2"]
        if covered:
            # some slack setting reaches zero; this one is zero or positive
            assert value >= 0
        else:
            assert value >= 5
    # zero is attainable exactly on covers
    for x1, x2 in itertools.product((0, 1), repeat=2):
        best = min(
            penalty.evaluate({"x1": x1, "x2": x2, "s1_1": s}) for s in (0, 1)
        )
        assert (best == 0) == bool(x1 or x2)


def test_slack_completeness_on_random_constraints():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 4)
        names = [f"x{i}" for i in range(1, n + 1)]
        lhs = Polynomial.from_terms(
            ((name,), rng.randint(-3, 3)) for name in names
        )
        low, _ = lhs.minimum_over_cube()
        rhs = low + rng.randint(0, 4)
        problem = Problem(
            sense="min",
            objective=Polynomial.zero(),
            constraints=(Constraint(lhs=lhs, rhs=Fraction(rhs), weight=Fraction(1)),),
            variables=tuple(names),
        )
        pubo = dualize(problem)
        record = pubo.dualizations[0]
        if record.dropped:
            continue
        slack_names = list(record.slack_vars)
        for bits in itertools.product((0, 1), repeat=n):
            assignment = dict(zip(names, bits))
            value = evaluate_terms(lhs, assignment)
            best = min(
                record.penalty.evaluate(
                    assignment | dict(zip(slack_names, slack_bits))
                )
                for slack_bits in itertools.product((0, 1), repeat=len(slack_names))
            )
            if value <= rhs:
                assert best == 0
            else:
                assert best >= 1  # integral violation costs at least the weight


def test_slack_coefficients_cover_every_integer_in_range():
    for span in range(0, 70):
        coefficients, _ = _slack_coefficients(Fraction(span))
        assert len(coefficients) == span.bit_length()
        reachable = {
            sum(c * b for c, b in zip(coefficients, combo))
            for combo in itertools.product((0, 1), repeat=len(coefficients))
        }
        assert reachable == set(range(span + 1))
        if (span + 1) & span == 0:
            assert coefficients == [2**j for j in range(len(coefficients))]


def random_constraint(rng, names):
    """A feasible linear or quadratic constraint, sometimes two-sided, rational or weighted."""
    kind = rng.choice(("linear", "rational", "quadratic"))
    if kind == "quadratic":
        lhs = random_polynomial(rng, names, max_terms=5, max_width=2)
    else:
        den = 1 if kind == "linear" else rng.randint(2, 4)
        lhs = Polynomial.from_terms(
            [((), Fraction(rng.randint(-3, 3), den))]
            + [((name,), Fraction(rng.randint(-4, 4), den)) for name in names]
        )
    low, _ = lhs.minimum_over_cube()
    high, _ = lhs.maximum_over_cube()
    rhs = low + (high - low) * Fraction(rng.randint(0, 4), 4)
    return Constraint(
        lhs=lhs,
        rhs=rhs,
        lower=rhs - rng.randint(1, 3) if rng.random() < 0.3 else None,
        weight=Fraction(rng.randint(1, 6), rng.randint(1, 3)) if rng.random() < 0.5 else None,
        slack_bound=rng.randint(0, 3) if rng.random() < 0.15 else None,
    )


def test_one_pass_objective_equals_the_per_constraint_fold():
    rng = random.Random(101)
    folded = 0
    for _ in range(200):
        names = [f"x{i}" for i in range(1, rng.randint(2, 6))]
        problem = Problem(
            sense=rng.choice(("min", "max")),
            objective=random_polynomial(rng, names, max_terms=5),
            constraints=tuple(random_constraint(rng, names) for _ in range(rng.randint(1, 4))),
            variables=tuple(names),
        )
        pubo = dualize(problem)
        reference = penalty_fold(problem, pubo)
        assert list(pubo.objective.terms()) == list(reference.terms())
        assert all(is_canonical(coeff) for _, coeff in pubo.objective.terms())
        folded += sum(not record.dropped for record in pubo.dualizations)
    assert folded >= 300


def test_wide_linear_constraint_gets_an_exact_cube_minimum(monkeypatch):
    def no_enumeration(self, order=None):
        raise AssertionError("values_over_cube called for a linear lhs")

    monkeypatch.setattr(Polynomial, "values_over_cube", no_enumeration)
    problem = make_knapsack(list(range(1, 26)), list(range(1, 26)), capacity=30)
    record = dualize(problem).dualizations[0]
    assert len(problem.constraints[0].lhs.variables()) == 25
    assert (record.cube_min, record.cube_min_exact) == (0, True)
    assert not any("interval bound" in note for note in record.notes)


def test_max_problems_are_flipped_without_building_a_problem(monkeypatch, w6):
    x1, x2, x3 = (Polynomial.variable(f"x{i}") for i in (1, 2, 3))
    problems = [
        with_penalty_weight(make_maxindset(w6), 2),
        make_knapsack((3, 4, 5), (2, 3, 4), capacity=5),
        Problem(
            sense="max",
            objective=3 * x1 - 2 * x2 + x3,
            constraints=(Constraint(lhs=x1 + x2 + x3, rhs=2, lower=1),),
            variables=("x1", "x2", "x3"),
        ),
    ]
    built = []
    post_init = Problem.__post_init__
    monkeypatch.setattr(Problem, "__post_init__", lambda self: built.append(self) or post_init(self))
    for problem in problems:
        pubo = dualize(problem)
        result = verify_penalty(pubo, problem)
        assert result.passed
        assert result.constrained_argmin == tuple(constrained_argmin(problem))
    assert built == []


def test_two_sided_constraints_skip_the_cube_maximum(monkeypatch):
    # A constraint pays for at most one enumeration: its maximum, which
    # decides whether a one-sided constraint is dropped and whether a
    # two-sided one is infeasible, is read off the minimum's table.
    x1, x2, x3 = (Polynomial.variable(f"x{i}") for i in (1, 2, 3))
    variables = ("x1", "x2", "x3")
    tables = []
    values_over_cube = Polynomial.values_over_cube

    def recording(self, order=None):
        tables.append(self)
        return values_over_cube(self, order)

    monkeypatch.setattr(Polynomial, "values_over_cube", recording)

    def problem(lower, rhs):
        lhs = 2 * x1 * x2 + x2 * x3 + x1 + x3  # overlapping supports, so enumerated
        constraint = Constraint(lhs=lhs, rhs=rhs, lower=lower, weight=8)
        return Problem(sense="min", objective=x1 - x2 - x3, constraints=(constraint,), variables=variables)

    # A one-sided constraint still reads the maximum: lhs <= 5 always holds.
    assert dualize(problem(None, 5)).dualizations[0].dropped
    assert len(tables) == 1
    for lower, rhs in ((1, 3), (0, 5), (2, 4)):
        tables.clear()
        pubo = dualize(problem(lower, rhs))
        assert len(tables) == 1
        record = pubo.dualizations[0]
        assert not record.dropped
        assert record.slack_range == rhs - lower
        assert verify_penalty(pubo, problem(lower, rhs)).passed


@pytest.mark.parametrize("make, wraps", [(make_maxindset, 0), (make_vertex_cover, 1)])
def test_each_kept_constraint_sorts_at_most_its_residual(monkeypatch, make, wraps):
    # A kept constraint's residual, lhs + slack - rhs, is sorted once when it
    # is not lhs itself; its square and penalty come out in order.  The one
    # other sort is the penalty form's.
    calls = []
    from_canonical = Polynomial._from_canonical.__func__

    def recording(cls, terms):
        calls.append(terms)
        return from_canonical(cls, terms)

    monkeypatch.setattr(Polynomial, "_from_canonical", classmethod(recording))
    problem = make(random_graph(random.Random(67), 12, 0.4))
    calls.clear()
    pubo = dualize(problem)
    kept = sum(not record.dropped for record in pubo.dualizations)
    assert kept == len(problem.constraints) > 10
    assert len(calls) == kept * wraps + 1


def test_dualize_is_deterministic(general_problem):
    first = dualize(general_problem)
    second = dualize(general_problem)
    assert first.objective == second.objective
    assert first.slack_names() == second.slack_names()
    assert [r.slack_vars for r in first.dualizations] == [
        r.slack_vars for r in second.dualizations
    ]


def test_slack_variables_are_constraint_private():
    problem = with_penalty_weight(make_vertex_cover(InstanceGraph(3, ((1, 2), (2, 3)))), 2)
    pubo = dualize(problem)
    seen: set[str] = set()
    for record in pubo.dualizations:
        own = set(record.slack_vars)
        assert not (own & seen)
        seen |= own
        for support, _ in record.penalty.terms():
            slack_in_term = set(support).intersection(pubo.slack_names())
            assert slack_in_term <= own


def test_infeasible_constraint_raises():
    problem = Problem(
        sense="min",
        objective=Polynomial.zero(),
        constraints=(
            Constraint(lhs=-Polynomial.variable("x1"), rhs=Fraction(-2)),
        ),
        variables=("x1",),
    )
    with pytest.raises(InfeasibleConstraintError):
        dualize(problem)


def test_a_two_sided_constraint_whose_interval_maximum_reaches_lower_is_accepted():
    # 21 variables: too many to enumerate, so the maximum is the interval
    # bound, here the sum of the 20 positive coefficients.
    names = tuple(f"x{i}" for i in range(1, 22))
    chain = Polynomial.from_terms(((a, b), 1) for a, b in zip(names, names[1:]))
    assert chain.maximum_over_cube() == (20, False)
    problem = Problem("min", Polynomial.variable("x1"), (Constraint(lhs=chain, rhs=21, lower=20),), names)
    (record,) = dualize(problem).dualizations
    assert not record.dropped and record.slack_range == 1
    beyond = replace(problem, constraints=(Constraint(lhs=chain, rhs=22, lower=21),))
    message = "max over the cube is at most 20, which is below the lower bound 21"
    with pytest.raises(InfeasibleConstraintError, match=message):
        dualize(beyond)


def test_redundant_constraint_dropped():
    problem = Problem(
        sense="min",
        objective=Polynomial.variable("x1"),
        constraints=(Constraint(lhs=Polynomial.variable("x1"), rhs=Fraction(5)),),
        variables=("x1",),
    )
    pubo = dualize(problem)
    assert pubo.dualizations[0].dropped
    assert pubo.objective == Polynomial.variable("x1")
    assert pubo.slack_names() == ()


def _no_penalty_problems(w6) -> list[Problem]:
    """Min problems no constraint adds a penalty to: none at all, or every one dropped."""
    x1, x2, x3 = (Polynomial.variable(f"x{i}") for i in (1, 2, 3))
    loose = (Constraint(lhs=x1 + x2, rhs=2), Constraint(lhs=x1 * x3, rhs=Fraction(3, 2)))
    return [
        make_maxcut(w6),
        Problem("min", 2 * x1 * x2 - x3 + 1, (), ("x1", "x2", "x3")),
        Problem("min", x1 - Fraction(1, 2) * x2 * x3, loose, ("x1", "x2", "x3")),
    ]


def test_a_penalty_free_min_problem_is_its_own_penalty_form(w6):
    for problem in _no_penalty_problems(w6):
        pubo = dualize(problem)
        assert all(record.dropped for record in pubo.dualizations)
        assert pubo.objective is problem.objective
        assert pubo.variables is problem.variables


def test_a_penalty_free_max_problem_still_gets_the_negation(w6):
    for problem in _no_penalty_problems(w6):
        flipped = replace(problem, sense="max", objective=-problem.objective)
        pubo = dualize(flipped)
        assert pubo.objective is not flipped.objective
        assert pubo.objective == problem.objective == -flipped.objective


def test_the_shared_penalty_form_gives_the_reports_of_a_copy(w6):
    for base in _no_penalty_problems(w6):
        for problem in (base, replace(base, sense="max", objective=-base.objective)):
            pubo = dualize(problem)
            copy = replace(pubo, objective=Polynomial._from_canonical(dict(pubo.objective.terms())))
            assert copy.objective == pubo.objective and copy.objective is not pubo.objective
            report = verify_penalty(pubo, problem)
            assert report.passed
            assert report == verify_penalty(copy, problem) == verify_penalty_reference(copy, problem)


def test_non_integral_slack_range_notes_rounding():
    problem = Problem(
        sense="min",
        objective=Polynomial.zero(),
        constraints=(
            Constraint(
                lhs=Polynomial.variable("x1") + Polynomial.variable("x2"),
                rhs=Fraction(3, 2),
            ),
        ),
        variables=("x1", "x2"),
    )
    record = dualize(problem).dualizations[0]
    assert record.slack_range == Fraction(3, 2)
    assert record.bit_count == 2  # rounded up to cover the integer range 0..2
    assert any("non-integral" in note for note in record.notes)


def test_slack_names_avoid_collisions():
    problem = Problem(
        sense="min",
        objective=Polynomial.zero(),
        constraints=(
            Constraint(
                lhs=Polynomial({("s1_1",): 1, ("x1",): 1}), rhs=Fraction(1)
            ),
        ),
        variables=("s1_1", "x1"),
    )
    pubo = dualize(problem)
    assert "_s1_1" in pubo.slack_names()


def test_default_weight_applied_when_lambda_missing(general_problem):
    record = dualize(general_problem).dualizations[0]
    assert record.weight == general_problem.default_penalty_weight() == 4


# -- the exhaustive argmin oracle ----------------------------------------------


def test_verify_penalty_w6_maxindset(w6):
    problem = with_penalty_weight(make_maxindset(w6), 2)
    report = verify_penalty(dualize(problem), problem)
    assert report.passed
    # maximum independent sets of the wheel: two nonadjacent rim vertices
    assert all(sum(bits) == 2 and bits[0] == 0 for bits in report.constrained_argmin)
    assert report.constrained_argmin == tuple(sorted(constrained_argmin(problem)))


def test_verify_penalty_knapsack_picks_items_one_and_three():
    problem = make_knapsack((1, 2, 3), (1, 2, 3), 4)
    report = verify_penalty(dualize(problem), problem)
    assert report.passed
    assert report.constrained_argmin == ((1, 0, 1),)


def test_verify_penalty_unconstrained_maxcut_is_identity(w6):
    problem = make_maxcut(w6)
    report = verify_penalty(dualize(problem), problem)
    assert report.passed
    assert report.pubo_argmin == report.constrained_argmin


def test_verify_penalty_detects_a_broken_pubo(general_problem):
    pubo = dualize(general_problem)
    broken = type(pubo)(
        objective=pubo.objective + Polynomial({("x1",): -100}),
        variables=pubo.variables,
        dualizations=pubo.dualizations,
        original_sense=pubo.original_sense,
    )
    report = verify_penalty(broken, general_problem)
    assert not report.passed
    assert report.counterexample is not None


def test_verify_penalty_builds_one_packed_table_per_polynomial_and_no_list(monkeypatch, w6):
    x1, x2, x3 = (Polynomial.variable(f"x{i}") for i in (1, 2, 3))
    total = x1 + x2 + x3
    # Both constraints read one lhs table; the objective and the PUBO one each.
    shared_lhs = Problem(
        "min",
        x1 - 2 * x2 + x3,
        (Constraint(lhs=total, rhs=2), Constraint(lhs=total, rhs=3, lower=1)),
        ("x1", "x2", "x3"),
    )
    # Unconstrained: the PUBO is the min-form objective, so one table serves both sides.
    cases = [(make_maxcut(w6), 1), (shared_lhs, 3)]
    pubos = [dualize(problem) for problem, _ in cases]

    def no_enumeration(self, order=None):
        raise AssertionError("values_over_cube called by the penalty oracle")

    transformed = []

    def counting(polys, order):
        transformed.extend(polys)
        return pack_cube(polys, order)

    monkeypatch.setattr(Polynomial, "values_over_cube", no_enumeration)
    # The package's ``dualize`` function shadows the module of that name.
    monkeypatch.setattr(importlib.import_module("qaoadepth.dualize"), "pack_cube", counting)
    for (problem, tables), pubo in zip(cases, pubos):
        transformed.clear()
        report = verify_penalty(pubo, problem)
        assert report.passed
        assert len(transformed) == tables


def test_verify_penalty_transforms_the_objective_and_the_penalty_form_only(monkeypatch, w6):
    # A MaxIndSet has one x_u*x_v constraint per edge; each of those tables
    # is built from bit fields, not by a transform over the cube.
    problem = make_maxindset(w6)
    pubo = dualize(problem)
    assert len(problem.constraints) == len(W6_EDGES) and not pubo.slack_names()
    poly_module = importlib.import_module("qaoadepth.poly")
    real = poly_module._zeta
    transformed = []

    def counting(layout, terms):
        transformed.append(dict(terms))
        return real(layout, terms)

    monkeypatch.setattr(poly_module, "_zeta", counting)
    report = verify_penalty(pubo, problem)
    objective_terms = {1 << i: -1 for i in range(6)}
    assert len(transformed) == 2 and transformed[0] == objective_terms
    assert len(transformed[1]) == pubo.objective.num_terms()
    assert report.passed
    assert report == verify_penalty_reference(pubo, problem)


def test_a_penalty_form_one_coefficient_off_the_objective_fails(w6):
    # Unconstrained, so a faithful PUBO would share the objective's table.
    problem = make_maxcut(w6)
    pubo = dualize(problem)
    assert problem.sense == "min" and pubo.objective == problem.objective
    off = Pubo(
        objective=pubo.objective + Polynomial({("x1",): -3}),
        variables=pubo.variables,
        dualizations=pubo.dualizations,
        original_sense=pubo.original_sense,
    )
    report = verify_penalty(off, problem)
    assert report == verify_penalty_reference(off, problem)
    assert not report.passed and report.constrained_argmin
    assert report.detail == f"assignment {report.counterexample} is optimal only for the constrained problem"


def test_verify_penalty_fails_a_jointly_infeasible_problem():
    # Each constraint alone is satisfiable, so dualize accepts the problem.
    x1, x2 = Polynomial.variable("x1"), Polynomial.variable("x2")
    constraints = (Constraint(lhs=x1 + x2, rhs=0), Constraint(lhs=-x1 - x2, rhs=-1))
    problem = Problem("max", x1 + x2, constraints, ("x1", "x2"))
    report = verify_penalty(dualize(problem), problem)
    assert (report.passed, report.constrained_argmin, report.counterexample) == (False, (), None)
    assert report.detail == "original problem has no feasible assignment"
    assert report.pubo_argmin == ((0, 1), (1, 0))


def test_verify_penalty_respects_variable_limit():
    # MaxIndSet on a path needs no slack: 21 vertices are 21 PUBO variables.
    path = InstanceGraph(21, tuple((v, v + 1) for v in range(1, 21)))
    problem = with_penalty_weight(make_maxindset(path), 2)
    pubo = dualize(problem)
    assert len(pubo.variables) == 21
    with pytest.raises(InvalidInputError, match="needs 21 variables but the limit is 20"):
        verify_penalty(pubo, problem)


def test_verify_penalty_agrees_with_bruteforce_on_random_covers():
    rng = random.Random(37)
    for _ in range(5):
        g = random_graph(rng, rng.randint(2, 5), 0.6)
        problem = with_penalty_weight(make_vertex_cover(g), Fraction(g.n + 1))
        report = verify_penalty(dualize(problem), problem)
        assert report.passed
        assert report.constrained_argmin == tuple(sorted(constrained_argmin(problem)))


def test_verify_penalty_thresholds_match_the_fraction_reference():
    # The lhs hits rhs = 5/6 at x1 = x2 = 1 and lower = 1/3 at x2 = 1 alone;
    # each threshold is also moved by 1/100 either way.
    names = ("x1", "x2", "x3")
    lhs_forms = (
        Polynomial({("x1",): Fraction(1, 2), ("x2",): Fraction(1, 3)}),
        Polynomial({("x1",): Fraction(1, 2), ("x2",): Fraction(1, 3), ("x1", "x3"): Fraction(1, 4)}),
    )
    objectives = (
        Polynomial({("x1",): 1, ("x2",): 1}),
        Polynomial({("x1",): 1, ("x2",): 2, ("x3",): Fraction(-1, 2)}),
        Polynomial({("x1",): -1, ("x2",): -1, ("x2", "x3"): 3}),
    )
    near = Fraction(1, 100)
    verdicts = set()
    for lhs, objective, sense in itertools.product(lhs_forms, objectives, ("min", "max")):
        for rhs in (Fraction(5, 6) - near, Fraction(5, 6), Fraction(5, 6) + near):
            for lower in (None, Fraction(1, 3) - near, Fraction(1, 3), Fraction(1, 3) + near):
                problem = Problem(
                    sense=sense,
                    objective=objective,
                    constraints=(Constraint(lhs=lhs, rhs=rhs, lower=lower),),
                    variables=tuple(names),
                )
                pubo = dualize(problem)
                report = verify_penalty(pubo, problem)
                expected = sorted(constrained_argmin(problem))
                projected = pubo_argmin_reference(pubo)
                assert report.constrained_argmin == tuple(expected)
                assert report.pubo_argmin == tuple(projected)
                assert report.passed == (bool(expected) and projected == expected)
                if expected and not report.passed:
                    assert report.counterexample == min(set(projected) ^ set(expected))
                verdicts.add(report.passed)
    assert verdicts == {True, False}


def assert_oracle_matches_the_references(problem):
    """verify_penalty against the Fraction enumerations of both argmin sets."""
    pubo = dualize(problem)
    report = verify_penalty(pubo, problem)
    expected = sorted(constrained_argmin(problem))
    projected = pubo_argmin_reference(pubo)
    assert report.constrained_argmin == tuple(expected)
    assert report.pubo_argmin == tuple(projected)
    assert report.passed == (bool(expected) and projected == expected)
    return pubo, report


def test_verify_penalty_matches_the_references_without_slack_bits():
    # No constraint means no slack bit: one block, nothing to project out.
    rng = random.Random(53)
    for n in range(1, 7):
        names = [f"x{i}" for i in range(1, n + 1)]
        for sense in ("min", "max"):
            objective = random_polynomial(rng, names, max_terms=6)
            problem = Problem(sense, objective, (), tuple(names))
            pubo, report = assert_oracle_matches_the_references(problem)
            assert pubo.slack_names() == () and report.passed


def test_verify_penalty_keeps_every_point_of_a_constant_objective():
    names = ("x1", "x2", "x3", "x4")
    every_point = tuple(sorted(itertools.product((0, 1), repeat=4)))
    for objective in (Polynomial.zero(), Polynomial.constant(Fraction(-7, 2))):
        problem = Problem("min", objective, (), names)
        _, report = assert_oracle_matches_the_references(problem)
        assert report.passed and report.pubo_argmin == every_point
    # With a constraint, every feasible point is optimal, slack bits and all.
    budget = Constraint(lhs=Polynomial.from_terms(((name,), 1) for name in names), rhs=2)
    problem = Problem("max", Polynomial.constant(5), (budget,), names)
    pubo, report = assert_oracle_matches_the_references(problem)
    assert pubo.slack_names() and report.passed
    assert report.constrained_argmin == tuple(p for p in every_point if sum(p) <= 2)


def test_verify_penalty_projects_out_many_slack_bits():
    problem = make_knapsack((3, 5, 4, 6), (7, 11, 13, 17), 40)
    pubo, report = assert_oracle_matches_the_references(problem)
    assert len(pubo.slack_names()) >= 5
    assert report.passed


def test_verify_penalty_matches_the_references_on_an_infeasible_problem():
    # Each constraint alone is satisfiable and takes a slack bit; together
    # they ask for at most one and at least two of the three variables.
    names = ("x1", "x2", "x3")
    total = Polynomial.from_terms(((name,), 1) for name in names)
    constraints = (Constraint(lhs=total, rhs=1), Constraint(lhs=-total, rhs=-2))
    problem = Problem("min", Polynomial({("x1", "x3"): 2, ("x2",): -1}), constraints, names)
    pubo, report = assert_oracle_matches_the_references(problem)
    assert len(pubo.slack_names()) == 2
    assert (report.passed, report.constrained_argmin, report.counterexample) == (False, (), None)
    assert report.detail == "original problem has no feasible assignment"


# -- the packed oracle against the list-table reference ------------------------

FIELD_WIDTHS = (8, 16, 32, 64, 128)


def draw_magnitude(rng, kind):
    """A positive exact number of the draw's kind."""
    if kind == "small":
        return rng.randint(1, 5)
    if kind == "rational":
        return Fraction(rng.randint(1, 9), rng.randint(1, 6))
    if kind == "huge":
        return rng.randint(2**60, 2**70)
    return 1 << (rng.choice(FIELD_WIDTHS) - 2)


def draw_polynomial(rng, names, kind):
    """One to four distinct supports of width 0-3, each with a coefficient of either sign.

    A boundary polynomial's positive coefficients, or its negative ones, or
    all of their magnitudes, sum to 2**(w-2) - 1, 2**(w-2) or 2**(w-2) + 1:
    the largest sum that fields of w bits hold, and the two sums past it.
    """
    supports = list(
        dict.fromkeys(
            tuple(sorted(rng.sample(names, rng.randint(0, min(3, len(names))))))
            for _ in range(rng.randint(1, 4))
        )
    )
    if kind == "boundary":
        total = draw_magnitude(rng, kind) + rng.choice((-1, 0, 1))
        side = rng.choice((0, 1, -1))
        if side and len(supports) > 1:
            # One sign's coefficients sum to the boundary, and the last
            # support takes a small coefficient of the other sign.
            parts = [total // (len(supports) - 1)] * (len(supports) - 1)
            parts[-1] += total - sum(parts)
            signs = [side] * len(parts) + [-side]
            parts.append(rng.randint(1, 5))
        else:
            parts = [total // len(supports)] * len(supports)
            parts[-1] += total - sum(parts)
            signs = [side or rng.choice((-1, 1)) for _ in supports]
        return Polynomial.from_terms(
            (support, sign * part) for support, sign, part in zip(supports, signs, parts)
        )
    parts = [draw_magnitude(rng, kind) for _ in supports]
    return Polynomial.from_terms(
        (support, part if rng.random() < 0.5 else -part) for support, part in zip(supports, parts)
    )


def draw_threshold(rng, values, kind):
    """A constraint bound: a value the lhs takes, moved by a rational step, or far outside its range."""
    choice = rng.randrange(6)
    if choice == 0:
        return rng.choice(values)
    if choice == 1:
        return rng.choice(values) + Fraction(rng.choice((-1, 1)), rng.randint(2, 5))
    if choice == 2:
        return max(values) + draw_magnitude(rng, kind)
    if choice == 3:
        return min(values) - draw_magnitude(rng, kind)
    # A field's clamp edges, +-2**(w-2) + (-2, -1, 0 or 1), for some width w.
    return rng.choice((-1, 1)) * (1 << (rng.choice(FIELD_WIDTHS) - 2)) + rng.randint(-2, 1)


def draw_oracle_case(rng):
    """A problem and a penalty form for it, or None when the form has too many variables to enumerate cheaply."""
    names = [f"x{i}" for i in range(1, rng.randint(0, 6) + 1)]
    kind = rng.choice(("small", "small", "rational", "boundary", "huge"))
    if rng.random() < 0.1:
        objective = Polynomial.constant(rng.choice((0, draw_magnitude(rng, kind))))
    else:
        objective = draw_polynomial(rng, names, kind)
    constraints = []
    for _ in range(rng.randint(0, 3)):
        lhs = draw_polynomial(rng, names, rng.choice((kind, "small")))
        values = lhs.values_over_cube(names)
        rhs = draw_threshold(rng, values, kind)
        lower = None
        if rng.random() < 0.4:
            lower = draw_threshold(rng, values, kind)
            if lower >= rhs:
                lower, rhs = rhs - (lower == rhs), lower
        constraints.append(
            Constraint(
                lhs=lhs,
                rhs=rhs,
                lower=lower,
                weight=rng.choice((None, None, 1, Fraction(1, 2))),
                slack_bound=rng.choice((None, rng.randint(0, 7))),
            )
        )
    problem = Problem(rng.choice(("min", "max")), objective, tuple(constraints), tuple(names))
    # The penalty form of the problem, or of a problem missing its last
    # constraint, so that some forms ignore a constraint the oracle checks.
    dualized = constraints[:-1] if constraints and rng.random() < 0.15 else constraints
    try:
        pubo = dualize(Problem(problem.sense, objective, tuple(dualized), tuple(names)))
    except InfeasibleConstraintError:
        pubo = dualize(Problem(problem.sense, objective, (), tuple(names)))
    if len(pubo.variables) > 13:
        return None
    if rng.random() < 0.15:
        support = tuple(rng.sample(pubo.variables, rng.randint(0, min(2, len(pubo.variables)))))
        pubo = Pubo(
            objective=pubo.objective + Polynomial({support: draw_magnitude(rng, kind) * rng.choice((-1, 1))}),
            variables=pubo.variables,
            dualizations=pubo.dualizations,
            original_sense=pubo.original_sense,
        )
    return problem, pubo


def test_verify_penalty_equals_the_list_table_reference_on_random_problems():
    rng = random.Random(2024)
    compared = 0
    seen = {"passed": 0, "failed": 0, "infeasible": 0, "constant": 0, "two-sided": 0, "no variables": 0}
    while compared < 1000:
        case = draw_oracle_case(rng)
        if case is None:
            continue
        problem, pubo = case
        report = verify_penalty(pubo, problem)
        assert report == verify_penalty_reference(pubo, problem)
        compared += 1
        seen["passed" if report.passed else "failed"] += 1
        seen["infeasible"] += not report.constrained_argmin
        seen["constant"] += not problem.objective.variables()
        seen["two-sided"] += any(con.lower is not None for con in problem.constraints)
        seen["no variables"] += not problem.variables
    assert min(seen.values()) >= 10, seen
