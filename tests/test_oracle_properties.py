"""Both oracles pass on generated problems with integer data.

Each example is a small problem over 2-4 variables with one or two
constraints.  A two-sided constraint spans rhs - lower = 1..9; a one-sided
rhs lies 0..9 above the lhs at a drawn witness assignment.  Every
constraint holds at that witness, so the problem is feasible.  The problem goes through the whole pipeline at a gate width of
2-4 and with one of the coloring methods, and then both the penalty oracle
and the phase oracle must pass.

A second strategy draws mixed-sign objectives whose best points are all
infeasible by exactly 1, the case in which the default penalty weight must
exceed the objective's whole range, not just its largest absolute value.

Objective coefficients are -3..3 or 2**60..2**70 in size.  The large ones
make the default penalty weight, and with it the penalty form's
coefficients, so large that the oracle's cube tables need fields wider
than 64 bits.

Constraint data are integers only.  The default penalty weight assumes that
every violation is at least 1, which rational data break (ROADMAP item 1A);
rational constraints join this test once that is fixed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qaoadepth import (
    Constraint,
    Polynomial,
    Problem,
    check_equivalence,
    run_pipeline,
    verify_penalty,
)

METHODS = ("auto", "exact", "merge-exact", "greedy", "misra-gries")
#: Objective coefficients of 2**60 to 2**70 in size, either sign.
LARGE = st.builds(lambda sign, size: sign * size, st.sampled_from((-1, 1)), st.integers(2**60, 2**70))


@st.composite
def integer_problems(draw):
    """A feasible problem, a gate width that fits its penalty form, and a coloring method."""
    method = draw(st.sampled_from(METHODS))
    # Misra-Gries colors graphs only, and only width 2 keeps every gate a pair.
    width = 2 if method == "misra-gries" else draw(st.integers(2, 4))
    names = [f"x{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    bits = draw(st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names)))
    witness = dict(zip(names, bits))

    def polynomial(max_width, coefficients=st.integers(-3, 3)):
        supports = draw(
            st.lists(st.sets(st.sampled_from(names), max_size=max_width), min_size=1, max_size=5)
        )
        return Polynomial.from_terms((support, draw(coefficients)) for support in supports)

    constraints = []
    for _ in range(draw(st.integers(1, 2))):
        # A quadratic lhs squares to width 4, so only width 4 gets one.
        lhs = polynomial(2 if width == 4 else 1)
        span = draw(st.integers(1, 9))
        rhs = lhs.evaluate(witness) + draw(st.integers(0, span))
        lower = rhs - span if draw(st.booleans()) else None
        constraints.append(Constraint(lhs=lhs, rhs=rhs, lower=lower))
    problem = Problem(
        sense=draw(st.sampled_from(("min", "max"))),
        objective=polynomial(min(width, 3), st.integers(-3, 3) | LARGE),
        constraints=tuple(constraints),
        variables=tuple(names),
    )
    return problem, width, method


@st.composite
def unit_violation_problems(draw):
    """A mixed-sign objective whose cheapest points each violate one constraint by 1.

    ``-forced <= -1`` and ``sum(x) <= 1`` leave one feasible point, the
    forced variable alone.  The objective charges 1..5 for the forced
    variable and pays 1..5 for each other one, so every other unit vector
    is cheaper by at least 2 and infeasible by exactly 1.
    """
    names = [f"x{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    forced = draw(st.sampled_from(names))
    sense = draw(st.sampled_from(("min", "max")))
    sign = 1 if sense == "min" else -1
    objective = Polynomial.from_terms(
        ((name,), sign * draw(st.integers(1, 5)) * (1 if name == forced else -1))
        for name in names
    )
    constraints = (
        Constraint(lhs=-Polynomial.variable(forced), rhs=-1),
        Constraint(lhs=Polynomial.from_terms(((name,), 1) for name in names), rhs=1),
    )
    return Problem(sense=sense, objective=objective, constraints=constraints, variables=tuple(names))


def assert_both_oracles_pass(problem, **options):
    result = run_pipeline(problem, **options)
    penalty = verify_penalty(result.pubo, problem)
    assert penalty.passed, penalty.detail
    assert check_equivalence(result.schedule, result.pubo).equivalent


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(integer_problems())
def test_both_oracles_pass_on_integer_problems(case):
    problem, width, method = case
    assert_both_oracles_pass(problem, gate_width=width, method=method)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(unit_violation_problems())
def test_default_weight_outweighs_a_mixed_sign_objective(problem):
    assert problem.constraints[0].weight is None
    assert_both_oracles_pass(problem)
