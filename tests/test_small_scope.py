"""Every problem in a small scope, run through the whole pipeline.

The scope of ROADMAP item 17, one-sided: 2 variables and both senses,
objective coefficients in {-1, 0, 1} on x1, x2 and x1*x2, and one
constraint with lhs coefficients in {0, +-1, +-1/2, 2} on x1 and x2, not
both 0, and rhs in {-1, 0, 1/2, 1, 3/2}.  Each problem runs through
``run_pipeline`` at gate widths 2 and 3: it is rejected as infeasible, or
its schedule passes the phase oracle.  No penalty verdict is checked here,
so the known penalty defects (ROADMAP item 1, A and H) do not show.
"""

import itertools
from fractions import Fraction

import pytest

from qaoadepth import Constraint, InfeasibleConstraintError, Polynomial, Problem, run_pipeline
from qaoadepth.phasesim import check_equivalence

COEFFICIENTS = (-1, 0, 1)
LHS_COEFFICIENTS = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2)
RHS = (-1, 0, Fraction(1, 2), 1, Fraction(3, 2))
SUPPORTS = (("x1",), ("x2",), ("x1", "x2"))


@pytest.mark.parametrize("sense", ["min", "max"])
def test_every_small_problem_is_rejected_or_scheduled_exactly(sense):
    objectives = [
        Polynomial.from_terms(zip(SUPPORTS, coeffs))
        for coeffs in itertools.product(COEFFICIENTS, repeat=3)
    ]
    lhs_forms = [
        Polynomial.from_terms(zip(SUPPORTS, pair))
        for pair in itertools.product(LHS_COEFFICIENTS, repeat=2)
        if any(pair)
    ]
    runs = rejected = 0
    for objective, lhs, rhs in itertools.product(objectives, lhs_forms, RHS):
        problem = Problem(
            sense=sense,
            objective=objective,
            constraints=(Constraint(lhs=lhs, rhs=rhs),),
            variables=("x1", "x2"),
        )
        for width in (2, 3):
            runs += 1
            try:
                result = run_pipeline(problem, gate_width=width)
            except InfeasibleConstraintError:
                rejected += 1
                continue
            report = check_equivalence(result.schedule, result.pubo)
            assert report.equivalent, (sense, objective, lhs, rhs, width, report)
    assert runs == 27 * 35 * 5 * 2
    assert 0 < rejected < runs
