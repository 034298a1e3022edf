"""Exact numbers stay canonical: an int when whole, else a Fraction with denominator > 1.

Inputs mix ints, proper Fractions and whole Fractions such as
``Fraction(2, 1)``.  Every coefficient, bound and constraint field that
comes out must follow the rule (``bruteforce.is_canonical``) and equal the
all-Fraction recomputation in ``tests/bruteforce.py``.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qaoadepth import Constraint, Polynomial, Problem, dualize
from qaoadepth.hypergraph import build
from qaoadepth.io import dumps, problem_from_json, problem_to_json, rational_from_json

from bruteforce import (
    fraction_add,
    fraction_extremes,
    fraction_mul,
    fraction_penalty_form,
    fraction_scale,
    fraction_terms,
    is_canonical,
    min_objective,
)

NAMES = ("x1", "x2", "x3", "x4")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)

scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.integers(-6, 6).map(Fraction),
)
positive = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
term_lists = st.lists(
    st.tuples(st.sets(st.sampled_from(NAMES), max_size=3), scalars), max_size=6
)


def assert_matches(poly: Polynomial, reference: dict) -> None:
    assert all(is_canonical(c) and c for _, c in poly.terms())
    assert dict(poly.terms()) == reference


def assert_extremes(poly: Polynomial, reference: dict) -> None:
    low, high = fraction_extremes(reference)
    for (value, exact), expected in ((poly.minimum_over_cube(), low), (poly.maximum_over_cube(), high)):
        assert exact and is_canonical(value) and value == expected


@SETTINGS
@given(term_lists, term_lists, scalars)
def test_polynomial_algebra_keeps_canonical_coefficients(a_pairs, b_pairs, scalar):
    a, b = Polynomial.from_terms(a_pairs), Polynomial.from_terms(b_pairs)
    ra, rb = fraction_terms(a_pairs), fraction_terms(b_pairs)
    assert_matches(a, ra)
    assert_matches(a + b, fraction_add(ra, rb))
    assert_matches(a - b, fraction_add(ra, fraction_scale(rb, -1)))
    assert_matches(a * scalar, fraction_scale(ra, scalar))
    assert_matches(scalar * a, fraction_scale(ra, scalar))
    assert_matches(a * b, fraction_mul(ra, rb))
    assert_matches(a.square(), fraction_mul(ra, ra))
    assert is_canonical(a.constant_term) and a.constant_term == ra.get((), 0)
    assert is_canonical(a.evaluate(dict.fromkeys(NAMES, 1)))
    # Both bound paths: the linear closed form and the enumerated table.
    linear = [(s, c) for s, c in a_pairs if len(s) <= 1]
    assert_extremes(Polynomial.from_terms(linear), fraction_terms(linear))
    assert_extremes(a, ra)


def test_interval_bound_keeps_canonical_values():
    # 22 variables in a path: past the enumeration limit, so the interval bound.
    names = [f"v{i:02d}" for i in range(22)]
    pairs = [((u, v), Fraction(i - 12, 4)) for i, (u, v) in enumerate(zip(names, names[1:]))]
    p = Polynomial.from_terms(pairs)
    low, low_exact = p.minimum_over_cube()
    high, high_exact = p.maximum_over_cube()
    assert not low_exact and not high_exact
    assert low == sum((min(Fraction(0), c) for _, c in pairs), Fraction(0)) == Fraction(-39, 2)
    assert high == sum((max(Fraction(0), c) for _, c in pairs), Fraction(0)) == 9
    assert is_canonical(low) and type(high) is int


@st.composite
def rational_problems(draw):
    names = NAMES[: draw(st.integers(1, 4))]

    def polynomial():
        supports = draw(st.lists(st.sets(st.sampled_from(names), max_size=2), min_size=1, max_size=4))
        return Polynomial.from_terms((s, draw(scalars)) for s in supports)

    constraints = []
    for _ in range(draw(st.integers(1, 2))):
        lhs = polynomial()
        cube_min, cube_max = fraction_extremes(fraction_terms(lhs.terms()))
        # Feasible on both sides: rhs reaches the minimum, and lower stays
        # at or below the maximum, or dualize rejects the constraint.
        rhs = cube_min + draw(st.one_of(st.just(0), positive))
        constraints.append(
            Constraint(
                lhs=lhs,
                rhs=rhs,
                lower=min(rhs - draw(positive), cube_max) if draw(st.booleans()) else None,
                weight=draw(st.one_of(st.none(), positive)),
                slack_bound=draw(st.one_of(st.none(), positive)),
            )
        )
    return Problem(
        sense=draw(st.sampled_from(("min", "max"))),
        objective=polynomial(),
        constraints=tuple(constraints),
        variables=tuple(names),
    )


def assert_constraints_canonical(problem: Problem) -> None:
    for con in problem.constraints:
        fields = (con.rhs, con.lower, con.weight, con.slack_bound)
        assert all(is_canonical(v) for v in fields if v is not None)
        assert all(is_canonical(c) and c for _, c in con.lhs.terms())


@SETTINGS
@given(rational_problems())
def test_dualize_and_json_keep_canonical_numbers(problem):
    assert_constraints_canonical(problem)
    pubo = dualize(problem)
    assert_matches(pubo.objective, fraction_penalty_form(problem, pubo))

    # The default weight leaves out the constant term: it shifts every point alike.
    objective = fraction_terms(min_objective(problem).terms())
    objective.pop((), None)
    default_weight = (
        1
        + sum((max(Fraction(0), c) for c in objective.values()), Fraction(0))
        - sum((min(Fraction(0), c) for c in objective.values()), Fraction(0))
    )
    for con, record in zip(problem.constraints, pubo.dualizations):
        low, _ = fraction_extremes(fraction_terms(con.lhs.terms()))
        assert is_canonical(record.cube_min) and record.cube_min == low
        assert is_canonical(record.slack_range)
        if not record.dropped:
            assert is_canonical(record.weight)
            assert record.weight == (default_weight if con.weight is None else con.weight)
    h = build(pubo)
    assert is_canonical(h.constant) and all(is_canonical(c) for _, c in h.singletons)

    again = problem_from_json(json.loads(dumps(problem_to_json(problem))))
    assert_constraints_canonical(again)
    assert again.constraints == problem.constraints
    assert_matches(again.objective, fraction_terms(problem.objective.terms()))


def test_json_rationals_are_canonical():
    for data, expected in ((4, 4), ({"num": 4, "den": 2}, 2), ({"num": 3, "den": -6}, Fraction(-1, 2))):
        value = rational_from_json(data, "x")
        assert value == expected and is_canonical(value)
