"""Constraint dualization: turn a constrained problem into a penalty-form PUBO.

Each constraint ``p(x) <= b`` is replaced by the squared penalty

    weight * (p(x) + sum_j c_j * s_j - b)**2

over fresh binary slack bits s_1..s_k.  The slack range R is what the slack
must absorb: from the minimum of p over the cube up to b, or ``b - lower``
for a two-sided constraint, whichever is smaller.  With span = ceil(R) and
k = span.bit_length(), the coefficients are 1, 2, ..., 2**(k-2) and a last
one of span - (2**(k-1) - 1), so the slack sums are exactly the integers in
[0, span].  Feasible assignments then admit a slack setting with penalty
exactly 0, while any integral violation, including one of a two-sided
lower bound, costs at least the penalty weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container

from .errors import InfeasibleConstraintError, InvalidInputError
from .poly import (
    EXACT_ENUMERATION_LIMIT,
    CubeLayout,
    Polynomial,
    Scalar,
    Support,
    canonical,
    pack_cube,
)
from .problems import MINIMIZE, Problem


def _bits(z: int, width: int) -> tuple[int, ...]:
    return tuple((z >> i) & 1 for i in range(width))


@dataclass(frozen=True)
class ExpansionDiff:
    """Differences between a computed penalty expansion and a reference one."""

    missing_in_reference: tuple[tuple[Support, Scalar], ...]
    unexpected_in_reference: tuple[tuple[Support, Scalar], ...]
    coefficient_mismatches: tuple[tuple[Support, Scalar, Scalar], ...]

    @property
    def has_differences(self) -> bool:
        return bool(
            self.missing_in_reference
            or self.unexpected_in_reference
            or self.coefficient_mismatches
        )


def expansion_diff(computed: Polynomial, reference: Polynomial) -> ExpansionDiff:
    """Term-by-term comparison of two expansions (supports, then coefficients)."""
    computed_terms = dict(computed.terms())
    reference_terms = dict(reference.terms())
    missing = tuple(
        (s, c) for s, c in computed_terms.items() if s not in reference_terms
    )
    unexpected = tuple(
        (s, c) for s, c in reference_terms.items() if s not in computed_terms
    )
    mismatched = tuple(
        (s, computed_terms[s], reference_terms[s])
        for s in computed_terms
        if s in reference_terms and computed_terms[s] != reference_terms[s]
    )
    return ExpansionDiff(missing, unexpected, mismatched)


@dataclass(frozen=True)
class ConstraintDualization:
    """Per-constraint record of how (or why not) it was dualized."""

    index: int
    label: str
    dropped: bool = False
    reason: str = ""
    cube_min: Scalar | None = None
    cube_min_exact: bool = True
    slack_range: Scalar = 0
    slack_vars: tuple[str, ...] = ()
    weight: Scalar | None = None
    square: Polynomial | None = None
    penalty: Polynomial | None = None
    notes: tuple[str, ...] = ()
    expansion_diff: ExpansionDiff | None = None

    @property
    def bit_count(self) -> int:
        return len(self.slack_vars)


@dataclass
class Pubo:
    """Unconstrained penalty-form objective over original plus slack variables.

    ``variables`` lists the problem's variables in their order, then each
    constraint's slack bits in constraint order.
    """

    objective: Polynomial
    variables: tuple[str, ...]
    dualizations: tuple[ConstraintDualization, ...]
    original_sense: str

    @property
    def constant_offset(self) -> Scalar:
        return self.objective.constant_term

    def slack_names(self) -> tuple[str, ...]:
        return tuple(name for record in self.dualizations for name in record.slack_vars)


def _fresh_slack_name(base: str, taken: Container[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def _slack_coefficients(slack_range: Scalar) -> tuple[list[int], list[str]]:
    """Slack bit coefficients whose subset sums are exactly 0..ceil(slack_range), with notes.

    Powers of two up to the last bit, which takes what is left of the span,
    so no slack setting overshoots the range (a two-sided constraint's lower
    bound stays enforced).
    """
    notes = []
    if slack_range < 0:
        raise ValueError("slack range must be nonnegative")
    if slack_range.denominator != 1:
        notes.append(
            f"non-integral slack range {slack_range} rounded up to "
            f"{math.ceil(slack_range)}; boundary-feasible points may keep a "
            "small positive penalty"
        )
    span = math.ceil(slack_range)
    k = span.bit_length()
    coefficients = [1 << j for j in range(k - 1)]
    if k:
        coefficients.append(span - ((1 << (k - 1)) - 1))
    return coefficients, notes


def dualize(problem: Problem) -> Pubo:
    """Fold every constraint into the objective as a squared slack penalty.

    Redundant constraints (upper bound of lhs already within rhs) are dropped
    and flagged instead of wasting slack qubits.  Raises
    :class:`InfeasibleConstraintError` when a constraint provably has no
    satisfying assignment: the lhs minimum over the cube exceeds ``rhs``,
    or, for a two-sided constraint, its maximum is below ``lower``.  Both
    extremes come from one pass over the lhs
    (:meth:`~qaoadepth.poly.Polynomial.minimum_over_cube`): exact in closed
    form when no two terms share a variable, else enumerated from one table
    within ``EXACT_ENUMERATION_LIMIT`` variables, else the interval bounds,
    which never cut off a feasible point.

    A kept constraint costs one pass through the penalty path: its residual
    ``lhs + slack - rhs`` is one dict sorted once, or the lhs itself when
    there is no slack bit and ``rhs`` is 0; its square and the weighted
    penalty come out of :meth:`~qaoadepth.poly.Polynomial.square` and the
    scalar product already in order.  The penalties are summed into one
    coefficient dict, so the objective is canonicalised once, not once per
    constraint.  When no constraint adds a penalty (there are none, or all
    are dropped), the penalty form is the min-sense objective itself: for a
    min problem, ``problem.objective`` with no copy.
    """
    objective = problem.objective if problem.sense == MINIMIZE else -problem.objective
    coefficients: dict[Support, Scalar] | None = None  # objective plus penalties, once one is kept
    taken = set(problem.variables)
    default_weight: Scalar | None = None
    records: list[ConstraintDualization] = []

    for index, con in enumerate(problem.constraints, start=1):
        lhs, rhs, lower = con.lhs, con.rhs, con.lower
        cube_min, min_exact = lhs.minimum_over_cube()
        if cube_min > rhs:
            raise InfeasibleConstraintError(
                index, f"min over the cube is {cube_min}, which exceeds the bound {rhs}"
            )
        # From the same scan or table as the minimum: exact whenever it is.
        cube_max = lhs.maximum_over_cube()[0]
        if lower is not None:
            # A two-sided constraint is never dropped, only checked.
            if cube_max < lower:
                raise InfeasibleConstraintError(
                    index,
                    f"max over the cube is at most {cube_max}, "
                    f"which is below the lower bound {lower}",
                )
        elif cube_max <= rhs:
            records.append(
                ConstraintDualization(
                    index=index,
                    label=con.label,
                    dropped=True,
                    reason="redundant: lhs never exceeds rhs",
                    cube_min=cube_min,
                    cube_min_exact=min_exact,
                )
            )
            continue

        notes: list[str] = []
        if not min_exact:
            notes.append("interval bound used for the cube minimum (support too large)")
        slack_range = canonical(rhs - cube_min)
        if lower is not None:
            declared = canonical(rhs - lower)
            if declared < slack_range:
                notes.append(
                    f"slack range capped at {declared} by the two-sided bound "
                    f"(cube range is {slack_range})"
                )
                slack_range = declared
        if con.slack_bound is not None and con.slack_bound < slack_range:
            notes.append(
                f"slack range capped at {con.slack_bound} by the declared slack bound"
            )
            slack_range = con.slack_bound

        slack_coefficients, range_notes = _slack_coefficients(slack_range)
        notes.extend(range_notes)

        if slack_coefficients or rhs:
            # lhs + slack - rhs in one dict, wrapped once: the slack names
            # are fresh, so each owns its linear term.
            residual = dict(lhs.terms())
            residual[()] = residual.get((), 0) - rhs
            slack_names: list[str] = []
            for j, c in enumerate(slack_coefficients, start=1):
                name = _fresh_slack_name(f"s{index}_{j}", taken)
                taken.add(name)
                slack_names.append(name)
                residual[(name,)] = c
            residual = Polynomial._from_canonical(residual)
        else:  # lhs <= 0 with no slack, as for an independent set's edge
            residual, slack_names = lhs, []

        weight = con.weight
        if weight is None:
            if default_weight is None:
                default_weight = problem.default_penalty_weight()
            weight = default_weight

        square = residual.square()
        penalty = square * weight
        if coefficients is None:
            coefficients = dict(objective.terms())
        for support, coeff in penalty.terms():
            coefficients[support] = coefficients.get(support, 0) + coeff

        diff = None
        if con.reference_expansion is not None:
            diff = expansion_diff(square, con.reference_expansion)

        records.append(
            ConstraintDualization(
                index=index,
                label=con.label,
                cube_min=cube_min,
                cube_min_exact=min_exact,
                slack_range=slack_range,
                slack_vars=tuple(slack_names),
                weight=weight,
                square=square,
                penalty=penalty,
                notes=tuple(notes),
                expansion_diff=diff,
            )
        )

    return Pubo(
        objective=objective if coefficients is None else Polynomial._from_canonical(coefficients),
        variables=problem.variables + tuple(name for r in records for name in r.slack_vars),
        dualizations=tuple(records),
        original_sense=problem.sense,
    )


@dataclass(frozen=True)
class PenaltyVerification:
    """Outcome of the exhaustive argmin-preservation check."""

    passed: bool
    constrained_argmin: tuple[tuple[int, ...], ...]
    pubo_argmin: tuple[tuple[int, ...], ...]
    variable_order: tuple[str, ...]
    counterexample: tuple[int, ...] | None = None
    detail: str = ""


def _argmin(layout: CubeLayout, values: int, where: int) -> list[tuple[int, ...]]:
    """The assignments, as bit tuples, where ``values`` is least over the fields ``where``."""
    # With an empty set the result is empty, whatever the minimum.
    optimal = layout.at_most(values, layout.minimum(values, where)) & where
    return sorted(_bits(z, layout.variables) for z in layout.indices(optimal))


def verify_penalty(pubo: Pubo, problem: Problem) -> PenaltyVerification:
    """Exhaustively confirm the penalty form preserves the constrained argmin.

    Enumerates every assignment of all PUBO variables, projects out the slack
    bits by minimization, and compares the resulting argmin set with the
    argmin set of the original constrained problem.  Deliberately ignorant of
    how dualization works so it can serve as an independent oracle.  Raises
    :class:`InvalidInputError` above ``EXACT_ENUMERATION_LIMIT`` variables,
    problem and slack together.

    Every table is a packed :class:`~qaoadepth.poly.CubeLayout` table, and
    each step is a whole-table integer operation on it: a feasibility test
    per constraint bound, a minimum by halving, the slack projection by
    halving over the slack bits, and an equality set whose indices are the
    argmins.  No int is made per assignment except for the argmins.

    The objective and the distinct constraint left-hand sides share one
    layout, so their sets combine with ``&``, and the penalty form has its
    own.  :func:`~qaoadepth.poly.pack_cube` builds each of those tables
    once, and a left-hand side of few terms, such as an edge's ``x_u*x_v``,
    directly from bit fields rather than by a transform; each constraint's
    table is folded into the feasible set and dropped before the next is
    built.  So the cost is one transform each for the objective and the
    penalty form, a few whole-table operations per constraint term, and
    O(n) more for n PUBO variables.  A penalty form without slack bits that
    equals the objective reads the objective's table; when there is no
    constraint either, every point is feasible, so the one argmin set is
    computed once and serves both sides.
    """
    order = list(pubo.variables)
    if len(order) > EXACT_ENUMERATION_LIMIT:
        raise InvalidInputError(
            f"verification needs {len(order)} variables "
            f"but the limit is {EXACT_ENUMERATION_LIMIT}"
        )
    slack_names = set(pubo.slack_names())
    original = [name for name in order if name not in slack_names]
    slack = [name for name in order if name in slack_names]
    n_orig = len(original)

    # Every table holds a polynomial times its common denominator d, so it
    # is all ints.  For an integer v, v/d <= rhs exactly when
    # v <= floor(rhs*d), and v/d >= lower exactly when not
    # v <= ceil(lower*d) - 1.
    objective = problem.objective if problem.sense == MINIMIZE else -problem.objective
    readers: dict[Polynomial, list] = {objective: []}  # the constraints that read each table
    for con in problem.constraints:
        readers.setdefault(con.lhs, []).append(con)
    layout, tables = pack_cube(list(readers), original)
    feasible = layout.guards
    values = None
    # ``tables`` leads the zip, so the zip exhausts it, which frees its bit fields.
    for (table, scale), constraints in zip(tables, readers.values()):
        if values is None:  # the first table is the objective's
            values = table
        for con in constraints:
            feasible &= layout.at_most(table, math.floor(con.rhs * scale))
            if con.lower is not None:
                feasible &= ~layout.at_most(table, math.ceil(con.lower * scale) - 1)
    constrained_argmin = _argmin(layout, values, feasible)

    # PUBO side: minimize over slack bits for every original assignment.
    # Original variables occupy the low bit positions, so the projection
    # folds the table over its top len(slack) bits.
    if slack or pubo.objective != objective:
        pubo_layout, [(values, _)] = pack_cube([pubo.objective], original + slack)
        values = pubo_layout.fold(values, len(slack))
        layout = CubeLayout(n_orig, pubo_layout.width)
        pubo_argmin = _argmin(layout, values, layout.guards)
    elif problem.constraints:
        pubo_argmin = _argmin(layout, values, layout.guards)
    else:  # the same table over the same set, every point
        pubo_argmin = constrained_argmin

    passed = bool(constrained_argmin) and pubo_argmin == constrained_argmin
    witness, detail = None, ""
    if not constrained_argmin:
        detail = "original problem has no feasible assignment"
    elif not passed:
        witness = min(set(pubo_argmin).symmetric_difference(constrained_argmin))
        side = "penalty form" if witness in set(pubo_argmin) else "constrained problem"
        detail = f"assignment {witness} is optimal only for the {side}"
    return PenaltyVerification(
        passed=passed,
        constrained_argmin=tuple(constrained_argmin),
        pubo_argmin=tuple(pubo_argmin),
        variable_order=tuple(original),
        counterexample=witness,
        detail=detail,
    )
