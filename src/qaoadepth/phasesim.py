"""Diagonal-phase oracle for schedules.

Every cost gate is diagonal in the computational basis, so one iteration of
the cost part of a schedule multiplies basis state |z> by a phase whose
exponent is (gamma times) the sum of all gate polynomials at z.  That sum is
a multilinear polynomial, and a multilinear polynomial over {0,1}^n has
exactly one coefficient form, so the phase equals the penalty objective on
every basis state exactly when the two polynomials agree term by term.  The
check therefore compares coefficients: exact, O(terms), and without a
variable limit.  It confirms that the schedule covers every monomial exactly
once.  Mixer layers are skipped: the check targets cost coverage, not QAOA
dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dualize import Pubo
from .poly import Polynomial, Scalar
from .schedule import CircuitSchedule


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    mismatch_assignment: dict | None = None
    phase: Scalar | None = None
    expected: Scalar | None = None

    @property
    def delta(self) -> Scalar | None:
        if self.phase is None or self.expected is None:
            return None
        return self.phase - self.expected


def check_equivalence(sched: CircuitSchedule, pubo: Pubo) -> EquivalenceReport:
    """The schedule's phase equals the penalty objective (minus its constant) everywhere.

    The constant term contributes only a global phase, so gates never carry
    it.  When the check fails, reports the first mismatching assignment in
    bitmask order, where variable ``sched.variables[i]`` is bit i.  That is
    the smallest mask among the supports of the difference: at any smaller
    mask every subset has a smaller mask still, so the difference vanishes
    there, and at that mask it equals the nonzero coefficient.  Raises
    ``ValueError`` when a gate or the objective uses a variable outside
    ``sched.variables``.
    """
    covered = sched.covered_polynomial()
    target = pubo.objective - Polynomial.constant(pubo.objective.constant_term)
    position = {name: i for i, name in enumerate(sched.variables)}
    for poly in (covered, target):
        missing = set(poly.variables()) - position.keys()
        if missing:
            raise ValueError(f"order does not cover variables: {sorted(missing)}")
    diff = covered - target
    if diff.is_zero():
        return EquivalenceReport(equivalent=True)
    z = min(sum(1 << position[name] for name in support) for support in diff.supports())
    assignment = {name: (z >> i) & 1 for i, name in enumerate(sched.variables)}
    return EquivalenceReport(
        equivalent=False,
        mismatch_assignment=assignment,
        phase=covered.evaluate(assignment),
        expected=target.evaluate(assignment),
    )
