"""Exception hierarchy shared across the package.

Each class declares the process exit code the CLI returns for it, so
library code should raise the most specific class that applies.  A search
that runs out of its node budget is not an error: it returns the best it
found, flagged, and the CLI exits 4 with the artifact.
"""


class QaoaDepthError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(QaoaDepthError):
    """Malformed or inconsistent user input (files, arguments, problem data)."""


class MissingAssignmentError(QaoaDepthError):
    """A polynomial was evaluated with an assignment missing some variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"assignment is missing variable {variable!r}")


class InfeasibleConstraintError(QaoaDepthError):
    """A constraint cannot be satisfied by any binary assignment."""

    exit_code = 2

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(f"constraint {index} is infeasible: {reason}")


class GateWidthError(QaoaDepthError):
    """A required gate acts on more qubits than the hardware limit allows.

    Splitting wide diagonal gates into narrower ones is deliberately not
    performed; re-run with a larger --gate-width if the hardware allows it.
    """

    exit_code = 3

    def __init__(self, limit: int, supports):
        self.limit = limit
        self.supports = tuple(supports)
        names = ", ".join("{" + ",".join(s) + "}" for s in self.supports)
        super().__init__(
            f"gate width limit {limit} exceeded by interaction(s): {names}"
        )

