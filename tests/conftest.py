from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from qaoadepth import Constraint, InstanceGraph, Polynomial, Problem

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

W6_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))


@pytest.fixture
def w6() -> InstanceGraph:
    return InstanceGraph(n=6, edges=W6_EDGES)


@pytest.fixture
def general_problem() -> Problem:
    """max x1+x2+x3 subject to the quadratic budget x1x2 + x2x3 + 2x1x3 <= 3."""
    return Problem(
        sense="max",
        objective=Polynomial.from_terms(((f"x{i}",), 1) for i in (1, 2, 3)),
        constraints=(
            Constraint(
                lhs=Polynomial({("x1", "x2"): 1, ("x2", "x3"): 1, ("x1", "x3"): 2}),
                rhs=Fraction(3),
                label="budget",
            ),
        ),
        variables=("x1", "x2", "x3"),
    )


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR
