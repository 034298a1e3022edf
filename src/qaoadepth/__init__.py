"""Penalty-form PUBO compilation and QAOA circuit-depth analysis.

Pipeline: a constrained binary problem is dualized into an unconstrained
penalty objective with binary slack bits (powers of two, the last one cut
to the slack range), the objective's monomials become the hyperedges of an
interaction hypergraph, a proper edge coloring groups commuting gates into
parallel layers, and the resulting schedule yields per-iteration depth
figures alongside the closed-form values known for the classic problem
families.
"""

from .coloring import (
    BoundRef,
    EdgeColoring,
    bounds,
    color_exact,
    color_greedy,
    color_misra_gries,
)
from .dualize import (
    ConstraintDualization,
    ExpansionDiff,
    PenaltyVerification,
    Pubo,
    dualize,
    expansion_diff,
    verify_penalty,
)
from .errors import (
    GateWidthError,
    InfeasibleConstraintError,
    InvalidInputError,
    MissingAssignmentError,
    QaoaDepthError,
)
from .hypergraph import (
    DerivedHypergraph,
    Hyperedge,
    MergeResult,
    absorb_subsets,
    build,
    check_gate_width,
    merge_exact,
)
from .phasesim import EquivalenceReport, check_equivalence
from .pipeline import PipelineResult, run_pipeline
from .poly import Polynomial
from .problems import (
    Constraint,
    InstanceGraph,
    Problem,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    with_penalty_weight,
)
from .schedule import (
    CircuitLayer,
    CircuitSchedule,
    DepthReport,
    FamilyBound,
    analyze_family,
    schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRef",
    "CircuitLayer",
    "CircuitSchedule",
    "Constraint",
    "ConstraintDualization",
    "DepthReport",
    "DerivedHypergraph",
    "EdgeColoring",
    "EquivalenceReport",
    "ExpansionDiff",
    "FamilyBound",
    "GateWidthError",
    "Hyperedge",
    "InfeasibleConstraintError",
    "InstanceGraph",
    "InvalidInputError",
    "MergeResult",
    "MissingAssignmentError",
    "PenaltyVerification",
    "PipelineResult",
    "Polynomial",
    "Problem",
    "Pubo",
    "QaoaDepthError",
    "absorb_subsets",
    "analyze_family",
    "bounds",
    "build",
    "check_equivalence",
    "check_gate_width",
    "color_exact",
    "color_greedy",
    "color_misra_gries",
    "dualize",
    "expansion_diff",
    "make_knapsack",
    "make_maxcut",
    "make_maxindset",
    "make_sat",
    "make_tsp",
    "make_vertex_cover",
    "merge_exact",
    "run_pipeline",
    "schedule",
    "verify_penalty",
    "with_penalty_weight",
]
