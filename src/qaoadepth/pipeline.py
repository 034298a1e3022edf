"""End-to-end orchestration: problem -> penalty form -> gates -> layers -> report."""

from __future__ import annotations

from dataclasses import dataclass

from . import coloring as coloring_mod
from . import hypergraph as hypergraph_mod
from .coloring import EdgeColoring
from .dualize import Pubo, dualize
from .errors import BudgetExceededError, InvalidInputError
from .hypergraph import DEFAULT_EXACT_BUDGET, DerivedHypergraph
from .problems import Problem
from .schedule import CircuitSchedule, DepthReport, analyze_family, schedule

#: Above this many hyperedges ``method="auto"`` does not try the exact search.
EXACT_EDGE_LIMIT = 20


@dataclass
class PipelineResult:
    problem: Problem
    pubo: Pubo
    hypergraph: DerivedHypergraph
    coloring: EdgeColoring
    schedule: CircuitSchedule
    report: DepthReport
    budget_exceeded: bool = False
    notes: tuple[str, ...] = ()


def _heuristic_coloring(h: DerivedHypergraph) -> EdgeColoring:
    if h.uniform_size() == 2:
        return coloring_mod.color_misra_gries(h)
    return coloring_mod.color_greedy(h)


def check_settings(gate_width: int, p: int, budget: int) -> None:
    """Reject a setting no stage accepts, before any stage runs."""
    if budget < 0:
        raise InvalidInputError(f"search budget must be >= 0, got {budget}")
    if gate_width < 2:
        raise InvalidInputError(f"gate width limit must be >= 2, got {gate_width}")
    if p < 1:
        raise InvalidInputError(f"iteration count must be >= 1, got {p}")


def run_pipeline(
    problem: Problem,
    gate_width: int = 2,
    p: int = 1,
    method: str = "auto",
    budget: int = DEFAULT_EXACT_BUDGET,
) -> PipelineResult:
    """Run dualization, gate absorption, coloring, and scheduling.

    ``method`` selects the coloring: "auto" tries the exact search when the
    hypergraph has at most :data:`EXACT_EDGE_LIMIT` edges and falls back to a
    heuristic (flagged, not fatal) if the node budget runs out; larger
    hypergraphs get the heuristic outright.  The explicit methods raise
    instead of falling back.  :func:`check_settings` runs first.
    """
    check_settings(gate_width, p, budget)
    pubo = dualize(problem)
    h = hypergraph_mod.absorb_subsets(hypergraph_mod.build(pubo), gate_width)
    hypergraph_mod.check_gate_width(h, gate_width)

    notes: list[str] = []
    budget_exceeded = False
    if method == "auto":
        if len(h.edges) <= EXACT_EDGE_LIMIT:
            try:
                coloring = coloring_mod.color_exact(h, budget=budget)
            except BudgetExceededError:
                budget_exceeded = True
                coloring = _heuristic_coloring(h)
                notes.append(
                    f"exact coloring exceeded the {budget}-node budget; "
                    f"heuristic {coloring.method} coloring reported instead"
                )
        else:
            coloring = _heuristic_coloring(h)
            notes.append(
                f"{len(h.edges)} hyperedges exceed the exact-coloring cutoff "
                f"{EXACT_EDGE_LIMIT}; heuristic {coloring.method} coloring used"
            )
    elif method == "exact":
        coloring = coloring_mod.color_exact(h, budget=budget)
    elif method == "misra-gries":
        coloring = coloring_mod.color_misra_gries(h)
    elif method == "greedy":
        coloring = coloring_mod.color_greedy(h)
    elif method == "merge-exact":
        merged = hypergraph_mod.merge_exact(h, gate_width, budget=budget)
        h = merged.hypergraph
        coloring = merged.coloring
    else:
        raise InvalidInputError(f"unknown coloring method {method!r}")

    sched = schedule(h, coloring, p=p)
    report = analyze_family(problem, pubo, h, sched)

    return PipelineResult(
        problem=problem,
        pubo=pubo,
        hypergraph=h,
        coloring=coloring,
        schedule=sched,
        report=report,
        budget_exceeded=budget_exceeded,
        notes=tuple(notes),
    )
