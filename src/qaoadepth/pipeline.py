"""End-to-end orchestration: problem -> penalty form -> gates -> layers -> report."""

from __future__ import annotations

from dataclasses import dataclass

from . import coloring as coloring_mod
from . import hypergraph as hypergraph_mod
from .coloring import EdgeColoring
from .dualize import Pubo, dualize
from .errors import InvalidInputError
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

    ``method`` selects the coloring: "auto" runs the exact search when the
    hypergraph has at most :data:`EXACT_EDGE_LIMIT` edges, and a heuristic
    otherwise.  A search that stops short of its lower bound, under "auto",
    "exact" or "merge-exact", gives the best coloring it found, uncertified,
    and sets ``budget_exceeded`` with a note.  :func:`check_settings` runs
    first.
    """
    check_settings(gate_width, p, budget)
    pubo = dualize(problem)
    h = hypergraph_mod.absorb_subsets(hypergraph_mod.build(pubo), gate_width)
    hypergraph_mod.check_gate_width(h, gate_width)

    notes: list[str] = []
    if method == "exact" or (method == "auto" and len(h.edges) <= EXACT_EDGE_LIMIT):
        coloring = coloring_mod.color_exact(h, budget=budget)
    elif method == "auto":
        if h.uniform_size() == 2:
            coloring = coloring_mod.color_misra_gries(h)
        else:
            coloring = coloring_mod.color_greedy(h)
        notes.append(
            f"{len(h.edges)} hyperedges exceed the exact-coloring cutoff "
            f"{EXACT_EDGE_LIMIT}; heuristic {coloring.method} coloring used"
        )
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
    # Only a search that stopped short leaves an exact coloring above its lower bound.
    budget_exceeded = coloring.method == "exact" and coloring.lower_bound < coloring.num_colors
    if budget_exceeded:
        notes.append(
            f"exact search stopped at its {budget}-node budget or Python's recursion "
            "limit; best coloring found reported, uncertified"
        )

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
