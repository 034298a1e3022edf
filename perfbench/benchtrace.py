"""Spans around the public functions of each ``qaoadepth`` module.

Each function is wrapped where its caller looks it up (a module attribute,
a module global or a class method), so nested calls become child spans.
Spans are kept in memory; :func:`layer_metrics` turns them into self
times and counts.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType


@dataclass
class Span:
    name: str
    parent: "Span | None"
    op: int | None
    start: int
    end: int = 0
    child_ns: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def attribution(self) -> str:
        """'dualize' or 'oracle', after the nearest caller that says which."""
        span = self.parent
        while span is not None:
            if span.name == "dualize.dualize":
                return "dualize"
            if span.name in ("dualize.verify_penalty", "phasesim.check_equivalence"):
                return "oracle"
            span = span.parent
        return "other"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``count(span, args, result)`` adds counts."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.op, time.perf_counter_ns())
            tracer._stack.append(span)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
                if count is not None:
                    count(span, args, kwargs, result, error)
                tracer.spans.append(span)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, modules: dict[str, ModuleType]) -> None:
        cli, pipeline, io = modules["cli"], modules["pipeline"], modules["io"]
        problems, hypergraph, coloring = modules["problems"], modules["hypergraph"], modules["coloring"]
        polynomial = modules["poly"].Polynomial

        for attr in ("make_sat", "make_knapsack"):
            self.wrap(problems, attr, "problems.generate")
        for attr in ("read_problem", "read_dimacs_graph"):
            self.wrap(io, attr, "io.read")
        for attr in (
            "problem_to_json", "pubo_to_json", "hypergraph_to_json", "coloring_to_json",
            "depth_report_to_json", "schedule_to_json", "dumps",
        ):
            self.wrap(io, attr, "io.write")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "run_pipeline", "pipeline.run_pipeline", _count_pipeline)
        self.wrap(pipeline, "dualize", "dualize.dualize", _count_dualize)
        self.wrap(cli, "verify_penalty", "dualize.verify_penalty")
        self.wrap(cli, "check_equivalence", "phasesim.check_equivalence")
        self.wrap(polynomial, "square", "poly.square")
        self.wrap(polynomial, "values_over_cube", "poly.cube", _count_cube)
        self.wrap(polynomial, "minimum_over_cube", "poly.cube_min", _count_cube_min)
        self.wrap(hypergraph, "build", "hypergraph.build")
        self.wrap(hypergraph, "absorb_subsets", "hypergraph.absorb", _count_absorb)
        self.wrap(hypergraph, "merge_exact", "hypergraph.merge_exact", _count_merge)
        self.wrap(coloring, "bounds", "coloring.bounds")
        self.wrap(coloring, "color_misra_gries", "coloring.misra_gries")
        self.wrap(coloring, "color_greedy", "coloring.greedy")
        self.wrap(coloring, "color_exact", "coloring.exact")
        self.wrap(pipeline, "schedule", "schedule.schedule")
        self.wrap(pipeline, "analyze_family", "schedule.analyze_family")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_pipeline(span, args, kwargs, result, error):
    if result is not None:
        span.counts["gates"] = len(result.hypergraph.edges)


def _count_dualize(span, args, kwargs, result, error):
    if result is not None:
        records = result.dualizations
        span.counts["constraints"] = len(records)
        span.counts["dropped"] = sum(r.dropped for r in records)
        span.counts["slack_bits"] = sum(r.bit_count for r in records)
        span.counts["pubo_terms"] = result.objective.num_terms()


def _count_cube(span, args, kwargs, result, error):
    if result is not None:
        span.counts["points"] = len(result)


def _count_cube_min(span, args, kwargs, result, error):
    if result is not None:
        span.counts["interval"] = 0 if result[1] else 1


def _count_absorb(span, args, kwargs, result, error):
    if result is not None:
        span.counts["absorbed"] = len(args[0].edges) - len(result.edges)


def _count_merge(span, args, kwargs, result, error):
    if result is not None:
        span.counts["nodes"] = result.nodes_explored
    elif getattr(error, "budget", None) is not None:
        span.counts["nodes"] = error.budget


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times (seconds) and counts per layer over the spans of operations."""
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        name = span.name
        if name == "poly.cube":
            name = f"poly.cube.{span.attribution()}"
        if span.op is None and name != "problems.generate":
            continue
        self_ns[name] += span.end - span.start - span.child_ns
        calls[name] += 1
        for key, value in span.counts.items():
            counts[f"{name}.{key}"] += value

    def seconds(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    interval_calls = calls.get("poly.cube_min", 0)
    return {
        "problems.generate_s": seconds("problems.generate"),
        "io.read.self_s": seconds("io.read"),
        "io.write.self_s": seconds("io.write"),
        "cli.main.self_s": seconds("cli.main"),
        "pipeline.run_pipeline.self_s": seconds("pipeline.run_pipeline"),
        "dualize.dualize.self_s": seconds("dualize.dualize"),
        "dualize.constraints": counts["dualize.dualize.constraints"],
        "dualize.dropped": counts["dualize.dualize.dropped"],
        "dualize.slack_bits": counts["dualize.dualize.slack_bits"],
        "dualize.pubo_terms": counts["dualize.dualize.pubo_terms"],
        "dualize.verify_penalty.self_s": seconds("dualize.verify_penalty"),
        "poly.square.self_s": seconds("poly.square"),
        "poly.square.calls": calls.get("poly.square", 0),
        "poly.cube.self_s.dualize": seconds("poly.cube.dualize"),
        "poly.cube_points.dualize": counts["poly.cube.dualize.points"],
        "poly.cube.self_s.oracle": seconds("poly.cube.oracle"),
        "poly.cube_points.oracle": counts["poly.cube.oracle.points"],
        "poly.cube_min.interval_share": (
            counts["poly.cube_min.interval"] / interval_calls if interval_calls else 0.0
        ),
        "hypergraph.build.self_s": seconds("hypergraph.build"),
        "hypergraph.absorb.self_s": seconds("hypergraph.absorb"),
        "hypergraph.absorbed": counts["hypergraph.absorb.absorbed"],
        "hypergraph.gates": counts["pipeline.run_pipeline.gates"],
        "hypergraph.merge_exact.self_s": seconds("hypergraph.merge_exact"),
        "hypergraph.merge_exact.nodes": counts["hypergraph.merge_exact.nodes"],
        "coloring.bounds.self_s": seconds("coloring.bounds"),
        "coloring.bounds.calls": calls.get("coloring.bounds", 0),
        "coloring.misra_gries.self_s": seconds("coloring.misra_gries"),
        "coloring.greedy.self_s": seconds("coloring.greedy"),
        "coloring.exact.self_s": seconds("coloring.exact"),
        "schedule.schedule.self_s": seconds("schedule.schedule"),
        "schedule.analyze_family.self_s": seconds("schedule.analyze_family"),
        "phasesim.check_equivalence.self_s": seconds("phasesim.check_equivalence"),
    }
