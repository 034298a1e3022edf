"""Command-line front end.

Subcommands mirror the pipeline stages::

    dualize    constraints -> penalty-form objective, with the slack report
    graph      derived interaction hypergraph (after subset absorption)
    color      proper edge coloring plus bound annotations
    schedule   layered circuit for p iterations
    analyze    full pipeline artifact incl. the depth report
    verify     correctness oracles: penalty argmin preservation, by
               enumeration, and schedule/objective phase equivalence, by
               comparing coefficients

Exit codes: 0 success, 1 invalid input, 2 infeasible constraint, 3 gate
width violation, 4 an exact search (``--method auto``, ``exact`` or
``merge-exact``) stopped at its node budget or Python's recursion limit:
the best coloring it found is still emitted, flagged ``budget_exceeded``
and not ``coloring_exact``.  Each error class in :mod:`qaoadepth.errors`
declares its own code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from . import io as io_mod
from .dualize import dualize, verify_penalty
from .errors import InvalidInputError, QaoaDepthError
from .phasesim import check_equivalence
from .pipeline import check_settings, run_pipeline
from .hypergraph import DEFAULT_EXACT_BUDGET
from .problems import (
    Problem, make_knapsack, make_maxcut, make_maxindset, make_vertex_cover, with_penalty_weight,
)

_GRAPH_FAMILIES = {
    "maxcut": make_maxcut,
    "maxindset": make_maxindset,
    "vertex_cover": make_vertex_cover,
}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    return [_parse_fraction(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoadepth",
        description="Penalty-form compilation and circuit-depth analysis "
        "for constrained binary optimization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        src = p.add_argument_group("problem input")
        src.add_argument("--problem", metavar="FILE", help="problem JSON file")
        src.add_argument(
            "--family",
            choices=sorted(_GRAPH_FAMILIES) + ["knapsack"],
            help="generate the problem from a family instead of a JSON file",
        )
        src.add_argument("--graph", metavar="FILE", help="DIMACS edge file for graph families")
        src.add_argument("--values", type=_fraction_list, help="knapsack item values, comma separated")
        src.add_argument("--weights", type=_fraction_list, help="knapsack item weights, comma separated")
        src.add_argument("--capacity", type=_parse_fraction, help="knapsack capacity")
        src.add_argument("--preprocess", action="store_true", help="tighten the knapsack slack range")
        p.add_argument("--lambda", dest="penalty_weight", type=_parse_fraction, metavar="VALUE",
                       help="penalty weight applied to every constraint")
        p.add_argument("--gate-width", type=int, default=2, metavar="L",
                       help="max qubits per gate (default 2)")
        p.add_argument("--budget", type=int, default=DEFAULT_EXACT_BUDGET, metavar="NODES",
                       help="node budget for exact searches (default %(default)s)")
        p.add_argument("--method", default="auto",
                       choices=["auto", "exact", "misra-gries", "greedy", "merge-exact"],
                       help="coloring method (default auto)")
        p.add_argument("--iterations", type=int, default=1, metavar="P",
                       help="schedule repetition count p (default 1)")
        p.add_argument("--format", default="json", choices=["json", "dot", "text"],
                       help="output format (default json)")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    for name, help_text in (
        ("dualize", "emit the penalty-form objective and slack report"),
        ("graph", "emit the derived interaction hypergraph"),
        ("color", "emit a proper edge coloring"),
        ("schedule", "emit the layered circuit schedule"),
        ("analyze", "run the full pipeline and emit the depth artifact"),
        ("verify", "run the penalty and phase correctness oracles"),
    ):
        add_common(sub.add_parser(name, help=help_text))

    return parser


def _load_problem(args) -> Problem:
    """The problem from its source, with ``--lambda`` as every constraint's weight."""
    sources = [args.problem is not None, args.family is not None]
    if sum(sources) != 1:
        raise InvalidInputError("exactly one of --problem or --family is required")
    if args.problem is not None:
        problem = io_mod.read_problem(args.problem)
    elif args.family == "knapsack":
        if args.values is None or args.weights is None or args.capacity is None:
            raise InvalidInputError("knapsack needs --values, --weights and --capacity")
        problem = make_knapsack(
            args.values, args.weights, args.capacity, preprocess=args.preprocess
        )
    elif args.graph is None:
        raise InvalidInputError(f"family {args.family!r} needs --graph FILE")
    else:
        problem = _GRAPH_FAMILIES[args.family](io_mod.read_dimacs_graph(args.graph))
    if args.penalty_weight is None:
        return problem
    return with_penalty_weight(problem, args.penalty_weight)


def _emit(text: str, args) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc


def _config_snapshot(args) -> dict:
    keys = (
        "command", "problem", "family", "graph", "gate_width", "budget", "method",
        "iterations", "format",
    )
    snapshot = {key: getattr(args, key, None) for key in keys}
    if args.penalty_weight is not None:
        snapshot["lambda"] = args.penalty_weight
    return snapshot


def _penalty_oracle(result, args) -> dict:
    check = verify_penalty(result.pubo, result.problem)
    return {
        "passed": check.passed,
        "detail": check.detail,
        "optima": check.constrained_argmin,
        "variable_order": check.variable_order,
    }


def _phase_oracle(result, args) -> dict:
    check = check_equivalence(result.schedule, result.pubo)
    return {"passed": check.equivalent, "mismatch": check.mismatch_assignment}


#: Each JSON artifact section, built from the run's result and the arguments.
_SECTIONS = {
    "problem": lambda r, args: io_mod.problem_to_json(r.problem),
    "pubo": lambda r, args: io_mod.pubo_to_json(r.pubo),
    "hypergraph": lambda r, args: io_mod.hypergraph_to_json(r.hypergraph),
    "coloring": lambda r, args: io_mod.coloring_to_json(r.coloring),
    "depth": lambda r, args: io_mod.depth_report_to_json(r.report),
    "schedule": lambda r, args: io_mod.schedule_to_json(r.schedule),
    "flags": lambda r, args: {
        "budget_exceeded": r.budget_exceeded,
        "coloring_exact": r.coloring.method == "exact" and not r.budget_exceeded,
        "notes": r.notes,
    },
    "penalty_oracle": _penalty_oracle,
    "phase_oracle": _phase_oracle,
}

#: The sections of each subcommand's artifact, inside the {config, tool} envelope.
_ARTIFACT_SECTIONS = {
    "dualize": ("problem", "pubo"),
    "graph": ("hypergraph",),
    "color": ("hypergraph", "coloring"),
    "schedule": ("schedule", "depth"),
    "analyze": ("problem", "pubo", "hypergraph", "coloring", "depth", "schedule", "flags"),
    "verify": ("penalty_oracle", "phase_oracle"),
}


def _render_dualize(result, args) -> str:
    lines = [f"penalty objective: {result.pubo.objective}"]
    for record in result.pubo.dualizations:
        if record.dropped:
            lines.append(f"constraint {record.index}: dropped ({record.reason})")
        else:
            lines.append(
                f"constraint {record.index}: slack range {record.slack_range}, "
                f"{record.bit_count} slack bits {list(record.slack_vars)}, "
                f"weight {record.weight}"
            )
        for note in record.notes:
            lines.append(f"  note: {note}")
        if record.expansion_diff is not None and record.expansion_diff.has_differences:
            lines.append("  reference expansion differs; see the JSON report")
    return "\n".join(lines) + "\n"


def _render_graph(result, args) -> str:
    h = result.hypergraph
    if args.format == "dot":
        return io_mod.hypergraph_to_dot(h)
    lines = [f"{len(h.vertices)} vertices, {len(h.edges)} hyperedges, "
             f"{len(h.singletons)} singleton terms"]
    lines += ["  {" + ",".join(edge.support) + "}" for edge in h.edges]
    return "\n".join(lines) + "\n"


def _render_color(result, args) -> str:
    h, coloring = result.hypergraph, result.coloring
    if args.format == "dot":
        return io_mod.hypergraph_to_dot(h, coloring)
    lines = [f"{coloring.num_colors} color classes ({coloring.method})"]
    for c, cls in enumerate(coloring.classes):
        supports = ["{" + ",".join(h.edges[i].support) + "}" for i in cls]
        lines.append(f"  c{c}: " + " ".join(supports))
    return "\n".join(lines) + "\n"


def _render_schedule(result, args) -> str:
    ansi = args.out is None and sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    return io_mod.render_schedule_text(result.schedule, color=ansi)


def _render_analyze(result, args) -> str:
    report, sched = result.report, result.schedule
    lines = [
        f"hypergraph: {len(result.hypergraph.edges)} gates over "
        f"{len(result.hypergraph.vertices)} qubits, max degree {result.hypergraph.max_degree()}",
        f"coloring: {result.coloring.num_colors} classes ({result.coloring.method}), "
        f"lower bound {result.coloring.lower_bound}",
        f"depth per iteration: {sched.structural_depth} "
        f"({sched.coloring_depth} cost + {sched.singleton_overhead} singleton + 1 mixer)",
        f"total depth (p={sched.iterations}): {sched.total_depth}",
    ]
    if report.family_bound is not None:
        fb = report.family_bound
        value = "-" if fb.value is None else fb.value
        lines.append(f"family figure [{fb.family}]: {fb.formula} = {value}")
        if fb.matches_structural is False:
            lines.append("  (differs from the structural depth; see notes)")
    for note in report.notes:
        lines.append(f"note: {note}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines + ["", _render_schedule(result, args)])


def _render_verify(result, args) -> str:
    penalty = _penalty_oracle(result, args)
    phase = _phase_oracle(result, args)
    return "penalty oracle: {}\nphase oracle: {}\n".format(
        "pass" if penalty["passed"] else f"FAIL ({penalty['detail']})",
        "pass" if phase["passed"] else "FAIL",
    )


#: Text output of each subcommand, and DOT output of the two that have one.
_RENDERERS = {
    "dualize": _render_dualize,
    "graph": _render_graph,
    "color": _render_color,
    "schedule": _render_schedule,
    "analyze": _render_analyze,
    "verify": _render_verify,
}


def _run(args) -> int:
    problem = _load_problem(args)
    if args.format == "dot" and args.command not in ("graph", "color"):
        raise InvalidInputError(
            f"--format dot applies to 'graph' and 'color' only, not {args.command!r}"
        )
    if args.command == "dualize":
        check_settings(args.gate_width, args.iterations, args.budget)
        result = SimpleNamespace(problem=problem, pubo=dualize(problem), budget_exceeded=False)
    else:
        result = run_pipeline(
            problem,
            gate_width=args.gate_width,
            p=args.iterations,
            method=args.method,
            budget=args.budget,
        )
    if args.format == "json":
        artifact = {
            "config": _config_snapshot(args),
            "tool": {"name": io_mod.TOOL_NAME, "version": __version__},
        }
        for name in _ARTIFACT_SECTIONS[args.command]:
            artifact[name] = _SECTIONS[name](result, args)
        _emit(io_mod.dumps(artifact), args)
    else:
        _emit(_RENDERERS[args.command](result, args), args)
    return 4 if result.budget_exceeded else 0


#: The parser :func:`main` uses, built on its first call.  Building it costs
#: about 25 times a parse, and ``parse_args`` returns a fresh namespace each
#: time, so one parser serves every call in a process.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command line; the collector is paused for the run.

    A run leaves only a few cyclic objects behind (a search's recursive
    closure), which the next collection frees, while the generation-0
    collections its allocations would trigger cost time.  The caller's own
    collector state is restored on every exit.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    except QaoaDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
