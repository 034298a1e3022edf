"""The four workloads: seeded inputs written to files, and the operations on them.

Every operation is one ``qaoadepth`` command line (``analyze`` or ``verify``)
that names an input file by a path relative to the input directory, so
artifacts do not depend on where the benchmark runs.  Why each workload
exists is written up in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import benchgen

#: Node budget passed to every exact search, so an uncertified search costs bounded time.
SEARCH_BUDGET = 5_000


@dataclass(frozen=True)
class Op:
    kind: str  # "analyze" or "verify"
    argv: tuple[str, ...]
    family: str
    size: str
    known_defect: str | None = None


class Inputs:
    """Writes input files into one directory and collects the operations on them."""

    def __init__(self, directory: Path, problems: ModuleType, io: ModuleType):
        self.directory = directory
        self.problems = problems
        self.io = io
        self.ops: list[Op] = []
        directory.mkdir(parents=True, exist_ok=True)

    def _name(self, suffix: str) -> str:
        return f"in{len(self.ops):03d}.{suffix}"

    def graph(self, kind, family, n, edges, size, *flags):
        name = self._name("dimacs")
        (self.directory / name).write_text(benchgen.dimacs(n, edges), encoding="utf-8")
        self.ops.append(Op(kind, (kind, "--family", family, "--graph", name, *flags), family, size))

    def problem_json(self, kind, family, problem: dict, size, *flags):
        name = self._name("json")
        text = json.dumps(problem, indent=1, sort_keys=True) + "\n"
        (self.directory / name).write_text(text, encoding="utf-8")
        self.ops.append(
            Op(kind, (kind, "--problem", name, *flags), family, size, benchgen.known_defect(problem))
        )

    def generated(self, kind, family, problem, size, *flags):
        """A problem built by a ``qaoadepth.problems`` generator, written by ``qaoadepth.io``."""
        name = self._name("json")
        self.io.write_problem(problem, str(self.directory / name))
        self.ops.append(Op(kind, (kind, "--problem", name, *flags), family, size))

    def sat(self, kind, n_vars, clauses, *flags):
        problem = self.problems.make_sat(clauses)
        self.generated(kind, "sat", problem, f"vars={n_vars} clauses={len(clauses)}", *flags)

    def knapsack(self, kind, rng, n, preprocess, *flags):
        values, weights, capacity = benchgen.knapsack_items(rng, n)
        problem = self.problems.make_knapsack(values, weights, capacity, preprocess=preprocess)
        size = f"n={n}" + (" preprocess" if preprocess else "")
        self.generated(kind, "knapsack", problem, size, *flags)


# Every workload has at least 50 operations, so that op_tail_ms is the p80
# of the operations' latencies.  Outside search-exact, whose budget-bound
# searches cost about the same whatever their size, sizes are fixed, not
# drawn, so the operations that hold the median and the tail have the same
# size for every seed.

#: MaxCut ladder: (vertices, average degree).  Degree sets the O(m^2) / O(sum deg^2)
#: ratio that an incidence-index bounds() would change.
GRAPH_LADDER = tuple((n, 3) for n in range(200, 600, 35)) + ((1000, 3), (100, 12), (150, 8), (200, 6))
#: Seven more graphs at the ladder's 375-vertex rung.  Sorted by cost, they,
#: the rung itself and the three dense rungs, which cost about the same,
#: hold the p80 tail; without them it falls between rungs of different
#: size and moves by a quarter from seed to seed.
TAIL_BLOCK = ((375, 3),) * 7


def graph_large(rng: random.Random, out: Inputs) -> None:
    # 38 small graphs give the certified share (Misra-Gries reaching Delta
    # colors, about 4 in 5 of random graphs) enough operations to be steady
    # from seed to seed.  Sorted by cost they are 19 below 170 edges, 16 of
    # one size which hold the latency median, and 3 above.
    small = (
        tuple((30 + 3 * k, 3 + k % 2) for k in range(19))
        + ((100, 4),) * 16
        + ((120, 6), (130, 6), (140, 5))
    )
    for n, degree in small + GRAPH_LADDER + TAIL_BLOCK:
        edges = benchgen.random_graph(rng, n, degree)
        out.graph("analyze", "maxcut", n, edges, f"n={n} deg={degree}")


#: penalty-large operations by family.  Knapsack n = 18 enumerates 2^18 cube
#: points for a linear left-hand side; n = 21 is past the 20-variable limit
#: and takes the interval bound.  Sorted by cost, the 13 MaxIndSet graphs of
#: 60 vertices sit in the middle and hold the latency median; without them
#: the median falls in a gap between families and jumps by a third.
PENALTY_OPS = (
    *(("general", n, width, constraints) for n, constraints in
      ((12, 3), (14, 3), (16, 4), (20, 6), (25, 8), (30, 10)) for width in (3, 4)),
    *(("maxindset", n, degree) for n, degree in
      ((30, 3), (40, 3), (45, 4), (50, 3), *((60, 3),) * 13, (65, 4), (70, 3), (80, 3), (90, 3), (100, 4))),
    *(("vertex_cover", n, degree) for n, degree in
      ((30, 3), (35, 4), (40, 3), (45, 4), (50, 3), (55, 4), (60, 3), (70, 3), (80, 3), (90, 3))),
    *(("sat", n, clauses) for n, clauses in
      ((8, 15), (9, 18), (10, 20), (11, 22), (12, 25), (14, 28), (15, 30), (16, 32), (18, 35), (20, 40))),
    *(("knapsack", n, preprocess) for n, preprocess in
      ((10, False), (10, True), (12, False), (12, True), (14, False), (14, True),
       (15, False), (16, False), (16, True), (18, True), (21, False), (21, True))),
)


def penalty_large(rng: random.Random, out: Inputs) -> None:
    for family, *spec in PENALTY_OPS:
        if family in ("maxindset", "vertex_cover"):
            n, degree = spec
            out.graph("analyze", family, n, benchgen.random_graph(rng, n, degree), f"n={n} deg={degree}")
        elif family == "sat":
            n_vars, n_clauses = spec
            out.sat("analyze", n_vars, benchgen.random_clauses(rng, n_vars, n_clauses))
        elif family == "knapsack":
            n, preprocess = spec
            out.knapsack("analyze", rng, n, preprocess)
        else:
            n_vars, width, n_constraints = spec
            problem, pubo_vars = benchgen.general_problem(rng, n_vars, width, n_constraints)
            out.problem_json(
                "analyze", "general", problem, f"vars={pubo_vars} width={width}",
                "--gate-width", str(width),
            )


def oracle_small(rng: random.Random, out: Inputs) -> None:
    # Sizes are variables after dualization.  Three tiers: every family and
    # a random PUBO four times at 12 variables; 12 MaxCut instances at 14,
    # which hold the latency median; and 20 general problems at 12, whose
    # rational data takes the slower Fraction tables, which hold the p80 tail.
    def families(size: int) -> None:
        label = f"vars={size}"
        out.graph("verify", "maxcut", size, benchgen.random_graph(rng, size, 3), label)
        mis = size - 2  # one penalty table per edge makes it the slowest family
        out.graph("verify", "maxindset", mis, benchgen.random_graph(rng, mis, 3), f"vars={mis}")
        cover = size // 2  # one slack bit per edge: as many edges as vertices
        edges = benchgen.random_graph(rng, cover, 2 * (size - cover) / cover)
        out.graph("verify", "vertex_cover", cover, edges, label)
        n_vars = size - 9  # 3 clauses, each with an indicator and 2 slack bits
        out.sat("verify", n_vars, benchgen.random_clauses(rng, n_vars, 3))
        out.knapsack("verify", rng, size - 5, True)
        problem = benchgen.random_pubo(rng, size, 2 * size, 3)
        out.problem_json("verify", "pubo", problem, f"{label} width=3", "--gate-width", "3")

    for _ in range(4):
        families(12)
    for _ in range(12):
        out.graph("verify", "maxcut", 14, benchgen.random_graph(rng, 14, 3), "vars=14")
    for index in range(20):
        width = 3 + index % 2
        problem, _ = benchgen.general_problem(rng, rng.randint(7, 10), width, 3, 12)
        out.problem_json("verify", "general", problem, f"vars=12 width={width}", "--gate-width", str(width))


def search_exact(rng: random.Random, out: Inputs) -> None:
    # Three groups: exact colorings, which the bounds settle at once at these
    # sizes; small merge searches, which finish; and 60-monomial merge
    # searches, which nearly always spend the whole budget.  The last group
    # sets the time, at a steady cost per node, and holds both the latency
    # median and the tail; the first two, always certified, keep
    # depth_total and certified_share steady.
    groups = ((14, "exact", (30, 60)), (14, "merge-exact", (30, 40)), (52, "merge-exact", (60, 60)))
    for count, method, (fewest, most) in groups:
        for index in range(count):
            width = 3 + index % 2 if method == "exact" or most < 60 else 3
            n_vars = rng.randint(16, 20)
            n_terms = rng.randint(fewest, most)
            problem = benchgen.random_pubo(rng, n_vars, n_terms, width)
            out.problem_json(
                "analyze", "pubo", problem, f"vars={n_vars} terms={n_terms} width={width} {method}",
                "--gate-width", str(width), "--method", method, "--budget", str(SEARCH_BUDGET),
            )


WORKLOADS = {
    "graph-large": graph_large,
    "penalty-large": penalty_large,
    "oracle-small": oracle_small,
    "search-exact": search_exact,
}
