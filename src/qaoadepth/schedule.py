"""Layered circuit schedules and depth reports.

A proper coloring turns into one cost layer per color class: gates in a
class act on disjoint qubits, so they run in parallel.  A single-variable
phase term on a qubit some gate acts on is already folded into that gate
(:func:`~qaoadepth.hypergraph.build`); the others sit on qubits that are
idle in every cost layer, so they join the first one.  Only a hypergraph
with no edge at all gets a layer of its own for its phases, the
``singleton`` layer.  Each iteration ends with the mixer layer of
single-qubit X rotations, so

    structural depth per iteration = color classes + 1

and 1 + 1 for phases without any interaction.

Every gate is a :class:`~qaoadepth.hypergraph.Hyperedge`: a cost gate is
the hypergraph's own edge, a phase gate carries its one linear term and
a mixer gate carries none.  The layer's ``kind`` tells them apart, and every
depth figure is a count of layers by kind.  Properness is checked when
:func:`~qaoadepth.coloring.make_coloring` builds the coloring, and a layer
checks its gates again, in one pass over their qubit names: an
:class:`~qaoadepth.coloring.EdgeColoring` built by hand skips
``make_coloring``, and the phase and mixer gates a schedule adds are in no
coloring.

Cost and phase gates share the iteration's gamma angle; the mixer layer
uses beta.  Angles stay symbolic here: tuning them is out of scope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import Sequence

from .coloring import EdgeColoring
from .dualize import Pubo
from .errors import InvalidInputError
from .hypergraph import DerivedHypergraph, Hyperedge
from .poly import Polynomial
from .problems import Problem

_support = attrgetter("support")


@dataclass(frozen=True)
class CircuitLayer:
    kind: str  # "cost", "singleton" or "mixer"
    gates: tuple[Hyperedge, ...]

    def __post_init__(self):
        names = list(chain.from_iterable(map(_support, self.gates)))
        if len(set(names)) < len(names):  # one pass; the message is built only on failure
            shared = sorted(name for name, uses in Counter(names).items() if uses > 1)
            raise InvalidInputError(f"gates within one layer overlap on qubits {shared}")


@dataclass(frozen=True)
class CircuitSchedule:
    """One iteration template plus the iteration count it repeats for."""

    variables: tuple[str, ...]
    layers: tuple[CircuitLayer, ...]  # mixer last
    iterations: int

    @property
    def structural_depth(self) -> int:
        return len(self.layers)

    @property
    def total_depth(self) -> int:
        """Depth over every iteration; each one repeats the same layers."""
        return self.iterations * len(self.layers)

    @property
    def coloring_depth(self) -> int:
        return sum(layer.kind == "cost" for layer in self.layers)

    @property
    def singleton_overhead(self) -> int:
        return sum(layer.kind == "singleton" for layer in self.layers)

    def covered_polynomial(self) -> Polynomial:
        """The sum of every gate's monomials; mixer gates carry none."""
        return Polynomial.from_terms(
            term for layer in self.layers for gate in layer.gates for term in gate.monomials
        )


def schedule(h: DerivedHypergraph, coloring: EdgeColoring, p: int = 1) -> CircuitSchedule:
    """Turn a proper coloring into a layered schedule.

    Layers are emitted largest class first, ties by their gates' sorted
    supports, and each layer's gates by support.  The phases of gate-free
    qubits (``h.singletons``) join the first cost layer, or form the one
    ``singleton`` layer when ``h`` has no edge.

    The coloring is not checked for properness again: every
    :class:`EdgeColoring` the package builds comes from
    :func:`~qaoadepth.coloring.make_coloring`, which checks it, and
    :class:`CircuitLayer` still rejects a class whose gates overlap.
    """
    if p < 1:
        raise InvalidInputError(f"iteration count must be >= 1, got {p}")

    edges = h.edges
    layer_gates = [sorted([edges[i] for i in cls], key=_support) for cls in coloring.classes]
    layer_gates.sort(key=lambda gates: (-len(gates), list(map(_support, gates))))
    # Gates at tuple cost, as build makes them: ``tuple.__new__`` in a C-level map.
    pairs = [((name,), (((name,), coeff),)) for name, coeff in h.singletons]
    phases = list(map(tuple.__new__, repeat(Hyperedge), pairs))
    if layer_gates:
        layer_gates[0].extend(phases)
    layers = [CircuitLayer("cost", tuple(gates)) for gates in layer_gates]
    if phases and not layer_gates:
        layers.append(CircuitLayer("singleton", tuple(phases)))
    mixers = tuple(map(tuple.__new__, repeat(Hyperedge), zip(zip(h.vertices), repeat(()))))
    layers.append(CircuitLayer("mixer", mixers))
    return CircuitSchedule(variables=h.vertices, layers=tuple(layers), iterations=p)


@dataclass(frozen=True)
class FamilyBound:
    """A closed-form depth figure quoted for a recognized problem family."""

    family: str
    formula: str
    value: int | None
    matches_structural: bool | None
    details: dict = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class DepthReport:
    """The depth figures of one schedule, with the family's closed-form figure."""

    schedule: CircuitSchedule
    family_bound: FamilyBound | None = None
    notes: tuple[str, ...] = ()


def _is_star(n: int, pairs: Sequence[tuple[str, ...]]) -> bool:
    """True for K(1, n-1): n - 1 distinct pairs that all share one hub."""
    if n < 2 or len(pairs) != n - 1:
        return False
    return n - 1 in Counter(name for pair in pairs for name in pair).values()


def _sat_formula_degrees(problem: Problem) -> dict[str, int]:
    """Closed-form degree per variable: |union of touching constraint supports| - 1
    plus two slack bits per touching clause.

    A degree is keyed on each constraint variable the objective does not
    count, in the problem's variable order; each clause's violation
    indicator is in the objective, so it stays in the supports and out of
    the keys.
    """
    touching: dict[str, list[tuple[str, ...]]] = {}
    for con in problem.constraints:
        support = con.lhs.variables()
        for name in support:
            touching.setdefault(name, []).append(support)
    counted = set(problem.objective.variables())
    return {
        name: len(set().union(*touching[name])) - 1 + 2 * len(touching[name])
        for name in problem.variables
        if name in touching and name not in counted
    }


def analyze_family(
    problem: Problem,
    pubo: Pubo,
    h: DerivedHypergraph,
    sched: CircuitSchedule,
) -> DepthReport:
    """Depth report with the tagged family's closed-form figure attached.

    ``problem.family`` picks which figure is quoted; every quantity in it is
    read from the problem's own structure (its variables, constraints and
    penalty form), never from the metadata that travels with the tag.  The
    star test runs on the degree-2 supports of the penalty form, not on
    ``h``, whose gates may be merged.  The structural depth is always the
    pipeline's own count; the family figure is quoted next to it and a
    discrepancy is flagged rather than reconciled when the two disagree.
    """
    structural = sched.structural_depth
    notes: list[str] = []
    bound: FamilyBound | None = None
    n = len(problem.variables)

    if problem.family in ("maxcut", "maxindset"):
        chi = sched.coloring_depth
        if not h.edges:
            phases = int(any(len(s) == 1 for s in pubo.objective.supports()))
            bound = FamilyBound(
                family=problem.family,
                formula="phase layer + 1",
                value=phases + 1,
                matches_structural=(structural == phases + 1),
                details={"chromatic_index": 0, "phase_layer": phases},
                note="no interaction: one-qubit phases, if any, take one layer before the mixer",
            )
        elif _is_star(n, [s for s in pubo.objective.supports() if len(s) == 2]):
            bound = FamilyBound(
                family=problem.family,
                formula="n",
                value=n,
                matches_structural=(structural == n),
                details={"n": n, "chromatic_index": chi},
                note="star instance: every edge needs its own color",
            )
        else:
            bound = FamilyBound(
                family=problem.family,
                formula="chromatic_index + 1",
                value=chi + 1,
                matches_structural=(structural == chi + 1),
                details={"chromatic_index": chi},
                note="+1 for the mixer; one-qubit phases ride inside the cost gates",
            )
    elif problem.family == "vertex_cover":
        constraints_on = Counter(
            name for con in problem.constraints for name in con.lhs.variables()
        )
        bound = FamilyBound(
            family="vertex_cover",
            formula="2*chi(G) + 1",
            value=None,
            matches_structural=None,
            details={"instance_max_degree": max(constraints_on.values(), default=0)},
            note=(
                "quoted formula uses chi(G) ambiguously (vertex vs edge chromatic "
                "number); the structural depth above is the computed figure"
            ),
        )
    elif problem.family == "knapsack":
        slack_bits = sum(d.bit_count for d in pubo.dualizations)
        two_sided = any(con.lower is not None for con in problem.constraints)
        argument = "max_weight" if two_sided else "capacity"
        value = n + slack_bits
        bound = FamilyBound(
            family="knapsack",
            formula=f"n + ln({argument})",
            value=value,
            matches_structural=(structural == value),
            details={
                "n": n,
                "slack_bits": slack_bits,
                "note": "computed as n plus ceil(log2(range+1)) slack bits",
            },
            note="quoted ln is read as the binary slack-bit count",
        )
    elif problem.family == "tsp":
        n_dualized = sum(1 for d in pubo.dualizations if not d.dropped)
        value = n - 1 + 2 * n_dualized
        bound = FamilyBound(
            family="tsp",
            formula="n - 1 + 2*N_c",
            value=value,
            matches_structural=(structural == value),
            details={
                "n_edge_vars": n,
                "n_dualized_constraints": n_dualized,
                "derived_max_degree": h.max_degree(),
            },
        )
    elif problem.family == "sat":
        formula_degrees = _sat_formula_degrees(problem)
        actual = _actual_degrees(h)
        comparison = {
            name: {"formula": deg, "derived_graph": actual.get(name, 0)}
            for name, deg in formula_degrees.items()
        }
        mismatched = sorted(
            name for name, pair in comparison.items()
            if pair["formula"] != pair["derived_graph"]
        )
        if mismatched:
            notes.append(f"degree formula disagrees with the derived graph at {mismatched}")
        bound = FamilyBound(
            family="sat",
            formula="|union(c in C_x)| - 1 + 2*|C_x| per variable",
            value=max(formula_degrees.values(), default=0),
            matches_structural=None,
            details={"degrees": comparison},
            note="per-variable degree figure, not a depth; max shown as value",
        )
    elif problem.family is not None:
        notes.append(f"unrecognized family {problem.family!r}; structural report only")

    if bound is not None and bound.matches_structural is False:
        notes.append(
            f"family figure {bound.value} differs from structural depth {structural}"
        )

    return DepthReport(schedule=sched, family_bound=bound, notes=tuple(notes))


def _actual_degrees(h: DerivedHypergraph) -> dict[str, int]:
    """Distinct-neighbor count per touched qubit in the derived structure."""
    neighbors = ({y for e in edges for y in h.ends[e]} for edges in h.incident)
    return {name: len(peers) - 1 for name, peers in zip(h.qubits, neighbors)}
