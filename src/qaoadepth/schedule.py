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


def _graph_figure(problem, pubo, h, sched, notes):
    """MaxCut and MaxIndSet: the chromatic index plus the mixer, ``n`` for a star."""
    n, chi = len(problem.variables), sched.coloring_depth
    if not h.edges:
        phases = int(any(len(s) == 1 for s in pubo.objective.supports()))
        return (
            "phase layer + 1", phases + 1, {"chromatic_index": 0, "phase_layer": phases},
            "no interaction: one-qubit phases, if any, take one layer before the mixer", True,
        )
    pairs = [s for s in pubo.objective.supports() if len(s) == 2]
    # A star K(1, n-1): n - 1 distinct pairs that all share one hub.
    if n >= 2 and len(pairs) == n - 1 and n - 1 in Counter(chain.from_iterable(pairs)).values():
        note = "star instance: every edge needs its own color"
        return "n", n, {"n": n, "chromatic_index": chi}, note, True
    return (
        "chromatic_index + 1", chi + 1, {"chromatic_index": chi},
        "+1 for the mixer; one-qubit phases ride inside the cost gates", True,
    )


def _vertex_cover_figure(problem, pubo, h, sched, notes):
    constraints_on = Counter(name for con in problem.constraints for name in con.lhs.variables())
    return (
        "2*chi(G) + 1", None, {"instance_max_degree": max(constraints_on.values(), default=0)},
        "quoted formula uses chi(G) ambiguously (vertex vs edge chromatic "
        "number); the structural depth above is the computed figure",
        False,
    )


def _knapsack_figure(problem, pubo, h, sched, notes):
    n, slack_bits = len(problem.variables), sum(d.bit_count for d in pubo.dualizations)
    two_sided = any(con.lower is not None for con in problem.constraints)
    details = {
        "n": n,
        "slack_bits": slack_bits,
        "note": "computed as n plus ceil(log2(range+1)) slack bits",
    }
    return (
        f"n + ln({'max_weight' if two_sided else 'capacity'})", n + slack_bits, details,
        "quoted ln is read as the binary slack-bit count", True,
    )


def _tsp_figure(problem, pubo, h, sched, notes):
    n, n_dualized = len(problem.variables), sum(1 for d in pubo.dualizations if not d.dropped)
    details = {
        "n_edge_vars": n,
        "n_dualized_constraints": n_dualized,
        "derived_max_degree": h.max_degree(),
    }
    return "n - 1 + 2*N_c", n - 1 + 2 * n_dualized, details, "", True


def _sat_figure(problem, pubo, h, sched, notes):
    """Per variable, |union of touching constraint supports| - 1 plus two
    slack bits per touching clause, beside its degree in the derived graph;
    not a depth.

    A degree is keyed on each constraint variable the objective does not
    count, in the problem's variable order; each clause's violation
    indicator is in the objective, so it stays in the supports and out of
    the keys.  The derived graph's degree is the qubit's distinct neighbors.
    """
    touching: dict[str, list[tuple[str, ...]]] = {}
    for con in problem.constraints:
        support = con.lhs.variables()
        for name in support:
            touching.setdefault(name, []).append(support)
    counted = set(problem.objective.variables())
    neighbors = ({y for e in edges for y in h.ends[e]} for edges in h.incident)
    actual = {name: len(peers) - 1 for name, peers in zip(h.qubits, neighbors)}
    comparison = {
        name: {
            "formula": len(set().union(*touching[name])) - 1 + 2 * len(touching[name]),
            "derived_graph": actual.get(name, 0),
        }
        for name in problem.variables
        if name in touching and name not in counted
    }
    mismatched = sorted(
        name for name, pair in comparison.items() if pair["formula"] != pair["derived_graph"]
    )
    if mismatched:
        notes.append(f"degree formula disagrees with the derived graph at {mismatched}")
    return (
        "|union(c in C_x)| - 1 + 2*|C_x| per variable",
        max((pair["formula"] for pair in comparison.values()), default=0),
        {"degrees": comparison},
        "per-variable degree figure, not a depth; max shown as value",
        False,
    )


#: Per family tag, its figure: (formula, value, details, note, whether the
#: value is a depth to compare with the structural one).
_FAMILY_FIGURES = {
    "maxcut": _graph_figure,
    "maxindset": _graph_figure,
    "vertex_cover": _vertex_cover_figure,
    "knapsack": _knapsack_figure,
    "tsp": _tsp_figure,
    "sat": _sat_figure,
}


def analyze_family(
    problem: Problem,
    pubo: Pubo,
    h: DerivedHypergraph,
    sched: CircuitSchedule,
) -> DepthReport:
    """Depth report with the tagged family's closed-form figure attached.

    ``problem.family`` picks the figure from :data:`_FAMILY_FIGURES`; every
    quantity in it is read from the problem's own structure (its variables,
    constraints and penalty form), never from the metadata that travels
    with the tag.  The star test runs on the degree-2 supports of the
    penalty form, not on ``h``, whose gates may be merged.  The structural
    depth is always the pipeline's own count.  A figure that is a depth is
    compared with it, and a discrepancy is flagged rather than reconciled;
    the vertex-cover and SAT figures are not compared.
    """
    notes: list[str] = []
    figure = _FAMILY_FIGURES.get(problem.family)
    if figure is None:
        if problem.family is not None:
            notes.append(f"unrecognized family {problem.family!r}; structural report only")
        return DepthReport(schedule=sched, notes=tuple(notes))
    structural = sched.structural_depth
    formula, value, details, note, compared = figure(problem, pubo, h, sched, notes)
    matches = structural == value if compared else None
    if matches is False:
        notes.append(f"family figure {value} differs from structural depth {structural}")
    bound = FamilyBound(problem.family, formula, value, matches, details, note)
    return DepthReport(schedule=sched, family_bound=bound, notes=tuple(notes))
