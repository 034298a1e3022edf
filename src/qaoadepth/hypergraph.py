"""Interaction hypergraph of a penalty-form objective.

Vertices are the problem's variables (original and slack); every monomial
touching at least two variables becomes a hyperedge, i.e. one multi-qubit
diagonal gate.  A single-variable term rides inside a gate on its qubit:
in the binary encoding x_u x_v = (1 - Z_u - Z_v + Z_u Z_v)/4, so the
diagonal gate of an edge on u already turns u's Z phase, and a linear term
on u only changes that angle (Hadfield, arXiv:1804.09130).  Only qubits no
edge acts on keep a one-qubit phase gate, and the constant term is recorded
as an offset.

Two reductions shrink the gate count under a hardware width limit L:

* :func:`absorb_subsets` merges any monomial whose support is contained in
  another gate of width <= L into that gate, which already acts on all the
  qubits the narrower one needs; each gate collects the narrower edges
  listed at its qubits.
* :func:`merge_exact` searches for the depth-optimal joint solution: gates
  may group several monomials whose combined support stays within L, and
  disjoint gates may share a circuit layer.  Branch and bound, exact.  Its
  lower bound is the per-qubit gate cover: a layer puts all its edges at a
  qubit into the one gate on that qubit, so the layers are at least the
  fewest layers of one qubit's star, the edges acting on it.

:func:`search_layers` is the one branch-and-bound search: ``merge_exact``
runs it with the width limit, on the whole hypergraph and for its bound on
each qubit's star, and the exact edge coloring with merging off.
Its DSATUR branching order and tie-breaks set the node counts the tests pin.
Its state is integers: gates and layers are masks over qubits, and sets of
edges are masks over edges, with the bits in branching-preference order.
Each layer keeps the mask of edges it touches (saturation) and of edges it
bars (no gate of width L could take them in it); the saturation counts are
bit-sliced over a few digit masks, so a node picks its edge and rejects a
layer with a handful of whole-mask operations.  Those per-edge masks are
the only structure over pairs of edges: first-fit, the conflict clique and
the search's set-up read the qubit incidence and the conflict degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .dualize import Pubo
from .errors import GateWidthError, InvalidInputError
from .poly import Scalar, Support

#: Default node budget for the exact searches, :func:`merge_exact` and ``color_exact``.
DEFAULT_EXACT_BUDGET = 2_000_000

#: Nodes :func:`_merge_lower_bound` lets :func:`search_layers` explore on one
#: qubit's star before it falls back to weaker bounds there.
_COVER_SEARCH_CAP = 4_000


class Hyperedge(NamedTuple):
    """A gate: its qubit support and the monomials it covers.

    Interaction edges act on two or more qubits; a schedule also uses this
    type for its one-qubit phase gates and, with no monomials, its mixers.
    The monomials are sorted: :func:`build` places them in order, and
    :func:`absorb_subsets` and :func:`merge_exact` sort them, so
    :func:`absorb_subsets` can return its argument without checking them.  A gate is a named tuple: it is built
    at tuple cost, and it compares equal to the plain ``(support,
    monomials)`` pair.
    """

    support: tuple[str, ...]
    monomials: tuple[tuple[Support, Scalar], ...]


@dataclass(frozen=True)
class DerivedHypergraph:
    """The derived graph G, whose chromatic index bounds the cost layers below.

    ``vertices`` are all the variables, and the mixer acts on every one.
    :attr:`qubits` are the touched ones, numbered by first use: edges in
    index order, names in support order.  Every stage reads that numbering;
    it is internal, and artifacts keep names.
    """

    vertices: tuple[str, ...]
    edges: tuple[Hyperedge, ...]
    singletons: tuple[tuple[str, Scalar], ...]  # the phases of qubits no edge acts on
    constant: Scalar = 0

    @cached_property
    def qubits(self) -> tuple[str, ...]:
        """The names of the touched vertices, by qubit number."""
        return tuple(dict.fromkeys([name for edge in self.edges for name in edge.support]))

    @cached_property
    def ends(self) -> tuple[tuple[int, ...], ...]:
        """Each edge's support as qubit numbers, in support order."""
        number = dict(zip(self.qubits, range(len(self.qubits))))
        ends: list[list[int]] = []
        for edge in self.edges:  # plain loops take half the time of a comprehension per edge
            ends.append(row := [])
            for name in edge.support:
                row.append(number[name])
        return tuple(map(tuple, ends))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """For each qubit, the ascending indices of the edges acting on it."""
        incident: list[list[int]] = [[] for _ in self.qubits]
        for index, ends in enumerate(self.ends):
            for x in ends:
                incident[x].append(index)
        return tuple(map(tuple, incident))

    def max_degree(self) -> int:
        return max(map(len, self.incident), default=0)

    @cached_property
    def conflict_degrees(self) -> tuple[int, ...]:
        """For each edge, how many other edges share a qubit with it.

        The size of the union of its qubits' :attr:`incident` edges, less
        itself; no edge's list of conflicts is kept.
        """
        incident = self.incident
        return tuple(len({j for x in ends for j in incident[x]}) - 1 for ends in self.ends)

    @cached_property
    def by_conflict_degree(self) -> tuple[int, ...]:
        """Edge indices, most conflicts first, ties by support."""
        degrees, edges = self.conflict_degrees, self.edges
        return tuple(sorted(range(len(edges)), key=lambda i: (-degrees[i], edges[i].support)))

    @cached_property
    def conflict_clique(self) -> tuple[int, ...]:
        """A maximal set of pairwise intersecting edges, picked greedily.

        Edges are tried in :attr:`by_conflict_degree` order.  The clique
        bounds the chromatic index below and opens the exact coloring's
        layers.  Only the edges that join it have their conflicts unioned.
        """
        order = self.by_conflict_degree
        if not order:
            return ()
        incident, ends = self.incident, self.ends
        clique = [order[0]]
        common = {j for x in ends[order[0]] for j in incident[x]}  # edges meeting every member
        for i in order[1:]:
            if i in common:
                clique.append(i)
                common.intersection_update([j for x in ends[i] for j in incident[x]])
        return tuple(clique)

    @cached_property
    def _support_masks(self) -> tuple[int, ...]:
        """Each edge's support as a bit mask, bit x for qubit x."""
        return tuple(sum(1 << x for x in ends) for ends in self.ends)

    def is_simple_graph(self) -> bool:
        """True when every hyperedge is a pair and no pair occurs twice."""
        return self._simple_graph

    @cached_property
    def _simple_graph(self) -> bool:
        supports = set(map(frozenset, self.ends))
        return len(supports) == len(self.edges) and all(len(s) == 2 for s in supports)

    def is_linear(self) -> bool:
        """True when any two hyperedges share at most one vertex."""
        return self._linear

    @cached_property
    def _linear(self) -> bool:
        if self._simple_graph:
            return True  # two distinct pairs share at most one vertex
        pairs = [pair for ends in self.ends for pair in combinations(sorted(ends), 2)]
        return len(set(pairs)) == len(pairs)  # no pair of qubits in two edges

    def uniform_size(self) -> int | None:
        """The one support size of every hyperedge, or None when sizes differ or there is no edge."""
        return self._uniform_size

    @cached_property
    def _uniform_size(self) -> int | None:
        sizes = {len(e.support) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


def build(pubo: Pubo) -> DerivedHypergraph:
    """One hyperedge per distinct monomial support of size >= 2, phases folded in.

    Each single-variable term joins the monomials of the widest edge on its
    qubit, the first by support among equals; only a qubit no edge acts on
    keeps its term in :attr:`DerivedHypergraph.singletons`.  Edges are in
    support order and each one's monomials sorted, so :func:`absorb_subsets`
    can return the result itself.
    """
    phases: list[tuple[str, Scalar]] = []
    supports: list[Support] = []
    monomials: list[list[tuple[Support, Scalar]]] = []
    constant = 0
    for support, coeff in pubo.objective.terms():  # in support order
        if len(support) == 0:
            constant = coeff
        elif len(support) == 1:
            phases.append((support[0], coeff))
        else:
            supports.append(support)
            monomials.append([(support, coeff)])
    host: dict[str, int] = {}  # qubit -> index of the widest, first-sorted edge on it
    for index, support in enumerate(supports):
        for name in support:
            if name not in host or len(support) > len(supports[host[name]]):
                host[name] = index
    singletons = []
    for name, coeff in phases:  # in name order, so each gate's monomials stay sorted
        index = host.get(name)
        if index is None:
            singletons.append((name, coeff))
        elif supports[index][0] == name:  # only its first qubit's phase sorts before the gate's term
            monomials[index].insert(0, ((name,), coeff))
        else:
            monomials[index].append(((name,), coeff))
    return DerivedHypergraph(
        vertices=pubo.variables,
        edges=tuple(map(Hyperedge, supports, map(tuple, monomials))),
        singletons=tuple(singletons),
        constant=constant,
    )


def check_gate_width(h: DerivedHypergraph, limit: int) -> None:
    """Reject interactions wider than the hardware gate limit."""
    if limit < 2:
        raise InvalidInputError(f"gate width limit must be >= 2, got {limit}")
    wide = [e.support for e in h.edges if len(e.support) > limit]
    if wide:
        raise GateWidthError(limit, wide)


def absorb_subsets(h: DerivedHypergraph, limit: int) -> DerivedHypergraph:
    """Fold each hyperedge into a containing hyperedge of width <= limit.

    Each edge narrower than the limit is listed at its first qubit, and each
    edge of width <= limit collects the narrower listed edges at its own
    qubits that it contains, so the work is bounded by the qubit degrees, as
    for :attr:`~DerivedHypergraph.conflict_degrees`.  An edge with a
    container is absorbed, as its widest container has none and is kept.
    It folds into its first kept container, widest first and ties by
    support, so chains collapse into their maximal element, and a folded
    phase moves with its edge; an edge that absorbs nothing is reused.
    Edges wider than the limit are kept (the width check downstream rejects
    them).  When nothing is absorbed and the edges of ``h`` are in support
    order (as :func:`build` and this function leave them), ``h`` itself is
    returned with its cached properties.
    """
    if limit < 2:
        raise InvalidInputError(f"gate width limit must be >= 2, got {limit}")
    supports = [edge.support for edge in h.edges]
    narrow: dict[str, list[int]] = {}  # qubit -> the edges below the limit it comes first in
    narrowest = limit
    for index, support in enumerate(supports):
        if len(support) < limit:
            narrow.setdefault(support[0], []).append(index)
            narrowest = min(narrowest, len(support))
    containers: dict[int, list[int]] = {}  # narrow edge -> the edges <= limit containing it
    for index, support in enumerate(supports):
        if narrowest < len(support) <= limit:
            contains = set(support).issuperset
            for name in support:
                for other in narrow.get(name, ()):
                    if len(supports[other]) < len(support) and contains(supports[other]):
                        containers.setdefault(other, []).append(index)
    if not containers and supports == sorted(supports):
        return h

    kept: dict[int, list[tuple[Support, Scalar]]] = {  # kept edge -> the monomials it absorbs
        index: [] for index in range(len(supports)) if index not in containers
    }
    for index, hosts in containers.items():
        host = min((i for i in hosts if i in kept), key=lambda i: (-len(supports[i]), supports[i]))
        kept[host].extend(h.edges[index].monomials)
    return replace(h, edges=tuple(
        Hyperedge(supports[index], tuple(sorted((*h.edges[index].monomials, *absorbed))))
        if absorbed else h.edges[index]
        for index, absorbed in sorted(kept.items(), key=lambda item: supports[item[0]])
    ))


@dataclass(frozen=True)
class MergeResult:
    hypergraph: DerivedHypergraph
    coloring: "EdgeColoring"  # noqa: F821 - forward reference to coloring module
    nodes_explored: int


def search_layers(
    h: DerivedHypergraph,
    limit: int,
    budget: int,
    incumbent: int,
    lower: int = 0,
) -> tuple[list[list[list[int]]] | None, int, bool]:
    """Fewest layers covering the edges of ``h``, by branch and bound.

    Each node branches on the unplaced edge with the most distinct layers
    among its placed conflicting edges (DSATUR, Brelaz 1979), then the most
    conflicts, then the lowest index.  It tries every layer that accepts the
    edge, then one new layer when that could still beat the best solution
    so far.  A layer takes an edge disjoint from its gates as a gate of its
    own, or merges it with the gates it overlaps when the merged gate acts
    on at most ``limit`` qubits (never with ``limit=0``).  Only solutions
    with fewer than ``incumbent`` layers count.  Without merging, the edges
    of :attr:`~DerivedHypergraph.conflict_clique` open the first layers, one
    each, to break the symmetry between layers; with merging they could
    share a gate, so nothing is placed in advance.  The search stops at a
    solution with ``lower`` layers.

    Supports are bit masks over the qubit numbers.  Sets of edges are bit
    masks too, each edge's bit at its rank in the tie-break order (conflict
    degree, then -index), so the highest bit of a set is the edge preferred.
    Per edge, ``near`` holds its conflicts, the union of its qubits' masks
    of edges, and ``clash`` those of them that no gate of width ``limit``
    can hold together with it (with ``limit=0``, all of them): for an edge
    of width ``limit``, those not on a sub-mask of its support, looked up
    per sub-mask, and for any other, by a width test on each edge at its
    qubits.  Per layer, next to its ``[mask, members]`` gates and their
    union mask, ``touching`` holds the edges conflicting with a member and
    ``barred`` the edges clashing with one: a barred edge is rejected
    without a look at the gates, any other still gets the full width check.
    Saturations are bit-sliced: bit b of ``digits[d]`` is digit d of edge
    b's count, and a placement adds one, by ripple carry, to the edges it
    newly touches.  ``max(incumbent, len(seed)).bit_length()`` digits, with
    ``seed`` the edges placed in advance, hold any count, as none exceeds
    the number of layers.  Layers and their masks change in place and are
    restored on backtrack; the digits and the unplaced edges are passed down.

    Returns the member lists of each layer's gates in the best solution
    (None if none beats ``incumbent``), the number of nodes explored, and
    whether the search finished.  It stops short, keeping the best it found,
    when its next node would pass ``budget``, or when its dive, one stack
    frame per placed edge, reaches Python's recursion limit.
    """
    if budget < 0:
        raise InvalidInputError(f"search budget must be >= 0, got {budget}")
    if incumbent <= lower:
        return None, 0, True
    seed = () if limit else h.conflict_clique
    degrees, m = h.conflict_degrees, len(h.edges)
    ends, incident, support_masks = h.ends, h.incident, h._support_masks
    edge_at = sorted(range(m), key=lambda i: (degrees[i], -i))  # rank -> edge
    rank = [0] * m
    at_qubit = [0] * len(incident)  # per qubit, the bits of its edges
    for position, edge in enumerate(edge_at):
        rank[edge] = position
        for x in ends[edge]:
            at_qubit[x] |= 1 << position
    masks = [support_masks[edge] for edge in edge_at]
    at_mask: dict[int, int] = {}  # per support mask, the bits of the edges on it
    for position, mask in enumerate(masks):
        at_mask[mask] = at_mask.get(mask, 0) | 1 << position
    near, clash = [], []
    for position, edge in enumerate(edge_at):
        mask, bits = masks[position], 0
        for x in ends[edge]:
            bits |= at_qubit[x]
        near.append(bits & ~(1 << position))
        if limit and mask.bit_count() == limit:  # only the edges inside its support fit with it
            sub = mask
            while sub:
                bits &= ~at_mask.get(sub, 0)
                sub = (sub - 1) & mask
        elif limit:
            bits = 0
            for x in ends[edge]:
                for j in incident[x]:
                    if (mask | support_masks[j]).bit_count() > limit:
                        bits |= 1 << rank[j]
        clash.append(bits & ~(1 << position))
    layers: list[list[list]] = []  # per layer, its [mask, members] gates
    unions: list[int] = []  # per layer, the mask of all qubits it acts on
    touching: list[int] = []
    barred: list[int] = []
    best: list[list[list[int]]] | None = None
    best_count = incumbent
    nodes = 0

    def place(position: int, index: int, digits: tuple[int, ...]) -> tuple[int, ...]:
        """Add edge ``position`` to the masks of layer ``index``; the raised digits."""
        rising = near[position] & ~touching[index]
        touching[index] |= near[position]
        barred[index] |= clash[position]
        raised = []
        for digit in digits:
            raised.append(digit ^ rising)
            rising &= digit
        return tuple(raised)

    def open_layer(position: int, digits: tuple[int, ...]) -> tuple[int, ...]:
        """Put edge ``position`` into a new last layer; the raised digits."""
        layers.append([[masks[position], [edge_at[position]]]])
        unions.append(masks[position])
        touching.append(0)
        barred.append(0)
        return place(position, len(layers) - 1, digits)

    digits = (0,) * max(incumbent, len(seed)).bit_length()
    unplaced = (1 << m) - 1
    for edge in seed:
        digits = open_layer(rank[edge], digits)
        unplaced &= ~(1 << rank[edge])

    def dfs(unplaced: int, digits: tuple[int, ...]) -> bool:
        """Extend the partial layers; True to stop, at ``lower`` layers or out of budget."""
        nonlocal nodes, best, best_count
        nodes += 1
        if nodes > budget:
            return True
        if len(layers) >= best_count:
            return False
        if not unplaced:
            best, best_count = [[ids for _, ids in gates] for gates in layers], len(layers)
            return best_count <= lower
        # The most saturated unplaced edges, narrowed one digit at a time
        # from the top; the highest bit left is the branching edge.
        candidates = unplaced
        for digit in reversed(digits):
            if candidates & digit:
                candidates &= digit
        position = candidates.bit_length() - 1
        bit = 1 << position
        edge = edge_at[position]
        mask = masks[position]
        rest_unplaced = unplaced & ~bit
        for index in range(len(layers)):
            if barred[index] & bit:
                continue
            union, gates = unions[index], layers[index]
            if not union & mask:
                gates.append([mask, [edge]])
            else:
                merged = mask
                for gate_mask, _ in gates:
                    if gate_mask & mask:
                        merged |= gate_mask
                if merged.bit_count() > limit:
                    continue
                rest = [gate for gate in gates if not gate[0] & mask]
                members = [i for gate_mask, ids in gates if gate_mask & mask for i in ids]
                rest.append([merged, members + [edge]])
                layers[index] = rest
            unions[index] = union | mask
            saved = touching[index], barred[index]
            stop = dfs(rest_unplaced, place(position, index, digits))
            touching[index], barred[index] = saved
            unions[index] = union
            if layers[index] is gates:
                gates.pop()
            else:
                layers[index] = gates
            if stop:
                return True
        if len(layers) + 1 >= best_count:
            return False
        stop = dfs(rest_unplaced, open_layer(position, digits))
        barred.pop()
        touching.pop()
        unions.pop()
        layers.pop()
        return stop

    try:
        dfs(unplaced, digits)
    except RecursionError:
        return best, nodes, False
    return best, min(nodes, budget), nodes <= budget


def _merge_lower_bound(h: DerivedHypergraph, limit: int) -> int:
    """Fewest groups the edges at one qubit split into, the most over the qubits.

    In one layer gates act on disjoint qubits, so every edge at qubit x in
    that layer sits in the one gate holding x, of at most ``limit`` qubits.
    The layers therefore split x's edges into groups each acting on at most
    ``limit`` qubits, and no layering has fewer layers than groups.  Without
    x, an edge is the set of its other qubits, and a group's sets cover at
    most ``room = limit - 1`` of them.  A set inside another rides in its
    group, so only the maximal sets count.  With ``room`` 1 each takes a
    group (the degree, on distinct supports).  With ``room`` 2 each pair
    does, and the single qubits in no pair go two to a group: T + ceil(S'/2).
    Wider limits run :func:`search_layers` on x's star, its edges widest
    first: each layer of a star is one gate, so its fewest layers are the
    fewest groups.  On an absorbed ``h`` no edge of a star lies inside
    another.  Where the search reaches its cap, the qubit counts the larger
    of two weaker bounds: a greedy set of pairwise unmergeable edges, widest
    first, and ceil(neighbours / room).  The bound is never below that
    greedy set, the bound this one replaced.
    """
    room = limit - 1
    masks = h._support_masks
    best = 0
    for x in sorted(range(len(h.incident)), key=lambda x: -len(h.incident[x])):
        edges = h.incident[x]
        if len(edges) <= best:
            break  # a group per edge always works, and the rest have fewer edges
        bit = 1 << x
        sets = [masks[e] ^ bit for e in edges]
        if room == 1:
            count = len(set(sets))
        elif room == 2:
            pairs = {s for s in sets if s & (s - 1)}
            covered = 0
            for s in pairs:
                covered |= s
            singles = {s for s in sets if s & ~covered}  # the qubits in no pair
            count = len(pairs) + (len(singles) + 1) // 2
        else:
            star = sorted(edges, key=lambda e: -masks[e].bit_count())  # widest first
            apart: list[int] = []
            neighbours = 0
            for e in star:
                s = masks[e] ^ bit
                neighbours |= s
                if all((s | other).bit_count() > room for other in apart):
                    apart.append(s)
            floor = max(len(apart), -(-neighbours.bit_count() // room))
            layers, _, finished = search_layers(
                replace(h, edges=tuple(h.edges[e] for e in star)),
                limit, _COVER_SEARCH_CAP, len(star), max(best, floor),
            )
            if not finished:
                count = floor
            else:  # None: no layering beats a gate per edge
                count = len(star) if layers is None else len(layers)
        best = max(best, count)
    return best


def merge_exact(
    h: DerivedHypergraph, limit: int, budget: int = DEFAULT_EXACT_BUDGET
) -> MergeResult:
    """Exact minimum-layer merge-and-color by branch and bound.

    A circuit layer may hold several gates; monomials that end up in the same
    gate must have a combined support of at most ``limit`` qubits, and gates
    within one layer act on disjoint qubits.  Minimizes the number of layers
    over all gate groupings simultaneously with the coloring, through
    :func:`search_layers`, from the incumbent of subset absorption plus
    first-fit coloring, and stops at :func:`_merge_lower_bound`.  The bound
    is taken on the absorbed hypergraph, which has the same fewest layers
    and no edge of a qubit's star inside another.  A finished
    search certifies its layer count as the lower bound.  A stopped one
    reports its best layering, or the incumbent, with that bound, which it
    fell short of.  Only the documented upper bounds of the merged gates are
    annotated: the combinatorial lower bound of :mod:`~qaoadepth.coloring`
    would be no use next to the search's own.
    """
    from . import coloring as coloring_mod

    check_gate_width(h, limit)
    absorbed = absorb_subsets(h, limit)
    incumbent = coloring_mod.first_fit_classes(absorbed)
    lower = _merge_lower_bound(absorbed, limit)
    best, nodes, finished = search_layers(h, limit, budget, len(incumbent), lower)

    merged, classes = absorbed, incumbent
    if best is not None:
        gates: list[Hyperedge] = []
        classes = []
        for layer in best:
            classes.append(range(len(gates), len(gates) + len(layer)))
            layer_gates = []
            for members in layer:
                support = {name for i in members for name in h.edges[i].support}
                monomials = [term for i in members for term in h.edges[i].monomials]
                layer_gates.append(Hyperedge(tuple(sorted(support)), tuple(sorted(monomials))))
            gates.extend(sorted(layer_gates, key=lambda gate: gate.support))
        merged = replace(h, edges=tuple(gates))
    known = (len(classes) if finished else lower, coloring_mod.upper_bounds(merged))
    return MergeResult(
        hypergraph=merged,
        coloring=coloring_mod.make_coloring(merged, classes, method="exact", known_bounds=known),
        nodes_explored=nodes,
    )
