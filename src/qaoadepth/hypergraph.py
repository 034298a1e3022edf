"""Interaction hypergraph of a penalty-form objective.

Vertices are the problem's variables (original and slack); every monomial
touching at least two variables becomes a hyperedge, i.e. one multi-qubit
diagonal gate.  Single-variable terms are kept aside (they become one-qubit
phase gates that the scheduler places separately) and the constant term is
recorded as an offset.

Two reductions shrink the gate count under a hardware width limit L:

* :func:`absorb_subsets` merges any monomial whose support is contained in
  another gate of width <= L into that gate; the wider gate already acts on
  all the qubits the narrower one needs.
* :func:`merge_exact` searches for the depth-optimal joint solution: gates
  may group several monomials whose combined support stays within L, and
  disjoint gates may share a circuit layer.  Branch and bound, exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dualize import Pubo
from .errors import BudgetExceededError, GateWidthError, InvalidInputError
from .poly import Polynomial, Support

#: Default node budget for the exact merge search.
DEFAULT_MERGE_BUDGET = 500_000


@dataclass(frozen=True)
class Hyperedge:
    """A multi-qubit gate: its qubit support and the monomials it covers."""

    support: tuple[str, ...]
    monomials: tuple[tuple[Support, Fraction], ...]

    def polynomial(self) -> Polynomial:
        return Polynomial.from_terms(self.monomials)


@dataclass(frozen=True)
class DerivedHypergraph:
    vertices: tuple[str, ...]
    edges: tuple[Hyperedge, ...]
    singletons: tuple[tuple[str, Fraction], ...]
    constant: Fraction = Fraction(0)

    def vertex_degrees(self) -> dict[str, int]:
        degree = {v: 0 for v in self.vertices}
        for edge in self.edges:
            for name in edge.support:
                degree[name] += 1
        return degree

    def max_degree(self) -> int:
        return max(self.vertex_degrees().values(), default=0)

    def touched_vertices(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for edge in self.edges:
            seen.update(edge.support)
        return tuple(sorted(seen))

    @cached_property
    def conflicts(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the sorted indices of the other edges sharing a vertex with it.

        Built from the vertex -> incident-edge map in O(sum of degree^2).
        """
        incident: dict[str, list[int]] = {}
        for index, edge in enumerate(self.edges):
            for name in edge.support:
                incident.setdefault(name, []).append(index)
        return tuple(
            tuple(sorted({j for name in edge.support for j in incident[name]} - {index}))
            for index, edge in enumerate(self.edges)
        )

    def is_linear(self) -> bool:
        """True when any two hyperedges share at most one vertex."""
        supports = [set(e.support) for e in self.edges]
        return all(
            len(supports[i] & supports[j]) <= 1
            for i, others in enumerate(self.conflicts)
            for j in others
            if j > i
        )

    def uniform_size(self) -> int | None:
        sizes = {len(e.support) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def total_polynomial(self) -> Polynomial:
        """Sum of everything the hypergraph represents; must equal the source."""
        terms: list[tuple[Support, Fraction]] = [((), self.constant)]
        for name, coeff in self.singletons:
            terms.append(((name,), coeff))
        for edge in self.edges:
            terms.extend(edge.monomials)
        return Polynomial.from_terms(terms)


def build(pubo: Pubo) -> DerivedHypergraph:
    """One hyperedge per distinct monomial support of size >= 2."""
    singletons: list[tuple[str, Fraction]] = []
    edges: list[Hyperedge] = []
    constant = Fraction(0)
    for support, coeff in pubo.objective.terms():
        if len(support) == 0:
            constant = coeff
        elif len(support) == 1:
            singletons.append((support[0], coeff))
        else:
            edges.append(Hyperedge(support=support, monomials=((support, coeff),)))
    edges.sort(key=lambda e: e.support)
    singletons.sort()
    return DerivedHypergraph(
        vertices=tuple(pubo.variables),
        edges=tuple(edges),
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

    Chains collapse into their maximal element.  Edges wider than the limit
    are kept as-is (they can absorb nothing and will be rejected by the
    width check downstream).
    """
    if limit < 2:
        raise InvalidInputError(f"gate width limit must be >= 2, got {limit}")
    order = sorted(range(len(h.edges)), key=lambda i: (-len(h.edges[i].support), h.edges[i].support))
    kept: list[int] = []
    absorbed_monomials: dict[int, list[tuple[Support, Fraction]]] = {}
    for index in order:
        edge = h.edges[index]
        support = set(edge.support)
        host = None
        if len(edge.support) < limit:
            for candidate in kept:
                cand_edge = h.edges[candidate]
                if len(cand_edge.support) <= limit and support < set(cand_edge.support):
                    host = candidate
                    break
        if host is None:
            kept.append(index)
            absorbed_monomials[index] = list(edge.monomials)
        else:
            absorbed_monomials[host].extend(edge.monomials)

    new_edges = [
        Hyperedge(
            support=h.edges[index].support,
            monomials=tuple(sorted(absorbed_monomials[index])),
        )
        for index in kept
    ]
    new_edges.sort(key=lambda e: e.support)
    return DerivedHypergraph(
        vertices=h.vertices,
        edges=tuple(new_edges),
        singletons=h.singletons,
        constant=h.constant,
    )


@dataclass(frozen=True)
class MergeResult:
    hypergraph: DerivedHypergraph
    coloring: "EdgeColoring"  # noqa: F821 - forward reference to coloring module
    nodes_explored: int


def _class_accepts(groups: list[tuple[frozenset, list[int]]], support: frozenset, limit: int):
    """Merge plan if `support` joins this class, or None when it would exceed limit.

    Edges sharing qubits with existing gates of the class must merge into one
    gate; the merged gate count stays within the width limit or the class is
    rejected.
    """
    overlapping = [g for g in groups if g[0] & support]
    union = frozenset(support)
    members: list[int] = []
    for g_union, g_members in overlapping:
        union |= g_union
        members.extend(g_members)
    if len(union) > limit:
        return None
    rest = [g for g in groups if not (g[0] & support)]
    return rest + [(union, members)]


def merge_exact(
    h: DerivedHypergraph, limit: int, budget: int = DEFAULT_MERGE_BUDGET
) -> MergeResult:
    """Exact minimum-layer merge-and-color by branch and bound.

    A circuit layer may hold several gates; monomials that end up in the same
    gate must have a combined support of at most ``limit`` qubits, and gates
    within one layer act on disjoint qubits.  Minimizes the number of layers
    over all gate groupings simultaneously with the coloring.  Raises
    :class:`BudgetExceededError` when the node budget runs out; callers then
    fall back to :func:`absorb_subsets` plus a heuristic coloring.
    """
    from . import coloring as coloring_mod

    check_gate_width(h, limit)
    m = len(h.edges)
    if m == 0:
        empty = coloring_mod.make_coloring(h, (), method="exact")
        return MergeResult(hypergraph=h, coloring=empty, nodes_explored=0)

    supports = [frozenset(e.support) for e in h.edges]
    order = sorted(range(m), key=lambda i: (-len(h.conflicts[i]), h.edges[i].support))

    # Incumbent: subset absorption plus greedy coloring. The search only has
    # to beat it, and if it cannot, exhausting the tree certifies optimality.
    absorbed = absorb_subsets(h, limit)
    greedy = coloring_mod.color_greedy(absorbed)
    best_count = len(greedy.classes)
    best_solution: list[list[tuple[frozenset, list[int]]]] | None = None

    classes: list[list[tuple[frozenset, list[int]]]] = []
    nodes = 0

    def dfs(pos: int) -> None:
        nonlocal nodes, best_count, best_solution
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget, "exact gate merge")
        if len(classes) >= best_count:
            return
        if pos == m:
            best_count = len(classes)
            best_solution = [list(groups) for groups in classes]
            return
        edge = order[pos]
        support = supports[edge]
        for index, groups in enumerate(classes):
            merged = _class_accepts(groups, support, limit)
            if merged is not None:
                merged[-1] = (merged[-1][0], merged[-1][1] + [edge])
                saved = classes[index]
                classes[index] = merged
                dfs(pos + 1)
                classes[index] = saved
        if len(classes) + 1 < best_count:
            classes.append([(support, [edge])])
            dfs(pos + 1)
            classes.pop()

    dfs(0)

    if best_solution is None:
        return MergeResult(
            hypergraph=absorbed,
            coloring=coloring_mod.make_coloring(
                absorbed, greedy.classes, method="exact", lower_bound=best_count
            ),
            nodes_explored=nodes,
        )

    gates: list[Hyperedge] = []
    class_indices: list[tuple[int, ...]] = []
    for groups in best_solution:
        indices = []
        for union, members in sorted(groups, key=lambda g: tuple(sorted(g[0]))):
            monomials: list[tuple[Support, Fraction]] = []
            for member in members:
                monomials.extend(h.edges[member].monomials)
            gates.append(
                Hyperedge(support=tuple(sorted(union)), monomials=tuple(sorted(monomials)))
            )
            indices.append(len(gates) - 1)
        class_indices.append(tuple(indices))
    merged_h = DerivedHypergraph(
        vertices=h.vertices,
        edges=tuple(gates),
        singletons=h.singletons,
        constant=h.constant,
    )
    return MergeResult(
        hypergraph=merged_h,
        coloring=coloring_mod.make_coloring(
            merged_h, tuple(class_indices), method="exact", lower_bound=best_count
        ),
        nodes_explored=nodes,
    )
