"""Proper edge colorings of the interaction hypergraph.

A color class is a set of hyperedges with pairwise disjoint supports, i.e.
a set of gates that can run in one circuit layer.  Three methods are
provided:

* :func:`color_exact` - branch and bound, returns the true chromatic index
  (with the exhausted search as certificate), or within its node budget
  the best coloring found;
* :func:`color_misra_gries` - constructive coloring for ordinary (2-uniform)
  graphs by one Kempe-chain and fan recoloring in three passes: Delta
  colors in index order, then in Fournier's order, which certify the graph
  class 1 when they finish, else Misra-Gries's Delta+1;
* :func:`color_greedy` - first-fit fallback for arbitrary hypergraphs.

Every coloring, whatever the method (``merge_exact`` included), is checked
for properness once, by :func:`make_coloring`, which also attaches the
applicable documented upper bounds; the schedule does not check it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .hypergraph import DEFAULT_EXACT_BUDGET, DerivedHypergraph, search_layers


@dataclass(frozen=True)
class BoundRef:
    """A documented chromatic-index bound and whether it applies here."""

    name: str
    kind: str  # "lower" or "upper"
    status: str  # "theorem", "conjecture" or "asymptotic"
    applies: bool
    value: int | None
    note: str = ""


@dataclass(frozen=True)
class EdgeColoring:
    classes: tuple[tuple[int, ...], ...]
    method: str  # "exact", "misra_gries" or "greedy"
    lower_bound: int
    upper_bound_refs: tuple[BoundRef, ...] = ()

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def color_of(self) -> dict[int, int]:
        return {e: c for c, cls in enumerate(self.classes) for e in cls}


def check_proper(h: DerivedHypergraph, classes: Sequence[Sequence[int]]) -> None:
    """Raise unless the classes form a proper coloring covering every edge."""
    seen: set[int] = set()
    qubits, ends = h.qubits, h.ends
    last = [-1] * len(qubits)  # per qubit, the last class with an edge on it
    for color, cls in enumerate(classes):
        for index in cls:
            if index in seen:
                raise InvalidInputError(f"edge {index} colored twice")
            seen.add(index)
            for x in ends[index]:
                if last[x] == color:
                    shared = sorted(qubits[y] for y in ends[index] if last[y] == color)
                    raise InvalidInputError(f"edges in one class share vertices {shared}")
            for x in ends[index]:
                last[x] = color
    if seen != set(range(len(h.edges))):
        raise InvalidInputError("coloring does not cover every edge exactly once")


def combinatorial_lower_bound(h: DerivedHypergraph) -> int:
    """Valid lower bound: max vertex degree, a conflict clique, and a counting bound."""
    m = len(h.edges)
    if m == 0:
        return 0
    bound = h.max_degree()
    # Pairwise-intersecting edges of a simple graph form a star (at most the
    # max degree) or a triangle (3), so there the clique only counts below 3.
    if bound < 3 or not h.is_simple_graph():
        bound = max(bound, len(h.conflict_clique))
    # a class packs at most (touched qubits // narrowest width) disjoint edges
    max_matching = len(h.qubits) // min(map(len, h.ends))
    if max_matching:
        bound = max(bound, -(-m // max_matching))  # ceil(m / max_matching)
    return bound


def bounds(h: DerivedHypergraph) -> tuple[int, tuple[BoundRef, ...]]:
    """Lower bound plus annotated documented upper bounds with applicability."""
    return combinatorial_lower_bound(h), upper_bounds(h)


def upper_bounds(h: DerivedHypergraph) -> tuple[BoundRef, ...]:
    """The documented upper bounds, each marked with whether it applies to ``h``.

    One ``(name, status, applies, value, note)`` row per bound; a bound that
    does not apply has no value.
    """
    n, linear, two_uniform = len(h.qubits), h.is_linear(), h.uniform_size() == 2
    rows = (
        ("edge_count", "theorem", True, len(h.edges), "one layer per gate always works"),
        ("vizing", "theorem", two_uniform, h.max_degree() + 1,
         "chromatic index of a simple graph is Delta or Delta+1"),
        ("chang_lawler", "theorem", linear, -(-3 * n // 2) - 2,
         "ceil(1.5n - 2) for linear hypergraphs on n vertices"),
        ("erdos_faber_lovasz", "conjecture", linear, n,
         "conjectured n for linear hypergraphs; not assumed anywhere"),
        ("kahn", "asymptotic", linear, None,
         "n + o(n) for linear hypergraphs; no finite value at fixed n"),
    )
    return tuple(
        BoundRef(name=name, kind="upper", status=status, applies=applies,
                 value=value if applies else None, note=note)
        for name, status, applies, value, note in rows
    )


def make_coloring(
    h: DerivedHypergraph,
    classes: Sequence[Sequence[int]],
    method: str,
    known_bounds: tuple[int, tuple[BoundRef, ...]] | None = None,
) -> EdgeColoring:
    """Validate and package a coloring, attaching the bound annotations.

    ``known_bounds`` defaults to :func:`bounds` of ``h``.  A search passes
    its own: a finished one certifies its class count as the lower bound.
    """
    check_proper(h, classes)
    lower, uppers = bounds(h) if known_bounds is None else known_bounds
    return EdgeColoring(
        classes=tuple(tuple(cls) for cls in classes),
        method=method,
        lower_bound=lower,
        upper_bound_refs=uppers,
    )


def first_fit_classes(h: DerivedHypergraph) -> list[list[int]]:
    """First-fit color classes, most conflicting edges first, from per-qubit color masks."""
    ends, used = h.ends, [0] * len(h.qubits)
    colors = [0] * len(ends)
    for index in h.by_conflict_degree:
        taken = 0
        for x in ends[index]:
            taken |= used[x]
        colors[index] = _lowest(~taken)
        for x in ends[index]:
            used[x] |= 1 << colors[index]
    classes: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for index, color in enumerate(colors):
        classes[color].append(index)
    return classes


def color_greedy(h: DerivedHypergraph) -> EdgeColoring:
    """First-fit coloring, most conflicting edges first; deterministic."""
    return make_coloring(h, first_fit_classes(h), method="greedy")


def color_misra_gries(h: DerivedHypergraph) -> EdgeColoring:
    """Constructive proper coloring of a 2-uniform hypergraph with Delta or Delta+1 colors.

    One Vizing-type recoloring, :func:`_recolor`, runs up to three passes
    (:func:`_vizing_classes`).  The two passes with Delta colors meet the
    max-degree lower bound when they finish, and so certify the graph class
    1.  Where both get stuck, the same recoloring with one more color is
    Misra-Gries's Delta+1.
    """
    if h.uniform_size() != 2:
        for edge in h.edges:
            if len(edge.support) != 2:
                raise InvalidInputError(
                    "misra-gries needs a 2-uniform hypergraph; "
                    f"edge {edge.support} has width {len(edge.support)}"
                )
    return make_coloring(h, _vizing_classes(h), method="misra_gries")


def _vizing_classes(h: DerivedHypergraph) -> list[list[int]]:
    """The color classes of :func:`color_misra_gries`; every edge has width 2.

    :func:`_recolor` with Delta colors in index order, then with Delta
    colors in the order of :func:`_fournier_order`, then with Delta+1
    colors in index order, which never gets stuck.  The first pass that
    finishes gives the classes.
    """
    delta = h.max_degree()
    classes = _recolor(h, delta)
    if classes is None:
        order = _fournier_order(h, delta)
        if order is not None:
            classes = _recolor(h, delta, order)
    return _recolor(h, delta + 1) if classes is None else classes


def _recolor(
    h: DerivedHypergraph, palette: int, order: Iterable[tuple[int, int]] | None = None
) -> list[list[int]] | None:
    """Color classes of a 2-uniform hypergraph from ``palette`` colors, or None when stuck.

    The edges are colored one at a time in ``order``, each with its fan
    centre; by default in index order, each centred at its first end.  Edge
    (u, v), u its centre, takes the lowest color free at both ends.
    Otherwise, with a palette of Delta, for a color a free at u and b free
    at v, it walks the path from v whose edges alternate a and b.  When the
    path does not reach u, swapping a and b along it frees a at v, and the
    edge takes a.  (The b/a path from u is the same path, so one walk
    decides a pair.)  When no pair works, or the palette has a spare color,
    Misra-Gries's fan step centred at u runs.  It needs a free color at the
    fan's last vertex and is stuck without one, which a spare color rules
    out; with Delta+1 colors the pass is Misra-Gries's algorithm exactly.
    Empty classes are dropped.  Each qubit keeps the colors on its edges as
    a bit mask, so a free color is one bit operation.
    """
    tight = palette == h.max_degree()  # no spare color, so Kempe swaps go first
    full = (1 << palette) - 1
    ends = h.ends
    across = [u ^ v for u, v in ends]  # x ^ across[e] is the other end of e from x
    used = [0] * len(h.qubits)  # per qubit, a bit per color on its edges
    at = [[-1] * palette for _ in h.qubits]  # per qubit and color, the edge holding it
    color = [0] * len(ends)

    def paint(e: int, c: int) -> None:
        u, v = ends[e]
        used[u] |= 1 << c
        used[v] |= 1 << c
        at[u][c] = at[v][c] = e
        color[e] = c

    def walk(x: int, a: int, b: int, stop: int) -> tuple[list[int], int] | None:
        """The edges and far end of the a/b path from x; None if it reaches stop."""
        path, c = [], a
        while used[x] >> c & 1:
            f = at[x][c]
            path.append(f)
            x ^= across[f]
            if x == stop:
                return None
            c ^= a ^ b
        return path, x

    def swap(x: int, path: list[int], end: int, a: int, b: int) -> None:
        """Exchange a and b along the path from x to end."""
        used[x] ^= (1 << a) | (1 << b)  # each end holds one of the two
        used[end] ^= (1 << a) | (1 << b)
        for f in path:
            color[f] ^= a ^ b
            row = at[x]
            row[a], row[b] = row[b], row[a]
            x ^= across[f]
        row = at[x]
        row[a], row[b] = row[b], row[a]

    def kempe(e: int, u: int, v: int) -> bool:
        for a in _bits(full & ~used[u]):
            for b in _bits(full & ~used[v]):
                found = walk(v, a, b, u)
                if found is not None:
                    swap(v, *found, a, b)
                    paint(e, a)
                    return True
        return False

    def fan(e: int, u: int, v: int) -> bool:
        # Each next fan edge's color is free at the previous edge's far
        # end; the edges at u are told apart by their colors.
        edges, tip, taken = [e], v, 0
        while step := used[u] & ~used[tip] & ~taken:
            c = _lowest(step)
            edges.append(at[u][c])
            taken |= 1 << c
            tip = u ^ across[edges[-1]]
        if not full & ~used[tip]:
            return False
        c = _lowest(full & ~used[u])
        d = _lowest(full & ~used[tip])
        if used[u] >> d & 1:
            swap(u, *walk(u, d, c, -1), d, c)  # the d/c path from u; d is then free at u
        pivot = next(i for i, f in enumerate(edges) if not used[u ^ across[f]] >> d & 1)
        shifted = [color[f] for f in edges[1:pivot + 1]] + [d]
        for f in edges[1:pivot + 1]:
            x, y = ends[f]
            used[x] ^= 1 << color[f]
            used[y] ^= 1 << color[f]
        for f, c in zip(edges, shifted):
            paint(f, c)
        return True

    if order is None:
        order = ((e, u) for e, (u, _) in enumerate(ends))
    for e, u in order:
        v = u ^ across[e]
        shared = full & ~used[u] & ~used[v]
        if shared:
            paint(e, _lowest(shared))
        elif not ((tight and kempe(e, u, v)) or fan(e, u, v)):
            return None
    classes: list[list[int]] = [[] for _ in range(palette)]
    for e, c in enumerate(color):
        classes[c].append(e)
    return [cls for cls in classes if cls]


def _fournier_order(h: DerivedHypergraph, delta: int) -> list[tuple[int, int]] | None:
    """Edges with their fan centres, in an order the Delta-palette fan step colors.

    While some vertex u of degree Delta has at most one neighbor of degree
    Delta, the edge to that neighbor, or else u's first edge, is taken out
    with u as its centre; degrees drop as edges go.  The edges never taken
    out come first, in index order, as no vertex then has degree Delta; the
    others follow in reverse.  So when an edge at u is colored, every other
    neighbor of u has an edge still uncolored or degree below Delta, and
    with it a free color.  This proves Fournier's theorem (1973): a graph
    whose degree-Delta vertices induce a forest is class 1.  None when those
    vertices keep a cycle.
    """
    incident, across = h.incident, [u ^ v for u, v in h.ends]
    degree = [len(edges) for edges in incident]
    core = [sum(degree[x ^ across[f]] == delta for f in edges) for x, edges in enumerate(incident)]
    out = [False] * len(across)
    stack = [x for x, d in enumerate(degree) if d == delta and core[x] <= 1]
    stripped = []
    while stack:
        u = stack.pop()
        if degree[u] < delta:
            continue
        live = [f for f in incident[u] if not out[f]]
        f = next((f for f in live if degree[u ^ across[f]] == delta), live[0])
        out[f] = True
        stripped.append((f, u))
        for x in (u, u ^ across[f]):
            if degree[x] == delta:  # x leaves the degree-Delta vertices
                for g in incident[x]:
                    z = x ^ across[g]
                    if not out[g] and degree[z] == delta:
                        core[z] -= 1
                        if core[z] == 1:
                            stack.append(z)
            degree[x] -= 1
    if delta in degree:
        return None
    kept = [(f, u) for f, (u, _) in enumerate(h.ends) if not out[f]]
    return kept + stripped[::-1]


def _lowest(mask: int) -> int:
    """The position of the lowest set bit of ``mask``."""
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def color_exact(h: DerivedHypergraph, budget: int = DEFAULT_EXACT_BUDGET) -> EdgeColoring:
    """Exact chromatic index by branch and bound.

    The incumbent is the better of first-fit and, on a 2-uniform hypergraph,
    :func:`color_misra_gries`'s classes; when it already meets the
    combinatorial lower bound no search runs.  Otherwise
    :func:`~qaoadepth.hypergraph.search_layers` runs with merging off.  A
    maximal clique of pairwise intersecting edges opens the first layers to
    break palette symmetry, and the search stops at the lower bound.  The
    exhausted search certifies optimality.  A search that stops short gives
    its best coloring, or the incumbent, with the combinatorial lower bound,
    which it fell short of.
    """
    lower, uppers = bounds(h)
    classes = first_fit_classes(h)
    if h.uniform_size() == 2:
        # Delta colors, or Delta+1 where the counting bound is Delta+1 (odd
        # K_m), meet the lower bound, and the search returns at once.
        constructive = _vizing_classes(h)
        if len(constructive) < len(classes):
            classes = constructive
    layers, _, finished = search_layers(h, 0, budget, incumbent=len(classes), lower=lower)
    if layers is not None:
        classes = [sorted(edge for gate in layer for edge in gate) for layer in layers]
    known = (len(classes) if finished else lower, uppers)
    return make_coloring(h, classes, method="exact", known_bounds=known)
