import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoadepth import (
    DerivedHypergraph,
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    Problem,
    absorb_subsets,
    bounds,
    build,
    color_exact,
    color_greedy,
    color_misra_gries,
    dualize,
    make_maxcut,
    make_maxindset,
    make_vertex_cover,
    merge_exact,
    run_pipeline,
)
from qaoadepth import coloring as coloring_mod
from qaoadepth.coloring import check_proper, make_coloring
from qaoadepth.io import read_dimacs_graph

from bruteforce import (
    chromatic_index_bruteforce,
    misra_gries_reference,
    pubo_from_polynomial,
    random_graph,
    random_hypergraph_supports,
)


def graph_hypergraph(g: InstanceGraph):
    return build(dualize(make_maxcut(g)))


def star_hypergraph(m: int):
    poly = Polynomial.from_terms((("x1", f"x{k}"), 1) for k in range(2, m + 2))
    return build(pubo_from_polynomial(poly))


def test_exact_w6_needs_five_colors(w6):
    coloring = color_exact(graph_hypergraph(w6))
    assert coloring.num_colors == 5
    assert coloring.method == "exact"
    assert coloring.lower_bound == 5


@pytest.mark.parametrize("m", [3, 5, 9])
def test_exact_star_needs_one_color_per_edge(m):
    assert color_exact(star_hypergraph(m)).num_colors == m


def test_exact_general_example_needs_seven_colors(general_problem):
    h = absorb_subsets(build(dualize(general_problem)), 3)
    assert color_exact(h).num_colors == 7


def test_exact_empty_and_single_edge():
    empty = build(pubo_from_polynomial(Polynomial.zero()))
    assert color_exact(empty).num_colors == 0
    merged = merge_exact(empty, 2)
    assert (merged.coloring.num_colors, merged.coloring.lower_bound) == (0, 0)
    single = build(pubo_from_polynomial(Polynomial({("a", "b"): 1})))
    coloring = color_exact(single)
    assert coloring.num_colors == 1
    assert coloring.lower_bound == 1


def test_exact_budget_exhaustion_signals(fixture_dir):
    # Petersen is class 2: the constructive step leaves Delta + 1 against the
    # lower bound Delta, so the search runs and spends its budget.  The
    # stopped search keeps the Delta + 1 incumbent, labelled exact, with the
    # lower bound it fell short of; with the default budget it finishes.
    h = graph_hypergraph(read_dimacs_graph(str(fixture_dir / "petersen.dimacs")))
    for budget, lower in ((0, 3), (2, 3), (10**6, 4)):
        coloring = color_exact(h, budget=budget)
        check_proper(h, coloring.classes)
        assert (coloring.method, coloring.num_colors, coloring.lower_bound) == ("exact", 4, lower)


def test_exact_searches_compute_the_bounds_once(w6, fixture_dir, monkeypatch):
    calls = {"bounds": 0, "combinatorial_lower_bound": 0, "conflict_clique": 0}

    def counting(name, original):
        def counted(h):
            calls[name] += 1
            return original(h)

        return counted

    for name in ("bounds", "combinatorial_lower_bound"):
        monkeypatch.setattr(coloring_mod, name, counting(name, getattr(coloring_mod, name)))
    clique = DerivedHypergraph.conflict_clique
    monkeypatch.setattr(clique, "func", counting("conflict_clique", clique.func))
    petersen = read_dimacs_graph(str(fixture_dir / "petersen.dimacs"))
    # The exact coloring's search seeds itself with the clique, and runs only
    # when the constructive step leaves a gap: not on the wheel (Delta
    # colors), but on Petersen (Delta + 1).  The lower bound of a simple graph of max degree
    # >= 3 does without the clique.  The merge search takes no seed, has a
    # lower bound of its own and annotates only the upper bounds.
    for graph, exact_cliques in ((w6, 0), (petersen, 1)):
        calls.update(dict.fromkeys(calls, 0))
        color_exact(graph_hypergraph(graph))
        assert calls == {"bounds": 1, "combinatorial_lower_bound": 1, "conflict_clique": exact_cliques}
        calls.update(dict.fromkeys(calls, 0))
        merge_exact(graph_hypergraph(graph), 2)
        assert calls == {"bounds": 0, "combinatorial_lower_bound": 0, "conflict_clique": 0}


def test_color_exact_node_counts_are_pinned(monkeypatch):
    # The branching order decides how many nodes a search takes, and with it
    # which searches fit their budget.  color_exact keeps no node count, so
    # its calls of search_layers (no merging, the conflict clique first) are
    # counted here.  The counts come from the search on frozensets, before
    # its state became integer masks; the mask search must branch the same way.
    # Every graph here gets Delta colors from the constructive step, which
    # meets the lower bound, so color_exact's graph searches stop at 0 nodes;
    # searching from the Misra-Gries incumbent (Delta + 1, from the reference)
    # keeps the counts of the graph searches pinned.
    counts = []
    search = coloring_mod.search_layers

    def counted(*args, **kwargs):
        layers, nodes, finished = search(*args, **kwargs)
        counts.append(nodes)
        return layers, nodes, finished

    monkeypatch.setattr(coloring_mod, "search_layers", counted)
    graph_counts = []
    rng = random.Random(74)
    for _ in range(20):
        h = graph_hypergraph(random_graph(rng, rng.randint(10, 18), rng.uniform(0.3, 0.8)))
        color_exact(h)
        incumbent = min(len(coloring_mod.first_fit_classes(h)), len(misra_gries_reference(h)))
        graph_counts.append(search(h, 0, 10**6, incumbent, lower=bounds(h)[0])[1])
        supports = random_hypergraph_supports(
            rng, rng.randint(10, 16), rng.randint(20, 50), rng.randint(3, 4)
        )
        color_exact(build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports))))
    assert counts[0::2] == [0] * 20
    assert sum(counts) == 739
    assert counts[1:8:2] == [0, 0, 0, 43]
    assert sum(graph_counts) == 848
    assert graph_counts[:4] == [111, 73, 93, 0]


def test_misra_gries_w6(w6):
    h = graph_hypergraph(w6)
    coloring = color_misra_gries(h)
    assert (coloring.num_colors, coloring.lower_bound) == (5, 5)  # class 1: Delta colors
    assert coloring.method == "misra_gries"


def test_misra_gries_even_cycle_alternates():
    cycle = InstanceGraph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    assert color_misra_gries(graph_hypergraph(cycle)).num_colors == 2


def test_complete_graph_on_four_vertices_is_class_one():
    k4 = InstanceGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    h = graph_hypergraph(k4)
    assert color_exact(h).num_colors == 3
    assert color_misra_gries(h).num_colors == 3


def test_misra_gries_rejects_wider_edges(general_problem):
    h = build(dualize(general_problem))
    first_wider = "edge ('s1_1', 'x1', 'x2') has width 3"
    message = re.escape(f"misra-gries needs a 2-uniform hypergraph; {first_wider}")
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        color_misra_gries(h)


def test_misra_gries_respects_vizing_on_random_graphs():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.9))
        if not g.edges:
            continue
        h = graph_hypergraph(g)
        coloring = color_misra_gries(h)
        assert coloring.num_colors <= g.max_degree() + 1


def test_misra_gries_matches_the_name_keyed_reference(fixture_dir):
    # The Delta + 1 pass alone, on sparse graphs up to 60 vertices and
    # complete graphs up to 7; the vertex-cover hypergraphs add one slack
    # vertex per edge.  Petersen and odd K_m are class 2, so
    # color_misra_gries reaches this pass on them.
    def delta_plus_one(h):
        return coloring_mod._recolor(h, h.max_degree() + 1)

    rng = random.Random(61)
    graphs = []
    for _ in range(300):
        p = rng.choice((0.015, 0.05, 0.15, 0.4, 0.7, 1.0))
        graphs.append(random_graph(rng, rng.randint(2, min(60, int((60 / p) ** 0.5))), p))
    checked = 0
    for g in graphs:
        for make in (make_maxcut, make_maxindset, make_vertex_cover):
            h = build(dualize(make(g)))
            assert h.uniform_size() in (2, None)
            assert delta_plus_one(h) == misra_gries_reference(h)
            checked += bool(h.edges)
    assert checked > 600
    for n, degree in ((1000, 3), (100, 12)):
        h = graph_hypergraph(random_graph(rng, n, degree / (n - 1)))
        assert delta_plus_one(h) == misra_gries_reference(h)
    class_two = [read_dimacs_graph(str(fixture_dir / "petersen.dimacs"))]
    for m in range(3, 42, 2):
        class_two.append(InstanceGraph(m, tuple(itertools.combinations(range(1, m + 1), 2))))
    for g in class_two:
        h = graph_hypergraph(g)
        assert delta_plus_one(h) == misra_gries_reference(h)
        assert coloring_mod._vizing_classes(h) == misra_gries_reference(h)


@st.composite
def simple_graphs(draw, max_vertices=12):
    """A simple graph on 2 to ``max_vertices`` vertices, about a quarter to three quarters dense."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    density = draw(st.integers(1, 3))
    draws = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return InstanceGraph(n, tuple(p for p, d in zip(pairs, draws) if d < density))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(simple_graphs())
def test_delta_step_colors_with_delta_or_falls_back_to_delta_plus_one(g):
    h = graph_hypergraph(g)
    delta = h.max_degree()
    coloring = color_misra_gries(h)  # make_coloring checks properness
    assert coloring.num_colors in (delta, delta + 1)
    if coloring.num_colors > delta:  # both Delta passes got stuck
        assert [list(c) for c in coloring.classes] == misra_gries_reference(h)
    if g.n <= 9:
        assert color_exact(h).num_colors <= coloring.num_colors


def max_degree_vertices_induce_a_forest(g: InstanceGraph) -> bool:
    degree = [0] * (g.n + 1)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    core = {x for x in range(1, g.n + 1) if degree[x] == max(degree)}
    root = {x: x for x in core}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in g.edges:
        if u in core and v in core:
            if find(u) == find(v):
                return False
            root[find(u)] = find(v)
    return True


def test_graphs_with_a_forest_of_max_degree_vertices_get_delta_colors(monkeypatch):
    # Fournier's theorem: such a graph is class 1.  Index order alone misses
    # some of them; the second pass, in the order of _fournier_order, must
    # reach every one.
    orders = []
    fournier_order = coloring_mod._fournier_order

    def recorded(*args):
        orders.append(fournier_order(*args))
        return orders[-1]

    monkeypatch.setattr(coloring_mod, "_fournier_order", recorded)
    rng = random.Random(5)
    forests = 0
    for _ in range(1500):
        g = random_graph(rng, rng.randint(3, 14), rng.uniform(0.15, 0.9))
        if not g.edges or not max_degree_vertices_induce_a_forest(g):
            continue
        forests += 1
        coloring = color_misra_gries(graph_hypergraph(g))
        assert coloring.num_colors == g.max_degree() == coloring.lower_bound
    assert forests > 1000
    assert len(orders) >= 10 and None not in orders
    # The stack order of _fournier_order follows the qubit numbering, and so
    # do the classes of this graph (Delta = 10), where index order gets stuck.
    orders.clear()
    neighbors = {
        1: (2, 3, 5, 6, 8, 10, 12, 13), 2: (5, 6, 7, 9, 10, 13, 14),
        3: (4, 6, 7, 8, 10, 11, 13), 4: (6, 7, 8, 9, 10, 11, 12), 5: (8, 10, 14),
        6: (7, 9, 11, 14), 7: (9, 12, 13, 14), 8: (9, 10, 12, 13, 14),
        9: (10, 11, 12, 13, 14), 10: (11, 13, 14), 11: (12,), 12: (14,), 13: (14,),
    }
    g = InstanceGraph(n=14, edges=tuple((u, v) for u, vs in neighbors.items() for v in vs))
    assert coloring_mod._vizing_classes(graph_hypergraph(g)) == [
        [7, 14, 17, 27, 41, 43, 53], [3, 9, 19, 22, 45, 55], [4, 11, 20, 23, 31, 34, 54],
        [1, 8, 28, 38, 44, 48, 51], [0, 18, 24, 32, 35, 39, 49], [5, 12, 21, 25, 30, 33, 47],
        [6, 13, 26, 29, 36], [2, 10, 40, 46, 50], [15, 42, 52], [16, 37],
    ]
    assert len(orders) == 1 and orders[0] is not None


@pytest.mark.parametrize("n, degree", [(30, 3), (45, 4), (60, 5), (80, 6), (100, 4), (140, 5), (100, 12)])
def test_benchmark_shaped_graphs_are_certified(n, degree):
    rng = random.Random(n * 100 + degree)
    for _ in range(2):
        result = run_pipeline(make_maxcut(random_graph(rng, n, degree / (n - 1))))
        assert len(result.hypergraph.edges) > 20  # past the exact-search cutoff
        assert result.coloring.method == "misra_gries"
        assert result.coloring.num_colors == result.coloring.lower_bound


def test_auto_colors_a_wide_hypergraph_past_the_cutoff_first_fit():
    # 30 distinct cubic monomials on 12 variables: no gate absorbs another at
    # width 3, and a hypergraph that is not a graph gets first-fit.
    names = [f"x{i}" for i in range(1, 13)]
    triples = random.Random(12).sample(list(itertools.combinations(names, 3)), 30)
    objective = Polynomial.from_terms((triple, 1) for triple in triples)
    result = run_pipeline(Problem(sense="min", objective=objective, variables=names), gate_width=3)
    assert result.coloring.method == "greedy"
    assert result.notes == (
        "30 hyperedges exceed the exact-coloring cutoff 20; heuristic greedy coloring used",
    )


def test_petersen_keeps_four_colors_certified_only_by_the_search(fixture_dir):
    h = graph_hypergraph(read_dimacs_graph(str(fixture_dir / "petersen.dimacs")))
    constructive = color_misra_gries(h)
    assert constructive.num_colors > h.max_degree()  # both Delta passes get stuck
    assert (constructive.num_colors, constructive.lower_bound) == (4, 3)
    exact = color_exact(h)
    assert (exact.num_colors, exact.lower_bound) == (4, 4)


def test_greedy_on_matchings_and_stars():
    matching = build(pubo_from_polynomial(Polynomial({("a", "b"): 1, ("c", "d"): 1})))
    assert color_greedy(matching).num_colors == 1
    star = star_hypergraph(4)
    assert color_greedy(star).num_colors == 4


def test_complete_graphs_have_known_chromatic_index():
    # knapsack-style derived graphs are complete; chi' is m-1 (even m) or m (odd)
    for m in range(2, 13):
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        h = graph_hypergraph(InstanceGraph(m, tuple(edges)))
        expected = m - 1 if m % 2 == 0 else m
        assert color_exact(h).num_colors == expected
        # The Delta step colors even K_m; odd K_m falls back to m colors,
        # which the counting bound (at most (m-1)/2 edges a class) certifies.
        constructive = color_misra_gries(h)
        assert constructive.num_colors == constructive.lower_bound == expected
        # first-fit stays proper but overshoots on complete graphs
        assert color_greedy(h).num_colors >= expected


def test_method_ordering_exact_beats_heuristics():
    rng = random.Random(53)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8))
        if not g.edges:
            continue
        h = graph_hypergraph(g)
        exact = color_exact(h).num_colors
        assert exact <= color_misra_gries(h).num_colors <= g.max_degree() + 1
        assert exact <= color_greedy(h).num_colors


def test_exact_agrees_with_partition_enumeration_on_hypergraphs():
    rng = random.Random(59)
    for _ in range(30):
        supports = random_hypergraph_supports(
            rng, rng.randint(3, 6), rng.randint(1, 7), max_width=4
        )
        poly = Polynomial.from_terms((s, 1) for s in supports)
        h = build(pubo_from_polynomial(poly))
        assert color_exact(h).num_colors == chromatic_index_bruteforce(supports)


def test_properness_is_machine_checked(w6):
    h = graph_hypergraph(w6)
    m = len(h.edges)
    with pytest.raises(InvalidInputError, match=r"share vertices \['x1'\]$"):
        check_proper(h, [list(range(m))])
    # x1x2 and x3x4, then x1x3 meets both
    with pytest.raises(InvalidInputError, match=r"share vertices \['x1', 'x3'\]$"):
        check_proper(h, [[0, 7, 1]])
    # x3x4, then x1x3, which shares only its second qubit: x1 is not named
    with pytest.raises(InvalidInputError, match=r"share vertices \['x3'\]$"):
        check_proper(h, [[7, 1]])
    with pytest.raises(InvalidInputError, match="does not cover"):
        make_coloring(h, [[0]], method="greedy")  # misses edges
    with pytest.raises(InvalidInputError, match="edge 0 colored twice"):
        check_proper(h, [[0], [0] + list(range(1, m))])
    # every qubit in several classes: what one class marks, the next may reuse
    check_proper(h, [[i] for i in range(m)])
    check_proper(h, [list(c) for c in color_exact(h).classes])
    # -1 names the last edge, but is not its index: the last edge is uncovered
    with pytest.raises(InvalidInputError, match="does not cover"):
        check_proper(h, [[-1]] + [[i] for i in range(m - 1)])


def test_bounds_for_the_wheel(w6):
    h = graph_hypergraph(w6)
    lower, uppers = bounds(h)
    assert lower == 5
    by_name = {ref.name: ref for ref in uppers}
    assert by_name["vizing"].applies and by_name["vizing"].value == 6
    assert by_name["edge_count"].value == 10
    # a simple graph is a linear hypergraph, so the conjecture note applies
    assert by_name["erdos_faber_lovasz"].applies
    assert by_name["erdos_faber_lovasz"].status == "conjecture"


def test_bounds_for_a_linear_hypergraph():
    poly = Polynomial({("a", "b", "c"): 1, ("c", "d", "e"): 1, ("e", "f", "a"): 1})
    h = build(pubo_from_polynomial(poly))
    assert h.is_linear()
    lower, uppers = bounds(h)
    by_name = {ref.name: ref for ref in uppers}
    assert by_name["chang_lawler"].applies
    assert by_name["chang_lawler"].status == "theorem"
    assert by_name["chang_lawler"].value == 7  # ceil(1.5*6 - 2)
    assert by_name["erdos_faber_lovasz"].value == 6
    assert by_name["kahn"].value is None and by_name["kahn"].status == "asymptotic"
    assert not by_name["vizing"].applies


def test_bounds_single_edge():
    h = build(pubo_from_polynomial(Polynomial({("a", "b"): 1})))
    lower, uppers = bounds(h)
    assert lower == 1
    assert {ref.name: ref for ref in uppers}["edge_count"].value == 1


def lower_bound_with_the_clique(h) -> int:
    """The combinatorial lower bound with the conflict clique always counted."""
    m = len(h.edges)
    if m == 0:
        return 0
    max_matching = len(h.incident) // min(len(e.support) for e in h.edges)
    counting = -(-m // max_matching) if max_matching else 0
    return max(h.max_degree(), len(h.conflict_clique), counting)


def test_simple_graphs_skip_the_clique_only_where_it_cannot_count():
    rng = random.Random(59)
    graphs = [random_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.4, 0.8))) for _ in range(60)]
    # Triangle-rich: complete graphs, and k triangles sharing vertex 1.
    graphs += [
        InstanceGraph(n, tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))
        for n in range(2, 9)
    ]
    graphs += [
        InstanceGraph(2 * k + 1, tuple(
            e for i in range(1, k + 1) for e in ((1, 2 * i), (1, 2 * i + 1), (2 * i, 2 * i + 1))
        ))
        for k in range(1, 6)
    ]
    hypergraphs = [graph_hypergraph(g) for g in graphs]
    for _ in range(20):
        supports = random_hypergraph_supports(rng, rng.randint(4, 9), rng.randint(3, 12))
        poly = Polynomial.from_terms((s, 1) for s in supports)
        hypergraphs.append(build(pubo_from_polynomial(poly)))
    skipped = 0
    for h in hypergraphs:
        bound = coloring_mod.combinatorial_lower_bound(h)
        shortcut = h.is_simple_graph() and h.max_degree() >= 3
        assert ("conflict_clique" not in vars(h)) == (shortcut or not h.edges)
        skipped += shortcut
        assert bound == lower_bound_with_the_clique(h)
    assert skipped >= 40


def test_nonlinear_hypergraph_flag(general_problem):
    h = absorb_subsets(build(dualize(general_problem)), 3)
    # pairs of 3-edges share two vertices here, so EFL does not apply
    assert not h.is_linear()
    _, uppers = bounds(h)
    assert not {r.name: r for r in uppers}["erdos_faber_lovasz"].applies
