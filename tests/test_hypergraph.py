import random
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from qaoadepth import (
    DerivedHypergraph,
    GateWidthError,
    Hyperedge,
    InstanceGraph,
    Polynomial,
    absorb_subsets,
    build,
    check_gate_width,
    color_exact,
    color_greedy,
    dualize,
    make_maxcut,
    make_maxindset,
    merge_exact,
    with_penalty_weight,
)
from qaoadepth.coloring import first_fit_classes
from qaoadepth.hypergraph import _merge_lower_bound
from qaoadepth.io import read_dimacs_graph

from bruteforce import (
    absorb_subsets_incidence,
    absorb_subsets_scan,
    chromatic_index_bruteforce,
    conflicts_pairwise,
    first_fit_by_conflicts,
    is_linear_pairwise,
    is_simple_graph_by_names,
    merge_layers_bruteforce,
    pubo_from_polynomial,
    random_graph,
    random_hypergraph_supports,
    random_polynomial,
    total_polynomial,
)
from qaoadepth.schedule import schedule

GENERAL_SUPPORTS_AFTER_ABSORB = {
    ("s1_1", "s1_2"),
    ("s1_1", "x1", "x2"),
    ("s1_1", "x1", "x3"),
    ("s1_1", "x2", "x3"),
    ("s1_2", "x1", "x2"),
    ("s1_2", "x1", "x3"),
    ("s1_2", "x2", "x3"),
    ("x1", "x2", "x3"),
}


def test_w6_derived_graph_is_the_wheel_itself(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    assert len(h.vertices) == 6
    assert len(h.edges) == 10
    assert h.singletons == ()  # every vertex has an edge, so its phase is folded into one
    assert {e.support for e in h.edges} == {
        (f"x{u}", f"x{v}") for u, v in w6.edges
    }
    # Each phase joins its vertex's first edge by support; the hub x1 is in all of them.
    folded = {
        support[0]: edge.support
        for edge in h.edges for support, _ in edge.monomials if len(support) == 1
    }
    assert folded == {"x1": ("x1", "x2"), "x2": ("x1", "x2"), **{
        f"x{v}": ("x1", f"x{v}") for v in range(3, 7)
    }}
    assert h.max_degree() == 5
    assert h.uniform_size() == 2
    assert h.is_linear()


@pytest.mark.parametrize("max_width", [2, 3, 4])
def test_conflicts_and_linearity_match_the_pairwise_definition(max_width):
    rng = random.Random(60 + max_width)
    outcomes, simple = set(), set()
    for trial in range(150):
        supports = random_hypergraph_supports(
            rng, rng.randint(max_width, 9), trial % 13, max_width=max_width
        )
        h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
        assert [e.support for e in h.edges] == supports
        outcomes.add((min(len(supports), 2), h.is_linear()))
        # the edges reversed, and a pair repeated, as build() never does
        repeated = tuple(e for e in h.edges if len(e.support) == 2)[:1]
        for g in (h, replace(h, edges=h.edges[::-1]), replace(h, edges=h.edges + repeated)):
            supports = [e.support for e in g.edges]
            pairwise = conflicts_pairwise(supports)
            assert list(g.conflict_degrees) == list(map(len, pairwise))
            clique = g.conflict_clique
            assert all(j in pairwise[i] for i in clique for j in clique if i != j)
            outside = set(range(len(supports))) - set(clique)
            assert not [j for j in outside if all(i in pairwise[j] for i in clique)]  # maximal
            assert g.is_linear() == is_linear_pairwise(supports)
            assert g.is_simple_graph() == is_simple_graph_by_names(supports)
            simple.add(g.is_simple_graph())
            first_use: list[str] = []
            for support in supports:
                first_use += [name for name in support if name not in first_use]
            assert g.qubits == tuple(first_use)
            assert [tuple(g.qubits[x] for x in ends) for ends in g.ends] == supports
            assert g.incident == tuple(
                tuple(i for i, support in enumerate(supports) if name in support)
                for name in first_use
            )
            assert g._support_masks == tuple(sum(1 << x for x in ends) for ends in g.ends)
    # empty and single-edge hypergraphs, linear ones and (once edges are wider
    # than two, so two of them can share two vertices) non-linear ones all occurred
    expected = {(0, True), (1, True), (2, True)} | ({(2, False)} if max_width > 2 else set())
    assert outcomes == expected
    assert simple == {True, False}


@pytest.mark.parametrize(
    "supports, linear",
    [
        ([("a", "b", "c"), ("b", "c", "d")], False),
        ([("a", "b"), ("a", "b", "c")], False),
        ([("a", "b", "c", "d"), ("c", "d", "e", "f")], False),
        ([("a", "b"), ("c", "d", "e", "f"), ("b", "d", "e", "g")], False),
        ([("a", "b", "c", "d"), ("d", "e", "f", "g"), ("a", "e", "h", "i")], True),
    ],
)
def test_wide_hypergraphs_sharing_two_vertices_are_not_linear(supports, linear):
    h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
    assert h.is_linear() == is_linear_pairwise(supports) == linear


def test_a_repeated_pair_is_not_linear():
    # build() never repeats a support; two gates on one pair still share two qubits
    pair = Hyperedge(support=("a", "b"), monomials=((("a", "b"), 1),))
    h = DerivedHypergraph(vertices=("a", "b"), edges=(pair, pair), singletons=())
    assert not h.is_linear()
    assert DerivedHypergraph(vertices=("a", "b"), edges=(pair,), singletons=()).is_linear()


def test_general_example_absorption_leaves_eight_gates(general_problem):
    pubo = dualize(general_problem)
    h = build(pubo)
    assert len(h.edges) == 11  # three 2-edges still separate
    absorbed = absorb_subsets(h, 3)
    assert {e.support for e in absorbed.edges} == GENERAL_SUPPORTS_AFTER_ABSORB
    # absorbed monomials are preserved, just regrouped
    assert total_polynomial(absorbed) == pubo.objective


def test_absorption_skipped_when_width_limit_too_small(general_problem):
    pubo = dualize(general_problem)
    h = build(pubo)
    narrow = absorb_subsets(h, 2)
    assert {e.support for e in narrow.edges} == {e.support for e in h.edges}
    with pytest.raises(GateWidthError):
        check_gate_width(narrow, 2)


def test_absorption_chain_collapses_into_the_maximal_support():
    poly = Polynomial(
        {("a", "b"): 1, ("a", "b", "c"): 1, ("a", "b", "c", "d"): 1}
    )
    h = build(pubo_from_polynomial(poly))
    absorbed = absorb_subsets(h, 4)
    assert len(absorbed.edges) == 1
    assert absorbed.edges[0].support == ("a", "b", "c", "d")
    assert len(absorbed.edges[0].monomials) == 3


def test_absorption_never_widens_or_grows():
    rng = random.Random(41)
    for _ in range(15):
        names = [f"x{i}" for i in range(1, 6)]
        poly = random_polynomial(rng, names, max_terms=10, max_width=4)
        h = build(pubo_from_polynomial(poly))
        for limit in (2, 3, 4):
            absorbed = absorb_subsets(h, limit)
            assert len(absorbed.edges) <= len(h.edges)
            assert {e.support for e in absorbed.edges} <= {e.support for e in h.edges}
            assert total_polynomial(absorbed) == total_polynomial(h)


def test_absorption_through_the_vertex_index_matches_the_scan():
    rng = random.Random(43)
    absorbed = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        supports = random_hypergraph_supports(rng, n, rng.randint(1, 14), max_width=4)
        poly = Polynomial.from_terms((s, rng.choice((-2, -1, 1, 3))) for s in supports)
        h = build(pubo_from_polynomial(poly))
        for limit in (2, 3, 4, 5):
            result = absorb_subsets(h, limit)
            assert result == absorb_subsets_scan(h, limit)
            absorbed += len(h.edges) - len(result.edges)
    assert absorbed > 300


def test_containers_and_mask_first_fit_match_the_incidence_scan_and_the_conflict_lists():
    # absorb_subsets has each edge collect the narrower edges inside it, and
    # first-fit keeps per-qubit color masks; the references scan the
    # incidence and keep a list of conflicts per edge.  build() folds a
    # phase into the widest edge on its qubit, which nothing absorbs, so here
    # each phase joins a random edge on its qubit and may move with it.
    rng = random.Random(89)
    wide = chains = folded = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        supports = random_hypergraph_supports(rng, n, rng.randint(1, 16), max_width=5)
        poly = Polynomial.from_terms((s, rng.choice((-1, 1, 2))) for s in supports)
        h = build(pubo_from_polynomial(poly))
        monomials = [list(e.monomials) for e in h.edges]
        for name in {name for s in supports for name in s}:
            on = [i for i, s in enumerate(supports) if name in s]
            monomials[rng.choice(on)].append(((name,), rng.choice((-1, 3))))
        h = replace(h, edges=tuple(
            Hyperedge(e.support, tuple(sorted(terms))) for e, terms in zip(h.edges, monomials)
        ))
        for g in (h, replace(h, edges=h.edges[::-1])):
            assert first_fit_classes(g) == first_fit_by_conflicts(g)
        for limit in (2, 3, 4):
            result, reference = absorb_subsets(h, limit), absorb_subsets_incidence(h, limit)
            assert result.edges == reference.edges  # supports and monomials
            assert (result is h) == (reference is h)
            assert first_fit_classes(result) == first_fit_by_conflicts(result)
            assert total_polynomial(result) == total_polynomial(h)
            sets = [set(s) for s in supports]
            hosts = [s for s in sets if len(s) <= limit]
            wide += len(hosts) < len(sets)
            chains += any(a < b < c for a in sets for b in hosts for c in hosts)
            gone = {e.support for e in h.edges} - {e.support for e in result.edges}
            folded += any(len(t) == 1 for e in h.edges if e.support in gone for t, _ in e.monomials)
    assert wide > 300 and chains > 50 and folded > 200


def test_first_fit_and_absorption_keep_no_conflict_lists():
    # Lists of each edge's conflicts hold the sum of the conflict degrees in
    # pointers alone.  Every pair and triple on 16 qubits has 203,280 of
    # them, 1.6 MB; the containers and the color masks need memory in the
    # edges and qubits, a small part of that.  At limit 3 the triples absorb
    # the pairs.
    names = [f"x{i:02d}" for i in range(16)]
    supports = [s for width in (2, 3) for s in combinations(names, width)]
    h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
    pointers = 8 * sum(map(len, conflicts_pairwise(supports)))

    def peak(call, *args) -> int:
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(absorb_subsets, replace(h), 3) < pointers // 4  # a copy with nothing cached
    absorbed = absorb_subsets(h, 3)
    assert len(absorbed.edges) == len(supports) - 120
    absorbed.incident  # the qubit numbering is cached before the measurement
    assert peak(first_fit_classes, absorbed) < pointers // 4
    assert "conflict_degrees" in vars(absorbed)


def test_absorption_at_a_wide_limit_looks_only_at_the_qubits_of_each_edge():
    # 200 gates of width 8 at limit 8 with 50 triples inside them, and 600
    # edges of widths 2-7 on qubits of their own.  Listing the sub-supports
    # of those widths for every gate would make 200 * 246 tuples, and testing
    # every narrow edge for every gate 120,000 pairs.  Only the triples sit
    # at a gate's qubits: no pair's support is read (a subset test iterates
    # it, and a pair contains no edge), and the peak stays below two
    # pointers per sub-support the listing would hold.
    class Watched(tuple):
        """A support that counts how often it is iterated."""

        reads = 0

        def __iter__(self):
            Watched.reads += 1
            return super().__iter__()

    limit = 8
    wide = [tuple(f"w{i:03d}_{j}" for j in range(limit)) for i in range(200)]
    narrow = [
        tuple(f"n{k}_{i:02d}_{j}" for j in range(k)) for k in range(2, limit) for i in range(100)
    ]
    supports = [*wide, *narrow, *(w[:3] for w in wide[:50])]
    h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
    h = replace(h, edges=tuple(
        Hyperedge(Watched(e.support) if e.support[0].startswith("n2_") else e.support, e.monomials)
        for e in h.edges
    ))
    listed = len(wide) * sum(comb(limit, k) for k in range(2, limit))

    tracemalloc.start()
    try:
        absorbed = absorb_subsets(h, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Watched.reads == 0
    assert peak < 16 * listed
    assert len(absorbed.edges) == len(supports) - 50
    assert absorbed == absorb_subsets_incidence(h, limit)


def test_absorption_returns_its_argument_when_it_absorbs_nothing(w6, general_problem):
    maxcut = build(dualize(make_maxcut(w6)))
    assert absorb_subsets(maxcut, 2) is maxcut  # no edge narrower than the limit
    assert absorb_subsets(maxcut, 3) is maxcut  # narrower edges, but no host
    rng = random.Random(47)
    for _ in range(40):
        supports = random_hypergraph_supports(rng, rng.randint(3, 7), rng.randint(1, 14), 4)
        h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
        for limit in (2, 3, 4):
            absorbed = absorb_subsets(h, limit)
            assert absorb_subsets(absorbed, limit) is absorbed
    # Out of support order, the rebuilt hypergraph differs, so it is returned.
    shuffled = replace(maxcut, edges=maxcut.edges[::-1])
    assert absorb_subsets(shuffled, 2) == maxcut
    merged = merge_exact(absorb_subsets(build(dualize(general_problem)), 3), 3).hypergraph
    resorted = absorb_subsets(merged, 3)
    assert resorted.edges == tuple(sorted(merged.edges, key=lambda e: e.support))


def test_every_gate_producer_keeps_the_monomials_sorted(general_problem):
    # absorb_subsets returns its argument without looking at the monomials,
    # so every producer of gates must leave them sorted.  Phases on every
    # qubit fold into the edges, so most gates carry several monomials.
    def assert_sorted(edges):
        for edge in edges:
            assert list(edge.monomials) == sorted(edge.monomials)

    rng = random.Random(83)
    instances = [build(dualize(general_problem))]
    for _ in range(30):
        n = rng.randint(3, 7)
        supports = random_hypergraph_supports(rng, n, rng.randint(1, 8), 4)
        phases = [((f"x{i}",), rng.randint(-3, 3)) for i in range(1, n + 1)]
        poly = Polynomial.from_terms([(s, rng.randint(1, 3)) for s in supports] + phases)
        instances.append(build(pubo_from_polynomial(poly)))
    folded = merges = 0
    for h in instances:
        assert_sorted(h.edges)
        folded += sum(len(edge.monomials) > 1 for edge in h.edges)
        for limit in (2, 3, 4):
            absorbed = absorb_subsets(h, limit)
            assert_sorted(absorbed.edges)
            if limit >= max(len(e.support) for e in h.edges):
                merged = merge_exact(absorbed, limit).hypergraph
                merges += 1
                assert_sorted(merged.edges)
                sched = schedule(merged, color_exact(merged))
                assert_sorted(gate for layer in sched.layers for gate in layer.gates)
    assert folded > 30 and merges > 30


def test_build_places_phases_in_sorted_order_without_sorting():
    # build puts a gate's first-qubit phase in front of its own term and
    # appends the others; on PUBOs of widths 2-4 whose linear terms sit on
    # some qubits only, that is each gate's sorted tuple of monomials.
    rng = random.Random(59)
    hosts = 0
    for draw in range(200):
        width = 2 + draw % 3
        n = rng.randint(width, 8)
        supports = random_hypergraph_supports(rng, n, rng.randint(1, 10), width)
        phases = [((f"x{i}",), rng.choice([-2, -1, 1, 3])) for i in range(1, n + 1) if rng.random() < 0.6]
        poly = Polynomial.from_terms([(s, rng.randint(-3, 3) or 1) for s in supports] + phases)
        h = build(pubo_from_polynomial(poly))
        for edge in h.edges:
            assert type(edge.monomials) is tuple
            assert edge.monomials == tuple(sorted(edge.monomials))
            hosts += edge.monomials[0][0] == edge.support[:1]
        assert total_polynomial(h) == poly
    assert hosts > 100


def test_build_makes_each_gate_a_hyperedge_like_its_keyword_built_twin(w6):
    # build makes its gates with tuple.__new__, past the generated __new__.
    rng = random.Random(41)
    pubos = [dualize(make_maxcut(w6))]
    for draw in range(30):
        supports = random_hypergraph_supports(rng, 6, rng.randint(1, 8), 2 + draw % 3)
        phases = [((f"x{i}",), rng.choice([-1, 2])) for i in range(1, 7) if rng.random() < 0.5]
        pubos.append(pubo_from_polynomial(Polynomial.from_terms([(s, 1) for s in supports] + phases)))
    for pubo in pubos:
        for edge in build(pubo).edges:
            twin = Hyperedge(support=edge[0], monomials=edge[1])
            assert type(edge) is Hyperedge and len(edge) == 2
            assert edge == twin and repr(edge) == repr(twin) and edge._asdict() == twin._asdict()


def test_merge_exact_on_an_absorbed_hypergraph_computes_its_conflicts_once(
    general_problem, monkeypatch
):
    # The conflict degrees are the one cached conflict structure: first-fit
    # and the search read them, and nothing keeps a list of conflicts per edge.
    assert not hasattr(DerivedHypergraph, "conflicts")
    computed = []
    degrees = DerivedHypergraph.conflict_degrees
    original = degrees.func

    def counted(h):
        computed.append(h)
        return original(h)

    monkeypatch.setattr(degrees, "func", counted)
    rng = random.Random(53)
    instances = [absorb_subsets(build(dualize(general_problem)), 3)]
    for width in (2, 3, 2, 3, 2, 3):
        supports = random_hypergraph_supports(rng, rng.randint(6, 12), rng.randint(10, 20), width)
        h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
        instances.append(absorb_subsets(h, 3))  # as run_pipeline passes it on
    improved = 0
    for h in instances:
        computed.clear()
        result = merge_exact(h, 3)
        # Once for the incumbent and the search.  A better merge is a new
        # hypergraph, but only its upper bounds are annotated, and they need
        # no conflicts.
        improved += result.hypergraph is not h
        assert computed == [h]
    assert 0 < improved < len(instances)


def test_zero_polynomial_gives_empty_hypergraph():
    h = build(pubo_from_polynomial(Polynomial.zero()))
    assert h.edges == () and h.singletons == () and h.vertices == ()


def test_duplicate_supports_merge_at_build_time(w6):
    # objective and penalty touch the same pairs: still one gate per pair
    pubo = dualize(with_penalty_weight(make_maxindset(w6), 2))
    h = build(pubo)
    assert len(h.edges) == 10
    assert total_polynomial(h) == pubo.objective


def test_merge_exact_on_the_general_example(general_problem):
    pubo = dualize(general_problem)
    absorbed = absorb_subsets(build(pubo), 3)
    result = merge_exact(absorbed, 3)
    assert result.coloring.num_colors == 7
    assert total_polynomial(result.hypergraph) == pubo.objective


def test_merge_exact_packs_disjoint_edges_when_width_allows():
    poly = Polynomial({("a", "b"): 1, ("c", "d"): 1})
    h = build(pubo_from_polynomial(poly))
    result = merge_exact(h, 4)
    assert result.coloring.num_colors == 1


def test_merge_exact_triangle_needs_three_layers():
    poly = Polynomial({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    h = build(pubo_from_polynomial(poly))
    result = merge_exact(h, 2)
    assert result.coloring.num_colors == 3
    assert chromatic_index_bruteforce([e.support for e in h.edges]) == 3


def test_merge_exact_reports_its_finished_search_as_the_lower_bound(fixture_dir):
    petersen = read_dimacs_graph(str(fixture_dir / "petersen.dimacs"))
    h = build(dualize(make_maxcut(petersen)))
    exact = color_exact(h)
    merged = merge_exact(h, 2).coloring
    assert (exact.num_colors, exact.lower_bound) == (4, 4)
    assert (merged.method, merged.num_colors, merged.lower_bound) == ("exact", 4, 4)


def test_merge_exact_certifies_from_its_lower_bound_without_searching():
    # Three 3-qubit gates on qubit a: no two fit one 3-qubit gate, so each
    # needs a layer of its own, and first fit already uses three.
    poly = Polynomial({("a", "b", "c"): 1, ("a", "d", "e"): 1, ("a", "f", "g"): 1})
    h = build(pubo_from_polynomial(poly))
    result = merge_exact(h, 3, budget=1)
    assert (result.coloring.num_colors, result.coloring.lower_bound) == (3, 3)
    assert result.nodes_explored == 0
    # At width 5 two of them merge into one gate and the bound no longer settles it.
    assert merge_exact(h, 5).coloring.num_colors == 2


def test_merge_exact_never_beaten_by_absorb_plus_greedy():
    rng = random.Random(43)
    for _ in range(10):
        names = [f"x{i}" for i in range(1, 6)]
        poly = random_polynomial(rng, names, max_terms=7, max_width=3)
        h = build(pubo_from_polynomial(poly))
        if any(len(e.support) > 3 for e in h.edges):
            continue
        result = merge_exact(h, 3)
        baseline = color_greedy(absorb_subsets(h, 3))
        assert result.coloring.num_colors <= baseline.num_colors
        assert result.coloring.lower_bound == result.coloring.num_colors


def test_merge_exact_agrees_with_layer_partition_enumeration():
    rng = random.Random(61)
    for _ in range(200):
        limit = rng.randint(2, 4)
        supports = random_hypergraph_supports(
            rng, rng.randint(3, 7), rng.randint(1, 8), max_width=limit
        )
        h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
        assert merge_exact(h, limit).coloring.num_colors == merge_layers_bruteforce(
            supports, limit
        )


def test_merge_exact_node_counts_are_pinned():
    # The branching order decides how many nodes a search takes, and with it
    # which searches fit their budget, while every layer count stays the
    # same.  These counts come from the DSATUR order as first written, which
    # rescanned every unplaced edge's conflicts at every node; a search that
    # keeps the saturation up to date incrementally must branch the same way.
    rng = random.Random(71)
    counts = []
    for _ in range(40):
        limit = rng.randint(2, 4)
        supports = random_hypergraph_supports(
            rng, rng.randint(4, 8), rng.randint(6, 14), max_width=limit
        )
        h = build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))
        counts.append(merge_exact(h, limit).nodes_explored)
    assert sum(counts) == 271
    assert counts[:8] == [0, 0, 0, 0, 5, 15, 35, 0]


def test_merge_exact_budget_exhaustion_signals():
    # The stopped search reports the whole budget as its node count, and its
    # best layering, labelled exact, with the lower bound it fell short of.
    g = random_graph(random.Random(5), 7, 0.8)
    pubo = dualize(make_maxcut(g))
    h = build(pubo)
    stopped = merge_exact(h, 2, budget=3)
    coloring = stopped.coloring
    assert stopped.nodes_explored == 3
    assert coloring.method == "exact"
    assert coloring.lower_bound == _merge_lower_bound(h, 2) < coloring.num_colors
    assert coloring.num_colors <= color_greedy(absorb_subsets(h, 2)).num_colors
    finished = merge_exact(h, 2)
    assert finished.coloring.lower_bound == finished.coloring.num_colors <= coloring.num_colors


def test_merge_exact_rejects_oversized_gates(general_problem):
    pubo = dualize(general_problem)
    h = build(pubo)
    with pytest.raises(GateWidthError):
        merge_exact(h, 2)


def test_gate_width_limit_validation(w6):
    h = build(dualize(make_maxcut(w6)))
    with pytest.raises(Exception):
        check_gate_width(h, 1)
    with pytest.raises(Exception):
        absorb_subsets(h, 1)
