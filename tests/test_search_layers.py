"""The integer-mask branch and bound against the frozenset one it replaced.

``bruteforce.search_layers_reference`` is that search, unchanged apart from
its budget stop.  On the same input both must visit the same number of
nodes, return the same layers made of the same gates, and run out of budget
in exactly the same cases, each then returning the best layers it found.

The merge search's lower bound, the per-qubit cover count, runs the same
search on each qubit's star.  It is checked against a set-partition
enumeration, the greedy bound it replaced and the fewest layers by brute
force, on stars whose uncapped search takes seconds, and by its pinned sum
over 400 wide stars.
"""

import random
import time
from dataclasses import replace

import pytest

from qaoadepth import InvalidInputError, Polynomial, absorb_subsets, build, merge_exact
from qaoadepth import hypergraph as hypergraph_mod
from qaoadepth.coloring import combinatorial_lower_bound, first_fit_classes
from qaoadepth.hypergraph import _merge_lower_bound, search_layers

from bruteforce import (
    merge_cover_reference,
    merge_layers_bruteforce,
    merge_lower_bound_reference,
    pubo_from_polynomial,
    random_graph,
    random_hypergraph_supports,
    search_layers_reference,
)


def hypergraph(supports):
    return build(pubo_from_polynomial(Polynomial.from_terms((s, 1) for s in supports)))


def assert_same_search(h, limit, budget, incumbent, lower=0):
    """The node count of both searches, or "budget" when both ran out of it."""
    # The search seeds itself with the conflict clique when it does not merge.
    seed = () if limit else h.conflict_clique
    new_layers, new_nodes, new_finished = search_layers(h, limit, budget, incumbent, lower)
    old_layers, old_nodes, old_finished = search_layers_reference(
        h, limit, budget, incumbent, seed, lower
    )
    assert (new_nodes, new_finished) == (old_nodes, old_finished)
    assert new_nodes <= budget
    if old_layers is None:
        assert new_layers is None
    else:
        # Each layer as the set of its gates, each gate as the set of its edges.
        assert {frozenset(map(frozenset, layer)) for layer in new_layers} == {
            frozenset(frozenset(members) for _, members in layer) for layer in old_layers
        }
    return old_nodes if old_finished else "budget"


def test_merge_searches_of_the_benchmark_shape_match_the_reference():
    # 16-20 variables, 30-60 monomials of width 2..L, the width limit L, a
    # budget of 5000 nodes: the merge searches the search-exact workload runs.
    rng = random.Random(1301)
    results = []
    for _ in range(12):
        limit = rng.randint(3, 4)
        supports = random_hypergraph_supports(
            rng, rng.randint(16, 20), rng.randint(30, 60), max_width=limit
        )
        h = hypergraph(supports)
        incumbent = len(first_fit_classes(absorb_subsets(h, limit)))
        results.append(
            assert_same_search(h, limit, 5000, incumbent, lower=_merge_lower_bound(h, limit))
        )
    assert "budget" in results and any(r != "budget" for r in results)


def cover_draws():
    """Seeded small hypergraphs, 4-8 qubits and 3-12 edges, with width limits 2-5."""
    rng = random.Random(1409)
    for _ in range(600):
        limit = rng.randint(2, 5)
        supports = random_hypergraph_supports(rng, rng.randint(4, 8), rng.randint(3, 12), limit)
        yield supports, limit


def capped_searches(monkeypatch) -> list[bool]:
    """Records, per search of one qubit's star, whether it reached its cap.

    A star search is the call of :func:`search_layers` with the cap as its budget.
    """
    capped = []
    search = hypergraph_mod.search_layers

    def watched(h, limit, budget, *args):
        result = search(h, limit, budget, *args)
        if budget == hypergraph_mod._COVER_SEARCH_CAP:
            capped.append(not result[2])
        return result

    monkeypatch.setattr(hypergraph_mod, "search_layers", watched)
    return capped


def test_merge_lower_bound_is_the_cover_count(monkeypatch):
    # Never below the greedy bound it replaced, never above the fewest
    # layers, and where no search reached its cap, the fewest groups of one
    # qubit's edges by enumerating their set partitions.
    capped = capped_searches(monkeypatch)
    stronger = 0
    for supports, limit in cover_draws():
        h = hypergraph(supports)
        capped.clear()
        bound = _merge_lower_bound(h, limit)
        greedy = merge_lower_bound_reference(h, limit)
        assert greedy <= bound <= merge_layers_bruteforce(supports, limit)
        if not any(capped):
            assert bound == merge_cover_reference(h, limit)
        stronger += bound > greedy
    assert stronger >= 5


def test_a_capped_cover_search_falls_back_to_a_sound_bound(monkeypatch):
    # A cap of one node stops every search at once: each qubit then counts
    # the greedy set or its neighbours over the room, never the search's
    # best so far, which bounds the count from above.
    monkeypatch.setattr(hypergraph_mod, "_COVER_SEARCH_CAP", 1)
    capped = capped_searches(monkeypatch)
    for supports, limit in cover_draws():
        h = hypergraph(supports)
        bound = _merge_lower_bound(h, limit)
        assert merge_lower_bound_reference(h, limit) <= bound
        assert bound <= merge_layers_bruteforce(supports, limit)
    assert sum(capped) > 50


def test_the_closed_form_at_width_3_equals_the_search():
    # Per qubit: the star of its edges has the qubit's own count as its
    # bound, as every other qubit's edges are a subset of the star's.  Each
    # layer of a star is one gate, so an uncapped search of the absorbed
    # star finds the fewest groups.
    stars = 0
    for supports, limit in cover_draws():
        if limit > 3:
            continue
        h = hypergraph(supports)
        for edges in h.incident:
            star = hypergraph([h.edges[i].support for i in edges])
            absorbed = absorb_subsets(star, 3)
            layers, _, finished = search_layers(absorbed, 3, 10**6, len(absorbed.edges) + 1)
            assert finished
            assert _merge_lower_bound(star, 3) == len(layers)
            stars += 1
    assert stars > 1000


def test_merge_exact_is_the_same_on_an_absorbed_hypergraph():
    # merge_exact absorbs its argument itself, and takes its lower bound on
    # the absorbed hypergraph, so absorbing first changes neither figure.
    for supports, limit in cover_draws():
        h = hypergraph(supports)
        plain = merge_exact(h, limit).coloring
        absorbed = merge_exact(absorb_subsets(h, limit), limit).coloring
        assert (absorbed.num_colors, absorbed.lower_bound) == (plain.num_colors, plain.lower_bound)


def wide_stars():
    """400 absorbed stars around the hub c: limits 4-6, 5-40 edges over 8-30 other qubits."""
    rng = random.Random(3)
    for _ in range(400):
        limit = rng.randint(4, 6)
        leaves = [f"y{i}" for i in range(rng.randint(8, 30))]
        target = rng.randint(5, 40)
        supports = set()
        for _ in range(10_000):
            if len(supports) == target:
                break
            supports.add(tuple(sorted(("c", *rng.sample(leaves, rng.randint(1, limit - 1))))))
        yield absorb_subsets(hypergraph(sorted(supports)), limit), limit


def test_wide_star_bounds_are_pinned():
    # The hub's star search runs on up to 40 edges a star.  Each bound lies
    # between the greedy set and a layering, and their sum is pinned: a
    # weaker star search, capped sooner or branching in another order, sums
    # lower.
    total = 0
    for h, limit in wide_stars():
        bound = _merge_lower_bound(h, limit)
        layers = merge_exact(h, limit, budget=0).coloring.num_colors
        assert merge_lower_bound_reference(h, limit) <= bound <= layers
        total += bound
    assert total == 4496


@pytest.mark.parametrize("edges, limit, seed", [(45, 5, 7), (60, 4, 8)])
def test_a_wide_star_gets_a_sound_bound_within_its_cap(edges, limit, seed, monkeypatch):
    # Edges of width 3..limit around one hub over 40 other qubits: an
    # uncapped search at the hub runs for seconds.  The capped one stops,
    # and the bound stays between the greedy set and a layering.
    rng = random.Random(seed)
    leaves = [f"y{i}" for i in range(40)]
    supports = set()
    while len(supports) < edges:
        supports.add(tuple(sorted(["c", *rng.sample(leaves, rng.randint(2, limit - 1))])))
    h = hypergraph(sorted(supports))
    capped = capped_searches(monkeypatch)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        bound = _merge_lower_bound(h, limit)
        seconds.append(time.perf_counter() - start)
    assert capped == [True] * 3  # the hub's search, once per run
    assert min(seconds) < 0.05
    layers = merge_exact(h, limit, budget=0).coloring.num_colors
    assert merge_lower_bound_reference(h, limit) <= bound <= layers


def test_coloring_searches_match_the_reference():
    # color_exact's call: no merging, the conflict clique opens the first
    # layers and the search stops at the combinatorial lower bound.  One
    # layer above first-fit as the incumbent makes the trees deeper.
    rng = random.Random(1311)
    instances = []
    for _ in range(10):
        g = random_graph(rng, rng.randint(8, 14), rng.uniform(0.3, 0.8))
        instances.append(hypergraph([(f"x{u}", f"x{v}") for u, v in g.edges]))
        supports = random_hypergraph_supports(
            rng, rng.randint(8, 14), rng.randint(15, 40), rng.randint(3, 4)
        )
        instances.append(hypergraph(supports))
    results = [
        assert_same_search(
            h, 0, 3000, len(first_fit_classes(h)) + extra, lower=combinatorial_lower_bound(h)
        )
        for h in instances
        for extra in (0, 1)
    ]
    assert "budget" in results and any(r not in ("budget", 0) for r in results)


def test_small_searches_match_the_reference():
    # Whole trees: no incumbent and no lower bound to stop at, with and
    # without merging, and budgets around the node count.
    rng = random.Random(1307)
    for _ in range(60):
        width = rng.randint(2, 4)
        h = hypergraph(random_hypergraph_supports(rng, rng.randint(3, 7), rng.randint(1, 9), width))
        limit = rng.choice((0, width, width + 1))
        m = len(h.edges)
        nodes = assert_same_search(h, limit, 10**6, m + 1)
        for budget in (nodes - 1, nodes, rng.randint(0, nodes)):
            assert_same_search(h, limit, budget, m + 1)
        assert_same_search(h, limit, 10**6, rng.randint(1, m + 1), rng.randint(0, m))


def test_repeated_supports_at_the_width_limit_match_the_reference():
    # An edge as wide as the limit fits in one gate only with the edges
    # inside its support, every copy of its own support among them; build
    # never repeats a support, but a hand-built hypergraph may.
    rng = random.Random(1321)
    for _ in range(60):
        width = rng.randint(2, 4)
        h = hypergraph(random_hypergraph_supports(rng, rng.randint(3, 7), rng.randint(1, 8), width))
        widest = [edge for edge in h.edges if len(edge.support) == width] or list(h.edges)
        h = replace(h, edges=h.edges + tuple(rng.choices(widest, k=rng.randint(1, 3))))
        for limit in (width, width + 1):
            nodes = assert_same_search(h, limit, 10**6, len(h.edges) + 1)
            assert_same_search(h, limit, rng.randint(0, nodes), len(h.edges) + 1)


def test_a_merge_of_pairwise_narrow_edges_can_still_be_too_wide():
    # Any two of ab, bc, cd fit one gate of width 3, so no pair clashes, but
    # the three together act on 4 qubits: only the full width check sees it.
    h = hypergraph([("a", "b"), ("b", "c"), ("c", "d")])
    for incumbent in (2, 3, 4):
        assert_same_search(h, 3, 10**6, incumbent)
    layers, _, _ = search_layers(h, 3, 10**6, 4)
    assert len(layers) == 2
    assert_same_search(h, 4, 10**6, 4)  # one gate of width 4 holds all three


@pytest.mark.parametrize("incumbent", [2, 3, 4, 5, 8, 9, 16, 17])
def test_saturations_near_a_power_of_two_match_the_reference(incumbent):
    # With an incumbent of 2^k + 1 a saturation can reach 2^k, the largest
    # count its k + 1 counter digits must hold; 2^k is the other side of the
    # step.  Complete graphs and dense hypergraphs saturate edges fastest.
    rng = random.Random(1319)
    instances = [
        hypergraph([(f"x{u}", f"x{v}") for u in range(n) for v in range(u + 1, n)])
        for n in range(5, 10)
    ]
    instances += [hypergraph(random_hypergraph_supports(rng, 7, 25, 3)) for _ in range(3)]
    results = [
        assert_same_search(h, limit, 3000, incumbent)
        for h in instances
        for limit in (0, 3)
    ]
    assert any(r not in ("budget", 0) for r in results)


def test_negative_budget_is_rejected():
    h = hypergraph([("x1", "x2"), ("x2", "x3")])
    with pytest.raises(InvalidInputError):
        search_layers(h, 0, -1, 3)
    # A budget of 0 is valid, and spent at the root: a stopped search.
    assert search_layers(h, 0, 0, 3) == (None, 0, False)
