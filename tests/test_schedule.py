import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from qaoadepth import (
    CircuitLayer,
    DerivedHypergraph,
    Hyperedge,
    InstanceGraph,
    InvalidInputError,
    Polynomial,
    absorb_subsets,
    analyze_family,
    build,
    color_exact,
    color_greedy,
    dualize,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_tsp,
    make_vertex_cover,
    merge_exact,
    run_pipeline,
    schedule,
    with_penalty_weight,
)
from qaoadepth.coloring import EdgeColoring

from bruteforce import pubo_from_polynomial, random_graph, sat_formula_degrees_reference


def pipeline_parts(problem, gate_width=2):
    pubo = dualize(problem)
    h = absorb_subsets(build(pubo), gate_width)
    coloring = color_exact(h)
    sched = schedule(h, coloring)
    return pubo, h, coloring, sched


def test_w6_maxcut_schedule_layout(w6):
    pubo, h, coloring, sched = pipeline_parts(make_maxcut(w6))
    assert coloring.num_colors == 5
    assert sched.structural_depth == 6
    kinds = [layer.kind for layer in sched.layers]
    assert kinds == ["cost"] * 5 + ["mixer"]
    # the hub x1 is busy in every cost layer, so no layer has an idle qubit
    # for its phase: all six phases ride inside the edge gates instead
    assert sched.singleton_overhead == 0
    assert sched.coloring_depth == 5
    assert all(len(gate.support) == 2 for layer in sched.layers[:5] for gate in layer.gates)
    phases = [term for layer in sched.layers[:5] for gate in layer.gates
              for term in gate.monomials if len(term[0]) == 1]
    assert len(phases) == 6


def test_general_example_schedule_folds_every_phase(general_problem):
    pubo, h, coloring, sched = pipeline_parts(general_problem, gate_width=3)
    assert coloring.num_colors == 7
    assert sched.singleton_overhead == 0
    assert sched.coloring_depth == 7
    assert sched.structural_depth == 8
    assert h.singletons == ()
    assert all(len(gate.support) == 3 or gate.support == ("s1_1", "s1_2")
               for layer in sched.layers[:-1] for gate in layer.gates)
    folded = [term for edge in h.edges for term in edge.monomials if len(term[0]) == 1]
    assert len(folded) == 5


def test_matching_without_singletons_has_depth_two():
    h = build(pubo_from_polynomial(Polynomial({("a", "b"): 1, ("c", "d"): 1})))
    sched = schedule(h, color_exact(h))
    assert sched.structural_depth == 2
    assert [layer.kind for layer in sched.layers] == ["cost", "mixer"]


def test_empty_problem_is_mixer_only():
    h = build(pubo_from_polynomial(Polynomial.zero()))
    sched = schedule(h, color_exact(h))
    assert sched.structural_depth == 1
    assert [layer.kind for layer in sched.layers] == ["mixer"]


def test_total_depth_scales_linearly(w6):
    _, h, coloring, _ = pipeline_parts(make_maxcut(w6))
    for p in (1, 3):
        sched = schedule(h, coloring, p=p)
        assert (sched.structural_depth, sched.total_depth) == (6, 6 * p)
    with pytest.raises(InvalidInputError):
        schedule(h, coloring, p=0)


def test_schedule_covers_every_monomial_exactly_once(w6, general_problem):
    for problem, width in ((make_maxcut(w6), 2), (general_problem, 3)):
        pubo, h, coloring, sched = pipeline_parts(problem, gate_width=width)
        covered = sched.covered_polynomial()
        expected = pubo.objective - Polynomial.constant(pubo.objective.constant_term)
        assert covered == expected


def test_cost_gates_are_the_hypergraphs_own_edges(w6, general_problem):
    rng = random.Random(17)
    cases = []
    for _ in range(8):
        g = random_graph(rng, rng.randint(4, 9), 0.5)
        if g.edges:
            h = build(dualize(make_maxcut(g)))
            cases.append((h, schedule(h, color_greedy(h))))
    for problem, width in ((make_maxcut(w6), 2), (general_problem, 3)):
        _, h, _, sched = pipeline_parts(problem, gate_width=width)
        cases.append((h, sched))
        merged = run_pipeline(problem, gate_width=width, method="merge-exact")
        cases.append((merged.hypergraph, merged.schedule))
    for h, sched in cases:
        cost = [
            gate for layer in sched.layers if layer.kind == "cost"
            for gate in layer.gates if len(gate.support) > 1
        ]
        # Each gate is an edge object itself, not a copy, and each edge is used once.
        assert sorted(map(id, cost)) == sorted(map(id, h.edges))


def test_layers_reject_overlapping_gates():
    with pytest.raises(InvalidInputError):
        CircuitLayer(
            kind="cost",
            gates=(
                Hyperedge(("a", "b"), ((("a", "b"), Fraction(1)),)),
                Hyperedge(("b", "c"), ((("b", "c"), Fraction(1)),)),
            ),
        )


def test_a_layer_names_exactly_the_qubits_its_gates_share():
    def gate(*support):
        return Hyperedge(support, ((support, 1),))

    # Gates 0 and 2 overlap on "a", gates 1 and 3 on "c" and "d"; no two neighbours do.
    gates = (gate("a", "b"), gate("c", "d"), gate("a", "e"), gate("c", "d", "f"))
    with pytest.raises(InvalidInputError, match=re.escape("on qubits ['a', 'c', 'd']")):
        CircuitLayer(kind="cost", gates=gates)
    mixers = tuple(Hyperedge((name,), ()) for name in ("x", "y", "z", "y"))
    with pytest.raises(InvalidInputError, match=re.escape("on qubits ['y']")):
        CircuitLayer(kind="mixer", gates=mixers)
    CircuitLayer(kind="mixer", gates=mixers[:3])


def test_schedule_rejects_improper_colorings(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    bogus = EdgeColoring(
        classes=(tuple(range(len(h.edges))),), method="greedy", lower_bound=1
    )
    with pytest.raises(InvalidInputError):
        schedule(h, bogus)


def test_schedule_rejects_bad_iteration_count(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    with pytest.raises(InvalidInputError):
        schedule(h, color_exact(h), p=0)


def _random_classes(rng, h):
    """A seeded proper coloring: edges in random order, each into a random class it fits."""
    order = list(range(len(h.edges)))
    rng.shuffle(order)
    classes, used = [], []
    for index in order:
        support = set(h.edges[index].support)
        fits = [c for c, names in enumerate(used) if not names & support]
        if fits and rng.random() < 0.8:
            color = rng.choice(fits)
        else:
            color = len(classes)
            classes.append([])
            used.append(set())
        classes[color].append(index)
        used[color] |= support
    rng.shuffle(classes)
    return classes


def _assert_support_key_order(h, classes):
    """The reference order: layers by (-len(cls), tuple(sorted(supports))) and gates by
    support, both stable, with the phases after the first layer's gates."""
    ordered = sorted(
        classes, key=lambda cls: (-len(cls), tuple(sorted(h.edges[i].support for i in cls)))
    )
    expected = [sorted((h.edges[i] for i in cls), key=lambda e: e.support) for cls in ordered]
    coloring = EdgeColoring(classes=tuple(map(tuple, classes)), method="greedy", lower_bound=0)
    cost = [layer.gates for layer in schedule(h, coloring).layers if layer.kind == "cost"]
    assert len(cost) == len(expected)
    for gates, want in zip(cost, expected):
        assert list(map(id, gates[:len(want)])) == list(map(id, want))  # the same objects
    phases = tuple(Hyperedge((name,), (((name,), c),)) for name, c in h.singletons)
    assert cost[0][len(expected[0]):] == phases


def test_schedule_orders_layers_and_gates_by_the_support_key():
    rng = random.Random(36)
    names = [f"x{i}" for i in range(1, 9)]
    for case in range(60):
        width = 2 + case % 3
        terms = [((), 1)] + [
            (rng.sample(names, rng.randint(1, width)), rng.randint(-3, 3)) for _ in range(14)
        ]
        pubo = pubo_from_polynomial(Polynomial.from_terms(terms))
        h = absorb_subsets(build(pubo), width)
        if not h.edges:
            continue
        # colorings of build/absorb_subsets output, the package's own and drawn ones
        for classes in (color_greedy(h).classes, *(_random_classes(rng, h) for _ in range(3))):
            _assert_support_key_order(h, classes)
        # merge_exact output: its edges are sorted only within a layer
        merged = merge_exact(h, width, budget=200)
        for classes in (merged.coloring.classes, _random_classes(rng, merged.hypergraph)):
            _assert_support_key_order(merged.hypergraph, classes)

    # Repeated supports: classes of equal size whose first supports tie,
    # decided by a later support or, when every support ties, by class order.
    ties = 0
    for case in range(200):
        pool = [tuple(sorted(rng.sample(names[:6], rng.randint(2, 3)))) for _ in range(4)]
        supports = [rng.choice(pool) for _ in range(rng.randint(4, 9))]
        edges = tuple(
            Hyperedge(support, ((support, index + 1),)) for index, support in enumerate(supports)
        )
        h = DerivedHypergraph(vertices=tuple(names), edges=edges, singletons=(("x8", 5),))
        classes = _random_classes(rng, h)
        firsts = [(len(cls), min(supports[i] for i in cls)) for cls in classes]
        ties += len(firsts) - len(set(firsts))
        _assert_support_key_order(h, classes)
    assert ties >= 50
    pair = ("x1", "x2")
    edges = tuple(Hyperedge(pair, ((pair, c),)) for c in (1, 2, 3))
    h = DerivedHypergraph(vertices=pair, edges=edges, singletons=())
    for classes in itertools.permutations([[0], [1], [2]]):
        _assert_support_key_order(h, list(classes))


def test_fewer_classes_never_deepen_the_circuit():
    rng = random.Random(61)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        if not g.edges:
            continue
        pubo = dualize(make_maxcut(g))
        h = build(pubo)
        exact = schedule(h, color_exact(h))
        greedy = schedule(h, color_greedy(h))
        assert exact.structural_depth <= greedy.structural_depth


# -- family analyzers ---------------------------------------------------------


def test_star_maxcut_reports_vertex_count_figure_that_matches():
    star = InstanceGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    problem = make_maxcut(star)
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    assert report.family_bound.formula == "n"
    assert report.family_bound.value == 5
    # the hub's phase rides in one of its four gates, so the depth is chi' + 1 = n
    assert report.schedule.structural_depth == 5
    assert report.family_bound.matches_structural is True
    assert report.notes == ()


def test_wheel_maxcut_family_figure_matches(w6):
    problem = make_maxcut(w6)
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    assert report.family_bound.details["chromatic_index"] == 5
    assert report.family_bound.matches_structural is True


def test_tsp_figure_quotes_constraint_count():
    g = InstanceGraph(3, ((1, 2), (1, 3), (2, 3)), weights=(1, 1, 1))
    problem = make_tsp(g)
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    n_dualized = sum(1 for d in pubo.dualizations if not d.dropped)
    assert report.family_bound.formula == "n - 1 + 2*N_c"
    assert report.family_bound.value == 3 - 1 + 2 * n_dualized
    assert report.family_bound.details["derived_max_degree"] == h.max_degree()


def test_sat_degree_formula_matches_derived_graph_for_three_literal_clauses():
    problem = make_sat([(1, 2, 3), (3, 4, 5)])
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    degrees = report.family_bound.details["degrees"]
    for name, pair in degrees.items():
        assert pair["formula"] == pair["derived_graph"], name
    assert report.notes == ()


def test_sat_degree_comparison_flags_cancelled_interactions():
    # x2 and x3 share both clauses with opposite literal signs, so their
    # penalty cross terms cancel and the derived graph loses that edge
    problem = make_sat([(1, 2, -3), (2, 3, 4)])
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    degrees = report.family_bound.details["degrees"]
    assert degrees["x2"]["formula"] == 9
    assert degrees["x2"]["derived_graph"] == 8
    assert any("disagrees" in note for note in report.notes)


def test_sat_single_clause_degree_is_five():
    problem = make_sat([(1, 2, -3)])
    pubo, h, coloring, sched = pipeline_parts(problem)
    report = analyze_family(problem, pubo, h, sched)
    degrees = report.family_bound.details["degrees"]
    assert degrees["x1"] == {"formula": 5, "derived_graph": 5}


def test_vertex_cover_formula_is_quoted_not_guessed(w6):
    problem = with_penalty_weight(make_vertex_cover(w6), 2)
    result = run_pipeline(problem)
    report = result.report
    assert report.family_bound.formula == "2*chi(G) + 1"
    assert report.family_bound.value is None
    assert "ambiguous" in report.family_bound.note


def test_knapsack_figures_with_and_without_preprocessing():
    plain = make_knapsack((1, 2, 3), (1, 2, 3), 4)
    result = run_pipeline(plain, gate_width=2)
    fb = result.report.family_bound
    assert fb.formula == "n + ln(capacity)"
    assert fb.details["slack_bits"] == 3
    assert fb.value == 6

    tightened = make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True)
    result2 = run_pipeline(tightened, gate_width=2)
    fb2 = result2.report.family_bound
    assert fb2.formula == "n + ln(max_weight)"
    assert fb2.details["slack_bits"] == 2
    assert fb2.value == 5

    # Every item fits, so the builder keeps no constraint and no two-sided bound.
    with pytest.warns(UserWarning, match="redundant"):
        redundant = make_knapsack((1, 2, 3), (1, 2, 3), 10, preprocess=True)
    fb3 = run_pipeline(redundant).report.family_bound
    assert fb3.formula == "n + ln(capacity)"
    assert (fb3.value, fb3.details["n"], fb3.details["slack_bits"]) == (3, 3, 0)


@pytest.mark.parametrize("capacity, m", [(3, 10), (15, 12), (7, 11), (31, 13)])
def test_knapsack_figure_matches_even_m_and_is_flagged_for_odd_m(capacity, m):
    # Eight items plus the capacity's slack bits are m qubits, and the
    # squared constraint couples every pair: the cost graph is K_m, past the
    # exact-search cutoff.  chi'(K_m) is m - 1 for even m, so the depth with
    # the mixer is m, the figure n + slack bits; odd K_m needs m colors.
    result = run_pipeline(make_knapsack(range(1, 9), range(1, 9), capacity))
    fb = result.report.family_bound
    assert len(result.hypergraph.edges) == m * (m - 1) // 2 > 20
    assert result.coloring.num_colors == result.coloring.lower_bound
    assert fb.value == m
    assert result.schedule.structural_depth == m + m % 2
    assert fb.matches_structural is (m % 2 == 0)


def test_zero_weight_star_edge_gets_the_general_figure():
    # A zero-weight edge has no term and so no gate: the penalty form is no star.
    star = InstanceGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)), weights=(1, 1, 1, 0))
    fb = run_pipeline(make_maxcut(star)).report.family_bound
    assert fb.formula == "chromatic_index + 1"
    assert fb.value == fb.details["chromatic_index"] + 1 == 4
    assert fb.matches_structural is True


def random_family_instance(family: str, rng, trial: int):
    """A seeded instance of ``family`` and the natural input it was built from."""
    if family in ("maxcut", "maxindset", "vertex_cover"):
        n = rng.randint(2, 7)
        if trial % 3 == 0:
            g = InstanceGraph(n, tuple((1, v) for v in range(2, n + 1)))
        else:
            g = random_graph(rng, n, 0.5)
        build_family = {
            "maxcut": make_maxcut, "maxindset": make_maxindset, "vertex_cover": make_vertex_cover,
        }[family]
        return build_family(g), g
    if family.startswith("knapsack"):
        weights = sorted(rng.randint(1, 9) for _ in range(rng.randint(2, 6)))
        values = [rng.randint(1, 9) for _ in weights]
        capacity = rng.randint(1, sum(weights) - 1)
        preprocess = family == "knapsack-preprocess"
        return make_knapsack(values, weights, capacity, preprocess=preprocess), weights
    if family == "tsp":
        n = rng.randint(4, 5)
        edges = tuple(itertools.combinations(range(1, n + 1), 2))
        g = InstanceGraph(n, edges, weights=tuple(rng.randint(1, 9) for _ in edges))
        return make_tsp(g, [rng.sample(range(1, n + 1), 3)]), g
    if trial == 0:
        # x2 and x3 meet in both clauses with opposite signs: their interaction cancels.
        clauses = [(1, 2, -3), (2, 3, 4)]
    else:
        clauses = [
            tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, 7), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
    return make_sat(clauses), clauses


@pytest.mark.parametrize(
    "family",
    ["maxcut", "maxindset", "vertex_cover", "knapsack", "knapsack-preprocess", "tsp", "sat"],
)
def test_every_family_figure_is_read_from_the_structure(family):
    rng = random.Random(f"family-figures:{family}")
    for trial in range(10):
        problem, source = random_family_instance(family, rng, trial)
        result = run_pipeline(replace(problem, family_info={}))
        fb = result.report.family_bound
        if family in ("maxcut", "maxindset"):
            g, chi = source, result.schedule.coloring_depth
            if not g.edges:  # MaxIndSet's phases take a layer; MaxCut has none
                assert (fb.formula, fb.value) == ("phase layer + 1", 1 + (family == "maxindset"))
            elif g.n >= 2 and len(g.edges) == g.n - 1 and g.max_degree() == g.n - 1:
                assert (fb.formula, fb.value) == ("n", g.n)
            else:
                assert (fb.formula, fb.value) == ("chromatic_index + 1", chi + 1)
            assert fb.matches_structural is True
            assert fb.value == result.schedule.structural_depth
        elif family == "vertex_cover":
            assert fb.details["instance_max_degree"] == source.max_degree()
        elif family.startswith("knapsack"):
            argument = "max_weight" if family == "knapsack-preprocess" else "capacity"
            assert (fb.formula, fb.details["n"]) == (f"n + ln({argument})", len(source))
        elif family == "tsp":
            assert fb.details["n_edge_vars"] == len(source.edges)
        else:
            formula = {name: pair["formula"] for name, pair in fb.details["degrees"].items()}
            assert list(formula.items()) == list(sat_formula_degrees_reference(source).items())


def test_untagged_problem_gets_structural_report_only(general_problem):
    pubo, h, coloring, sched = pipeline_parts(general_problem, gate_width=3)
    report = analyze_family(general_problem, pubo, h, sched)
    assert report.family_bound is None
    assert report.schedule.structural_depth == 8
