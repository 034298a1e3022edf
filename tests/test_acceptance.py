"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expectation is exact (no tolerances) except the stated wall-time
ceilings.
"""

import itertools
import random
import time
from dataclasses import replace

from qaoadepth import (
    CircuitLayer,
    InstanceGraph,
    Polynomial,
    absorb_subsets,
    build,
    check_equivalence,
    color_exact,
    color_misra_gries,
    dualize,
    make_knapsack,
    make_maxcut,
    make_maxindset,
    make_sat,
    make_vertex_cover,
    schedule,
    verify_penalty,
    with_penalty_weight,
)
from qaoadepth.io import read_problem

from bruteforce import (
    chromatic_index_bruteforce,
    pubo_from_polynomial,
    random_graph,
    random_hypergraph_supports,
)

W6_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))

GENERAL_GATES = {
    ("s1_1", "s1_2"),
    ("s1_1", "x1", "x2"),
    ("s1_1", "x1", "x3"),
    ("s1_1", "x2", "x3"),
    ("s1_2", "x1", "x2"),
    ("s1_2", "x1", "x3"),
    ("s1_2", "x2", "x3"),
    ("x1", "x2", "x3"),
}


def test_criterion_1_wheel_maxcut_fixture():
    start = time.perf_counter()
    problem = make_maxcut(InstanceGraph(6, W6_EDGES))
    pubo = dualize(problem)
    h = build(pubo)
    assert len(h.vertices) == 6
    assert len(h.edges) == 10
    coloring = color_exact(h)
    assert coloring.num_colors == 5
    sched = schedule(h, coloring)
    assert sched.structural_depth == 6  # five cost layers + mixer; the phases ride in the gates
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: wheel fixture 6v/10e, chi'=5, depth 6 ({elapsed:.3f}s)")


def test_criterion_2_general_fixture_with_reference_divergence(fixture_dir):
    start = time.perf_counter()
    problem = read_problem(str(fixture_dir / "general_example.json"))
    pubo = dualize(problem)
    record = pubo.dualizations[0]
    assert record.slack_range == 3
    assert record.bit_count == 2
    assert record.slack_vars == ("s1_1", "s1_2")
    # slack coefficients are 1 and 2: the pure square carries 1-2*3 = -5 and 4-2*2*3 = -8
    assert record.square.coefficient(("s1_1",)) == -5
    assert record.square.coefficient(("s1_2",)) == -8
    assert record.square.coefficient(("s1_1", "s1_2")) == 4

    h = absorb_subsets(build(pubo), 3)
    assert {e.support for e in h.edges} == GENERAL_GATES
    coloring = color_exact(h)
    assert coloring.num_colors == 7

    diff = record.expansion_diff
    assert diff is not None and diff.has_differences
    assert ("s1_2", "x1", "x3") in {s for s, _ in diff.missing_in_reference}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "\nACCEPTANCE 2 PASS: slack range 3 via bits (1,2), 8 gates, 7 colors, "
        f"dropped cross term flagged ({elapsed:.3f}s)"
    )


def test_criterion_3_star_suite():
    for m in range(3, 10):
        poly = Polynomial.from_terms((("x1", f"x{k}"), 1) for k in range(2, m + 2))
        h = build(pubo_from_polynomial(poly))
        coloring = color_exact(h)
        assert coloring.num_colors == m, m
        sched = schedule(h, coloring)
        assert sched.structural_depth == m + 1, m
    print("\nACCEPTANCE 3 PASS: stars m=3..9 need m classes and depth m+1")


def test_criterion_4_vizing_property_suite():
    rng = random.Random(1202)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.95))
        if not g.edges:
            continue
        h = build(dualize(make_maxcut(g)))
        delta = g.max_degree()
        exact = color_exact(h)
        assert exact.num_colors in (delta, delta + 1), (g.edges, exact.num_colors)
        constructive = color_misra_gries(h)
        assert constructive.num_colors <= delta + 1, g.edges
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} random graphs, chi' always Delta or Delta+1")


def test_criterion_5_dualization_oracle_suite():
    start = time.perf_counter()
    w6 = InstanceGraph(6, W6_EDGES)
    path4 = InstanceGraph(4, ((1, 2), (2, 3), (3, 4)))
    path3 = InstanceGraph(3, ((1, 2), (2, 3)))
    instances = [
        ("maxindset wheel", with_penalty_weight(make_maxindset(w6), 2)),
        ("maxindset path", with_penalty_weight(make_maxindset(path4), 2)),
        ("vertex cover wheel", with_penalty_weight(make_vertex_cover(w6), 7)),  # 6 + 10 slacks = 16 vars
        ("vertex cover path", with_penalty_weight(make_vertex_cover(path3), 4)),
        ("knapsack", make_knapsack((1, 2, 3), (1, 2, 3), 4)),
        ("knapsack preprocessed", make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True)),
        ("knapsack uneven", make_knapsack((5, 1, 4, 3), (2, 2, 3, 4), 6)),
        ("sat", make_sat([(1, 2, -3), (-1, 2, 4)])),
        ("sat with unit clause", make_sat([(1, 2, 3), (-2,)])),
    ]
    for name, problem in instances:
        pubo = dualize(problem)
        total_vars = len(pubo.variables)
        assert total_vars <= 16, (name, total_vars)
        report = verify_penalty(pubo, problem)
        assert report.passed, (name, report.detail)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 PASS: {len(instances)} instances, projected argmin always "
        f"matches the constrained argmin ({elapsed:.2f}s)"
    )


def test_criterion_6_schedule_validity_and_fault_injection(fixture_dir):
    fixtures = []
    w6 = InstanceGraph(6, W6_EDGES)
    for problem, width in [
        (make_maxcut(w6), 2),
        (with_penalty_weight(make_maxindset(w6), 2), 2),
        (read_problem(str(fixture_dir / "general_example.json")), 3),
        (make_knapsack((1, 2, 3), (1, 2, 3), 4), 2),
        (with_penalty_weight(make_vertex_cover(InstanceGraph(3, ((1, 2), (2, 3)))), 4), 2),
        (make_sat([(1, 2, -3)]), 2),
    ]:
        pubo = dualize(problem)
        h = absorb_subsets(build(pubo), width)
        sched = schedule(h, color_exact(h))
        fixtures.append((pubo, sched))
        assert check_equivalence(sched, pubo).equivalent

    # mutant 1: duplicate the first cost layer
    pubo, sched = fixtures[0]
    duplicated = replace(sched, layers=(sched.layers[0],) + sched.layers)
    assert not check_equivalence(duplicated, pubo).equivalent

    # mutant 2: drop one gate from the densest layer
    pubo, sched = fixtures[2]
    layers = list(sched.layers)
    for index, layer in enumerate(layers):
        if layer.kind == "cost" and len(layer.gates) > 1:
            layers[index] = CircuitLayer(kind="cost", gates=layer.gates[1:])
            break
    dropped = replace(sched, layers=tuple(layers))
    assert not check_equivalence(dropped, pubo).equivalent

    print(
        f"\nACCEPTANCE 6 PASS: {len(fixtures)} schedules phase-equivalent; "
        "both injected faults detected"
    )


def test_criterion_7_knapsack_slack_accounting():
    plain = dualize(make_knapsack((1, 2, 3), (1, 2, 3), 4))
    assert plain.dualizations[0].bit_count == 3
    assert plain.slack_names() == ("s1_1", "s1_2", "s1_3")

    tight = dualize(make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True))
    assert tight.dualizations[0].bit_count == 2
    assert tight.slack_names() == ("s1_1", "s1_2")

    for pubo in (plain, tight):
        h = build(pubo)
        expected_pairs = {
            tuple(sorted(pair)) for pair in itertools.combinations(h.vertices, 2)
        }
        assert {e.support for e in h.edges} == expected_pairs
    print(
        "\nACCEPTANCE 7 PASS: 3 slack bits plain vs 2 preprocessed; derived "
        "graphs complete on items plus slack bits"
    )


def test_criterion_8_exact_coloring_vs_partition_enumeration():
    rng = random.Random(88)
    mismatches = 0
    for _ in range(100):
        supports = random_hypergraph_supports(
            rng, rng.randint(3, 7), rng.randint(1, 8), max_width=3
        )
        poly = Polynomial.from_terms((s, 1) for s in supports)
        h = build(pubo_from_polynomial(poly))
        expected = chromatic_index_bruteforce(supports)
        actual = color_exact(h).num_colors
        if actual != expected:
            mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 8 PASS: 100 random hypergraphs, search equals enumeration")
