"""Phase folding: every one-variable term rides inside a cost gate on its qubit.

A random PUBO goes through the whole pipeline at a gate width of 2-4 and
with every coloring method.  Each one-variable term must then lie in
exactly one gate, a phase gate of its own only on a qubit no edge acts on;
whenever an edge exists there is no ``singleton`` layer, so the depth per
iteration is the color classes plus the mixer; and the phase oracle passes.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaoadepth import (
    InstanceGraph,
    Polynomial,
    Problem,
    absorb_subsets,
    build,
    check_equivalence,
    dualize,
    make_maxcut,
    make_maxindset,
    run_pipeline,
)

from bruteforce import random_graph

METHODS = ("auto", "exact", "merge-exact", "greedy", "misra-gries")


@st.composite
def pubos(draw):
    """An unconstrained problem, a gate width that fits it, and a coloring method."""
    method = draw(st.sampled_from(METHODS))
    # Misra-Gries colors graphs only, so its problems have pairs at most.
    width = 2 if method == "misra-gries" else draw(st.integers(2, 4))
    names = [f"q{i}" for i in range(draw(st.integers(1, 6)))]
    supports = draw(st.lists(st.sets(st.sampled_from(names), max_size=width), max_size=10))
    coefficients = st.integers(-3, 3).filter(bool)
    objective = Polynomial.from_terms((support, draw(coefficients)) for support in supports)
    return Problem("min", objective, (), tuple(names)), width, method


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pubos())
@example((Problem("min", Polynomial({("a",): 1, ("b",): -2}), (), ("a", "b", "c")), 2, "exact"))
@example((Problem("min", Polynomial({("a", "b"): 1, ("a",): 2, ("c",): 3}), (), ("a", "b", "c")),
          3, "merge-exact"))
def test_every_phase_lies_in_exactly_one_gate(case):
    problem, width, method = case
    result = run_pipeline(problem, gate_width=width, method=method)
    h, sched = result.hypergraph, result.schedule
    phases = {support: coeff for support, coeff in result.pubo.objective.terms() if len(support) == 1}
    holders = {support: 0 for support in phases}
    for layer in sched.layers:
        for gate in layer.gates:
            for support, coeff in gate.monomials:
                assert set(support) <= set(gate.support)
                if len(support) == 1:
                    assert coeff == phases[support]
                    holders[support] += 1
    assert all(count == 1 for count in holders.values())

    touched = {name for edge in h.edges for name in edge.support}
    assert all(name not in touched for name, _ in h.singletons)
    assert {(name,) for name, _ in h.singletons} == {s for s in phases if s[0] not in touched}
    for edge in h.edges:
        assert list(edge.monomials) == sorted(edge.monomials)

    kinds = [layer.kind for layer in sched.layers]
    if h.edges:
        assert "singleton" not in kinds
        assert sched.structural_depth == result.coloring.num_colors + 1
    else:
        assert kinds == ["singleton"] * bool(phases) + ["mixer"]
    assert check_equivalence(sched, result.pubo).equivalent


def test_build_folds_each_phase_into_the_widest_first_sorted_edge_on_its_qubit():
    rng = random.Random(22)
    names = [f"q{i}" for i in range(6)]
    for _ in range(200):
        supports = {
            tuple(sorted(rng.sample(names, rng.randint(1, 4)))) for _ in range(rng.randint(0, 8))
        }
        h = build(dualize(Problem("min", Polynomial({s: 1 for s in supports}), (), tuple(names))))
        for edge in h.edges:
            for support, _ in edge.monomials:
                if len(support) == 1:
                    on_qubit = [e.support for e in h.edges if support[0] in e.support]
                    assert edge.support == min(on_qubit, key=lambda s: (-len(s), s))
        assert sorted(name for name, _ in h.singletons) == sorted(
            s[0] for s in supports if len(s) == 1 and not any(s[0] in e.support for e in h.edges)
        )


def test_absorption_returns_the_folded_maxcut_hypergraph_itself():
    # Folding happens in build, so MaxCut's pairs stay pairs and absorb nothing.
    rng = random.Random(5)
    for _ in range(20):
        h = build(dualize(make_maxcut(random_graph(rng, rng.randint(2, 12), 0.4))))
        assert absorb_subsets(h, 2) is h


def test_edgeless_problem_has_a_singleton_layer_and_the_mixer():
    problem = make_maxindset(InstanceGraph(3, ()))
    result = run_pipeline(problem)
    assert result.hypergraph.edges == ()
    assert [name for name, _ in result.hypergraph.singletons] == ["x1", "x2", "x3"]
    assert [layer.kind for layer in result.schedule.layers] == ["singleton", "mixer"]
    assert result.schedule.structural_depth == 2
    fb = result.report.family_bound
    assert (fb.formula, fb.value, fb.matches_structural) == ("phase layer + 1", 2, True)
    assert check_equivalence(result.schedule, result.pubo).equivalent
    # Without phases, as in an edgeless MaxCut, only the mixer is left.
    cut = run_pipeline(make_maxcut(InstanceGraph(3, ())))
    assert [layer.kind for layer in cut.schedule.layers] == ["mixer"]
    assert cut.report.family_bound.value == 1
