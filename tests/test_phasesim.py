import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qaoadepth import (
    CircuitLayer,
    Polynomial,
    absorb_subsets,
    build,
    check_equivalence,
    color_exact,
    color_greedy,
    color_misra_gries,
    dualize,
    make_maxcut,
    schedule,
)

from bruteforce import (
    evaluate_terms,
    phase_table,
    phase_table_reference,
    pubo_from_polynomial,
    random_graph,
)


def w6_parts(w6):
    pubo = dualize(make_maxcut(w6))
    h = build(pubo)
    sched = schedule(h, color_exact(h))
    return pubo, sched


def test_w6_phase_table_reproduces_the_objective(w6):
    pubo, sched = w6_parts(w6)
    table = phase_table(sched)
    names = sched.variables
    for z in range(64):
        assignment = {names[i]: (z >> i) & 1 for i in range(6)}
        assert table[z] == evaluate_terms(pubo.objective, assignment)


def test_all_zero_state_accumulates_no_phase(w6):
    _, sched = w6_parts(w6)
    assert sched.covered_polynomial().constant_term == 0
    assert phase_table(sched)[0] == 0


def test_empty_schedule_gives_zero_table():
    pubo = pubo_from_polynomial(Polynomial.constant(5))
    h = build(pubo)
    sched = schedule(h, color_exact(h))
    assert sched.covered_polynomial().is_zero()
    assert phase_table(sched) == [0]
    assert check_equivalence(sched, pubo).equivalent


def test_equivalence_passes_on_honest_schedules(w6, general_problem):
    for problem, width in ((make_maxcut(w6), 2), (general_problem, 3)):
        pubo = dualize(problem)
        h = absorb_subsets(build(pubo), width)
        sched = schedule(h, color_exact(h))
        report = check_equivalence(sched, pubo)
        assert report.equivalent


def test_duplicated_gate_is_detected(w6):
    pubo, sched = w6_parts(w6)
    first_cost = sched.layers[0]
    duplicated = replace(sched, layers=(first_cost,) + sched.layers)
    assert duplicated.coloring_depth == sched.coloring_depth + 1
    report = check_equivalence(duplicated, pubo)
    assert not report.equivalent
    # the reported delta is exactly the duplicated monomials' value there
    extra = Polynomial.from_terms(
        term for gate in first_cost.gates for term in gate.monomials
    )
    assert report.delta == extra.evaluate(report.mismatch_assignment)


def test_dropped_gate_is_detected(general_problem):
    pubo = dualize(general_problem)
    h = absorb_subsets(build(pubo), 3)
    sched = schedule(h, color_exact(h))
    # drop the slack-pair gate wherever it lives
    pruned_layers = []
    for layer in sched.layers:
        gates = tuple(g for g in layer.gates if g.support != ("s1_1", "s1_2"))
        pruned_layers.append(CircuitLayer(kind=layer.kind, gates=gates))
    pruned = replace(sched, layers=tuple(pruned_layers))
    report = check_equivalence(pruned, pubo)
    assert not report.equivalent


def test_phase_table_is_layer_order_invariant(w6):
    pubo, sched = w6_parts(w6)
    cost = [layer for layer in sched.layers if layer.kind != "mixer"]
    mixer = [layer for layer in sched.layers if layer.kind == "mixer"]
    for permutation in itertools.islice(itertools.permutations(cost), 6):
        shuffled = replace(sched, layers=tuple(permutation) + tuple(mixer))
        assert shuffled.covered_polynomial() == sched.covered_polynomial()
        assert check_equivalence(shuffled, pubo).equivalent


def test_equivalence_has_no_variable_limit():
    # 30 variables: the table oracle would need 2**30 entries.
    graph = random_graph(random.Random(3), 30, 0.2)
    pubo = dualize(make_maxcut(graph))
    h = build(pubo)
    sched = schedule(h, color_misra_gries(h))
    assert len(sched.variables) == 30
    assert check_equivalence(sched, pubo).equivalent
    # Dropping one gate is reported at the state with just the qubits of its
    # first monomial in bitmask order set: here the phase of x1 folded into it.
    layer = sched.layers[0]
    dropped = layer.gates[0]
    assert dropped.support == ("x1", "x17") and (("x1",), -5) in dropped.monomials
    pruned = replace(
        sched,
        layers=(CircuitLayer(kind=layer.kind, gates=layer.gates[1:]),) + sched.layers[1:],
    )
    report = check_equivalence(pruned, pubo)
    assert not report.equivalent
    assert {name for name, bit in report.mismatch_assignment.items() if bit} == {"x1"}
    assert -report.delta == Polynomial.from_terms(dropped.monomials).evaluate(report.mismatch_assignment)


def test_uncovered_variable_is_rejected(w6):
    pubo, sched = w6_parts(w6)
    narrowed = replace(sched, variables=sched.variables[1:])
    with pytest.raises(ValueError, match="does not cover"):
        phase_table_reference(narrowed, pubo)
    with pytest.raises(ValueError, match="does not cover"):
        check_equivalence(narrowed, pubo)


def _random_pubo(rng, width):
    names = [f"x{i}" for i in range(1, rng.randint(width, 7) + 1)]
    while True:
        terms = [((), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))]
        for _ in range(rng.randint(1, 12)):
            support = rng.sample(names, rng.randint(1, width))
            terms.append((support, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        objective = Polynomial.from_terms(terms)
        if objective.degree() > 0:
            return pubo_from_polynomial(objective)


def _corruptions(rng, sched):
    """One dropped gate, one duplicated cost layer, one perturbed gate coefficient."""
    cost = [i for i, layer in enumerate(sched.layers) if layer.kind != "mixer" and layer.gates]
    index = rng.choice(cost)
    layer = sched.layers[index]
    g = rng.randrange(len(layer.gates))

    def with_layer(gates):
        layers = list(sched.layers)
        layers[index] = CircuitLayer(kind=layer.kind, gates=gates)
        return replace(sched, layers=tuple(layers))

    dropped = with_layer(layer.gates[:g] + layer.gates[g + 1:])
    duplicated = replace(sched, layers=(layer,) + sched.layers)
    gate = layer.gates[g]
    (support, coeff), *rest = gate.monomials
    nudge = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(2, 7))
    perturbed_gate = gate._replace(monomials=((support, coeff + nudge), *rest))
    perturbed = with_layer(layer.gates[:g] + (perturbed_gate,) + layer.gates[g + 1:])
    return dropped, duplicated, perturbed


def test_coefficient_oracle_matches_the_table_reference():
    rng = random.Random(29)
    for case in range(120):
        width = 2 + case % 3
        pubo = _random_pubo(rng, width)
        h = absorb_subsets(build(pubo), width)
        sched = schedule(h, color_greedy(h) if case % 2 else color_exact(h))
        variants = (sched, *_corruptions(rng, sched))
        for honest, variant in zip((True, False, False, False), variants):
            report = check_equivalence(variant, pubo)
            assert report.equivalent is honest
            assert report == phase_table_reference(variant, pubo)
