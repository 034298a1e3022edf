"""The two correctness oracles, including fault injection.

1. Penalty oracle: enumerating every assignment shows the penalty form has
   the same optima as the constrained original.
2. Phase oracle: because all cost gates are diagonal, the sum of the gate
   polynomials is each basis state's phase, and it must equal the objective
   (minus its constant) coefficient by coefficient; a duplicated or dropped
   gate shows up as the first mismatching basis state.
"""

from dataclasses import replace

from qaoadepth import (
    InstanceGraph,
    build,
    check_equivalence,
    color_exact,
    dualize,
    make_maxindset,
    schedule,
    verify_penalty,
    with_penalty_weight,
)

wheel = InstanceGraph(
    6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))
)
problem = with_penalty_weight(make_maxindset(wheel), 2)
pubo = dualize(problem)

report = verify_penalty(pubo, problem)
print(f"penalty oracle on the wheel independent-set problem: {'pass' if report.passed else 'FAIL'}")
print("largest independent sets (x1..x6):")
for bits in report.constrained_argmin:
    members = [f"x{i+1}" for i, b in enumerate(bits) if b]
    print("  {" + ", ".join(members) + "}")
print()

h = build(pubo)
sched = schedule(h, color_exact(h))
covered = sched.covered_polynomial()
target = pubo.objective - pubo.objective.constant_term
print(f"gates cover {covered.num_terms()} monomials; the objective has "
      f"{target.num_terms()} besides its constant {pubo.objective.constant_term}")
print(f"  {'monomial':8s} {'gates':>5s} {'objective':>9s}   (units of gamma)")
for support, coeff in covered.terms():
    print(f"  {'*'.join(support):8s} {str(coeff):>5s} {str(target.coefficient(support)):>9s}")
print()

honest = check_equivalence(sched, pubo)
print(f"honest schedule equivalent to objective: {honest.equivalent}")

mutant = replace(sched, layers=(sched.layers[0],) + sched.layers)
broken = check_equivalence(mutant, pubo)
print(f"duplicated-layer mutant detected: {not broken.equivalent}")
print(f"  first mismatch at {broken.mismatch_assignment}")
print(f"  phase {broken.phase} but objective needs {broken.expected}")
