"""The two exhaustive correctness oracles, including fault injection.

1. Penalty oracle: enumerating every assignment shows the penalty form has
   the same optima as the constrained original.
2. Phase oracle: because all cost gates are diagonal, summing each gate's
   polynomial per basis state must reproduce the objective exactly; a
   duplicated or dropped gate shows up as the first mismatching basis state.
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
    simulate_cost_phases,
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
table = simulate_cost_phases(sched)
print(f"phase table covers {len(table.values)} basis states; sample entries:")
for z in (0, 5, 63):
    print(f"  z={z:2d} phase {table.values[z]} (units of gamma)")
print()

honest = check_equivalence(sched, pubo)
print(f"honest schedule equivalent to objective: {honest.equivalent}")

mutant = replace(sched, layers=(sched.layers[0],) + sched.layers)
broken = check_equivalence(mutant, pubo)
print(f"duplicated-layer mutant detected: {not broken.equivalent}")
print(f"  first mismatch at {broken.mismatch_assignment}")
print(f"  phase {broken.phase} but objective needs {broken.expected}")
