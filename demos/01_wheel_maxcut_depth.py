"""MaxCut on the six-vertex wheel, end to end.

The wheel (hub x1 joined to the cycle x2..x6) is the canonical small example:
its interaction graph is the wheel itself and five colors suffice for the
ten edge gates.  The hub is busy in every one of those layers, so its
single-qubit phase could never get a layer slot of its own; it rides inside
one of its edge gates instead, as every vertex's phase does, and the depth
per iteration is the chromatic index plus the mixer.
"""

from qaoadepth import (
    InstanceGraph,
    build,
    check_equivalence,
    color_exact,
    dualize,
    make_maxcut,
    schedule,
)
from qaoadepth.io import render_schedule_text

wheel = InstanceGraph(
    n=6,
    edges=((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6)),
)
problem = make_maxcut(wheel)
print("objective:", problem.objective)
print()

pubo = dualize(problem)  # no constraints, so this is a pass-through
h = build(pubo)
print(f"interaction graph: {len(h.vertices)} qubits, {len(h.edges)} two-qubit gates,")
folded = sum(len(term[0]) == 1 for edge in h.edges for term in edge.monomials)
print(f"{folded} single-qubit phases folded into those gates, {len(h.singletons)} left over,")
print(f"max degree {h.max_degree()}")
print()

coloring = color_exact(h)
print(f"exact edge coloring: {coloring.num_colors} classes (lower bound {coloring.lower_bound})")
for c, cls in enumerate(coloring.classes):
    gates = " ".join("{" + ",".join(h.edges[i].support) + "}" for i in cls)
    print(f"  layer {c}: {gates}")
print()

sched = schedule(h, coloring, p=1)
print(render_schedule_text(sched))
print(
    f"depth per iteration: {sched.structural_depth} = "
    f"{sched.coloring_depth} cost layers + 1 mixer"
)
print(f"three iterations would need depth {3 * sched.structural_depth}")

oracle = check_equivalence(sched, pubo)
print(f"\nphase oracle confirms the schedule reproduces the objective: {oracle.equivalent}")
